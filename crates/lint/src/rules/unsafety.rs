//! `unsafe`: no `unsafe` in the workspace unless argued.
//!
//! Every kernel here (GEMM, im2col, EM updates) is written in safe Rust on
//! purpose: the perf wins came from blocking and layout, not from
//! `get_unchecked`. The only `unsafe` is at the three dispatch sites in
//! `goggles_tensor::linalg` that call the `#[target_feature(enable =
//! "avx2")]` builds of the GEMM and colmax kernels after a runtime CPU
//! check. This rule keeps that machine-checked — any `unsafe` keyword must
//! sit under a `// SAFETY:` comment justifying the proof obligation, in
//! addition to the usual `allow(unsafe)` hatch.

use crate::engine::{Diagnostic, SourceFile};

/// How many lines above the `unsafe` keyword a `SAFETY:` comment may end
/// and still be considered attached to it.
const SAFETY_COMMENT_REACH: usize = 3;

/// Flag `unsafe` keywords lacking an adjacent `// SAFETY:` comment.
pub(crate) fn check_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &file.tokens {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let justified = file.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.end_line <= t.line
                && c.end_line + SAFETY_COMMENT_REACH >= t.line
        });
        if justified {
            continue;
        }
        file.report(
            out,
            "unsafe",
            t.line,
            "unsafe needs an argument here; if it is truly required, precede it \
             with a `// SAFETY:` comment discharging the proof obligation"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("crates/tensor/src/linalg.rs".into(), src);
        let mut out = Vec::new();
        check_unsafe(&f, &mut out);
        out
    }

    #[test]
    fn bare_unsafe_is_flagged() {
        assert_eq!(diags("fn f(p: *const u8) { unsafe { p.read() }; }").len(), 1);
    }

    #[test]
    fn safety_comment_discharges() {
        let src = "\
fn f(p: *const u8) {
    // SAFETY: p comes from a live Vec whose length was checked above.
    unsafe { p.read() };
}
";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn distant_safety_comment_does_not_count() {
        let src = "\
// SAFETY: stale justification far away
fn a() {}
fn b() {}
fn c() {}
fn f(p: *const u8) { unsafe { p.read() }; }
";
        assert_eq!(diags(src).len(), 1);
    }

    #[test]
    fn the_word_in_strings_or_comments_is_ignored() {
        let src = "fn f() { let s = \"unsafe\"; } // unsafe mentioned in prose";
        assert!(diags(src).is_empty());
    }
}
