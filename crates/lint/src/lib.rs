//! goggles-lint — a workspace invariant checker.
//!
//! The GOGGLES workspace carries invariants that `rustc` and clippy cannot
//! see because they are *policy*, not language rules: the serving hot path
//! is panic-free (PR 3's salvage machinery assumes it), fits are
//! bit-deterministic given a seed, the metrics fast path uses relaxed
//! atomics only (PR 6), `unsafe` appears only at the three AVX2 dispatch
//! sites of `goggles_tensor::linalg` (each under a `// SAFETY:` comment),
//! the wire protocol's opcode set stays closed across
//! encoder/decoder/dispatch (PR 5), and no manifest may reach for a
//! registry (the offline constraint). Each of those held by convention and
//! review; this crate makes them hold by machine.
//!
//! Design constraints mirror the workspace's: std-only, no `syn`, no
//! registry deps. The analysis is a hand-rolled lexer ([`lexer`]) feeding
//! token-shape rules ([`rules`]) through a path-scoped engine ([`engine`])
//! — deliberately *not* an AST, because every invariant above is expressible
//! over token shapes, and a lexer is auditable in one sitting.
//!
//! Findings print as `file:line: rule: message`. Intentional exceptions are
//! annotated in source:
//!
//! ```text
//! // goggles-lint: allow(panic): mutex poisoning is recovered two lines up
//! // goggles-lint: allow-file(index): register-tiled kernels index by design
//! ```
//!
//! The reason is mandatory, the rule name must be real, and malformed
//! annotations are themselves violations — a typo must not silently disable
//! a rule.

pub mod engine;
pub mod lexer;
pub mod model;
pub mod rules;

pub use engine::{Diagnostic, SourceFile, Workspace};
