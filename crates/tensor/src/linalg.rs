//! Linear algebra needed by the GOGGLES inference stack:
//!
//! * the fused matmul + column-max kernel behind every affinity function
//!   (Equation 2 reduces `f_L^z` to a patch×prototype product followed by a
//!   max over patches — [`colmax_matmul_f32`] is the serving hot path),
//! * cyclic Jacobi symmetric eigendecomposition (exact, for moderate sizes),
//! * Cholesky factorization + triangular solves + log-determinant
//!   (full-covariance GMM baseline),
//! * PCA (Snuba's primitive extraction projects VGG logits onto the top-10
//!   principal components, §5.1.2),
//! * orthogonal-iteration truncated eigenbasis (spectral co-clustering
//!   baseline needs leading singular vectors of a large rectangular matrix).

// goggles-lint: allow-file(index): register-tiled kernels index with loop bounds derived from
// the same dimensions that size the buffers; rewriting every access through `get` would obscure
// the tiling structure and defeat bounds-check elision in the hot loops.

use crate::matrix::Matrix;
use crate::rng;
use crate::{Result, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of GEMM invocations (both [`gemm_f32`] and
/// [`gemm_bias_relu_f32`] funnel through the same implementation). Two
/// relaxed adds per call — noise next to the `2·m·k·n` flops of any real
/// product — but enough for the observability layer to attribute embedding
/// throughput to the kernel.
static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);

/// Process-wide multiply-add flop count (`2·m·k·n` per GEMM call).
static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Number of GEMM calls since process start.
pub fn gemm_call_count() -> u64 {
    GEMM_CALLS.load(Ordering::Relaxed)
}

/// Total `2·m·k·n` flops pushed through the GEMM kernel since process start.
pub fn gemm_flop_count() -> u64 {
    GEMM_FLOPS.load(Ordering::Relaxed)
}

/// Prototype rows held as running maxima per register tile of
/// [`colmax_matmul_f32`].
const COLMAX_TILE: usize = 8;

/// Independent accumulator lanes of the unrolled dot product inside
/// [`colmax_matmul_f32`]. Eight f32 lanes are two SSE registers in the
/// portable build and one AVX register in the AVX2 build (see
/// `has_avx2`); the per-lane sums are combined in a fixed tree, so both
/// builds give the same bits.
const DOT_LANES: usize = 8;

/// Whether this CPU runs the AVX2 builds of the kernels.
///
/// Each hot kernel body (`gemm_body`, `colmax_body`, `colmax_panel_body`)
/// is `#[inline(always)]` and compiled twice: inline in its public entry
/// point for the baseline target, and inside a `#[target_feature(enable =
/// "avx2")]` wrapper. The entry point picks the wrapper when this returns
/// true. Both builds are the same Rust loops, so every output keeps its
/// exact order of operations; Rust never contracts `a * b + c` into an FMA,
/// so the two builds are bit-identical. The detection result is cached by
/// the standard library, so a call is one relaxed load.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Multi-lane dot product: `DOT_LANES` independent partial sums over the
/// bulk (which the compiler vectorizes — no float reassociation is needed
/// beyond the explicit lane split), a scalar tail, and a fixed reduction
/// tree. Both inputs must have equal length.
#[inline(always)]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let bulk = x.len() - x.len() % DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    for (xc, yc) in x[..bulk].chunks_exact(DOT_LANES).zip(y[..bulk].chunks_exact(DOT_LANES)) {
        for l in 0..DOT_LANES {
            acc[l] += xc[l] * yc[l];
        }
    }
    let mut tail = 0.0f32;
    for (&xv, &yv) in x[bulk..].iter().zip(&y[bulk..]) {
        tail += xv * yv;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Reusable workspace of [`colmax_matmul_scratch_f32`]: the transposed
/// patch panel and the per-patch accumulator column. Keep one per thread
/// and it grows once to the largest layer geometry, after which the kernel
/// never allocates.
#[derive(Debug, Default, Clone)]
pub struct ColmaxScratch {
    /// `cols × m` transposed copy of the `a` panel (patch axis contiguous).
    a_t: Vec<f32>,
    /// One running dot product per patch row.
    acc: Vec<f32>,
}

/// Fused `A·Bᵀ` + column max over the rows of `A`:
/// `out[j] = max_i Σ_c a[i·cols + c] · b[j·cols + c]`, with `a` an `m×cols`
/// row-major panel (a patch table) and `b` a `(out.len())×cols` row-major
/// table (stacked prototypes). When `m == 0` every output is
/// `f32::NEG_INFINITY` (the max of an empty set).
///
/// This is the affinity hot path (Equation 2 of the paper vectorized over
/// all prototypes at once). Two blocked code paths, picked by panel shape:
///
/// * **Tall panels** (`m ≥ 2·cols`, the shallow backbone layers: thousands
///   of patches, few channels): the panel is transposed once into
///   `scratch.a_t` so the kernel vectorizes along the *patch* axis — for
///   each prototype row, every channel weight is broadcast against a
///   contiguous patch column, accumulating all `m` dot products at once
///   (`c` ascending, so each per-patch sum has exactly the naive order and
///   the result is bit-identical to the scalar reference). The final max
///   over patches runs on `DOT_LANES` lanes.
/// * **Wide panels** (the deep layers: few patches, hundreds of channels):
///   `b`'s rows are register-tiled — `COLMAX_TILE` running maxima in a
///   stack array — while the patch panel streams through the tile, each
///   dot product running on `DOT_LANES` independent accumulator lanes
///   (see `dot_lanes`).
///
/// Deterministic and shard-stable: `out[j]` depends only on row `j` of `b`
/// and on `a` (never on tile alignment), so computing a sub-range of `b`'s
/// rows into a sub-slice of `out` is bit-identical to slicing the full
/// result.
///
/// # Panics
/// Panics if `cols == 0`, `a.len()` is not a multiple of `cols`, or
/// `b.len() != out.len() * cols`.
pub fn colmax_matmul_scratch_f32(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    assert!(cols > 0, "colmax_matmul_f32: cols must be ≥ 1");
    assert_eq!(
        a.len() % cols,
        0,
        "colmax_matmul_f32: a.len() {} not a multiple of cols {cols}",
        a.len()
    );
    assert_eq!(
        b.len(),
        out.len() * cols,
        "colmax_matmul_f32: b.len() {} != out.len() {} * cols {cols}",
        b.len(),
        out.len()
    );
    out.fill(f32::NEG_INFINITY);
    if a.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `colmax_avx2` enables only AVX2, which `has_avx2` just
        // confirmed this CPU supports.
        unsafe { colmax_avx2(scratch, a, b, cols, out) };
        return;
    }
    colmax_body(scratch, a, b, cols, out);
}

/// Shape dispatch of [`colmax_matmul_scratch_f32`] over a non-empty panel.
#[inline(always)]
fn colmax_body(scratch: &mut ColmaxScratch, a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    let m = a.len() / cols;
    if m >= 2 * cols {
        colmax_tall(scratch, a, m, b, cols, out);
    } else {
        colmax_wide(a, b, cols, out);
    }
}

/// [`colmax_body`] compiled for AVX2 (see `has_avx2`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn colmax_avx2(scratch: &mut ColmaxScratch, a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    colmax_body(scratch, a, b, cols, out);
}

/// [`colmax_matmul_scratch_f32`] with a throwaway scratch — convenient for
/// tests and one-off calls; hot paths should hold a [`ColmaxScratch`].
pub fn colmax_matmul_f32(a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    colmax_matmul_scratch_f32(&mut ColmaxScratch::default(), a, b, cols, out);
}

/// A prototype table transposed once and cached **across requests**: the
/// column-major (`cols × rows`) copy of a row-major `rows × cols` table.
///
/// [`colmax_matmul_scratch_f32`]'s tall path pays a transpose of the *patch
/// panel* on every call even though the other operand — the stacked
/// prototype table of a frozen bank — never changes between requests. A
/// `ColmaxPanel` moves that restructuring to construction time:
/// [`colmax_matmul_panel_f32`] streams each patch row against contiguous
/// prototype columns of the cached transpose, so the per-request hot path
/// neither transposes nor allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct ColmaxPanel {
    /// `cols × rows` transpose: `b_t[c · rows + j] = b[j · cols + c]`.
    b_t: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl ColmaxPanel {
    /// Transpose a row-major `b` (`rows × cols`, with `rows` inferred from
    /// the slice length) into the cached column-major layout.
    ///
    /// # Panics
    /// Panics if `cols == 0` or `b.len()` is not a multiple of `cols`.
    pub fn new(b: &[f32], cols: usize) -> Self {
        assert!(cols > 0, "ColmaxPanel::new: cols must be ≥ 1");
        assert_eq!(b.len() % cols, 0, "ColmaxPanel::new: b.len() not a multiple of cols");
        let rows = b.len() / cols;
        let mut b_t = vec![0.0f32; b.len()];
        for (j, b_row) in b.chunks_exact(cols).enumerate() {
            for (c, &v) in b_row.iter().enumerate() {
                b_t[c * rows + j] = v;
            }
        }
        Self { b_t, rows, cols }
    }

    /// Prototype rows in the cached table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Channels per prototype row.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// [`colmax_matmul_scratch_f32`] over a prototype table whose transpose is
/// cached in `panel`: `out[j] = max_i Σ_c a[i·cols + c] · b[j·cols + c]`
/// for every row `j` of the table.
///
/// `b` is the same row-major table the panel was built from (the wide path
/// streams it directly; the tall path reads only the cached transpose).
/// Path selection (`m ≥ 2·cols`) and per-dot accumulation order match
/// [`colmax_matmul_scratch_f32`] exactly, and the max over patches is
/// order-exact — the output is **bit-identical** to the uncached kernel.
///
/// # Panics
/// Panics if `b` disagrees with the panel geometry or
/// `out.len() != panel.rows()`.
pub fn colmax_matmul_panel_f32(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    b: &[f32],
    panel: &ColmaxPanel,
    out: &mut [f32],
) {
    let cols = panel.cols;
    assert_eq!(
        b.len(),
        panel.rows * cols,
        "colmax_matmul_panel_f32: b.len() {} != panel {}×{cols}",
        b.len(),
        panel.rows
    );
    assert_eq!(
        a.len() % cols,
        0,
        "colmax_matmul_panel_f32: a.len() {} not a multiple of cols {cols}",
        a.len()
    );
    assert_eq!(
        out.len(),
        panel.rows,
        "colmax_matmul_panel_f32: out.len() {} != the {}-row panel",
        out.len(),
        panel.rows
    );
    out.fill(f32::NEG_INFINITY);
    if a.is_empty() || out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `colmax_panel_avx2` enables only AVX2, which `has_avx2`
        // just confirmed this CPU supports.
        unsafe { colmax_panel_avx2(scratch, a, b, panel, out) };
        return;
    }
    colmax_panel_body(scratch, a, b, panel, out);
}

/// Shape dispatch of [`colmax_matmul_panel_f32`] over a non-empty panel.
#[inline(always)]
fn colmax_panel_body(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    b: &[f32],
    panel: &ColmaxPanel,
    out: &mut [f32],
) {
    let cols = panel.cols;
    let m = a.len() / cols;
    if m >= 2 * cols {
        colmax_panel_tall(scratch, a, panel, out);
    } else {
        colmax_wide(a, b, cols, out);
    }
}

/// [`colmax_panel_body`] compiled for AVX2 (see `has_avx2`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn colmax_panel_avx2(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    b: &[f32],
    panel: &ColmaxPanel,
    out: &mut [f32],
) {
    colmax_panel_body(scratch, a, b, panel, out);
}

/// Tall-panel path over a cached transpose: patches stream in the outer
/// loop, and every patch's dot products against the whole table accumulate
/// along contiguous prototype columns of `panel.b_t` (channel `c`
/// ascending, so each per-pair sum has exactly the order of
/// [`colmax_tall`] and the naive reference). The running max over patches
/// is order-independent, so the result is bit-identical to the uncached
/// tall path — with no per-request transpose and no per-request
/// allocation once `scratch` has grown.
#[inline(always)]
fn colmax_panel_tall(scratch: &mut ColmaxScratch, a: &[f32], panel: &ColmaxPanel, out: &mut [f32]) {
    let cols = panel.cols;
    let nz = out.len();
    if scratch.acc.len() < nz {
        scratch.acc.resize(nz, 0.0);
    }
    let acc = &mut scratch.acc[..nz];
    for a_row in a.chunks_exact(cols) {
        let w0 = a_row[0];
        for (av, &x) in acc.iter_mut().zip(&panel.b_t[..nz]) {
            *av = w0 * x;
        }
        for (c, &w) in a_row.iter().enumerate().skip(1) {
            for (av, &x) in acc.iter_mut().zip(&panel.b_t[c * nz..(c + 1) * nz]) {
                *av += w * x;
            }
        }
        for (o, &d) in out.iter_mut().zip(acc.iter()) {
            if d > *o {
                *o = d;
            }
        }
    }
}

/// Tall-panel path: transpose `a` once, then accumulate all `m` dot
/// products per prototype row along contiguous patch columns.
#[inline(always)]
fn colmax_tall(
    scratch: &mut ColmaxScratch,
    a: &[f32],
    m: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    if scratch.a_t.len() < a.len() {
        scratch.a_t.resize(a.len(), 0.0);
    }
    if scratch.acc.len() < m {
        scratch.acc.resize(m, 0.0);
    }
    let a_t = &mut scratch.a_t[..a.len()];
    for (p, a_row) in a.chunks_exact(cols).enumerate() {
        for (c, &v) in a_row.iter().enumerate() {
            a_t[c * m + p] = v;
        }
    }
    let acc = &mut scratch.acc[..m];
    for (o, b_row) in out.iter_mut().zip(b.chunks_exact(cols)) {
        let w0 = b_row[0];
        for (av, &x) in acc.iter_mut().zip(&a_t[..m]) {
            *av = w0 * x;
        }
        for (c, &w) in b_row.iter().enumerate().skip(1) {
            for (av, &x) in acc.iter_mut().zip(&a_t[c * m..(c + 1) * m]) {
                *av += w * x;
            }
        }
        *o = max_lanes(acc);
    }
}

/// Wide-panel path: register-tile `b`'s rows, stream the patch panel.
#[inline(always)]
fn colmax_wide(a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    for (tile, out_tile) in out.chunks_mut(COLMAX_TILE).enumerate() {
        let b_tile = &b[tile * COLMAX_TILE * cols..][..out_tile.len() * cols];
        let mut best = [f32::NEG_INFINITY; COLMAX_TILE];
        for a_row in a.chunks_exact(cols) {
            for (bv, b_row) in best.iter_mut().zip(b_tile.chunks_exact(cols)) {
                let d = dot_lanes(a_row, b_row);
                if d > *bv {
                    *bv = d;
                }
            }
        }
        out_tile.copy_from_slice(&best[..out_tile.len()]);
    }
}

/// Maximum of a slice on [`DOT_LANES`] running-max lanes (vectorizable;
/// `max` is order-independent, so this is exact). The slice must be
/// non-empty.
#[inline(always)]
fn max_lanes(xs: &[f32]) -> f32 {
    debug_assert!(!xs.is_empty());
    let bulk = xs.len() - xs.len() % DOT_LANES;
    let mut mx = [f32::NEG_INFINITY; DOT_LANES];
    for ch in xs[..bulk].chunks_exact(DOT_LANES) {
        for l in 0..DOT_LANES {
            if ch[l] > mx[l] {
                mx[l] = ch[l];
            }
        }
    }
    let mut best = f32::NEG_INFINITY;
    for l in 0..DOT_LANES {
        if mx[l] > best {
            best = mx[l];
        }
    }
    for &v in &xs[bulk..] {
        if v > best {
            best = v;
        }
    }
    best
}

/// Output rows per register tile of [`gemm_f32`] (the `MR` of a classic
/// BLIS-style micro-kernel).
const GEMM_MR: usize = 4;

/// Output columns per register tile of [`gemm_f32`]. The `GEMM_MR ×
/// GEMM_NB` tile is 32 f32 accumulators: eight of the 16 SSE registers in
/// the portable build, four of the 16 AVX registers in the AVX2 build (see
/// `has_avx2`), leaving room for the broadcast and `b` operands either way.
const GEMM_NB: usize = 8;

/// Reusable workspace of [`gemm_f32`]: the `a` panel and one column panel
/// of `b`, each re-packed so the micro-kernel reads its operands
/// contiguously. Keep one per thread; it grows once to the largest layer
/// geometry, after which the kernel never allocates.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    /// `ceil(m / GEMM_MR) · GEMM_MR × k` packed copy of `a`, tile-major:
    /// block `i` holds rows `[i·MR, (i+1)·MR)` interleaved as `[kk][mr]`
    /// (tail rows zero-filled).
    a_pack: Vec<f32>,
    /// `k × GEMM_NB` copy of the current `GEMM_NB`-column panel of `b`, one
    /// contiguous row per `kk` (columns past `n` zero-filled).
    b_pack: Vec<f32>,
}

/// Blocked row-major single-precision GEMM: `out = a · b` with
/// `a: m×k`, `b: k×n`, `out: m×n`, all row-major.
///
/// This is the embedding-side sibling of [`colmax_matmul_f32`]: a 3×3
/// convolution lowered through [`im2col_3x3`] is exactly this product with
/// `a` the `[out_c][in_c·9]` weight table and `b` the patch panel, so one
/// kernel serves every layer of the backbone. Design:
///
/// * **Panel packing** — `a` is re-packed once per call into
///   [`GemmScratch`] so the micro-kernel's `GEMM_MR` row operands sit
///   contiguously (`[kk][mr]` order), turning the strided weight reads
///   into sequential loads.
/// * **Column panels** — each `GEMM_NB`-column panel of `b` is copied once
///   into [`GemmScratch`] as `k` contiguous rows, zero-padded past `n`, so
///   every tile (the last, partial one included) runs the same full-width
///   micro-kernel over sequential loads.
/// * **Register tiling** — the micro-kernel (`gemm_tile`) returns one
///   `GEMM_MR × GEMM_NB` output tile by value; its `k` loop works on
///   fixed-size operands with no bounds checks, so the 32 accumulators
///   stay in registers. Each accumulator sums its `k` terms in
///   ascending-`kk` order, so the result is bit-deterministic (same inputs
///   ⇒ same bits, any call pattern, portable or AVX2 build).
///
/// For the fused bias + ReLU epilogue the convolution path wants, see
/// [`gemm_bias_relu_f32`]; both share this implementation.
///
/// # Panics
/// Panics if `a.len() != m·k`, `b.len() != k·n`, or `out.len() != m·n`.
// goggles-lint: allow(dead-pub): the plain GEMM entry point, API-symmetric with gemm_bias_relu_f32; exercised by unit tests and benches history
pub fn gemm_f32(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    gemm_impl(scratch, a, b, m, k, n, None, false, out);
}

/// [`gemm_f32`] with a fused epilogue: `out = relu?(a·b + bias)`, where
/// `bias` (length `m`) is broadcast along each output row and `relu`
/// clamps negatives to zero in the same pass. This is the whole per-layer
/// arithmetic of a padded 3×3 convolution once [`im2col_3x3`] has built
/// the patch panel — no second sweep over the output.
///
/// # Panics
/// As [`gemm_f32`], plus `bias.len() != m`.
// A GEMM-with-epilogue signature is inherently wide: three panels, three
// dimensions, and the epilogue operands.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_relu_f32(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(bias.len(), m, "gemm_bias_relu_f32: bias.len() != m");
    gemm_impl(scratch, a, b, m, k, n, Some(bias), relu, out);
}

#[allow(clippy::too_many_arguments)]
fn gemm_impl(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_f32: a.len() != m*k");
    assert_eq!(b.len(), k * n, "gemm_f32: b.len() != k*n");
    assert_eq!(out.len(), m * n, "gemm_f32: out.len() != m*n");
    if m == 0 || n == 0 {
        return;
    }
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    GEMM_FLOPS.fetch_add(2 * (m as u64) * (k as u64) * (n as u64), Ordering::Relaxed);
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `gemm_avx2` enables only AVX2, which `has_avx2` just
        // confirmed this CPU supports.
        unsafe { gemm_avx2(scratch, a, b, m, k, n, bias, relu, out) };
        return;
    }
    gemm_body(scratch, a, b, m, k, n, bias, relu, out);
}

/// [`gemm_body`] compiled for AVX2 (see `has_avx2`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    gemm_body(scratch, a, b, m, k, n, bias, relu, out);
}

/// The blocked product behind [`gemm_impl`], for validated, non-empty
/// shapes: pack `a`, then for each column panel of `b` pack the panel and
/// run the micro-kernel over every row block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_body(
    scratch: &mut GemmScratch,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
    out: &mut [f32],
) {
    let m_blocks = m.div_ceil(GEMM_MR);
    let packed = m_blocks * GEMM_MR * k;
    let GemmScratch { a_pack, b_pack } = scratch;
    if a_pack.len() < packed {
        a_pack.resize(packed, 0.0);
    }
    if b_pack.len() < k * GEMM_NB {
        b_pack.resize(k * GEMM_NB, 0.0);
    }
    let a_pack = &mut a_pack[..packed];
    let b_pack = &mut b_pack[..k * GEMM_NB];
    // Pack: block i, layout [kk * GEMM_MR + mr] = a[(i*MR + mr) * k + kk].
    for i in 0..m_blocks {
        let block = &mut a_pack[i * GEMM_MR * k..(i + 1) * GEMM_MR * k];
        for mr in 0..GEMM_MR {
            let row = i * GEMM_MR + mr;
            if row < m {
                for (kk, &v) in a[row * k..(row + 1) * k].iter().enumerate() {
                    block[kk * GEMM_MR + mr] = v;
                }
            } else {
                for kk in 0..k {
                    block[kk * GEMM_MR + mr] = 0.0;
                }
            }
        }
    }
    for j0 in (0..n).step_by(GEMM_NB) {
        let nb = GEMM_NB.min(n - j0);
        // Pack: row kk of the panel = b[kk * n + j0..][..nb], zero-padded.
        for (dst, b_row) in b_pack.chunks_exact_mut(GEMM_NB).zip(b.chunks_exact(n)) {
            dst[..nb].copy_from_slice(&b_row[j0..j0 + nb]);
            dst[nb..].fill(0.0);
        }
        for i in 0..m_blocks {
            let tile = gemm_tile(&a_pack[i * GEMM_MR * k..(i + 1) * GEMM_MR * k], b_pack);
            let rows = GEMM_MR.min(m - i * GEMM_MR);
            for (mr, acc) in tile.iter().enumerate().take(rows) {
                let row = i * GEMM_MR + mr;
                let add = bias.map_or(0.0, |bs| bs[row]);
                let dst = &mut out[row * n + j0..row * n + j0 + nb];
                for (d, &v) in dst.iter_mut().zip(acc) {
                    let y = v + add;
                    *d = if relu && y < 0.0 { 0.0 } else { y };
                }
            }
        }
    }
}

/// The GEMM micro-kernel: one `GEMM_MR × GEMM_NB` output tile,
/// `tile[mr][jj] = Σ_kk a_block[kk·MR + mr] · b_panel[kk·NB + jj]` with
/// `kk` ascending. The `k` loop walks fixed-size operands, so it has no
/// bounds checks, and the tile is returned by value, so no accumulator is
/// stored to memory inside the loop.
#[inline(always)]
fn gemm_tile(a_block: &[f32], b_panel: &[f32]) -> [[f32; GEMM_NB]; GEMM_MR] {
    let mut tile = [[0.0f32; GEMM_NB]; GEMM_MR];
    let (a_cols, _) = a_block.as_chunks::<GEMM_MR>();
    let (b_rows, _) = b_panel.as_chunks::<GEMM_NB>();
    for (a_col, b_row) in a_cols.iter().zip(b_rows) {
        for (acc, &av) in tile.iter_mut().zip(a_col) {
            for (c, &bv) in acc.iter_mut().zip(b_row) {
                *c += av * bv;
            }
        }
    }
    tile
}

/// Lower a `C×H×W` channel-major map into the **same-padded 3×3 patch
/// panel**: a `(C·9) × (H·W)` row-major matrix whose row `ic·9 + ky·3 + kx`
/// holds, for every output position `(y, x)` (column `y·W + x`), the input
/// value at `(ic, y + ky - 1, x + kx - 1)` — or `0` where that falls
/// outside the map. A stride-1 zero-padded 3×3 convolution is then exactly
/// `weights · panel` (see [`gemm_f32`]), with the weight table's
/// `[out_c][in_c][ky][kx]` layout matching the panel's row order.
///
/// The panel is written into the caller-owned `out` buffer (resized to
/// `C·9·H·W`; contents fully overwritten), so per-layer lowering costs no
/// allocation once the buffer has grown to the largest layer. Every row is
/// a shifted copy of a channel plane row, so the lowering is pure
/// `memcpy`-speed traffic — `9·C·H·W` writes against the `2·9·C·H·W·out_c`
/// flops of the product it feeds.
///
/// # Panics
/// Panics if `input.len() != channels·height·width` or any dimension is 0.
pub fn im2col_3x3(input: &[f32], channels: usize, height: usize, width: usize, out: &mut Vec<f32>) {
    assert!(channels > 0 && height > 0 && width > 0, "im2col_3x3: empty input");
    assert_eq!(input.len(), channels * height * width, "im2col_3x3: input shape mismatch");
    let plane = height * width;
    out.resize(channels * 9 * plane, 0.0);
    for ic in 0..channels {
        let src = &input[ic * plane..(ic + 1) * plane];
        for ky in 0..3 {
            for kx in 0..3 {
                let dst = &mut out[(ic * 9 + ky * 3 + kx) * plane..][..plane];
                for y in 0..height {
                    let drow = &mut dst[y * width..(y + 1) * width];
                    // Source row index is y + ky - 1; `sy` is that plus one
                    // so the bounds check stays in unsigned arithmetic.
                    let sy = y + ky;
                    if sy < 1 || sy > height {
                        drow.fill(0.0);
                        continue;
                    }
                    let srow = &src[(sy - 1) * width..sy * width];
                    match kx {
                        0 => {
                            drow[0] = 0.0;
                            drow[1..].copy_from_slice(&srow[..width - 1]);
                        }
                        1 => drow.copy_from_slice(srow),
                        _ => {
                            drow[width - 1] = 0.0;
                            drow[..width - 1].copy_from_slice(&srow[1..]);
                        }
                    }
                }
            }
        }
    }
}

/// Reference scalar implementation of [`colmax_matmul_f32`]: plain
/// sequential dot products, one running maximum per output — the shape of
/// the pre-blocking affinity hot path. Kept (and exported) so property
/// tests can cross-check the blocked kernel and `repro -- affinity` can
/// measure the speedup against the original semantics.
pub fn colmax_matmul_naive_f32(a: &[f32], b: &[f32], cols: usize, out: &mut [f32]) {
    assert!(cols > 0, "colmax_matmul_naive_f32: cols must be ≥ 1");
    assert_eq!(a.len() % cols, 0, "colmax_matmul_naive_f32: a.len() not a multiple of cols");
    assert_eq!(b.len(), out.len() * cols, "colmax_matmul_naive_f32: b/out shape mismatch");
    out.fill(f32::NEG_INFINITY);
    for a_row in a.chunks_exact(cols) {
        for (o, b_row) in out.iter_mut().zip(b.chunks_exact(cols)) {
            let mut dot = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                dot += x * y;
            }
            if dot > *o {
                *o = dot;
            }
        }
    }
}

/// Result of a symmetric eigendecomposition: `a = V diag(λ) Vᵀ` with
/// eigenvalues sorted in **descending** order and eigenvectors as columns of
/// `vectors` (i.e. `vectors.col(k)` pairs with `values[k]`).
#[derive(Debug, Clone)]
// goggles-lint: allow(dead-pub): return type of pub `orthogonal_iteration`: external callers destructure it without naming it
pub struct EighResult {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, aligned with `values`.
    pub vectors: Matrix<f64>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Runs sweeps of Givens rotations until the off-diagonal Frobenius mass
/// drops below `1e-12` times the matrix norm (or 100 sweeps). For the sizes
/// this workspace uses (≤ a few hundred) this is fast and extremely robust.
pub(crate) fn jacobi_eigh(a: &Matrix<f64>) -> Result<EighResult> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if n == 0 {
        return Err(TensorError::Empty("jacobi_eigh on 0x0 matrix".into()));
    }
    let mut m = a.clone();
    let mut v = Matrix::<f64>::identity(n);
    let norm = m.frobenius_norm().max(1e-300);
    let tol = 1e-12 * norm;

    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate rotations into v.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].total_cmp(&m[(i, i)]));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    Ok(EighResult { values, vectors })
}

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = a`.
///
/// Fails with [`TensorError::Numerical`] if `a` is not positive definite
/// (within a small tolerance); callers that fit covariance matrices should
/// add ridge regularization before calling.
pub fn cholesky(a: &Matrix<f64>) -> Result<Matrix<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let mut l = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    // goggles-lint: allow(alloc-hot): numerical-failure return path; the factorization aborts here
                    return Err(TensorError::Numerical(format!(
                        "cholesky: non-positive pivot {sum:.3e} at {i}"
                    )));
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solve `L x = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower_triangular(l: &Matrix<f64>, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// `log det(a)` of a positive-definite matrix via its Cholesky factor.
// goggles-lint: allow(dead-pub): documented numeric API; currently exercised only by this crate's unit tests
pub fn log_det_psd(a: &Matrix<f64>) -> Result<f64> {
    let l = cholesky(a)?;
    Ok(2.0 * (0..a.rows()).map(|i| l[(i, i)].ln()).sum::<f64>())
}

/// Principal component analysis fit on the rows of a data matrix.
///
/// This mirrors what the Snuba comparison in the paper does with the VGG-16
/// logits: project 1000-dimensional features onto the top-k principal
/// components to obtain dense "primitives" (§5.1.2).
#[derive(Debug, Clone)]
pub struct Pca {
    /// Feature means subtracted before projection (length = input dim).
    pub mean: Vec<f64>,
    /// Projection matrix, `input_dim × k` (columns are components).
    pub components: Matrix<f64>,
    /// Eigenvalues (explained variance) of the retained components.
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit a `k`-component PCA on the rows of `data` (`n × d`).
    ///
    /// `k` is clamped to `min(n, d)`. Uses the exact Jacobi decomposition of
    /// the `d × d` covariance, so it is intended for `d` up to ~1000.
    pub fn fit(data: &Matrix<f64>, k: usize) -> Result<Self> {
        let n = data.rows();
        let d = data.cols();
        if n == 0 || d == 0 {
            return Err(TensorError::Empty("Pca::fit on empty data".into()));
        }
        let k = k.min(d).min(n).max(1);
        let mean = data.col_means();
        // covariance = centeredᵀ centered / n
        let mut cov = Matrix::<f64>::zeros(d, d);
        for row in data.rows_iter() {
            for i in 0..d {
                let di = row[i] - mean[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..d {
                    cov[(i, j)] += di * (row[j] - mean[j]);
                }
            }
        }
        let inv_n = 1.0 / n as f64;
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] * inv_n;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let eig = jacobi_eigh(&cov)?;
        let components = eig.vectors.col_block(0, k);
        let explained_variance = eig.values[..k].to_vec();
        Ok(Self { mean, components, explained_variance })
    }

    /// Project the rows of `data` into the component space (`n × k`).
    pub fn transform(&self, data: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(data.cols(), self.mean.len(), "Pca::transform: dim mismatch");
        let k = self.components.cols();
        let mut out = Matrix::zeros(data.rows(), k);
        for (i, row) in data.rows_iter().enumerate() {
            for c in 0..k {
                let mut acc = 0.0;
                for (j, &x) in row.iter().enumerate() {
                    acc += (x - self.mean[j]) * self.components[(j, c)];
                }
                out[(i, c)] = acc;
            }
        }
        out
    }
}

/// Top-`k` eigenpairs of a symmetric PSD matrix by orthogonal (subspace)
/// iteration with QR re-orthogonalization. Suitable when the matrix is big
/// enough that full Jacobi would be wasteful but only a few leading
/// directions are needed (spectral co-clustering).
pub fn orthogonal_iteration(
    a: &Matrix<f64>,
    k: usize,
    iters: usize,
    seed: u64,
) -> Result<EighResult> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if n == 0 || k == 0 {
        return Err(TensorError::Empty("orthogonal_iteration needs n > 0 and k > 0".into()));
    }
    let k = k.min(n);
    let mut rng = rng::std_rng(seed);
    // n × k random start, orthonormalized.
    let mut q = Matrix::from_fn(n, k, |_, _| rng::normal(&mut rng));
    gram_schmidt_columns(&mut q);
    for _ in 0..iters.max(1) {
        let mut z = a.matmul(&q);
        gram_schmidt_columns(&mut z);
        q = z;
    }
    // Rayleigh quotients as eigenvalue estimates.
    let aq = a.matmul(&q);
    let mut values = Vec::with_capacity(k);
    for c in 0..k {
        let mut lambda = 0.0;
        for r in 0..n {
            lambda += q[(r, c)] * aq[(r, c)];
        }
        values.push(lambda);
    }
    // Sort descending by |value| pairing columns.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| values[j].total_cmp(&values[i]));
    let sorted_values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let mut vectors = Matrix::zeros(n, k);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = q[(r, old_c)];
        }
    }
    Ok(EighResult { values: sorted_values, vectors })
}

/// In-place modified Gram–Schmidt on the columns of `q`. Columns that
/// collapse to (numerical) zero are re-randomized deterministically from
/// their index so the basis stays full-rank.
fn gram_schmidt_columns(q: &mut Matrix<f64>) {
    let (n, k) = q.shape();
    for c in 0..k {
        for prev in 0..c {
            let mut dot = 0.0;
            for r in 0..n {
                dot += q[(r, c)] * q[(r, prev)];
            }
            for r in 0..n {
                let sub = dot * q[(r, prev)];
                q[(r, c)] -= sub;
            }
        }
        let mut norm = 0.0;
        for r in 0..n {
            norm += q[(r, c)] * q[(r, c)];
        }
        norm = norm.sqrt();
        if norm <= 1e-12 {
            // Deterministic re-seed keyed by the column index.
            let mut rng = rng::std_rng(0x9E37_79B9 ^ (c as u64));
            for r in 0..n {
                q[(r, c)] = rng::normal(&mut rng);
            }
            let mut n2 = 0.0;
            for r in 0..n {
                n2 += q[(r, c)] * q[(r, c)];
            }
            norm = n2.sqrt();
        }
        let inv = 1.0 / norm;
        for r in 0..n {
            q[(r, c)] *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix<f64> {
        // A known symmetric positive definite matrix.
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]])
    }

    #[test]
    fn gemm_counters_advance_by_call_and_flops() {
        let calls_before = gemm_call_count();
        let flops_before = gemm_flop_count();
        let (m, k, n) = (3, 4, 5);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut out = vec![0.0f32; m * n];
        gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
        // The call counters are process-global and tests run in parallel, so
        // assert monotone growth by at least this call's contribution.
        assert!(gemm_call_count() > calls_before);
        assert!(gemm_flop_count() >= flops_before + 2 * (m * k * n) as u64);
        // Empty products are not counted.
        let calls = gemm_call_count();
        gemm_f32(&mut GemmScratch::default(), &[], &b[..0], 0, 0, 0, &mut []);
        assert!(gemm_call_count() >= calls);
    }

    #[test]
    fn colmax_matmul_small_exact() {
        // 2 patches × 2 dims against 3 prototypes; maxima picked per column.
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 0.0, 0.0, 1.0, 0.5, 0.5];
        let mut out = [0.0f32; 3];
        colmax_matmul_f32(&a, &b, 2, &mut out);
        assert_eq!(out, [1.0, 1.0, 0.5]);
        let mut naive = [0.0f32; 3];
        colmax_matmul_naive_f32(&a, &b, 2, &mut naive);
        assert_eq!(out, naive);
    }

    #[test]
    fn colmax_matmul_empty_panel_is_neg_infinity() {
        let mut out = [0.0f32; 2];
        colmax_matmul_f32(&[], &[1.0, 2.0, 3.0, 4.0], 2, &mut out);
        assert!(out.iter().all(|v| *v == f32::NEG_INFINITY));
    }

    #[test]
    fn colmax_matmul_matches_naive_on_awkward_shapes() {
        // Shapes chosen to exercise tile and lane remainders: cols not a
        // multiple of DOT_LANES, rows not a multiple of COLMAX_TILE.
        let mut rng = rng::std_rng(42);
        for &(m, n, cols) in &[(1usize, 1usize, 1usize), (3, 7, 5), (9, 17, 13), (16, 33, 8)] {
            let a: Vec<f32> = (0..m * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let b: Vec<f32> = (0..n * cols).map(|_| rng::normal(&mut rng) as f32).collect();
            let mut blocked = vec![0.0f32; n];
            let mut naive = vec![0.0f32; n];
            colmax_matmul_f32(&a, &b, cols, &mut blocked);
            colmax_matmul_naive_f32(&a, &b, cols, &mut naive);
            for (x, y) in blocked.iter().zip(&naive) {
                assert!((x - y).abs() < 1e-5, "m={m} n={n} cols={cols}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn colmax_matmul_is_shard_stable() {
        // Computing a sub-range of b's rows must be bit-identical to the
        // matching slice of the full result (no dependence on tile
        // alignment).
        let mut rng = rng::std_rng(7);
        let (m, n, cols) = (5usize, 21usize, 11usize);
        let a: Vec<f32> = (0..m * cols).map(|_| rng::normal(&mut rng) as f32).collect();
        let b: Vec<f32> = (0..n * cols).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut full = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut full);
        for &(lo, hi) in &[(0usize, 4usize), (3, 17), (13, 21), (0, 21)] {
            let mut part = vec![0.0f32; hi - lo];
            colmax_matmul_f32(&a, &b[lo * cols..hi * cols], cols, &mut part);
            assert_eq!(part, full[lo..hi], "shard [{lo}, {hi})");
        }
    }

    /// Plain triple-loop reference for the GEMM tests.
    fn gemm_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn gemm_small_exact() {
        // 2×3 · 3×2 with integer values: exact in f32.
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = [0.0f32; 4];
        gemm_f32(&mut GemmScratch::default(), &a, &b, 2, 3, 2, &mut out);
        assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_matches_reference_on_awkward_shapes() {
        // Shapes exercising the MR and NB tails and k = 0.
        let mut rng = rng::std_rng(99);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 9, 8),
            (5, 27, 13),
            (6, 1, 20),
            (8, 72, 33),
            (2, 0, 5),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng::normal(&mut rng) as f32).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng::normal(&mut rng) as f32).collect();
            let mut out = vec![f32::NAN; m * n];
            gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
            let reference = gemm_reference(&a, &b, m, k, n);
            for (i, (x, y)) in out.iter().zip(&reference).enumerate() {
                assert!((x - y).abs() < 1e-5, "m={m} k={k} n={n} i={i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_scratch_reuse_is_bit_identical() {
        let mut rng = rng::std_rng(5);
        let (m, k, n) = (7usize, 20usize, 19usize);
        let a: Vec<f32> = (0..m * k).map(|_| rng::normal(&mut rng) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut scratch = GemmScratch::default();
        // Grow the scratch on a larger problem first, then reuse.
        let big: Vec<f32> = (0..16 * 40).map(|_| rng::normal(&mut rng) as f32).collect();
        let bigb: Vec<f32> = (0..40 * 24).map(|_| rng::normal(&mut rng) as f32).collect();
        let mut sink = vec![0.0f32; 16 * 24];
        gemm_f32(&mut scratch, &big, &bigb, 16, 40, 24, &mut sink);
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![0.0f32; m * n];
        gemm_f32(&mut scratch, &a, &b, m, k, n, &mut first);
        gemm_f32(&mut scratch, &a, &b, m, k, n, &mut second);
        let fresh = {
            let mut out = vec![0.0f32; m * n];
            gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut out);
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(bits(&first), bits(&fresh));
    }

    #[test]
    fn gemm_bias_relu_epilogue() {
        // 1×2 · 2×3 = [5, 7, 9]; bias -6 then ReLU clamps two entries.
        let a = [1.0f32, 1.0];
        let b = [2.0f32, 3.0, 4.0, 3.0, 4.0, 5.0];
        let mut out = [0.0f32; 3];
        gemm_bias_relu_f32(&mut GemmScratch::default(), &a, &b, 1, 2, 3, &[-6.0], true, &mut out);
        assert_eq!(out, [0.0, 1.0, 3.0]);
        // Without relu the negatives pass through.
        gemm_bias_relu_f32(&mut GemmScratch::default(), &a, &b, 1, 2, 3, &[-6.0], false, &mut out);
        assert_eq!(out, [-1.0, 1.0, 3.0]);
    }

    /// Bit-exactness of the AVX2 kernel builds against the portable builds.
    /// The portable side calls the `#[inline(always)]` bodies from this
    /// (baseline-target) module; the AVX2 side calls the public entry
    /// points, which pick the AVX2 wrappers on a CPU that has it.
    #[cfg(target_arch = "x86_64")]
    mod avx2_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Whether this CPU can run the comparison; says so when it cannot.
        fn avx2_or_skip(test: &str) -> bool {
            let ok = has_avx2();
            if !ok {
                eprintln!("{test}: skipped, this CPU has no AVX2 (portable build only)");
            }
            ok
        }

        fn random_vec(len: usize, seed: u64) -> Vec<f32> {
            let mut rng = rng::std_rng(seed);
            (0..len).map(|_| rng::normal(&mut rng) as f32).collect()
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// `gemm_f32` (no bias) or `gemm_bias_relu_f32` through the public
        /// entry point and through the portable body; panics on any bit
        /// difference.
        fn check_gemm(m: usize, k: usize, n: usize, bias: bool, relu: bool, seed: u64) {
            let a = random_vec(m * k, seed);
            let b = random_vec(k * n, seed ^ 0xB);
            let bias_v = random_vec(m, seed ^ 0xC);
            let bias = bias.then_some(bias_v.as_slice());
            let mut portable = vec![f32::NAN; m * n];
            gemm_body(&mut GemmScratch::default(), &a, &b, m, k, n, bias, relu, &mut portable);
            let mut dispatched = vec![f32::NAN; m * n];
            match bias {
                Some(bs) => gemm_bias_relu_f32(
                    &mut GemmScratch::default(),
                    &a,
                    &b,
                    m,
                    k,
                    n,
                    bs,
                    relu,
                    &mut dispatched,
                ),
                None => {
                    assert!(!relu, "gemm_f32 has no ReLU epilogue");
                    gemm_f32(&mut GemmScratch::default(), &a, &b, m, k, n, &mut dispatched);
                }
            }
            assert_eq!(
                bits(&portable),
                bits(&dispatched),
                "m={m} k={k} n={n} bias={} relu={relu}",
                bias.is_some()
            );
        }

        #[test]
        fn gemm_avx2_matches_portable_on_edge_shapes() {
            if !avx2_or_skip("gemm_avx2_matches_portable_on_edge_shapes") {
                return;
            }
            // m % 4 != 0, n % 8 != 0, k = 1, and exact tiles.
            for &(m, k, n) in
                &[(1, 1, 1), (5, 1, 13), (4, 1, 8), (7, 9, 3), (8, 27, 16), (3, 72, 9)]
            {
                check_gemm(m, k, n, false, false, 1);
                check_gemm(m, k, n, true, false, 2);
                check_gemm(m, k, n, true, true, 3);
            }
        }

        /// Portable colmax over a non-empty panel, as the public entry
        /// point would run it without AVX2.
        fn colmax_portable(a: &[f32], b: &[f32], cols: usize) -> Vec<f32> {
            let mut out = vec![f32::NEG_INFINITY; b.len() / cols];
            colmax_body(&mut ColmaxScratch::default(), a, b, cols, &mut out);
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn gemm_avx2_matches_portable(
                m in 1usize..14,
                k in 1usize..40,
                n in 1usize..30,
                epilogue in 0u8..3,
                seed in 0u64..1_000,
            ) {
                if !avx2_or_skip("gemm_avx2_matches_portable") {
                    return;
                }
                // 0: gemm_f32; 1: bias, no ReLU; 2: bias + ReLU.
                check_gemm(m, k, n, epilogue > 0, epilogue == 2, seed);
            }

            #[test]
            fn colmax_avx2_matches_portable(
                cols in 1usize..24,
                tall in 0u8..2,
                extra in 0usize..40,
                n in 1usize..40,
                seed in 0u64..1_000,
            ) {
                if !avx2_or_skip("colmax_avx2_matches_portable") {
                    return;
                }
                // Tall panels have m ≥ 2·cols patches, wide ones fewer.
                let m = if tall == 1 { 2 * cols + extra } else { 1 + extra % (2 * cols - 1).max(1) };
                let a = random_vec(m * cols, seed);
                let b = random_vec(n * cols, seed ^ 0xB);
                let mut dispatched = vec![0.0f32; n];
                colmax_matmul_f32(&a, &b, cols, &mut dispatched);
                prop_assert_eq!(
                    bits(&colmax_portable(&a, &b, cols)),
                    bits(&dispatched),
                    "m={} cols={} n={}", m, cols, n
                );
            }

            #[test]
            fn colmax_panel_avx2_matches_portable(
                cols in 1usize..24,
                m in 1usize..60,
                n in 1usize..80,
                seed in 0u64..1_000,
            ) {
                if !avx2_or_skip("colmax_panel_avx2_matches_portable") {
                    return;
                }
                // m spans both the tall (m ≥ 2·cols) and wide paths.
                let a = random_vec(m * cols, seed);
                let b = random_vec(n * cols, seed ^ 0xB);
                let panel = ColmaxPanel::new(&b, cols);
                let mut portable = vec![f32::NEG_INFINITY; n];
                colmax_panel_body(&mut ColmaxScratch::default(), &a, &b, &panel, &mut portable);
                let mut dispatched = vec![0.0f32; n];
                colmax_matmul_panel_f32(&mut ColmaxScratch::default(), &a, &b, &panel, &mut dispatched);
                prop_assert_eq!(
                    bits(&portable),
                    bits(&dispatched),
                    "m={} cols={} n={}", m, cols, n
                );
            }
        }
    }

    #[test]
    fn im2col_3x3_center_and_borders() {
        // One 2×2 channel [[1,2],[3,4]]: check the center row (ky=1,kx=1)
        // is the identity and a corner-shift row zero-pads correctly.
        let input = [1.0f32, 2.0, 3.0, 4.0];
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 2, 2, &mut panel);
        assert_eq!(panel.len(), 9 * 4);
        // Row 4 = (ky=1, kx=1): the untouched plane.
        assert_eq!(&panel[4 * 4..5 * 4], &input);
        // Row 0 = (ky=0, kx=0): input shifted down-right, top row and left
        // column zero.
        assert_eq!(&panel[0..4], &[0.0, 0.0, 0.0, 1.0]);
        // Row 8 = (ky=2, kx=2): shifted up-left, bottom row and right
        // column zero.
        assert_eq!(&panel[8 * 4..9 * 4], &[4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn im2col_gemm_equals_direct_conv_sum() {
        // 3×3 all-ones kernel over a delta image via im2col+gemm spreads
        // the delta over its 3×3 neighbourhood (cf. the Conv2d box test).
        let mut input = vec![0.0f32; 25];
        input[2 * 5 + 2] = 1.0;
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 5, 5, &mut panel);
        let weights = [1.0f32; 9];
        let mut out = vec![0.0f32; 25];
        gemm_f32(&mut GemmScratch::default(), &weights, &panel, 1, 9, 25, &mut out);
        for y in 0..5 {
            for x in 0..5 {
                let expect = if (1..=3).contains(&y) && (1..=3).contains(&x) { 1.0 } else { 0.0 };
                assert_eq!(out[y * 5 + x], expect, "at ({y},{x})");
            }
        }
    }

    #[test]
    fn im2col_handles_width_one() {
        let input = [1.0f32, 2.0, 3.0];
        let mut panel = Vec::new();
        im2col_3x3(&input, 1, 3, 1, &mut panel);
        // kx=0 and kx=2 rows are entirely zero-padded at width 1.
        assert_eq!(&panel[3 * 3..4 * 3], &[0.0, 0.0, 0.0]); // ky=1, kx=0
        assert_eq!(&panel[4 * 3..5 * 3], &[1.0, 2.0, 3.0]); // ky=1, kx=1 (identity)
        assert_eq!(&panel[3..2 * 3], &[0.0, 1.0, 2.0]); // ky=0, kx=1 (shift down)
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let a = spd3();
        let eig = jacobi_eigh(&a).unwrap();
        // V diag(λ) Vᵀ == a
        let n = 3;
        let mut recon = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += eig.vectors[(i, k)] * eig.values[k] * eig.vectors[(j, k)];
                }
                recon[(i, j)] = s;
            }
        }
        assert!(a.max_abs_diff(&recon) < 1e-9);
    }

    #[test]
    fn jacobi_eigenvalues_sorted_descending() {
        let eig = jacobi_eigh(&spd3()).unwrap();
        assert!(eig.values.windows(2).all(|w| w[0] >= w[1]));
        // trace preserved
        let trace: f64 = eig.values.iter().sum();
        assert!((trace - 9.0).abs() < 1e-9);
    }

    #[test]
    fn jacobi_diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 2.0]]);
        let eig = jacobi_eigh(&a).unwrap();
        assert!((eig.values[0] - 5.0).abs() < 1e-12);
        assert!((eig.values[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(jacobi_eigh(&a), Err(TensorError::NotSquare { .. })));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose());
        assert!(a.max_abs_diff(&recon) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn solve_lower_triangular_roundtrip() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = solve_lower_triangular(&l, &b);
        let back = l.matvec(&x);
        for (bb, xb) in b.iter().zip(back.iter()) {
            assert!((bb - xb).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_matches_eigenvalue_product() {
        let a = spd3();
        let eig = jacobi_eigh(&a).unwrap();
        let expect: f64 = eig.values.iter().map(|v| v.ln()).sum();
        assert!((log_det_psd(&a).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // Points spread along (1, 1)/√2 with tiny orthogonal noise.
        let mut rows = Vec::new();
        let mut rng = crate::rng::std_rng(1);
        for _ in 0..200 {
            let t = crate::rng::normal(&mut rng) * 5.0;
            let e = crate::rng::normal(&mut rng) * 0.05;
            rows.push(vec![t + e, t - e]);
        }
        let data = Matrix::from_fn(200, 2, |i, j| rows[i][j]);
        let pca = Pca::fit(&data, 1).unwrap();
        let c = pca.components.col(0);
        let dir = (c[0].abs() - c[1].abs()).abs();
        assert!(dir < 0.05, "component not along diagonal: {c:?}");
        assert!(pca.explained_variance[0] > 10.0);
        let z = pca.transform(&data);
        assert_eq!(z.shape(), (200, 1));
    }

    #[test]
    fn pca_transform_centers_data() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let pca = Pca::fit(&data, 2).unwrap();
        let z = pca.transform(&data);
        // projected data must be centered
        let means = z.col_means();
        for m in means {
            assert!(m.abs() < 1e-9);
        }
    }

    #[test]
    fn orthogonal_iteration_matches_jacobi_leading_pair() {
        let a = spd3();
        let full = jacobi_eigh(&a).unwrap();
        let top = orthogonal_iteration(&a, 2, 200, 7).unwrap();
        assert!((top.values[0] - full.values[0]).abs() < 1e-6);
        assert!((top.values[1] - full.values[1]).abs() < 1e-6);
        // eigenvector alignment up to sign
        for k in 0..2 {
            let mut dot = 0.0;
            for r in 0..3 {
                dot += top.vectors[(r, k)] * full.vectors[(r, k)];
            }
            assert!(dot.abs() > 0.999, "k={k} dot={dot}");
        }
    }

    #[test]
    fn orthogonal_iteration_columns_are_orthonormal() {
        let a = spd3();
        let top = orthogonal_iteration(&a, 3, 100, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut dot = 0.0;
                for r in 0..3 {
                    dot += top.vectors[(r, i)] * top.vectors[(r, j)];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8);
            }
        }
    }
}
