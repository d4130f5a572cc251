//! Property tests (vendored proptest shim) of the blocked fused
//! matmul + column-max kernel — the affinity hot path. The blocked kernel
//! must agree with the naive scalar kernel within 1e-5 on random shapes,
//! be bit-deterministic, and be shard-stable (computing any sub-range of
//! prototype rows matches the corresponding slice of the full result);
//! the cached-transpose panel kernel must match the uncached one bit for
//! bit.

use goggles_tensor::rng::{normal, std_rng};
use goggles_tensor::{
    colmax_matmul_f32, colmax_matmul_naive_f32, colmax_matmul_panel_f32, colmax_matmul_scratch_f32,
    ColmaxPanel, ColmaxScratch,
};
use proptest::prelude::*;

/// Deterministic random panel of `rows × cols` f32 values in roughly ±3.
fn random_panel(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut rng = std_rng(seed);
    (0..rows * cols).map(|_| normal(&mut rng) as f32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked kernel ≡ naive scalar kernel within 1e-5 on random shapes.
    #[test]
    fn blocked_matches_naive(
        m in 0usize..24,
        n in 1usize..48,
        cols in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0xB17);
        let mut blocked = vec![0.0f32; n];
        let mut naive = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut blocked);
        colmax_matmul_naive_f32(&a, &b, cols, &mut naive);
        for (j, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            if m == 0 {
                prop_assert!(*x == f32::NEG_INFINITY && *y == f32::NEG_INFINITY);
            } else {
                prop_assert!(
                    (x - y).abs() < 1e-5,
                    "m={m} n={n} cols={cols} j={j}: blocked {x} vs naive {y}"
                );
            }
        }
    }

    /// Same inputs ⇒ bit-identical outputs, and any shard of the prototype
    /// rows is bit-identical to the matching slice of the full result.
    #[test]
    fn blocked_is_deterministic_and_shard_stable(
        m in 1usize..16,
        n in 1usize..40,
        cols in 1usize..32,
        cut in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x5EED);
        let mut first = vec![0.0f32; n];
        let mut second = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut first);
        colmax_matmul_f32(&a, &b, cols, &mut second);
        prop_assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Shard at an arbitrary row boundary: both halves, recomputed
        // independently, must reproduce the full result bit-for-bit.
        let cut = cut % (n + 1);
        let mut lo = vec![0.0f32; cut];
        let mut hi = vec![0.0f32; n - cut];
        colmax_matmul_f32(&a, &b[..cut * cols], cols, &mut lo);
        colmax_matmul_f32(&a, &b[cut * cols..], cols, &mut hi);
        lo.extend_from_slice(&hi);
        prop_assert_eq!(
            lo.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "cut at {}", cut
        );
    }

    /// The cached-transpose panel kernel is bit-identical to the uncached
    /// kernel over the full table — the contract that lets a frozen bank
    /// pre-transpose its prototypes once and serve all subsequent requests
    /// from the cache. `m` ranges across both the tall (`m ≥ 2·cols`) and
    /// wide paths, and `n` across partial and whole register tiles.
    #[test]
    fn panel_kernel_matches_uncached_kernel(
        m in 0usize..40,
        n in 1usize..80,
        cols in 1usize..16,
        n2 in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x9A7E1);
        let panel = ColmaxPanel::new(&b, cols);
        prop_assert_eq!(panel.rows(), n);
        prop_assert_eq!(panel.cols(), cols);
        let mut full = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut full);
        let mut cached = vec![0.0f32; n];
        let mut scratch = ColmaxScratch::default();
        colmax_matmul_panel_f32(&mut scratch, &a, &b, &panel, &mut cached);
        prop_assert_eq!(
            cached.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{} rows, m={} cols={}", n, m, cols
        );
        // Scratch reuse across differently-shaped panels stays bit-stable:
        // a second table of another height through the same warm scratch,
        // then the first table again.
        let b2 = random_panel(n2, cols, seed ^ 0x2B2);
        let panel2 = ColmaxPanel::new(&b2, cols);
        let mut full2 = vec![0.0f32; n2];
        colmax_matmul_f32(&a, &b2, cols, &mut full2);
        let mut cached2 = vec![0.0f32; n2];
        colmax_matmul_panel_f32(&mut scratch, &a, &b2, &panel2, &mut cached2);
        prop_assert_eq!(
            cached2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            full2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let mut again = vec![0.0f32; n];
        colmax_matmul_panel_f32(&mut scratch, &a, &b, &panel, &mut again);
        prop_assert_eq!(
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            full.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The scratch-reusing (panel-less) kernel is bit-identical to the
    /// allocating one — callers that loop over many queries can keep one
    /// `ColmaxScratch` hot without perturbing results.
    #[test]
    fn scratch_kernel_matches_allocating_kernel(
        m in 0usize..32,
        n in 1usize..40,
        cols in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = random_panel(m, cols, seed);
        let b = random_panel(n, cols, seed ^ 0x5C2A7C4);
        let mut plain = vec![0.0f32; n];
        colmax_matmul_f32(&a, &b, cols, &mut plain);
        let mut scratch = ColmaxScratch::default();
        let mut reused = vec![0.0f32; n];
        colmax_matmul_scratch_f32(&mut scratch, &a, &b, cols, &mut reused);
        prop_assert_eq!(
            reused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Second call with the warm scratch: still bit-identical.
        let mut warm = vec![0.0f32; n];
        colmax_matmul_scratch_f32(&mut scratch, &a, &b, cols, &mut warm);
        prop_assert_eq!(
            warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
