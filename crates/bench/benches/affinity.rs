//! Affinity-kernel benchmark: single-row (m = 1) latency and batch build
//! throughput of the blocked fused matmul + column-max path versus the
//! pre-blocking scalar reference.
//!
//! ```text
//! GOGGLES_SCALE=quick|standard|paper cargo bench -p goggles-bench --bench affinity
//! ```
//!
//! Also drops `BENCH_affinity.json` in the results dir (see
//! `goggles::experiments::report::results_dir`).

use goggles::experiments::report::results_dir;
use goggles::experiments::{affinity_bench, Scale};
use goggles_bench::timed;

fn main() {
    let scale = Scale::from_env();
    let params = scale.params();
    println!("scale: {scale:?} → {params:?}\n");
    let report = timed("Affinity kernel", || affinity_bench::run(&params));
    println!("{}", report.to_table().render());
    let path = results_dir().join("BENCH_affinity.json");
    match report.write_json(&path) {
        Ok(()) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[warn: could not write {}: {e}]\n", path.display()),
    }
    // Acceptance guardrails of the blocked kernel: it must agree with the
    // scalar reference within the 1e-5 tolerance everywhere, and a single
    // online request (one row, one thread) must be at least 2× faster than
    // the pre-blocking scalar path.
    assert!(
        report.max_abs_diff < 1e-5,
        "blocked kernel disagrees with the scalar reference: {:.3e}",
        report.max_abs_diff
    );
    assert!(
        report.single_speedup() >= 2.0,
        "single-request speedup {:.2}× below the 2× bar",
        report.single_speedup()
    );
}
