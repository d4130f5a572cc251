//! End-to-end and per-layer benchmark of the GOGGLES fit and serve loops.
//!
//! ```text
//! perfbench --workload <label-offline|serve|serve-refit> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records spans
//! around calls into each layer's public API and reports per-layer
//! metrics instead. Details of every run (samples, spans, failures, host)
//! are written to `<out>/<workload>-seed<n>-trace<t>.json`. A run whose
//! outputs fail the correctness gate exits with status 1.

mod check;
mod heap;
mod json;
mod offline;
mod refit;
mod schedule;
mod serve;
mod stats;
mod sys;
mod trace;

use goggles_core::GogglesConfig;
use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// How many times each workload builds its set-up; `setup_s` is the
/// median, and the last set-up is the one measured.
pub(crate) const SETUP_REPEATS: usize = 5;

/// Parsed command line.
pub(crate) struct Args {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: usize,
    pub(crate) trace: bool,
    pub(crate) out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<usize>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        out,
    })
}

/// One reported metric; its unit comes from [`END_TO_END`] or
/// [`PER_LAYER`].
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
}

pub(crate) fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// What a workload hands back to `main`.
pub(crate) struct Outcome {
    pub(crate) metrics: Vec<Metric>,
    pub(crate) check: check::Checker,
    /// Workload-specific detail for the output file (samples, spans…).
    pub(crate) detail: Vec<(&'static str, Json)>,
}

/// Seed of every corpus: the paper-scale experiment's first trial
/// (`Scale::Paper`, trial 0), so accuracy is measured on one fixed corpus
/// and compares across runs. The run's `--seed` drives the traffic.
pub(crate) const CORPUS_SEED: u64 = 0x5EED_0000;

/// The GOGGLES configuration every workload runs: the paper-scale
/// pipeline (default 64×64 backbone, Z = 10 so α = 50, two EM restarts),
/// with the thread fan-out set to the host's cores.
pub(crate) fn goggles_config(threads: usize) -> GogglesConfig {
    let mut config = GogglesConfig { top_z: 10, seed: 0xA11, threads, ..GogglesConfig::default() };
    config.em.restarts = 2;
    config
}

/// The end-to-end metrics every workload reports, with their units, in
/// `BENCHMARK.json` order.
pub(crate) const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("cpu_ms_per_image", "ms"),
    ("accuracy", "fraction"),
    ("images_per_s", "img/s"),
    ("ops_ok_frac", "fraction"),
];

/// The per-layer metrics every traced run reports, first the end-to-end
/// latencies that are too noisy on a shared host to gate. A layer that is
/// not on a workload's path reports 0 and is listed under `not_on_path` in
/// the run's output file.
pub(crate) const PER_LAYER: [(&str, &str); 28] = [
    ("e2e.p50_ms", "ms"),
    ("e2e.p90_ms", "ms"),
    ("e2e.refit_cycle_ms", "ms"),
    ("cnn.embed_ms_per_image", "ms"),
    ("cnn.gflops", "GFLOP/s"),
    ("affinity.bank_ms", "ms"),
    ("affinity.matrix_ms", "ms"),
    ("affinity.row_ms", "ms"),
    ("em.fit_ms", "ms"),
    ("em.iterations", "count"),
    ("em.ms_per_iteration", "ms"),
    ("endmodel.ms", "ms"),
    ("trainer.append_ms", "ms"),
    ("trainer.refit_ms", "ms"),
    ("trainer.publish_ms", "ms"),
    ("trainer.published_ratio", "fraction"),
    ("snapshot.batch1_ms", "ms"),
    ("snapshot.batch8_ms_per_image", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.mean_batch", "count"),
    ("wire.overhead_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_rate", "img/s"),
    ("client.p99_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "label-offline" => offline::run(&args),
        "serve" => serve::run(&args),
        "serve-refit" => refit::run(&args),
        other => Err(format!("unknown workload {other:?} (label-offline, serve, serve-refit)")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let check = &outcome.check;
    let mut reported = outcome.metrics;
    reported.push(metric("ops_ok_frac", 1.0 - check.failed as f64 / check.attempted.max(1) as f64));
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut not_on_path = Vec::new();
    for &(name, unit) in expected {
        let value = match reported.iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None if args.trace => {
                not_on_path.push(Json::from(name));
                0.0
            }
            None => {
                eprintln!("perfbench: {} did not report {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        metrics.push((
            name.to_string(),
            Json::obj(vec![("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }
    let correct = check.failed == 0 && check.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(check.attempted as f64)),
        ("failed", Json::from(check.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let mut detail = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds as f64)),
        ("trace", Json::from(args.trace)),
        ("host", sys::host_fingerprint()),
        ("vm_hwm_mb", Json::from(sys::peak_rss_mb())),
        ("result", result.clone()),
        ("not_on_path", Json::Arr(not_on_path)),
        ("failures", Json::Arr(check.notes.iter().map(|n| Json::from(n.as_str())).collect())),
    ];
    detail.extend(outcome.detail);
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&file, Json::obj(detail).render()));
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", file.display());
        return ExitCode::from(1);
    }
    for note in &check.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
