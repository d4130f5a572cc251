//! Process and host facts read from `/proc`: CPU time, peak RSS and the
//! host fingerprint recorded with every run.

use crate::json::Json;

/// Clock ticks per second of `/proc/self/stat` (USER_HZ; 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads, live and exited), seconds.
pub(crate) fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`), MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, the CPU model and the SIMD features the kernels can use.
pub(crate) fn host_fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let simd: Vec<Json> = ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f", "neon", "asimd"]
        .iter()
        .filter(|f| flags.split_whitespace().any(|x| x == **f))
        .map(|f| Json::from(*f))
        .collect();
    Json::obj(vec![
        ("nproc", Json::from(nproc() as f64)),
        ("cpu_model", Json::from(field("model name").as_str())),
        ("simd", Json::Arr(simd)),
    ])
}
