//! Host metadata recorded with every result, and the process's peak RSS.

use tmark_linalg::pool;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `(key, value)` pairs describing the host and the pool.
pub fn metadata() -> Vec<(&'static str, String)> {
    let ram_gb = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or("unknown".to_string(), |kb| {
            format!("{:.1}", kb / 1024.0 / 1024.0)
        });
    vec![
        ("nproc", nproc().to_string()),
        ("pool_cap", pool::thread_cap().to_string()),
        (
            "cpu",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("ram_gb", ram_gb),
    ]
}
