//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 for
/// an empty set.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

/// Samples strictly above the `p` percentile: the tail a percentile is
/// read from (the report prints it next to each percentile).
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = pct(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// `x / y`, or 0 when nothing was attempted.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
