//! Host facts printed next to every result, and the process's peak memory.

use std::time::Instant;

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size (`VmHWM`) of this process in MB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of the last-level cache in bytes, from sysfs (falls back to the
/// `cache size` line of `/proc/cpuinfo`).
pub fn llc_bytes() -> Option<u64> {
    let mut best = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let level: u32 = std::fs::read_to_string(format!("{dir}/level"))
            .ok()
            .and_then(|l| l.trim().parse().ok())
            .unwrap_or(0);
        if let Some(bytes) = parse_size(size.trim()) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b).or_else(|| {
        let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
        let line = info.lines().find(|l| l.starts_with("cache size"))?;
        parse_size(line.split(':').nth(1)?.trim())
    })
}

/// `"32768K"`, `"300 MiB"`, `"1024 KB"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    let n: u64 = digits.parse().ok()?;
    let unit = s[digits.len()..].trim().to_ascii_uppercase();
    let mult = match unit.chars().next() {
        None | Some('B') => 1,
        Some('K') => 1 << 10,
        Some('M') => 1 << 20,
        Some('G') => 1 << 30,
        _ => return None,
    };
    Some(n * mult)
}

/// The host fingerprint lines: core count, compiler, LLC, and the workload's
/// `f` array next to the LLC. `f` far larger than the LLC means a sweep
/// streams from memory; bytes/cell stays a computed figure either way.
pub fn fingerprint(f_bytes: usize) -> Vec<String> {
    let llc = llc_bytes();
    let mb = |b: f64| b / (1u64 << 20) as f64;
    let mut lines = vec![
        format!("host.nproc {}", nproc()),
        format!("host.rustc {}", env!("STEPBENCH_RUSTC")),
    ];
    match llc {
        Some(b) => {
            lines.push(format!("host.llc {:.1} MiB", mb(b as f64)));
            lines.push(format!(
                "host.f_bytes {:.1} MiB ({:.2}x LLC)",
                mb(f_bytes as f64),
                f_bytes as f64 / b as f64
            ));
        }
        None => {
            lines.push("host.llc unknown".to_string());
            lines.push(format!("host.f_bytes {:.1} MiB", mb(f_bytes as f64)));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("32768K"), Some(32 << 20));
        assert_eq!(parse_size("300 MiB"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("big"), None);
    }
}
