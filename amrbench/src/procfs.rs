//! Process CPU time and peak resident set, read from Linux `/proc`.

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process so far, seconds
/// (10 ms resolution). Includes threads that have already exited.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cpu_time_and_peak_rss() {
        let t0 = cpu_seconds().expect("/proc/self/stat readable");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().expect("readable") >= t0);
        assert!(peak_rss_mb().expect("/proc/self/status readable") > 0.0);
    }
}
