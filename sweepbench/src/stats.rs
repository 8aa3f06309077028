//! Order statistics over sweep samples, and process accounting read from
//! `/proc` (CPU ticks including reaped children, peak RSS, load average).

/// Runs with fewer sweeps than this report no tail percentile.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// A reported tail percentile must have at least this many samples
/// ranked above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel fixes at 100 per second for user space on every architecture
/// this benchmark builds for.
const TICKS_PER_S: f64 = 100.0;

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile of a sample set, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `95.0`).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The highest percentile that still has at least [`TAIL_MIN_BEYOND`]
/// samples ranked above it (nearest-rank definition), or `None` below
/// [`TAIL_MIN_SAMPLES`] samples.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_PERCENTILES.iter().find_map(|&percentile| {
        let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile,
            value: v[rank - 1],
            n,
        })
    })
}

/// CPU time of this process and of its reaped children, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// User time of this process (all threads).
    pub utime: u64,
    /// System time of this process.
    pub stime: u64,
    /// User time of waited-for children.
    pub cutime: u64,
    /// System time of waited-for children.
    pub cstime: u64,
}

impl CpuTicks {
    /// Parses the text of `/proc/<pid>/stat`. The command name (field 2)
    /// may itself contain spaces and parentheses, so fields are counted
    /// from the last `)`.
    #[must_use]
    pub fn parse(stat: &str) -> Option<CpuTicks> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `fields[0]` is field 3 (state); utime is field 14.
        let field = |n: usize| -> Option<u64> {
            let v: i64 = fields.get(n - 3)?.parse().ok()?;
            u64::try_from(v).ok()
        };
        Some(CpuTicks {
            utime: field(14)?,
            stime: field(15)?,
            cutime: field(16)?,
            cstime: field(17)?,
        })
    }

    /// Reads this process's counters.
    ///
    /// # Panics
    ///
    /// Panics when `/proc/self/stat` is unreadable: the benchmark runs on
    /// Linux only.
    #[must_use]
    pub fn read() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        CpuTicks::parse(&text).expect("parse /proc/self/stat")
    }

    /// Counters accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            cutime: self.cutime.saturating_sub(earlier.cutime),
            cstime: self.cstime.saturating_sub(earlier.cstime),
        }
    }

    /// This process's CPU seconds.
    #[must_use]
    pub fn own_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// Reaped children's CPU seconds.
    #[must_use]
    pub fn children_s(&self) -> f64 {
        (self.cutime + self.cstime) as f64 / TICKS_PER_S
    }

    /// Own plus children's CPU seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.own_s() + self.children_s()
    }
}

impl std::ops::AddAssign for CpuTicks {
    fn add_assign(&mut self, rhs: CpuTicks) {
        self.utime += rhs.utime;
        self.stime += rhs.stime;
        self.cutime += rhs.cutime;
        self.cstime += rhs.cstime;
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or lacks `VmHWM`.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&text).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` prints them.
#[must_use]
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 20 samples: only the median leaves 10 above it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v).expect("20 samples report a tail");
        assert_eq!((t.percentile, t.value, t.n), (50.0, 10.0, 20));

        // 40 samples: p75 is rank 30, with 10 beyond; p90 would leave 4.
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.percentile, t.value), (75.0, 30.0));

        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.percentile, t.value, t.n), (99.0, 990.0, 1000));
        assert!(v.iter().filter(|&&x| x > t.value).count() >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn proc_stat_parsing_counts_fields_after_the_command() {
        // The command name holds spaces and a `)`; utime..cstime are
        // fields 14..17.
        let line = "4242 (sweep bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 52 1200 34 20 0 3 0 123456 987654 321 18446744073709551615";
        let t = CpuTicks::parse(line).expect("parses");
        assert_eq!(
            t,
            CpuTicks {
                utime: 731,
                stime: 52,
                cutime: 1200,
                cstime: 34
            }
        );
        assert!((t.own_s() - 7.83).abs() < 1e-9);
        assert!((t.children_s() - 12.34).abs() < 1e-9);
        assert_eq!(CpuTicks::parse("12 (truncated) S 1 2"), None);
    }

    #[test]
    fn own_counters_are_readable() {
        let a = CpuTicks::read();
        assert_eq!(a.since(&a), CpuTicks::default());
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  2000 kB\nVmHWM:\t  1536 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1536));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
