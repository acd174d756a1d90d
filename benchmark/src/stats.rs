//! Statistics helpers: quartiles, tail percentiles, summaries, `VmHWM`.

/// Median and quartiles of a sample, with its size — what every timing
/// in a report carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Linear-interpolated quantile of an ascending-sorted slice, `p` in
/// `[0, 1]` (the "inclusive" method: `p = 0` is the minimum, `p = 1`
/// the maximum).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(values), 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted_copy(values);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

impl Summary {
    /// A count or other value measured once.
    pub fn single(value: f64) -> Self {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// returns `(p, value)` with `p` in percent, chosen from the usual ladder.
/// Below 20 samples only the median is supported.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let v = sorted_copy(values);
    let n = v.len();
    let mut best = 500;
    for permille in [900, 950, 990, 999] {
        if n * (1000 - permille) / 1000 >= 10 {
            best = permille;
        }
    }
    let p = best as f64 / 10.0;
    (p, quantile_sorted(&v, p / 100.0))
}

/// Peak resident set size of this process in MiB, from the `VmHWM` line
/// of `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// SplitMix64: the benchmark's own seed mixer and shuffle source, so
/// inputs derive from `--seed` without reaching into crate internals.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Derives an independent stream seed from the run seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.1).abs() < 1e-12);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: 10 beyond p99, only 1 beyond p99.9.
        assert_eq!(tail_percentile(&v).0, 99.0);
        assert_eq!(tail_percentile(&v[..999]).0, 95.0);
        assert_eq!(tail_percentile(&v[..100]).0, 90.0);
        assert_eq!(tail_percentile(&v[..19]).0, 50.0);
        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big).0, 99.9);
    }

    #[test]
    fn vm_hwm_parses_and_reads() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn seeds_and_shuffles_repeat() {
        assert_eq!(mix_seed(7, 1), mix_seed(7, 1));
        assert_ne!(mix_seed(7, 1), mix_seed(7, 2));
        assert_ne!(mix_seed(7, 1), mix_seed(8, 1));
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix(3).shuffle(&mut a);
        SplitMix(3).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        let mut r = SplitMix(9);
        assert!((0..100).all(|_| (0.0..1.0).contains(&r.next_f32())));
    }
}
