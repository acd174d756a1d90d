//! Bandwidth timelines: effective bytes binned over cycle windows.
//!
//! Figures 11/12 report average bandwidth; a timeline shows *when* a
//! design saturates — bursts during block fetch, lulls during drain —
//! which is how one verifies the pipelined-overlap claims rather than
//! trusting an average.

/// A histogram of effective bytes per fixed-width cycle bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    bucket_cycles: u64,
    buckets: Vec<u64>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles == 0`.
    pub fn new(bucket_cycles: u64) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be positive");
        Timeline {
            bucket_cycles,
            buckets: Vec::new(),
        }
    }

    /// Records `bytes` of transfer completing at `cycle`.
    pub fn record(&mut self, cycle: u64, bytes: u64) {
        let idx = (cycle / self.bucket_cycles) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Bytes per bucket, index 0 first.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bandwidth of bucket `i` in GB/s (1 GHz clock).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_gbps(&self, i: usize) -> f64 {
        self.buckets[i] as f64 / self.bucket_cycles as f64
    }

    /// Peak bucket bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.buckets
            .iter()
            .map(|&b| b as f64 / self.bucket_cycles as f64)
            .fold(0.0, f64::max)
    }

    /// Mean bandwidth over the recorded span in GB/s (0.0 when empty).
    pub fn mean_gbps(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let total: u64 = self.buckets.iter().sum();
        total as f64 / (self.buckets.len() as u64 * self.bucket_cycles) as f64
    }

    /// Merges another timeline (same bucket width) into this one.
    ///
    /// # Panics
    ///
    /// Panics on mismatched bucket widths.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.bucket_cycles, other.bucket_cycles,
            "bucket widths must match"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_bucket_math() {
        let mut t = Timeline::new(100);
        t.record(0, 640);
        t.record(99, 640);
        t.record(100, 320);
        assert_eq!(t.buckets(), &[1280, 320]);
        assert!((t.bucket_gbps(0) - 12.8).abs() < 1e-12);
        assert!((t.peak_gbps() - 12.8).abs() < 1e-12);
        assert!((t.mean_gbps() - (1600.0 / 200.0)).abs() < 1e-12);
    }

    #[test]
    fn sparse_cycles_grow_buckets() {
        let mut t = Timeline::new(10);
        t.record(1000, 5);
        assert_eq!(t.buckets().len(), 101);
        assert_eq!(t.buckets()[100], 5);
    }

    #[test]
    fn merge_aligns_buckets() {
        let mut a = Timeline::new(10);
        a.record(5, 10);
        let mut b = Timeline::new(10);
        b.record(25, 20);
        a.merge(&b);
        assert_eq!(a.buckets(), &[10, 0, 20]);
    }

    #[test]
    #[should_panic(expected = "bucket widths")]
    fn merge_width_mismatch_panics() {
        let mut a = Timeline::new(10);
        a.merge(&Timeline::new(20));
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new(50);
        assert_eq!(t.mean_gbps(), 0.0);
        assert_eq!(t.peak_gbps(), 0.0);
        assert_eq!(t.bucket_cycles(), 50);
    }
}
