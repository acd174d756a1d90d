//! Deterministic, seed-driven fault injection for the SCM model.
//!
//! Real Optane-class media degrades in three observable ways: whole lines
//! become uncorrectable (the DIMM returns a poison indication), individual
//! channels lose bandwidth as the media wears, and background activities
//! (wear-leveling, thermal throttling) produce latency-spike windows. A
//! [`FaultPlan`] models all three as pure functions of a seed and the
//! access coordinates, so any run with the same plan sees exactly the same
//! faults regardless of thread count or query order.
//!
//! A `MemorySim` without a plan attached behaves bit-identically to one
//! that never had the feature: the plan is consulted only when present,
//! and every fault counter stays zero.

/// Address granularity at which uncorrectable-line errors are drawn.
///
/// Matches the Optane internal access granule ("XPLine"): the unit the
/// media's ECC covers, so the unit that fails.
pub(crate) const FAULT_LINE_BYTES: u64 = 256;

/// A deterministic fault schedule for one memory node.
///
/// All three fault classes are derived from `seed` with splitmix/xorshift
/// hashing — no RNG state, so concurrent simulations and re-runs agree.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// Probability that any given 256 B line is uncorrectable, in `[0, 1]`.
    pub uncorrectable_line_rate: f64,
    /// Per-channel bandwidth multipliers in `(0, 1]`; channel `i` uses
    /// entry `i % len`. Empty means no degradation anywhere.
    pub channel_bw_factor: Vec<f64>,
    /// Period of the latency-spike window in cycles (0 disables spikes).
    pub spike_period_cycles: u64,
    /// Length of the spike window at the start of each period.
    pub spike_len_cycles: u64,
    /// Extra completion latency (cycles at 1 GHz, i.e. nanoseconds) added
    /// to accesses that start inside a spike window.
    pub spike_extra_ns: u64,
}

impl FaultPlan {
    /// A plan that injects nothing — useful as a builder starting point.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            uncorrectable_line_rate: 0.0,
            channel_bw_factor: Vec::new(),
            spike_period_cycles: 0,
            spike_len_cycles: 0,
            spike_extra_ns: 0,
        }
    }

    /// A representative degraded device: one uncorrectable line per ~10^5,
    /// one channel at 70 % bandwidth, and 2 µs latency spikes every 100 µs.
    pub fn degraded(seed: u64) -> Self {
        FaultPlan {
            seed,
            uncorrectable_line_rate: 1e-5,
            channel_bw_factor: vec![1.0, 0.7],
            spike_period_cycles: 100_000,
            spike_len_cycles: 2_000,
            spike_extra_ns: 500,
        }
    }

    /// Sets the uncorrectable-line probability.
    #[must_use]
    pub fn with_uncorrectable_rate(mut self, rate: f64) -> Self {
        self.uncorrectable_line_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-channel bandwidth multipliers.
    #[must_use]
    pub fn with_channel_bw(mut self, factors: Vec<f64>) -> Self {
        self.channel_bw_factor = factors;
        self
    }

    /// Whether the line containing `addr` is uncorrectable under this plan.
    ///
    /// Pure function of `(seed, line index)`: the same line always answers
    /// the same way within a plan.
    pub(crate) fn line_is_uncorrectable(&self, addr: u64) -> bool {
        if self.uncorrectable_line_rate <= 0.0 {
            return false;
        }
        if self.uncorrectable_line_rate >= 1.0 {
            return true;
        }
        let h = mix(self.seed, addr / FAULT_LINE_BYTES);
        // Map the top 53 bits to [0, 1): exact in f64, platform-stable.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.uncorrectable_line_rate
    }

    /// Whether a read of `bytes` starting at `addr` touches any
    /// uncorrectable line.
    pub fn span_is_uncorrectable(&self, addr: u64, bytes: u64) -> bool {
        if self.uncorrectable_line_rate <= 0.0 {
            return false;
        }
        let first = addr / FAULT_LINE_BYTES;
        let last = addr.saturating_add(bytes.saturating_sub(1)) / FAULT_LINE_BYTES;
        (first..=last).any(|line| self.line_is_uncorrectable(line * FAULT_LINE_BYTES))
    }

    /// The bandwidth multiplier for channel `ch` (1.0 when unconfigured).
    pub fn channel_factor(&self, ch: usize) -> f64 {
        if self.channel_bw_factor.is_empty() {
            return 1.0;
        }
        let f = self.channel_bw_factor[ch % self.channel_bw_factor.len()];
        if f > 0.0 && f <= 1.0 {
            f
        } else {
            1.0
        }
    }

    /// Whether an access starting at `cycle` falls inside a spike window.
    pub fn in_spike_window(&self, cycle: u64) -> bool {
        self.spike_period_cycles > 0
            && self.spike_len_cycles > 0
            && cycle % self.spike_period_cycles < self.spike_len_cycles
    }
}

/// splitmix64-style avalanche of `(seed, x)`; every output bit depends on
/// every input bit, so per-line decisions are effectively independent.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::quiet(7);
        for a in [0u64, 255, 256, 1 << 30] {
            assert!(!p.line_is_uncorrectable(a));
            assert!(!p.span_is_uncorrectable(a, 4096));
        }
        assert_eq!(p.channel_factor(3), 1.0);
        assert!(!p.in_spike_window(0));
    }

    #[test]
    fn line_decisions_are_deterministic_and_line_granular() {
        let p = FaultPlan::quiet(42).with_uncorrectable_rate(0.5);
        for line in 0..64u64 {
            let a = line * FAULT_LINE_BYTES;
            let v = p.line_is_uncorrectable(a);
            assert_eq!(v, p.line_is_uncorrectable(a), "repeatable");
            assert_eq!(v, p.line_is_uncorrectable(a + 17), "same line agrees");
        }
        // At rate 0.5 over 256 lines both outcomes must occur.
        let hits = (0..256u64)
            .filter(|l| p.line_is_uncorrectable(l * FAULT_LINE_BYTES))
            .count();
        assert!(hits > 64 && hits < 192, "hits {hits}");
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = FaultPlan::quiet(1).with_uncorrectable_rate(0.5);
        let b = FaultPlan::quiet(2).with_uncorrectable_rate(0.5);
        let differs = (0..256u64).any(|l| {
            a.line_is_uncorrectable(l * FAULT_LINE_BYTES)
                != b.line_is_uncorrectable(l * FAULT_LINE_BYTES)
        });
        assert!(differs);
    }

    #[test]
    fn span_check_covers_every_touched_line() {
        let p = FaultPlan::quiet(9).with_uncorrectable_rate(0.02);
        // Find a faulty line, then confirm spans overlapping it fault.
        let line = (0..100_000u64)
            .find(|l| p.line_is_uncorrectable(l * FAULT_LINE_BYTES))
            .expect("a faulty line exists at this rate");
        let addr = line * FAULT_LINE_BYTES;
        assert!(p.span_is_uncorrectable(addr, 1));
        assert!(p.span_is_uncorrectable(addr.saturating_sub(10), 11));
        assert!(p.span_is_uncorrectable(addr + FAULT_LINE_BYTES - 1, 2));
    }

    #[test]
    fn rate_extremes() {
        let all = FaultPlan::quiet(3).with_uncorrectable_rate(1.0);
        assert!(all.line_is_uncorrectable(0));
        let none = FaultPlan::quiet(3).with_uncorrectable_rate(0.0);
        assert!(!none.span_is_uncorrectable(0, 1 << 20));
    }

    #[test]
    fn channel_factors_cycle_and_validate() {
        let p = FaultPlan::quiet(0).with_channel_bw(vec![1.0, 0.5]);
        assert_eq!(p.channel_factor(0), 1.0);
        assert_eq!(p.channel_factor(1), 0.5);
        assert_eq!(p.channel_factor(3), 0.5);
        // Nonsense factors are ignored rather than inverting the timing.
        let bad = FaultPlan::quiet(0).with_channel_bw(vec![0.0, -2.0, 7.0]);
        for ch in 0..3 {
            assert_eq!(bad.channel_factor(ch), 1.0);
        }
    }

    #[test]
    fn spike_windows() {
        let p = FaultPlan {
            spike_period_cycles: 1000,
            spike_len_cycles: 100,
            spike_extra_ns: 50,
            ..FaultPlan::quiet(0)
        };
        assert!(p.in_spike_window(0));
        assert!(p.in_spike_window(99));
        assert!(!p.in_spike_window(100));
        assert!(p.in_spike_window(2050));
        assert!(!p.in_spike_window(999));
    }
}
