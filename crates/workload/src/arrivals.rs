//! Deterministic open-loop arrival processes for the serving harness.
//!
//! Production search traffic is open-loop: queries arrive whether or not
//! the device is ready. Two arrival shapes cover the regimes the serving
//! experiments need:
//!
//! * [`ArrivalKind::Poisson`] — memoryless arrivals at a constant rate,
//!   the M/·/k textbook case whose queueing behavior has a closed-form
//!   sanity check;
//! * [`ArrivalKind::Bursty`] — a two-state Markov-modulated Poisson
//!   process (MMPP-2): a *calm* state at a low rate and a *burst* state
//!   at `BURST_RATE_MULTIPLIER`× the calm rate, with exponentially
//!   distributed state dwell times. The long-run mean inter-arrival time
//!   matches the Poisson process at the same `mean_interarrival`, but
//!   arrivals clump — the tail-latency regime diurnal spikes and
//!   thundering herds create.
//!
//! Both are pure functions of `(kind, n, mean_interarrival, seed)`: the
//! same arguments produce the same arrival trace on every platform, which
//! is what lets the serving layer promise bit-identical admission and
//! drop decisions at any worker count.

use crate::rng::{self, SeededRng};
use rand::RngExt;

/// Burst-state arrival rate relative to the calm state of
/// [`ArrivalKind::Bursty`].
pub(crate) const BURST_RATE_MULTIPLIER: f64 = 8.0;

/// Fraction of time the bursty process spends in the burst state.
pub(crate) const BURST_TIME_FRACTION: f64 = 0.15;

/// Mean dwell time in the burst state, in units of the overall mean
/// inter-arrival time (so a burst spans many consecutive arrivals).
pub(crate) const BURST_DWELL_ARRIVALS: f64 = 24.0;

/// Shape of an open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Constant-rate memoryless arrivals.
    Poisson,
    /// Two-state MMPP: calm / burst at `BURST_RATE_MULTIPLIER`× calm.
    Bursty,
}

impl ArrivalKind {
    /// The label used in bench output.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
        }
    }
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" | "mmpp" => Ok(ArrivalKind::Bursty),
            other => Err(format!(
                "unknown arrival process {other:?}: expected poisson or bursty"
            )),
        }
    }
}

/// One exponential inter-arrival sample with the given mean, in cycles.
/// Clamped to at least one cycle so arrival times strictly advance
/// within a state (simultaneous arrivals would make queue-bound
/// accounting ambiguous).
fn exp_interval(r: &mut SeededRng, mean: f64) -> u64 {
    let u: f64 = r.random_range(f64::EPSILON..1.0);
    (-mean * u.ln()).round().max(1.0) as u64
}

/// Generates `n` absolute arrival times in cycles, strictly increasing,
/// with the long-run mean inter-arrival time `mean_interarrival` (cycles,
/// clamped to ≥ 1). Deterministic in every argument.
pub fn generate(kind: ArrivalKind, n: usize, mean_interarrival: f64, seed: u64) -> Vec<u64> {
    let mean = mean_interarrival.max(1.0);
    let mut r = rng::rng(seed ^ 0x5e71_11c0 ^ kind as u64);
    let mut out = Vec::with_capacity(n);
    let mut t = 0u64;
    match kind {
        ArrivalKind::Poisson => {
            for _ in 0..n {
                t = t.saturating_add(exp_interval(&mut r, mean));
                out.push(t);
            }
        }
        ArrivalKind::Bursty => {
            // Solve the two rates so that the time-weighted mean rate
            // equals 1/mean: calm_rate·(1-f) + burst_rate·f = 1/mean with
            // burst_rate = M·calm_rate.
            let f = BURST_TIME_FRACTION;
            let m = BURST_RATE_MULTIPLIER;
            let calm_rate = 1.0 / (mean * ((1.0 - f) + m * f));
            let burst_rate = m * calm_rate;
            // Dwell means chosen so the stationary burst-time fraction
            // is `f`: dwell_burst/(dwell_burst + dwell_calm) = f.
            let dwell_burst = BURST_DWELL_ARRIVALS * mean;
            let dwell_calm = dwell_burst * (1.0 - f) / f;
            let mut in_burst = false;
            // Absolute time the current state ends.
            let mut state_end = exp_interval(&mut r, dwell_calm);
            while out.len() < n {
                let rate = if in_burst { burst_rate } else { calm_rate };
                let next = t.saturating_add(exp_interval(&mut r, 1.0 / rate));
                if next >= state_end {
                    // State switch; the pending arrival is resampled in
                    // the new state from the switch point (memorylessness
                    // makes this the textbook MMPP construction).
                    t = state_end;
                    in_burst = !in_burst;
                    let dwell = if in_burst { dwell_burst } else { dwell_calm };
                    state_end = state_end.saturating_add(exp_interval(&mut r, dwell));
                    continue;
                }
                t = next;
                out.push(t);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn mean_gap(a: &[u64]) -> f64 {
        (a[a.len() - 1] - a[0]) as f64 / (a.len() - 1) as f64
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Bursty] {
            let a = generate(kind, 4000, 250.0, 7);
            let b = generate(kind, 4000, 250.0, 7);
            assert_eq!(a, b, "{kind}");
            let c = generate(kind, 4000, 250.0, 8);
            assert_ne!(a, c, "{kind} should vary by seed");
        }
    }

    #[test]
    fn strictly_increasing() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Bursty] {
            let a = generate(kind, 4000, 100.0, 3);
            for w in a.windows(2) {
                assert!(w[0] < w[1], "{kind}: {} !< {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn mean_interarrival_roughly_matches() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Bursty] {
            let a = generate(kind, 40_000, 500.0, 11);
            let m = mean_gap(&a);
            assert!(
                (m - 500.0).abs() < 75.0,
                "{kind}: long-run mean {m} far from 500"
            );
        }
    }

    #[test]
    fn bursty_clumps_more_than_poisson() {
        let mean = 400.0;
        let cv2 = |a: &[u64]| {
            let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
            var / (m * m)
        };
        let p = cv2(&generate(ArrivalKind::Poisson, 30_000, mean, 5));
        let b = cv2(&generate(ArrivalKind::Bursty, 30_000, mean, 5));
        // Poisson inter-arrivals have CV² ≈ 1; MMPP is overdispersed.
        assert!((p - 1.0).abs() < 0.25, "poisson CV² {p}");
        assert!(b > p * 1.5, "bursty CV² {b} not clearly above poisson {p}");
    }

    #[test]
    fn labels_round_trip() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Bursty] {
            let parsed: ArrivalKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("uniform".parse::<ArrivalKind>().is_err());
    }
}
