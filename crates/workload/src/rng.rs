//! Deterministic random-sampling helpers shared by the generators.
//!
//! Hand-rolled distributions (Box–Muller normal, inverse-transform
//! [`Geometric`], cumulative-table `Zipf`) keep the dependency set to
//! `rand` + `rand_chacha` while staying reproducible across platforms.

use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The workspace-standard seeded RNG.
pub type SeededRng = ChaCha8Rng;

/// Creates the standard RNG from a `u64` seed.
pub fn rng(seed: u64) -> SeededRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// One sample from a normal distribution via Box–Muller.
pub fn normal(rng: &mut SeededRng, mean: f64, sd: f64) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sd * z
}

/// A geometric sampler (number of failures before success, so the
/// support starts at 0) with success probability `p`, by inverse
/// transform: `⌊ln u / ln(1 − p)⌋`, capped at 10⁶.
///
/// `ln(1 − p)` is taken once here rather than per draw — the corpus
/// generator draws once per posting. The quotient of the two logarithms
/// is never negative, so the `u32` conversion's truncation *is* the
/// floor (and commutes with the cap); no `floor` call, which the
/// baseline x86-64 target would make a library call.
#[derive(Debug, Clone, Copy)]
pub struct Geometric {
    /// `ln(1 − p)`: negative, `-inf` exactly when `p = 1`.
    ln_q: f64,
}

impl Geometric {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        Geometric {
            ln_q: (1.0 - p).ln(),
        }
    }

    /// One sample. `p = 1` always succeeds at once and draws nothing
    /// from `rng`.
    pub fn sample(&self, rng: &mut SeededRng) -> u32 {
        if self.ln_q == f64::NEG_INFINITY {
            return 0;
        }
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        (u.ln() / self.ln_q).min(1e6) as u32
    }
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`, using a
/// precomputed cumulative table and binary search.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `1..=n`.
    pub(crate) fn sample(&self, rng: &mut SeededRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        // The cdf is finite and positive and `u` is in [0, 1), where the
        // total order is the numeric one.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// The unnormalized weight of rank `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or out of range.
    pub(crate) fn weight(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "rank out of range");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

/// Draws `count` *distinct* sorted values from `0..range`.
///
/// Rejection-free for the common `count << range` case: draws with
/// replacement, dedups, and tops up until the target is met.
///
/// # Panics
///
/// Panics if `count > range`.
pub fn sorted_distinct(rng: &mut SeededRng, count: usize, range: u32) -> Vec<u32> {
    assert!(
        count as u64 <= u64::from(range),
        "cannot draw {count} distinct values from {range}"
    );
    if count == 0 {
        return Vec::new();
    }
    // Dense draws are faster by scanning.
    if count as u64 * 3 >= u64::from(range) {
        let mut out = Vec::with_capacity(count);
        let mut remaining = count as u64;
        let mut pool = u64::from(range);
        for v in 0..range {
            if remaining == 0 {
                break;
            }
            // Select v with probability remaining/pool (sequential sampling).
            if rng.random_range(0..pool) < remaining {
                out.push(v);
                remaining -= 1;
            }
            pool -= 1;
        }
        return out;
    }
    let mut vals: Vec<u32> = (0..count).map(|_| rng.random_range(0..range)).collect();
    loop {
        vals.sort_unstable();
        vals.dedup();
        if vals.len() >= count {
            vals.truncate(count);
            return vals;
        }
        let missing = count - vals.len();
        for _ in 0..missing {
            vals.push(rng.random_range(0..range));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        let va: Vec<u32> = (0..10).map(|_| a.random_range(0..1000)).collect();
        let vb: Vec<u32> = (0..10).map(|_| b.random_range(0..1000)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn normal_mean_roughly_right() {
        let mut r = rng(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| normal(&mut r, 32.0, 20.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 32.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn geometric_support_and_mean() {
        let mut r = rng(2);
        let g = Geometric::new(0.5);
        let samples: Vec<u32> = (0..20_000).map(|_| g.sample(&mut r)).collect();
        let mean: f64 = samples.iter().map(|&x| f64::from(x)).sum::<f64>() / samples.len() as f64;
        // Mean of failures-before-success at p=0.5 is 1.
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert_eq!(Geometric::new(1.0).sample(&mut r), 0);
    }

    /// The per-draw form [`Geometric`] replaced, verbatim: the corpus is
    /// frozen, so the sampler must return its values and consume its
    /// randomness exactly.
    fn geometric_per_draw(rng: &mut SeededRng, p: f64) -> u32 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        (u.ln() / (1.0 - p).ln()).floor().min(1e6) as u32
    }

    #[test]
    fn geometric_equals_the_per_draw_form() {
        // The presets' 0.55 and 0.65, both ends of (0, 1] — a p below
        // f64's resolution at 1, where ln(1 − p) is 0, and p = 1 — and a
        // p small enough to reach the cap.
        let ps = [
            1e-300,
            1e-9,
            1e-3,
            0.05,
            0.5,
            0.55,
            0.65,
            0.9,
            1.0 - 1e-12,
            1.0,
        ];
        for seed in [0, 1, 0xB055, 0xC1_EB12, 0xCC_0E35, u64::MAX] {
            for p in ps {
                let g = Geometric::new(p);
                let (mut new, mut old) = (rng(seed), rng(seed));
                for i in 0..2_000 {
                    let want = geometric_per_draw(&mut old, p);
                    assert_eq!(g.sample(&mut new), want, "seed {seed} p {p} draw {i}");
                }
                // Draw for draw: both streams stand at the same place.
                let range = 0..u64::MAX;
                assert_eq!(
                    new.random_range(range.clone()),
                    old.random_range(range),
                    "seed {seed} p {p}"
                );
            }
        }
        // The cap is reached, so `min` before the conversion is covered.
        let (g, mut r) = (Geometric::new(1e-9), rng(9));
        assert!((0..2_000).any(|_| g.sample(&mut r) == 1_000_000));
    }

    #[test]
    fn zipf_rank1_most_frequent() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng(3);
        let mut counts = [0u32; 101];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[1] > counts[50] * 5);
    }

    #[test]
    fn zipf_weights_sum_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (1..=50).map(|k| z.weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sorted_distinct_properties() {
        let mut r = rng(4);
        for &(count, range) in &[(0usize, 10u32), (10, 1000), (900, 1000), (1000, 1000)] {
            let v = sorted_distinct(&mut r, count, range);
            assert_eq!(v.len(), count);
            for w in v.windows(2) {
                assert!(w[0] < w[1], "strictly increasing");
            }
            assert!(v.iter().all(|&x| x < range));
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn sorted_distinct_impossible_panics() {
        let mut r = rng(5);
        let _ = sorted_distinct(&mut r, 11, 10);
    }
}
