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
///
/// Most draws need no logarithm at all. The answer is at least `k`
/// exactly when `u ≤ (1 − p)ᵏ`, and a `u` outside the band
/// `(1 − p)ᵏ(1 ± 2⁻³⁰)` puts the two logarithms' quotient at least
/// `2⁻³⁰ / |ln(1 − p)|` — over 2·10⁻¹¹, as `1 − p ≥ 2⁻⁵³` — away from
/// `k`, while `ln`, the division and the table entries round by less
/// than 10⁻¹⁴: so counting the table entries `u` clears on either side
/// of each band gives the computed answer, and only a draw inside a band
/// or past the table's last step pays for the `ln` (every draw does when
/// `1 − p` rounds to 1). The count is branch-free; a branch on `u`
/// alone would mispredict on every other draw and cost more than the
/// `ln` it saves.
#[derive(Debug, Clone, Copy)]
pub struct Geometric {
    /// `ln(1 − p)`: negative, `-inf` exactly when `p = 1`.
    ln_q: f64,
    /// `below[k − 1] = (1 − p)ᵏ(1 − 2⁻³⁰)`: a draw at or below it is at
    /// least `k`.
    below: [f64; GEOMETRIC_STEPS],
    /// `above[k − 1] = (1 − p)ᵏ(1 + 2⁻³⁰)`: a draw at or above it is
    /// below `k`.
    above: [f64; GEOMETRIC_STEPS],
}

/// Answers [`Geometric`] reads off its table instead of a logarithm:
/// `0..GEOMETRIC_STEPS`.
const GEOMETRIC_STEPS: usize = 8;

impl Geometric {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        let q = 1.0 - p;
        let margin = 1.0 / f64::from(1u32 << 30);
        let (mut below, mut above) = ([0.0; GEOMETRIC_STEPS], [0.0; GEOMETRIC_STEPS]);
        let mut qk = 1.0;
        for k in 0..GEOMETRIC_STEPS {
            qk *= q;
            below[k] = qk * (1.0 - margin);
            above[k] = qk * (1.0 + margin);
        }
        Geometric {
            ln_q: q.ln(),
            below,
            above,
        }
    }

    /// One sample. `p = 1` always succeeds at once and draws nothing
    /// from `rng`.
    pub fn sample(&self, rng: &mut SeededRng) -> u32 {
        if self.ln_q == f64::NEG_INFINITY {
            return 0;
        }
        self.of_unit(rng.random_range(f64::EPSILON..1.0))
    }

    /// The sample for the uniform draw `u` in `[ε, 1)`.
    #[inline]
    fn of_unit(&self, u: f64) -> u32 {
        // `below` descends, so the entries `u` is at or below are the
        // first `k`: the answer is at least `k`, and below `k + 1` if `u`
        // also clears band `k + 1` from above.
        let k = self
            .below
            .iter()
            .map(|&t| usize::from(u <= t))
            .sum::<usize>();
        match self.above.get(k) {
            Some(&edge) if u >= edge => k as u32,
            _ => (u.ln() / self.ln_q).min(1e6) as u32,
        }
    }
}

/// Buckets of [`Zipf`]'s guide table: a power of two, so `u · ZIPF_GUIDE`
/// and `b / ZIPF_GUIDE` are exact in `f64`.
const ZIPF_GUIDE: usize = 4096;

/// A Zipf sampler over ranks `1..=n` with exponent `s`, using a
/// precomputed cumulative table and a guided binary search.
///
/// The guide table holds, for each of [`ZIPF_GUIDE`] equal slices of
/// `[0, 1)`, the first cdf entry at or above the slice's start, so a
/// draw searches only the entries between its slice's neighbours (one
/// slice of slack on each side) instead of the whole table. The answer
/// is still the first cdf entry at or above `u`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first index whose cdf entry is `≥ b / ZIPF_GUIDE`,
    /// for `b` in `0..=ZIPF_GUIDE`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` does not fit a `u32`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(u32::try_from(n).is_ok(), "Zipf support must fit a u32");
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
        let mut guide = Vec::with_capacity(ZIPF_GUIDE + 1);
        let mut i = 0;
        for b in 0..=ZIPF_GUIDE {
            let edge = b as f64 / ZIPF_GUIDE as f64;
            while i < cdf.len() && cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide }
    }

    /// Samples a rank in `1..=n`.
    pub(crate) fn sample(&self, rng: &mut SeededRng) -> usize {
        self.rank_of(rng.random_range(0.0..1.0))
    }

    /// The rank the uniform draw `u` in `[0, 1)` picks.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        // `u` is in [0, 1), so its slice is in 0..ZIPF_GUIDE; the first
        // entry ≥ u lies between the slice's start and the next's.
        let b = (u * ZIPF_GUIDE as f64) as usize;
        let lo = self.guide[b.saturating_sub(1)] as usize;
        let hi = self.guide[(b + 2).min(ZIPF_GUIDE)] as usize;
        let i = lo + self.cdf[lo..hi].partition_point(|&p| p < u);
        (i + 1).min(self.cdf.len())
    }

    /// [`Zipf::sample`] before its guide table, kept as the oracle the
    /// guided search is tested against: a binary search of the whole cdf.
    #[cfg(test)]
    pub(crate) fn sample_by_search(&self, rng: &mut SeededRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
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

/// A set of values below a fixed bound, one bit each: inserting is
/// constant-time and reading out is ascending by construction, so it
/// stands in for the sort and dedup of a drawn sample at the price of
/// one pass over `bound / 64` words.
#[derive(Debug)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An empty set of values below `bound`.
    pub(crate) fn new(bound: u32) -> Self {
        Bitmap {
            words: vec![0; bound.div_ceil(64) as usize],
        }
    }

    /// Marks `v`; whether it was not marked yet.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not below the bound.
    #[inline]
    pub(crate) fn insert(&mut self, v: u32) -> bool {
        let (word, bit) = (&mut self.words[(v / 64) as usize], 1u64 << (v % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// The marked values, ascending; `len` is how many there are.
    pub(crate) fn into_sorted(self, len: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(len);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Draws `count` *distinct* sorted values from `0..range`.
///
/// Rejection-free for the common `count << range` case: draws with
/// replacement, dedups, and tops up until the target is met. The dedup
/// is a bitmap over `0..range` unless the sample is tiny next to
/// the range (`count · 512 < range`), where sorting the draws costs less
/// than reading out the map; either way every round draws the same
/// values, so the result and the stream's position are the same.
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
        // Every candidate is written and the length moves only when it is
        // selected: a selection is a coin flip near 1/2 here, which a
        // branch would mispredict half the time.
        let mut out = vec![0; count + 1];
        let mut selected = 0;
        let mut remaining = count as u64;
        let mut pool = u64::from(range);
        for v in 0..range {
            if remaining == 0 {
                break;
            }
            // Select v with probability remaining/pool (sequential sampling).
            let select = rng.random_range(0..pool) < remaining;
            out[selected] = v;
            selected += usize::from(select);
            remaining -= u64::from(select);
            pool -= 1;
        }
        out.truncate(count);
        return out;
    }
    if (count as u64) * 512 < u64::from(range) {
        return sorted_distinct_by_sort(rng, count, range);
    }
    let mut seen = Bitmap::new(range);
    let (mut distinct, mut round) = (0, count);
    while distinct < count {
        for _ in 0..round {
            distinct += usize::from(seen.insert(rng.random_range(0..range)));
        }
        round = count - distinct;
    }
    seen.into_sorted(count)
}

/// [`sorted_distinct`]'s sparse rounds with a sort and dedup after each.
fn sorted_distinct_by_sort(rng: &mut SeededRng, count: usize, range: u32) -> Vec<u32> {
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

/// [`sorted_distinct`] before the bitmap and the branch-free dense scan
/// (whose sparse rounds all sorted): the oracle the generators are
/// tested against.
#[cfg(test)]
pub(crate) fn sorted_distinct_oracle(rng: &mut SeededRng, count: usize, range: u32) -> Vec<u32> {
    assert!(
        count as u64 <= u64::from(range),
        "cannot draw {count} distinct values from {range}"
    );
    if count == 0 {
        return Vec::new();
    }
    if count as u64 * 3 >= u64::from(range) {
        let mut out = Vec::with_capacity(count);
        let mut remaining = count as u64;
        let mut pool = u64::from(range);
        for v in 0..range {
            if remaining == 0 {
                break;
            }
            if rng.random_range(0..pool) < remaining {
                out.push(v);
                remaining -= 1;
            }
            pool -= 1;
        }
        return out;
    }
    sorted_distinct_by_sort(rng, count, range)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use rand::RngCore;

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

    /// A million draws per preset `p`, both ends of (0, 1] and a `p`
    /// whose tail reaches past the table: the logarithm-free answers are
    /// the logarithm's, draw for draw.
    #[test]
    fn geometric_table_equals_the_per_draw_form_over_a_million_draws() {
        for p in [1e-9, 0.55, 0.65, 1.0] {
            let (g, mut new, mut old) = (Geometric::new(p), rng(0xB055), rng(0xB055));
            for i in 0..1_000_000 {
                let want = geometric_per_draw(&mut old, p);
                assert_eq!(g.sample(&mut new), want, "p {p} draw {i}");
            }
            assert_eq!(new.next_u64(), old.next_u64(), "p {p}");
        }
    }

    /// Draws on and around every table edge, where the counts alone
    /// could go wrong: `(1 − p)ᵏ` and its band's two ends, each with
    /// its neighbouring doubles, and both ends of the draw's range.
    #[test]
    fn geometric_table_is_exact_at_its_edges() {
        let ps = [1e-300, 1e-9, 1e-3, 0.05, 0.5, 0.55, 0.65, 0.9, 1.0 - 1e-12];
        let margin = 1.0 / f64::from(1u32 << 30);
        for p in ps {
            let (g, q) = (Geometric::new(p), 1.0 - p);
            let mut us = vec![f64::EPSILON, 1.0f64.next_down()];
            for k in 0..=GEOMETRIC_STEPS as i32 + 1 {
                let qk = q.powi(k);
                for edge in [qk, qk * (1.0 - margin), qk * (1.0 + margin)] {
                    us.extend([edge.next_down(), edge, edge.next_up()]);
                }
            }
            for u in us.into_iter().filter(|u| (f64::EPSILON..1.0).contains(u)) {
                let want = (u.ln() / q.ln()).floor().min(1e6) as u32;
                assert_eq!(g.of_unit(u), want, "p {p} u {u:e}");
            }
        }
    }

    /// The guided search picks the rank the whole-table search picks:
    /// on streams of draws, and on `u` at every guide-slice edge and every
    /// cdf entry, each with its neighbouring doubles, `0` and the largest
    /// draw below 1. Supports straddle the guide's 4 096 slices; the
    /// exponents are the presets' and two far from them.
    #[test]
    fn zipf_guide_equals_the_whole_table_search() {
        for n in [1, 2, 3, 100, 4095, 4096, 4097, 30_000] {
            for s in [0.5, 1.05, 1.1, 1.15, 2.5] {
                let z = Zipf::new(n, s);
                // The whole-table search is only defined up to ties, and
                // the presets' tables have none.
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n {n} s {s}");
                let mut us = vec![0.0, 1.0f64.next_down()];
                let edges = (0..=ZIPF_GUIDE).map(|b| b as f64 / ZIPF_GUIDE as f64);
                for edge in edges.chain(z.cdf.iter().copied()) {
                    us.extend([edge.next_down(), edge, edge.next_up()]);
                }
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    let want = match z.cdf.binary_search_by(|p| p.total_cmp(&u)) {
                        Ok(i) | Err(i) => (i + 1).min(n),
                    };
                    assert_eq!(z.rank_of(u), want, "n {n} s {s} u {u:e}");
                }
                let (mut new, mut old) = (rng(n as u64), rng(n as u64));
                for i in 0..20_000 {
                    let want = z.sample_by_search(&mut old);
                    assert_eq!(z.sample(&mut new), want, "n {n} s {s} draw {i}");
                }
                assert_eq!(new.next_u64(), old.next_u64(), "n {n} s {s}");
            }
        }
    }

    /// Same values and same stream position as the oracle, at
    /// counts on both sides of every threshold: 0, 1, the sort/bitmap
    /// switch at `range / 512`, the sparse/dense switch at `range / 3`
    /// and the whole range.
    #[test]
    fn sorted_distinct_equals_the_oracle() {
        for range in [1u32, 2, 3, 511, 512, 513, 1_000, 4_096, 100_000] {
            let (r512, r3) = ((range / 512) as usize, (range / 3) as usize);
            let mut counts = vec![0, 1, range as usize];
            for c in [r512, r3] {
                counts.extend([c.saturating_sub(1), c, c + 1]);
            }
            counts.retain(|&c| c <= range as usize);
            for count in counts {
                // One seed at the corpus size keeps the debug build quick.
                let seeds: &[u64] = if range > 10_000 {
                    &[0xB055]
                } else {
                    &[0, 7, 0xB055]
                };
                for &seed in seeds {
                    let (mut new, mut old) = (rng(seed), rng(seed));
                    let want = sorted_distinct_oracle(&mut old, count, range);
                    let got = sorted_distinct(&mut new, count, range);
                    assert_eq!(got, want, "count {count} range {range} seed {seed}");
                    assert_eq!(new.next_u64(), old.next_u64(), "{count}/{range}");
                }
            }
        }
    }

    #[test]
    fn bitmap_reads_out_ascending_and_distinct() {
        let mut m = Bitmap::new(130);
        let fresh: Vec<bool> = [129, 0, 64, 63, 0, 129, 65]
            .into_iter()
            .map(|v| m.insert(v))
            .collect();
        assert_eq!(fresh, [true, true, true, true, false, false, true]);
        assert_eq!(m.into_sorted(5), [0, 63, 64, 65, 129]);
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
