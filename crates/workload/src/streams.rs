//! The seven synthetic integer streams of Figure 3.
//!
//! The paper compresses the *d-gap* form of each stream. For the uniform
//! and clustered docID-set streams, integers are drawn from the stated
//! ranges, sorted and deduplicated, and converted to gaps; the outlier and
//! Zipf streams are value streams compressed directly (their definitions —
//! a normal around 2^5 with outliers, and Zipf's law — describe the
//! values, not positions).

use crate::rng::{self, SeededRng};

/// Identifies one of the seven Figure 3 synthetic stream shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Unique integers uniform over `[0, 2^28)`, delta-encoded.
    UniformSparse,
    /// Unique integers uniform over `[0, 2^26)`, delta-encoded.
    UniformDense,
    /// Uniform draws restricted to random clusters, sparse range.
    ClusterSparse,
    /// Uniform draws restricted to random clusters, dense range.
    ClusterDense,
    /// Normal(2^5, 20) values with 10 % large outliers.
    Outlier10,
    /// Normal(2^5, 20) values with 30 % large outliers.
    Outlier30,
    /// Zipf-distributed values.
    Zipf,
}

/// All seven stream kinds, in the order Figure 3 plots them.
pub const ALL_STREAMS: [StreamKind; 7] = [
    StreamKind::UniformSparse,
    StreamKind::UniformDense,
    StreamKind::ClusterSparse,
    StreamKind::ClusterDense,
    StreamKind::Outlier10,
    StreamKind::Outlier30,
    StreamKind::Zipf,
];

impl StreamKind {
    /// The label used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::UniformSparse => "uniform-sparse",
            StreamKind::UniformDense => "uniform-dense",
            StreamKind::ClusterSparse => "cluster-sparse",
            StreamKind::ClusterDense => "cluster-dense",
            StreamKind::Outlier10 => "outlier-10%",
            StreamKind::Outlier30 => "outlier-30%",
            StreamKind::Zipf => "zipf",
        }
    }
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const SPARSE_RANGE: u32 = 1 << 28;
const DENSE_RANGE: u32 = 1 << 26;

/// Generates the stream: `n` integers (the paper uses 10 M; tests and the
/// default bench scale use less) ready to feed a codec.
pub fn generate(kind: StreamKind, n: usize, seed: u64) -> Vec<u32> {
    let mut r = rng::rng(seed ^ kind as u64);
    match kind {
        StreamKind::UniformSparse => gaps_of_sorted_set(&mut r, n, SPARSE_RANGE),
        StreamKind::UniformDense => gaps_of_sorted_set(&mut r, n, DENSE_RANGE),
        StreamKind::ClusterSparse => clustered_gaps(&mut r, n, SPARSE_RANGE),
        StreamKind::ClusterDense => clustered_gaps(&mut r, n, DENSE_RANGE),
        StreamKind::Outlier10 => outliers(&mut r, n, 0.10),
        StreamKind::Outlier30 => outliers(&mut r, n, 0.30),
        StreamKind::Zipf => zipf_values(&mut r, n),
    }
}

fn to_gaps(sorted: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(sorted.len());
    let mut prev = 0u32;
    for (i, &v) in sorted.iter().enumerate() {
        out.push(if i == 0 { v } else { v - prev });
        prev = v;
    }
    out
}

fn gaps_of_sorted_set(r: &mut SeededRng, n: usize, range: u32) -> Vec<u32> {
    let n = n.min(range as usize);
    let set = rng::sorted_distinct(r, n, range);
    to_gaps(&set)
}

fn clustered_gaps(r: &mut SeededRng, n: usize, range: u32) -> Vec<u32> {
    use rand::RngExt;
    // ~1000-element clusters, each spanning a tiny slice of the range so
    // that intra-cluster gaps stay small.
    let n = n.min(range as usize / 2);
    let n_clusters = (n / 1000).max(1);
    let cluster_width = (range / 16384).max(2048);
    let per_cluster = n / n_clusters;
    let mut values: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..n_clusters {
        let base = r.random_range(0..range.saturating_sub(cluster_width).max(1));
        let count = per_cluster.min(cluster_width as usize / 2);
        for v in rng::sorted_distinct(r, count, cluster_width) {
            values.push(base + v);
        }
    }
    values.sort_unstable();
    values.dedup();
    to_gaps(&values)
}

fn outliers(r: &mut SeededRng, n: usize, frac: f64) -> Vec<u32> {
    use rand::RngExt;
    (0..n)
        .map(|_| {
            if r.random_range(0.0..1.0) < frac {
                // Outlier: large value needing many bits.
                r.random_range(1 << 16..1 << 27)
            } else {
                rng::normal(r, 32.0, 20.0).max(0.0) as u32
            }
        })
        .collect()
}

fn zipf_values(r: &mut SeededRng, n: usize) -> Vec<u32> {
    let z = rng::Zipf::new(1 << 16, 1.4);
    (0..n).map(|_| z.sample(r) as u32 - 1).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for kind in ALL_STREAMS {
            let a = generate(kind, 2000, 9);
            let b = generate(kind, 2000, 9);
            assert_eq!(a, b, "{kind}");
            let c = generate(kind, 2000, 10);
            assert_ne!(a, c, "{kind} should vary by seed");
        }
    }

    #[test]
    fn lengths_match_request() {
        for kind in [
            StreamKind::UniformSparse,
            StreamKind::Outlier10,
            StreamKind::Zipf,
        ] {
            assert_eq!(generate(kind, 5000, 1).len(), 5000);
        }
    }

    #[test]
    fn sparse_gaps_larger_than_dense() {
        let sparse = generate(StreamKind::UniformSparse, 20_000, 3);
        let dense = generate(StreamKind::UniformDense, 20_000, 3);
        let mean = |v: &[u32]| v.iter().map(|&x| u64::from(x)).sum::<u64>() as f64 / v.len() as f64;
        assert!(mean(&sparse) > 2.0 * mean(&dense));
    }

    #[test]
    fn clustered_gaps_mostly_small() {
        let gaps = generate(StreamKind::ClusterSparse, 20_000, 4);
        let small = gaps.iter().filter(|&&g| g < 64).count();
        assert!(
            small as f64 > gaps.len() as f64 * 0.9,
            "clustering should make most gaps tiny ({small}/{})",
            gaps.len()
        );
    }

    #[test]
    fn outlier_fraction_visible() {
        let o10 = generate(StreamKind::Outlier10, 20_000, 5);
        let o30 = generate(StreamKind::Outlier30, 20_000, 5);
        let big = |v: &[u32]| v.iter().filter(|&&x| x >= 1 << 16).count() as f64 / v.len() as f64;
        assert!((big(&o10) - 0.10).abs() < 0.02);
        assert!((big(&o30) - 0.30).abs() < 0.02);
    }

    #[test]
    fn zipf_mostly_tiny_values() {
        let z = generate(StreamKind::Zipf, 20_000, 6);
        let zeros = z.iter().filter(|&&x| x == 0).count();
        assert!(
            zeros as f64 > z.len() as f64 * 0.1,
            "rank 1 dominates: {zeros}"
        );
        let mut sorted = z.clone();
        sorted.sort_unstable();
        assert!(
            sorted[z.len() / 2] < 16,
            "median is tiny: {}",
            sorted[z.len() / 2]
        );
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = ALL_STREAMS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }
}
