//! Per-list hybrid scheme selection (the "Hybrid" bars of Figure 3) and
//! compression-ratio helpers.

use crate::{codec_for, Error, Scheme, ALL_SCHEMES, MAX_BLOCK_VALUES};

/// Outcome of trying every scheme on a value stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridChoice {
    /// The winning scheme.
    pub scheme: Scheme,
    /// Its encoded size in bytes.
    pub bytes: usize,
    /// Encoded size of every scheme, in [`ALL_SCHEMES`] order (`None` when
    /// the scheme cannot represent the stream, e.g. S16 above 28 bits).
    pub all_bytes: [Option<usize>; 5],
}

/// Encoded size of `values` under `scheme`, chunked into blocks of at most
/// [`MAX_BLOCK_VALUES`] values.
///
/// # Errors
///
/// Propagates codec errors (e.g. [`Error::ValueTooLarge`] for S16).
pub fn encoded_size(scheme: Scheme, values: &[u32]) -> Result<usize, Error> {
    let codec = codec_for(scheme);
    values
        .chunks(MAX_BLOCK_VALUES)
        .map(|chunk| codec.encoded_len(chunk))
        .sum()
}

/// Picks the scheme with the smallest encoded size for `values`.
///
/// Ties go to the earlier scheme in [`ALL_SCHEMES`]. Streams that some
/// scheme cannot represent simply exclude that scheme.
///
/// # Panics
///
/// Panics if *no* scheme can encode the stream, which cannot happen for
/// `u32` inputs (BP, VB, OptPFD and S8b are total).
pub fn best_scheme(values: &[u32]) -> HybridChoice {
    let mut all_bytes = [None; 5];
    let mut best: Option<(Scheme, usize)> = None;
    for (i, s) in ALL_SCHEMES.into_iter().enumerate() {
        if let Ok(sz) = encoded_size(s, values) {
            all_bytes[i] = Some(sz);
            if best.is_none_or(|(_, b)| sz < b) {
                best = Some((s, sz));
            }
        }
    }
    // Infallible: BitPacking and VariableByte encode every u32 slice, so
    // at least one candidate always lands in `best`.
    #[allow(clippy::expect_used)]
    let (scheme, bytes) = best.expect("at least one total codec must succeed");
    HybridChoice {
        scheme,
        bytes,
        all_bytes,
    }
}

/// Compression ratio: raw size (4 bytes/value) over encoded size.
/// Returns `f64::INFINITY` for zero encoded bytes (e.g. an all-zero BP
/// block) and 0.0 for an empty stream.
pub fn compression_ratio(raw_values: usize, encoded_bytes: usize) -> f64 {
    if raw_values == 0 {
        0.0
    } else if encoded_bytes == 0 {
        f64::INFINITY
    } else {
        (raw_values * 4) as f64 / encoded_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn best_is_minimal() {
        let values: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2654435761) >> 20)
            .collect();
        let choice = best_scheme(&values);
        let best_bytes = choice.bytes;
        for sz in choice.all_bytes.iter().flatten() {
            assert!(best_bytes <= *sz);
        }
    }

    #[test]
    fn dense_ones_favor_word_aligned_schemes() {
        let values = vec![1u32; 10_000];
        let choice = best_scheme(&values);
        // 1-bit values: BP packs 8/byte; S8b packs 60 per 8 bytes (7.5/byte);
        // S16 packs 28 per 4 bytes (7/byte). BP should win.
        assert_eq!(choice.scheme, Scheme::Bp);
    }

    #[test]
    fn outliers_favor_pfd() {
        let mut values = vec![2u32; 10_000];
        for i in (0..values.len()).step_by(100) {
            values[i] = 1 << 30;
        }
        let choice = best_scheme(&values);
        assert_eq!(choice.scheme, Scheme::OptPfd);
    }

    #[test]
    fn s16_excluded_for_wide_values_but_choice_total() {
        let values = vec![1u32 << 29; 16];
        let choice = best_scheme(&values);
        assert!(
            choice.all_bytes[3].is_none(),
            "S16 cannot encode 29-bit values"
        );
        assert!(choice.all_bytes[0].is_some());
    }

    #[test]
    fn ratio_math() {
        assert!((compression_ratio(128, 128) - 4.0).abs() < 1e-12);
        assert_eq!(compression_ratio(0, 10), 0.0);
        assert!(compression_ratio(128, 0).is_infinite());
    }

    #[test]
    fn encoded_size_chunks_large_streams() {
        let values = vec![3u32; MAX_BLOCK_VALUES * 3 + 17];
        let sz = encoded_size(Scheme::Bp, &values).unwrap();
        // 2 bits each plus per-chunk padding.
        assert!(sz >= values.len() / 4);
        assert!(sz <= values.len() / 4 + 8);
    }
}
