//! Speed-state calibration of host times.
//!
//! The boxes this runs on alternate between two speed states that last
//! ten to forty seconds each: the same single-threaded query batch takes
//! 45 ms in one and 70 ms in the other (measured; a dependent-multiply
//! chain meanwhile runs *faster* in the slow state, so it is the host
//! sharing the core, not load inside the VM). A ten-second window sits in
//! one state or straddles both, and no number of reps inside it averages
//! that out: identical inputs gave 609-937 queries/s run to run.
//!
//! So every timed region is bracketed by a frozen reference kernel owned
//! by the benchmark: a sort of a fixed pseudo-random array followed by a
//! bounded sorted-insert pass over a larger one. Of the kernels tried -
//! sort, varint decode, unpack + prefix sum, binary search, float scoring,
//! gathers over 1-16 MiB tables, sorted insert - these two track the
//! engines and the index build best: 1.36x and 1.44x between the states
//! against 1.35x (IIU) to 1.45x (BOSS, build); the memory-bound ones move
//! by only 1.2x. The region's time is rescaled to the speed at which the
//! kernel takes [`NOMINAL_S`]. Reported host times are therefore "seconds
//! at reference speed"; `calib.slowdown` says how far the box was from it,
//! and the raw times are printed beside the calibrated ones.

use crate::stats::{median, SplitMix};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time in the fast state of the box this was written on.
pub const NOMINAL_S: f64 = 0.56e-3;

const SORT_WORDS: usize = 24 << 10;
const INSERT_WORDS: usize = 200_000;
const INSERT_KEEP: usize = 256;
/// A tick this fresh also serves as the next region's opening tick.
const REUSE_WITHIN_S: f64 = 200e-6;
/// Ticks no older than this before a region starts also vouch for the
/// speed state it ran in (states last seconds; a tick now and then is
/// hit by an interrupt and reads 2-3x high, which the median drops).
const NEARBY_S: f64 = 0.05;

#[derive(Debug)]
pub struct Calib {
    words: Vec<u32>,
    sorted: Vec<u32>,
    top: Vec<u32>,
    /// When each tick ended, parallel to `ticks`.
    ended: Vec<Instant>,
    ticks: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut rng = SplitMix(0xCA11B);
        let words = (0..INSERT_WORDS).map(|_| rng.next_u64() as u32).collect();
        let mut c = Calib {
            words,
            sorted: Vec::with_capacity(SORT_WORDS),
            top: Vec::with_capacity(INSERT_KEEP + 1),
            ended: Vec::new(),
            ticks: Vec::new(),
        };
        // Page in the buffers so the first real tick is not a cold one.
        c.kernel();
        c
    }

    fn kernel(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.words[..SORT_WORDS]);
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        // Keep the INSERT_KEEP largest, descending: a binary search and a
        // short memmove per accepted value, like a top-k queue.
        self.top.clear();
        for &w in &self.words {
            if self.top.len() < INSERT_KEEP || w > self.top[INSERT_KEEP - 1] {
                let at = self.top.partition_point(|&t| t >= w);
                self.top.insert(at, w);
                self.top.truncate(INSERT_KEEP);
            }
        }
        black_box(&self.top);
    }

    fn tick(&mut self) {
        let t = Instant::now();
        self.kernel();
        self.ticks.push(t.elapsed().as_secs_f64());
        self.ended.push(Instant::now());
    }

    /// Runs `f` between two ticks; returns its value, its raw seconds and
    /// its seconds at reference speed (scaled by the median of the ticks
    /// around it).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        if !self
            .ended
            .last()
            .is_some_and(|at| at.elapsed().as_secs_f64() < REUSE_WITHIN_S)
        {
            self.tick();
        }
        let start = Instant::now();
        let value = f();
        let raw = start.elapsed().as_secs_f64();
        self.tick();
        let nearby = (self.ended.iter().rev())
            .take_while(|at| start.saturating_duration_since(**at).as_secs_f64() < NEARBY_S)
            .count();
        let tick = median(&self.ticks[self.ticks.len() - nearby..]);
        (value, raw, raw * NOMINAL_S / tick)
    }

    /// How much slower than reference speed the box ran, by the median
    /// tick so far (1.0 = reference speed).
    pub fn slowdown(&self) -> f64 {
        median(&self.ticks) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_time_scales_with_the_kernel() {
        let mut c = Calib::new();
        let (v, raw, cal) = c.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(raw >= 0.005);
        // Two ticks bracket the region; the scale is their median.
        assert_eq!(c.ticks.len(), 2);
        assert!((cal - raw * NOMINAL_S / median(&c.ticks)).abs() < 1e-12);
        assert!(c.slowdown() > 0.0);
    }

    #[test]
    fn a_stale_tick_is_not_reused() {
        let mut c = Calib::new();
        c.time(|| ());
        // Back to back the closing tick may open the next region (when
        // nothing preempted us in between), so 3 or 4 ticks by now.
        c.time(|| ());
        let before = c.ticks.len();
        assert!((3..=4).contains(&before));
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.time(|| ());
        assert_eq!(c.ticks.len(), before + 2);
    }

    #[test]
    fn kernel_output_is_fixed() {
        let (mut a, mut b) = (Calib::new(), Calib::new());
        a.kernel();
        b.kernel();
        assert_eq!(a.sorted, b.sorted);
        assert_eq!(a.sorted.len(), SORT_WORDS);
        assert!(a.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.top, b.top);
        assert_eq!(a.top.len(), INSERT_KEEP);
        assert!(a.top.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(a.top[0], *a.words.iter().max().unwrap());
    }
}
