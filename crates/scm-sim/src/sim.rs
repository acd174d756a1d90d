//! The channel-level timing model.

use crate::config::MemoryConfig;
use crate::fault::FaultPlan;
use crate::stats::{AccessCategory, MemStats};

/// Minimum transfer unit charged per access (a cache line); smaller
/// requests still move a full line.
pub const MIN_TRANSFER_BYTES: u64 = 64;

/// Whether an access reads or writes the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read from memory.
    Read,
    /// Write to memory.
    Write,
}

/// Caller hint about the spatial pattern of an access.
///
/// `Auto` lets the simulator detect sequentiality by comparing the access
/// address with the end of the previous access on the same channel, which is
/// what a memory controller's prefetch/row-buffer logic effectively sees.
/// `Sequential`/`Random` force the classification — used e.g. by the IIU
/// model whose binary-search probes are random by construction even when
/// they occasionally land adjacent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PatternHint {
    /// Detect from the address stream.
    #[default]
    Auto,
    /// Treat as part of a sequential stream.
    Sequential,
    /// Treat as an isolated random access.
    Random,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    /// First cycle at which the channel can accept a new request.
    ready: u64,
    /// One past the last byte address touched by the previous read.
    last_read_end: u64,
    /// One past the last byte address touched by the previous write.
    last_write_end: u64,
}

/// How an address picks its channel: `(addr / interleave) % channels`,
/// without the divisions when both are powers of two.
#[derive(Debug, Clone, Copy)]
enum Route {
    Mask { shift: u32, mask: u64 },
    Divide { interleave: u64, channels: u32 },
}

impl Route {
    fn new(config: &MemoryConfig) -> Self {
        if config.interleave_bytes.is_power_of_two() && config.channels.is_power_of_two() {
            Route::Mask {
                shift: config.interleave_bytes.trailing_zeros(),
                mask: u64::from(config.channels) - 1,
            }
        } else {
            Route::Divide {
                interleave: config.interleave_bytes,
                channels: config.channels,
            }
        }
    }

    fn channel(self, addr: u64) -> usize {
        match self {
            Route::Mask { shift, mask } => ((addr >> shift) & mask) as usize,
            Route::Divide {
                interleave,
                channels,
            } => {
                let stripe = addr / interleave;
                // Stripe numbers of any realistic image fit 32 bits, where
                // the remainder is several times cheaper.
                match u32::try_from(stripe) {
                    Ok(stripe) => (stripe % channels) as usize,
                    Err(_) => (stripe % u64::from(channels)) as usize,
                }
            }
        }
    }
}

/// One of the three transfer rates of a channel, with the busy time of
/// the last transfer size charged at it. Query traffic repeats a handful
/// of sizes (a norm line, a metadata record), so most charges skip the
/// float division and `ceil`.
#[derive(Debug, Clone, Copy)]
struct Rate {
    bytes_per_cycle: f64,
    last_bytes: u64,
    last_busy: u64,
}

impl Rate {
    fn new(bytes_per_cycle: f64) -> Self {
        Rate {
            bytes_per_cycle,
            last_bytes: 0,
            last_busy: 0,
        }
    }

    fn busy(&mut self, eff_bytes: u64) -> u64 {
        if eff_bytes != self.last_bytes {
            self.last_bytes = eff_bytes;
            self.last_busy = busy_cycles(eff_bytes, self.bytes_per_cycle);
        }
        self.last_busy
    }
}

/// Channel occupancy of `eff_bytes` at `bytes_per_cycle`: whole cycles,
/// at least one.
fn busy_cycles(eff_bytes: u64, bytes_per_cycle: f64) -> u64 {
    ((eff_bytes as f64 / bytes_per_cycle).ceil() as u64).max(1)
}

/// A single memory node (a set of channels) with timing and accounting.
///
/// The simulator is deliberately single-owner (`&mut self` API): the device
/// model drives it from one discrete-event loop. See the crate docs for an
/// example.
#[derive(Debug, Clone)]
pub struct MemorySim {
    config: MemoryConfig,
    channels: Vec<Channel>,
    stats: MemStats,
    fault: Option<FaultPlan>,
    route: Route,
    seq_read: Rate,
    rand_read: Rate,
    write: Rate,
}

/// Completion information of one checked access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Completion cycle of the access.
    pub done: u64,
    /// True when a read touched an uncorrectable line under the attached
    /// [`FaultPlan`]; always false when no plan is attached.
    pub faulted: bool,
}

impl MemorySim {
    /// Creates a node with the given configuration.
    pub fn new(config: MemoryConfig) -> Self {
        let channels = vec![Channel::default(); config.channels as usize];
        MemorySim {
            route: Route::new(&config),
            seq_read: Rate::new(config.seq_read_bytes_per_cycle_per_channel()),
            rand_read: Rate::new(config.rand_read_bytes_per_cycle_per_channel()),
            write: Rate::new(config.write_bytes_per_cycle_per_channel()),
            config,
            channels,
            stats: MemStats::new(),
            fault: None,
        }
    }

    /// Attaches or removes the fault plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The configuration this node was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Accumulated traffic counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Take the counters, leaving zeros behind. Channel timing state is kept.
    pub fn take_stats(&mut self) -> MemStats {
        std::mem::take(&mut self.stats)
    }

    /// Issue one access and return its completion cycle.
    ///
    /// `earliest` is the cycle at which the requesting pipeline stage has
    /// the request ready; the access starts at
    /// `max(earliest, channel_ready)`. `bytes` may be any size, with a
    /// [`MIN_TRANSFER_BYTES`] minimum charged; non-sequential accesses
    /// additionally experience the idle latency in their completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn access(
        &mut self,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        cat: AccessCategory,
        pattern: PatternHint,
        earliest: u64,
    ) -> u64 {
        self.access_checked(addr, bytes, kind, cat, pattern, earliest)
            .done
    }

    /// Like [`MemorySim::access`], but also reports whether the access
    /// touched an uncorrectable line under the attached [`FaultPlan`].
    ///
    /// Without a plan this is exactly `access` (identical timing and
    /// counters) with `faulted` always false.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn access_checked(
        &mut self,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        cat: AccessCategory,
        pattern: PatternHint,
        earliest: u64,
    ) -> AccessResult {
        assert!(bytes > 0, "zero-byte memory access");
        let ch_idx = self.route.channel(addr);
        let granule = self.config.granule_bytes;

        let (last_end, lat) = {
            let ch = &self.channels[ch_idx];
            match kind {
                AccessKind::Read => (ch.last_read_end, self.config.read_latency_ns),
                AccessKind::Write => (ch.last_write_end, self.config.write_latency_ns),
            }
        };

        let sequential = match pattern {
            PatternHint::Sequential => true,
            PatternHint::Random => false,
            // Auto: sequential if this access begins within one granule of
            // where the previous same-kind access on this channel ended.
            PatternHint::Auto => {
                addr >= last_end.saturating_sub(granule)
                    && addr <= last_end + granule
                    && last_end != 0
            }
        };

        let rate = match (kind, sequential) {
            (AccessKind::Read, true) => &mut self.seq_read,
            (AccessKind::Read, false) => &mut self.rand_read,
            (AccessKind::Write, _) => &mut self.write,
        };
        // The configured bandwidths are *achieved* figures from the
        // empirical Optane studies, which already fold in device-granule
        // amplification; the channel is therefore occupied for the
        // transfer at that effective rate, with a 64 B minimum transfer
        // unit. Idle latency is experienced by the requester (it delays
        // `done`) but does not serialize the channel — memory controllers
        // pipeline outstanding requests.
        // Sequential accesses are parts of a stream: consecutive requests
        // coalesce, so they cost their actual bytes. Isolated (random)
        // accesses move at least one line.
        let eff_bytes = if sequential {
            bytes
        } else {
            bytes.max(MIN_TRANSFER_BYTES)
        };
        let mut busy = rate.busy(eff_bytes);

        // Fault plan, part 1: a degraded channel moves the same bytes at a
        // reduced rate. Consulted only when a plan is attached, so the
        // no-plan timing is bit-identical to the pre-fault model.
        let mut degraded = false;
        if let Some(plan) = &self.fault {
            let factor = plan.channel_factor(ch_idx);
            if factor < 1.0 {
                busy = busy_cycles(eff_bytes, rate.bytes_per_cycle * factor);
                degraded = true;
            }
        }

        let start = earliest.max(self.channels[ch_idx].ready);
        let mut done = start + busy + if sequential { 0 } else { lat };

        // Fault plan, parts 2 and 3: latency-spike windows delay the
        // requester (like background wear-leveling), and reads touching an
        // uncorrectable line are flagged to the caller.
        let mut spiked = false;
        let mut faulted = false;
        if let Some(plan) = &self.fault {
            if plan.in_spike_window(start) {
                done += plan.spike_extra_ns;
                spiked = true;
            }
            faulted = kind == AccessKind::Read && plan.span_is_uncorrectable(addr, bytes);
        }

        let ch = &mut self.channels[ch_idx];
        ch.ready = start + busy;
        let end = addr + bytes;
        match kind {
            AccessKind::Read => ch.last_read_end = end,
            AccessKind::Write => ch.last_write_end = end,
        }
        self.stats
            .record(cat, bytes, eff_bytes, sequential, busy, done);
        if faulted || degraded || spiked {
            self.stats.record_fault(faulted, degraded, spiked);
        }
        AccessResult { done, faulted }
    }

    /// Convenience: sequential read.
    pub fn read_seq(&mut self, addr: u64, bytes: u64, cat: AccessCategory, earliest: u64) -> u64 {
        self.access(
            addr,
            bytes,
            AccessKind::Read,
            cat,
            PatternHint::Sequential,
            earliest,
        )
    }

    /// Convenience: random read.
    pub fn read_rand(&mut self, addr: u64, bytes: u64, cat: AccessCategory, earliest: u64) -> u64 {
        self.access(
            addr,
            bytes,
            AccessKind::Read,
            cat,
            PatternHint::Random,
            earliest,
        )
    }

    /// Convenience: sequential write.
    pub fn write_seq(&mut self, addr: u64, bytes: u64, cat: AccessCategory, earliest: u64) -> u64 {
        self.access(
            addr,
            bytes,
            AccessKind::Write,
            cat,
            PatternHint::Sequential,
            earliest,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryConfig;

    fn sim() -> MemorySim {
        MemorySim::new(MemoryConfig::optane_dcpmm())
    }

    fn sim_with(plan: crate::FaultPlan) -> MemorySim {
        let mut m = sim();
        m.set_fault_plan(Some(plan));
        m
    }

    #[test]
    fn sequential_read_cost_matches_bandwidth() {
        let mut m = sim();
        // 6.4 B/cycle per channel; 6400 B sequential => 1000 cycles.
        let done = m.read_seq(0, 6400, AccessCategory::LdList, 0);
        assert_eq!(done, 1000);
    }

    #[test]
    fn random_read_pays_latency() {
        let mut m = sim();
        let d_seq = m.read_seq(0, 256, AccessCategory::LdList, 0);
        let mut m2 = sim();
        let d_rand = m2.read_rand(0, 256, AccessCategory::LdList, 0);
        assert!(d_rand > d_seq + 100, "random {d_rand} vs seq {d_seq}");
    }

    #[test]
    fn small_access_charged_a_full_line() {
        let mut m = sim();
        let d4 = m.read_rand(0, 4, AccessCategory::LdScore, 0);
        let mut m2 = sim();
        let d64 = m2.read_rand(0, 64, AccessCategory::LdScore, 0);
        assert_eq!(d4, d64, "4 B random read moves a full 64 B line");
        // but the *logical* byte count is what was asked for
        assert_eq!(m.stats().bytes(AccessCategory::LdScore), 4);
    }

    #[test]
    fn random_latency_does_not_serialize_channel() {
        // Two random reads on the same channel: the second starts as soon
        // as the first's transfer ends, not after its full latency.
        let mut m = sim();
        let d1 = m.read_rand(0, 64, AccessCategory::LdScore, 0);
        let d2 = m.read_rand(1024, 64, AccessCategory::LdScore, 0);
        let lat = m.config().read_latency_ns;
        assert!(d2 < d1 + lat, "pipelined: {d2} vs serialized {}", d1 + lat);
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut m = sim();
        let dr = m.read_seq(0, 4096, AccessCategory::LdList, 0);
        let mut m2 = sim();
        let dw = m2.write_seq(0, 4096, AccessCategory::StInter, 0);
        assert!(dw > dr, "write {dw} should exceed read {dr}");
    }

    #[test]
    fn auto_detects_contiguous_stream() {
        let mut m = sim();
        let d1 = m.access(
            0,
            512,
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Random,
            0,
        );
        // Next access continues exactly where the previous ended on channel 0.
        let d2 = m.access(
            512,
            512,
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Auto,
            d1,
        );
        assert_eq!(m.stats().seq_bytes, 512);
        assert_eq!(m.stats().rand_bytes, 512);
        assert!(d2 > d1);
    }

    #[test]
    fn auto_first_access_is_random() {
        let mut m = sim();
        m.access(
            4096 * 3,
            256,
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Auto,
            0,
        );
        assert_eq!(m.stats().rand_accesses, 1);
    }

    #[test]
    fn channels_operate_independently() {
        let mut m = sim();
        // interleave is 4096 B: addr 0 -> ch0, addr 4096 -> ch1.
        let d0 = m.read_seq(0, 6400, AccessCategory::LdList, 0);
        let d1 = m.read_seq(4096, 6400, AccessCategory::LdList, 0);
        assert_eq!(d0, d1, "different channels don't queue behind each other");
        let d2 = m.read_seq(0, 6400, AccessCategory::LdList, 0);
        assert!(d2 > d0, "same channel queues");
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut m = sim();
        let done = m.read_seq(0, 256, AccessCategory::LdList, 10_000);
        assert!(done > 10_000);
    }

    #[test]
    fn queueing_on_busy_channel() {
        let mut m = sim();
        let d1 = m.read_seq(0, 3072, AccessCategory::LdList, 0);
        // Same channel (same 4 KiB interleave stride), issued at cycle 0 but
        // the channel is busy until d1.
        let d2 = m.access(
            3072,
            1024,
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Sequential,
            0,
        );
        assert!(d2 > d1);
    }

    #[test]
    fn take_stats_leaves_zeroes() {
        let mut m = sim();
        m.read_seq(0, 1024, AccessCategory::LdList, 0);
        let s = m.take_stats();
        assert_eq!(s.total_bytes(), 1024);
        assert_eq!(m.stats().total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_access_panics() {
        sim().read_seq(0, 0, AccessCategory::LdList, 0);
    }

    #[test]
    fn no_plan_and_quiet_plan_are_bit_identical() {
        // A quiet plan must not perturb timing or counters relative to no
        // plan at all — the invariance guarantee the figure diffs rely on.
        let mut a = sim();
        let mut b = sim_with(crate::FaultPlan::quiet(123));
        let mut ta = 0;
        let mut tb = 0;
        for i in 0..32u64 {
            ta = a.read_rand(i * 3000, 200, AccessCategory::LdList, ta);
            tb = b.read_rand(i * 3000, 200, AccessCategory::LdList, tb);
        }
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().fault_events(), 0);
    }

    #[test]
    fn uncorrectable_lines_flag_reads_and_count() {
        let plan = crate::FaultPlan::quiet(5).with_uncorrectable_rate(1.0);
        let mut m = sim_with(plan);
        let r = m.access_checked(
            0,
            128,
            AccessKind::Read,
            AccessCategory::LdList,
            PatternHint::Sequential,
            0,
        );
        assert!(r.faulted);
        assert_eq!(m.stats().faulted_reads, 1);
        // Writes are never flagged.
        let w = m.access_checked(
            0,
            128,
            AccessKind::Write,
            AccessCategory::StInter,
            PatternHint::Sequential,
            0,
        );
        assert!(!w.faulted);
        assert_eq!(m.stats().faulted_reads, 1);
    }

    #[test]
    fn degraded_channel_slows_transfers() {
        let plan = crate::FaultPlan::quiet(0).with_channel_bw(vec![0.5]);
        let mut slow = sim_with(plan);
        let d_slow = slow.read_seq(0, 6400, AccessCategory::LdList, 0);
        let d_nominal = sim().read_seq(0, 6400, AccessCategory::LdList, 0);
        assert_eq!(d_nominal, 1000);
        assert_eq!(d_slow, 2000, "half bandwidth doubles the transfer time");
        assert_eq!(slow.stats().degraded_accesses, 1);
    }

    #[test]
    fn latency_spikes_delay_completion_not_channel() {
        let plan = crate::FaultPlan {
            spike_period_cycles: 1 << 40,
            spike_len_cycles: 1 << 40,
            spike_extra_ns: 700,
            ..crate::FaultPlan::quiet(0)
        };
        let mut m = sim_with(plan);
        let d = m.read_seq(0, 6400, AccessCategory::LdList, 0);
        assert_eq!(d, 1700, "spike adds to completion");
        assert_eq!(m.stats().latency_spikes, 1);
        // The channel itself frees at transfer end, so a queued request on
        // the same channel starts at 1000, not 1700.
        let d2 = m.read_seq(1024, 6400, AccessCategory::LdList, 0);
        assert_eq!(d2, 2700);
    }

    #[test]
    fn dram_faster_than_scm_for_same_traffic() {
        let mut scm = MemorySim::new(MemoryConfig::optane_dcpmm());
        let mut dram = MemorySim::new(MemoryConfig::ddr4_2666());
        let mut t_scm = 0;
        let mut t_dram = 0;
        for i in 0..64u64 {
            t_scm = scm.read_rand(i * 8192, 256, AccessCategory::LdList, t_scm);
            t_dram = dram.read_rand(i * 8192, 256, AccessCategory::LdList, t_dram);
        }
        assert!(t_dram < t_scm);
    }
}
