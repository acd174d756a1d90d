//! `MemorySim::access_checked` against a straight transcription of the
//! charge formula it had before its rates, channel routing and busy times
//! were precomputed: every completion cycle, fault flag and counter must
//! agree for arbitrary access sequences, on every preset, with and
//! without a fault plan.

use boss_scm::{
    AccessCategory, AccessKind, FaultPlan, MemoryConfig, MemorySim, PatternHint, ACCESS_CATEGORIES,
    MIN_TRANSFER_BYTES,
};
use proptest::prelude::*;

/// The public face of `MemStats`, accumulated the slow way.
#[derive(Debug, Default, PartialEq)]
struct Counters {
    bytes: [u64; ACCESS_CATEGORIES.len()],
    counts: [u64; ACCESS_CATEGORIES.len()],
    seq_bytes: u64,
    rand_bytes: u64,
    rand_accesses: u64,
    effective_bytes: u64,
    busy_cycles: u64,
    last_done_cycle: u64,
    faulted_reads: u64,
    degraded_accesses: u64,
    latency_spikes: u64,
}

impl Counters {
    fn of(sim: &MemorySim) -> Self {
        let s = sim.stats();
        let mut c = Counters {
            seq_bytes: s.seq_bytes,
            rand_bytes: s.rand_bytes,
            rand_accesses: s.rand_accesses,
            effective_bytes: s.effective_bytes,
            busy_cycles: s.busy_cycles,
            last_done_cycle: s.last_done_cycle,
            faulted_reads: s.faulted_reads,
            degraded_accesses: s.degraded_accesses,
            latency_spikes: s.latency_spikes,
            ..Counters::default()
        };
        for (i, &cat) in ACCESS_CATEGORIES.iter().enumerate() {
            c.bytes[i] = s.bytes(cat);
            c.counts[i] = s.count(cat);
        }
        c
    }
}

#[derive(Clone, Default)]
struct Channel {
    ready: u64,
    last_read_end: u64,
    last_write_end: u64,
}

/// The model as first written: every rate re-derived from the aggregate
/// bandwidths, the channel found by division, the busy time by a float
/// division and `ceil`, on every access.
struct Reference {
    config: MemoryConfig,
    plan: Option<FaultPlan>,
    channels: Vec<Channel>,
    counters: Counters,
}

impl Reference {
    fn new(config: MemoryConfig, plan: Option<FaultPlan>) -> Self {
        let channels = vec![Channel::default(); config.channels as usize];
        Reference {
            config,
            plan,
            channels,
            counters: Counters::default(),
        }
    }

    fn access(
        &mut self,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        cat: AccessCategory,
        pattern: PatternHint,
        earliest: u64,
    ) -> (u64, bool) {
        let c = &self.config;
        let ch_idx = ((addr / c.interleave_bytes) % u64::from(c.channels)) as usize;
        let per_channel = |gbps: f64| gbps / f64::from(c.channels);
        let ch = &self.channels[ch_idx];
        let (last_end, lat) = match kind {
            AccessKind::Read => (ch.last_read_end, c.read_latency_ns),
            AccessKind::Write => (ch.last_write_end, c.write_latency_ns),
        };
        let sequential = match pattern {
            PatternHint::Sequential => true,
            PatternHint::Random => false,
            PatternHint::Auto => {
                addr >= last_end.saturating_sub(c.granule_bytes)
                    && addr <= last_end + c.granule_bytes
                    && last_end != 0
            }
        };
        let bpc = match (kind, sequential) {
            (AccessKind::Read, true) => per_channel(c.seq_read_gbps),
            (AccessKind::Read, false) => per_channel(c.rand_read_gbps),
            (AccessKind::Write, _) => per_channel(c.write_gbps),
        };
        let eff_bytes = if sequential {
            bytes
        } else {
            bytes.max(MIN_TRANSFER_BYTES)
        };
        let mut busy = ((eff_bytes as f64 / bpc).ceil() as u64).max(1);
        let mut degraded = false;
        if let Some(plan) = &self.plan {
            let factor = plan.channel_factor(ch_idx);
            if factor < 1.0 {
                busy = ((eff_bytes as f64 / (bpc * factor)).ceil() as u64).max(1);
                degraded = true;
            }
        }
        let start = earliest.max(ch.ready);
        let mut done = start + busy + if sequential { 0 } else { lat };
        let mut spiked = false;
        let mut faulted = false;
        if let Some(plan) = &self.plan {
            if plan.in_spike_window(start) {
                done += plan.spike_extra_ns;
                spiked = true;
            }
            faulted = kind == AccessKind::Read && plan.span_is_uncorrectable(addr, bytes);
        }
        let ch = &mut self.channels[ch_idx];
        ch.ready = start + busy;
        match kind {
            AccessKind::Read => ch.last_read_end = addr + bytes,
            AccessKind::Write => ch.last_write_end = addr + bytes,
        }
        let n = &mut self.counters;
        let ci = ACCESS_CATEGORIES
            .iter()
            .position(|&x| x == cat)
            .expect("listed category");
        n.bytes[ci] += bytes;
        n.counts[ci] += 1;
        n.effective_bytes += eff_bytes;
        if sequential {
            n.seq_bytes += bytes;
        } else {
            n.rand_bytes += bytes;
            n.rand_accesses += 1;
        }
        n.busy_cycles += busy;
        n.last_done_cycle = n.last_done_cycle.max(done);
        n.faulted_reads += u64::from(faulted);
        n.degraded_accesses += u64::from(degraded);
        n.latency_spikes += u64::from(spiked);
        (done, faulted)
    }
}

fn presets() -> [MemoryConfig; 4] {
    [
        MemoryConfig::optane_dcpmm(),
        MemoryConfig::ddr4_2666(),
        MemoryConfig::host_scm_6ch(),
        MemoryConfig::host_ddr4_6ch(),
    ]
}

/// One access: address and size drawn so that streams continue, repeat
/// sizes (the memoised case) and jump, in roughly equal measure.
#[derive(Debug, Clone)]
struct Op {
    jump: Option<u64>,
    bytes: u64,
    write: bool,
    pattern: u8,
    cat: usize,
    think: u64,
}

fn op() -> impl Strategy<Value = Op> {
    (
        prop_oneof![Just(None), (0u64..(1 << 34)).prop_map(Some)],
        prop_oneof![Just(4u64), Just(19), Just(64), 1u64..600, 600u64..200_000],
        any::<bool>(),
        0u8..3,
        0..ACCESS_CATEGORIES.len(),
        prop_oneof![Just(0u64), 0u64..5_000],
    )
        .prop_map(|(jump, bytes, write, pattern, cat, think)| Op {
            jump,
            bytes,
            write,
            pattern,
            cat,
            think,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn access_checked_equals_the_transcribed_formula(
        ops in prop::collection::vec(op(), 1..120),
        seed in any::<u64>(),
        share in 1u32..9,
    ) {
        let plans = [
            None,
            Some(FaultPlan::quiet(seed)),
            Some(FaultPlan::degraded(seed)),
            Some(FaultPlan::degraded(seed).with_uncorrectable_rate(0.05)),
        ];
        for base in presets() {
            // `share` exercises rates that are not the round preset values.
            for config in [base.clone(), base.share(share)] {
                for plan in &plans {
                    let mut sim = MemorySim::new(config.clone());
                    sim.set_fault_plan(plan.clone());
                    let mut oracle = Reference::new(config.clone(), plan.clone());
                    let (mut addr, mut now) = (0u64, 0u64);
                    for o in &ops {
                        if let Some(a) = o.jump {
                            addr = a;
                        }
                        let kind = if o.write { AccessKind::Write } else { AccessKind::Read };
                        let pattern = [PatternHint::Auto, PatternHint::Sequential, PatternHint::Random]
                            [usize::from(o.pattern)];
                        let cat = ACCESS_CATEGORIES[o.cat];
                        let got = sim.access_checked(addr, o.bytes, kind, cat, pattern, now);
                        let want = oracle.access(addr, o.bytes, kind, cat, pattern, now);
                        prop_assert_eq!((got.done, got.faulted), want, "{} {:?}", config.name, o);
                        addr += o.bytes;
                        now += o.think;
                    }
                    prop_assert_eq!(Counters::of(&sim), oracle.counters, "{}", config.name);
                }
            }
        }
    }
}
