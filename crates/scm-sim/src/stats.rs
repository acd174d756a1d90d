//! Traffic accounting, broken down the way Figure 15 of the paper reports it.

/// Category of a memory access, matching the legend of Figure 15.
///
/// `LdMeta` (per-block skip/decompression metadata) is kept separate here so
/// the simulator can also answer block-skipping questions; the figure folds
/// it into `LD List`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessCategory {
    /// Compressed posting-list block loads.
    LdList,
    /// Per-block metadata loads (folded into `LD List` in Figure 15).
    LdMeta,
    /// Per-document scoring metadata loads (the precomputed BM25 norm).
    LdScore,
    /// Intermediate posting-list loads (multi-term queries that spill).
    LdInter,
    /// Intermediate posting-list stores.
    StInter,
    /// Final result stores crossing the shared host interconnect.
    StResult,
}

/// All categories, in the order figures report them.
pub const ACCESS_CATEGORIES: [AccessCategory; 6] = [
    AccessCategory::LdList,
    AccessCategory::LdMeta,
    AccessCategory::LdScore,
    AccessCategory::LdInter,
    AccessCategory::StInter,
    AccessCategory::StResult,
];

impl AccessCategory {
    fn idx(self) -> usize {
        match self {
            AccessCategory::LdList => 0,
            AccessCategory::LdMeta => 1,
            AccessCategory::LdScore => 2,
            AccessCategory::LdInter => 3,
            AccessCategory::StInter => 4,
            AccessCategory::StResult => 5,
        }
    }

    /// The label Figure 15 uses for this category.
    pub fn label(self) -> &'static str {
        match self {
            AccessCategory::LdList => "LD List",
            AccessCategory::LdMeta => "LD Meta",
            AccessCategory::LdScore => "LD Score",
            AccessCategory::LdInter => "LD Inter",
            AccessCategory::StInter => "ST Inter",
            AccessCategory::StResult => "ST Result",
        }
    }
}

impl std::fmt::Display for AccessCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-device fault-counter snapshot (see [`MemStats::fault_counts`]).
///
/// Each simulated memory device accumulates its own [`MemStats`]; in a
/// multi-device (sharded) system these snapshots are what the
/// coordinator compares to rank replica health and what benches report
/// as the labeled per-shard breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Reads that touched an uncorrectable line.
    pub faulted_reads: u64,
    /// Accesses slowed by per-channel bandwidth degradation.
    pub degraded_accesses: u64,
    /// Accesses that started inside a latency-spike window.
    pub latency_spikes: u64,
}

impl FaultCounts {
    /// Total fault events of any class.
    pub fn total(&self) -> u64 {
        self.faulted_reads + self.degraded_accesses + self.latency_spikes
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faulted_reads {} degraded {} spikes {}",
            self.faulted_reads, self.degraded_accesses, self.latency_spikes
        )
    }
}

/// Aggregated traffic counters for one simulation.
///
/// Byte counts are *logical* (what the pipeline asked for); the device-level
/// cost of granule rounding shows up in cycle accounting, not here, so that
/// the per-category breakdown matches what an RTL trace would report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    bytes: [u64; 6],
    counts: [u64; 6],
    /// Logical bytes transferred by accesses classified as sequential.
    pub seq_bytes: u64,
    /// Logical bytes transferred by accesses classified as random.
    pub rand_bytes: u64,
    /// Number of accesses classified as random.
    pub rand_accesses: u64,
    /// Effective bytes moved on the device (logical bytes rounded up to
    /// the minimum transfer unit) — what bandwidth figures should count.
    pub effective_bytes: u64,
    /// Total channel-busy cycles summed over channels.
    pub busy_cycles: u64,
    /// Completion cycle of the latest access seen so far.
    pub last_done_cycle: u64,
    /// Reads that touched an uncorrectable line under the active
    /// [`FaultPlan`](crate::FaultPlan). Always zero without a plan.
    pub faulted_reads: u64,
    /// Accesses slowed by per-channel bandwidth degradation. Always zero
    /// without a plan.
    pub degraded_accesses: u64,
    /// Accesses that started inside a latency-spike window. Always zero
    /// without a plan.
    pub latency_spikes: u64,
}

impl MemStats {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(
        &mut self,
        cat: AccessCategory,
        bytes: u64,
        effective: u64,
        sequential: bool,
        busy: u64,
        done: u64,
    ) {
        self.bytes[cat.idx()] += bytes;
        self.effective_bytes += effective;
        self.counts[cat.idx()] += 1;
        if sequential {
            self.seq_bytes += bytes;
        } else {
            self.rand_bytes += bytes;
            self.rand_accesses += 1;
        }
        self.busy_cycles += busy;
        self.last_done_cycle = self.last_done_cycle.max(done);
    }

    pub(crate) fn record_fault(&mut self, uncorrectable: bool, degraded: bool, spiked: bool) {
        if uncorrectable {
            self.faulted_reads += 1;
        }
        if degraded {
            self.degraded_accesses += 1;
        }
        if spiked {
            self.latency_spikes += 1;
        }
    }

    /// Total fault events of any class recorded so far.
    pub fn fault_events(&self) -> u64 {
        self.fault_counts().total()
    }

    /// Snapshot of the fault counters alone — the per-device health
    /// signal multi-device telemetry aggregates, labeled per class so a
    /// degraded device's symptom (poison lines vs. bandwidth derating
    /// vs. latency spikes) stays visible after aggregation.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            faulted_reads: self.faulted_reads,
            degraded_accesses: self.degraded_accesses,
            latency_spikes: self.latency_spikes,
        }
    }

    /// Logical bytes moved in `cat`.
    pub fn bytes(&self, cat: AccessCategory) -> u64 {
        self.bytes[cat.idx()]
    }

    /// Number of accesses issued in `cat`.
    pub fn count(&self, cat: AccessCategory) -> u64 {
        self.counts[cat.idx()]
    }

    /// Total logical bytes across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total access count across all categories.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Achieved device bandwidth in GB/s over an interval of `cycles` core
    /// cycles (1 GHz clock: bytes/cycle == GB/s), counting effective
    /// (line-granular) bytes the way a bandwidth monitor would.
    ///
    /// Returns 0.0 for an empty interval.
    pub fn achieved_gbps(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.effective_bytes as f64 / cycles as f64
        }
    }

    /// Merge another counter set into this one (e.g. across cores).
    pub fn merge(&mut self, other: &MemStats) {
        for i in 0..6 {
            self.bytes[i] += other.bytes[i];
            self.counts[i] += other.counts[i];
        }
        self.seq_bytes += other.seq_bytes;
        self.rand_bytes += other.rand_bytes;
        self.rand_accesses += other.rand_accesses;
        self.effective_bytes += other.effective_bytes;
        self.busy_cycles += other.busy_cycles;
        self.last_done_cycle = self.last_done_cycle.max(other.last_done_cycle);
        self.faulted_reads += other.faulted_reads;
        self.degraded_accesses += other.degraded_accesses;
        self.latency_spikes += other.latency_spikes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = MemStats::new();
        s.record(AccessCategory::LdList, 100, 128, true, 10, 50);
        s.record(AccessCategory::LdList, 100, 128, false, 20, 90);
        s.record(AccessCategory::StResult, 8, 64, false, 4, 120);
        assert_eq!(s.bytes(AccessCategory::LdList), 200);
        assert_eq!(s.count(AccessCategory::LdList), 2);
        assert_eq!(s.bytes(AccessCategory::StResult), 8);
        assert_eq!(s.total_bytes(), 208);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.seq_bytes, 100);
        assert_eq!(s.rand_bytes, 108);
        assert_eq!(s.rand_accesses, 2);
        assert_eq!(s.busy_cycles, 34);
        assert_eq!(s.last_done_cycle, 120);
    }

    #[test]
    fn read_write_split() {
        let mut s = MemStats::new();
        s.record(AccessCategory::LdMeta, 19, 64, true, 1, 1);
        s.record(AccessCategory::LdScore, 4, 64, false, 1, 2);
        s.record(AccessCategory::LdInter, 64, 64, true, 1, 3);
        s.record(AccessCategory::StInter, 64, 64, true, 1, 4);
        s.record(AccessCategory::StResult, 8, 64, true, 1, 5);
        let sum = |cats: &[AccessCategory]| cats.iter().map(|&c| s.bytes(c)).sum::<u64>();
        let loads = sum(&[
            AccessCategory::LdList,
            AccessCategory::LdMeta,
            AccessCategory::LdScore,
            AccessCategory::LdInter,
        ]);
        let stores = sum(&[AccessCategory::StInter, AccessCategory::StResult]);
        assert_eq!(loads, 19 + 4 + 64);
        assert_eq!(stores, 64 + 8);
        assert_eq!(loads + stores, s.total_bytes());
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = MemStats::new();
        a.record(AccessCategory::LdList, 10, 64, true, 2, 30);
        let mut b = MemStats::new();
        b.record(AccessCategory::LdList, 5, 64, false, 3, 40);
        a.merge(&b);
        assert_eq!(a.bytes(AccessCategory::LdList), 15);
        assert_eq!(a.rand_accesses, 1);
        assert_eq!(a.busy_cycles, 5);
        assert_eq!(a.last_done_cycle, 40);
    }

    #[test]
    fn achieved_bandwidth() {
        let mut s = MemStats::new();
        s.record(AccessCategory::LdList, 2560, 2560, true, 100, 100);
        assert!((s.achieved_gbps(100) - 25.6).abs() < 1e-9);
        assert_eq!(s.achieved_gbps(0), 0.0);
    }

    #[test]
    fn fault_counts_snapshot() {
        let mut s = MemStats::new();
        s.record_fault(true, false, true);
        s.record_fault(false, true, true);
        let fc = s.fault_counts();
        assert_eq!(fc.faulted_reads, 1);
        assert_eq!(fc.degraded_accesses, 1);
        assert_eq!(fc.latency_spikes, 2);
        assert_eq!(fc.total(), 4);
        assert_eq!(s.fault_events(), 4);
        assert_eq!(fc.to_string(), "faulted_reads 1 degraded 1 spikes 2");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AccessCategory::LdList.label(), "LD List");
        assert_eq!(AccessCategory::StResult.to_string(), "ST Result");
        assert_eq!(ACCESS_CATEGORIES.len(), 6);
    }
}
