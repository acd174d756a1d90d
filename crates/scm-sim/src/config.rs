//! Memory device configurations.

/// The broad class of memory device being modeled.
///
/// Used by reports (and a couple of heuristics) to label results; all actual
/// timing comes from the numeric fields of [`MemoryConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Storage-class memory (Optane DCPMM-like).
    Scm,
    /// Conventional DRAM (DDR4-like).
    Dram,
}

impl std::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryKind::Scm => f.write_str("SCM"),
            MemoryKind::Dram => f.write_str("DRAM"),
        }
    }
}

/// Timing/geometry description of a memory node.
///
/// Bandwidth figures are *aggregate* across all channels, in GB/s. Because
/// the simulation clock is 1 GHz, `x` GB/s is exactly `x` bytes per cycle.
///
/// The default constructors encode the configurations of Table I of the
/// paper: [`MemoryConfig::optane_dcpmm`] (25.6 GB/s sequential read,
/// 6.6 GB/s random read, 2.3 GB/s write over 4 channels) and
/// [`MemoryConfig::ddr4_2666`] (85.2 GB/s over 4 channels).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Device class, for labeling.
    pub kind: MemoryKind,
    /// Human-readable name used in reports.
    pub name: String,
    /// Number of memory channels in the node.
    pub channels: u32,
    /// Aggregate sequential-read bandwidth in GB/s.
    pub seq_read_gbps: f64,
    /// Aggregate random-read bandwidth in GB/s (small, scattered accesses).
    pub rand_read_gbps: f64,
    /// Aggregate write bandwidth in GB/s.
    pub write_gbps: f64,
    /// Idle read latency in nanoseconds (= cycles at 1 GHz) paid by an
    /// access that is not sequential with the previous one on its channel.
    pub read_latency_ns: u64,
    /// Write latency in nanoseconds for a non-sequential write.
    pub write_latency_ns: u64,
    /// Internal access granularity in bytes: every access is rounded up to
    /// a multiple of this (256 B for Optane, 64 B for DRAM).
    pub granule_bytes: u64,
    /// Address interleaving stride across channels, in bytes.
    pub interleave_bytes: u64,
}

impl MemoryConfig {
    /// Intel Optane DCPMM-like SCM node: 4 channels, 25.6 GB/s sequential
    /// read, 6.6 GB/s random read, 2.3 GB/s write, 256 B granularity.
    ///
    /// These are the numbers of Table I ("BOSS Memory System") of the paper,
    /// themselves taken from the empirical Optane studies it cites.
    pub fn optane_dcpmm() -> Self {
        MemoryConfig {
            kind: MemoryKind::Scm,
            name: "Optane-DCPMM-4ch".to_owned(),
            channels: 4,
            seq_read_gbps: 25.6,
            rand_read_gbps: 6.6,
            write_gbps: 2.3,
            read_latency_ns: 305,
            write_latency_ns: 94,
            granule_bytes: 256,
            interleave_bytes: 4096,
        }
    }

    /// DDR4-2666 DRAM node with 4 channels (85.2 GB/s), used by the paper's
    /// Figure 16 DRAM-vs-SCM comparison.
    pub fn ddr4_2666() -> Self {
        MemoryConfig {
            kind: MemoryKind::Dram,
            name: "DDR4-2666-4ch".to_owned(),
            channels: 4,
            seq_read_gbps: 85.2,
            rand_read_gbps: 42.6,
            write_gbps: 85.2,
            read_latency_ns: 81,
            write_latency_ns: 81,
            granule_bytes: 64,
            interleave_bytes: 4096,
        }
    }

    /// Host-side SCM configuration of Table I (6 channels, 39.6 GB/s reads),
    /// used when modeling the CPU baseline touching Optane directly.
    pub fn host_scm_6ch() -> Self {
        MemoryConfig {
            kind: MemoryKind::Scm,
            name: "Host-Optane-6ch".to_owned(),
            channels: 6,
            seq_read_gbps: 39.6,
            rand_read_gbps: 9.9,
            write_gbps: 3.45,
            read_latency_ns: 305,
            write_latency_ns: 94,
            granule_bytes: 256,
            interleave_bytes: 4096,
        }
    }

    /// Host-side DDR4 configuration of Table I (6 channels, 140.76 GB/s).
    pub fn host_ddr4_6ch() -> Self {
        MemoryConfig {
            kind: MemoryKind::Dram,
            name: "Host-DDR4-6ch".to_owned(),
            channels: 6,
            seq_read_gbps: 140.76,
            rand_read_gbps: 70.38,
            write_gbps: 140.76,
            read_latency_ns: 81,
            write_latency_ns: 81,
            granule_bytes: 64,
            interleave_bytes: 4096,
        }
    }

    /// Divide the node's bandwidth evenly among `n` concurrently active
    /// compute cores.
    ///
    /// The device simulation gives each core a private `MemorySim` carrying
    /// a `1/n` share of every bandwidth figure (latencies and granularity
    /// are physical properties and stay unchanged). This is the
    /// bandwidth-sharing approximation described in `DESIGN.md`: it renders
    /// the saturation behaviour of Figures 9/10 — a bandwidth-hungry design
    /// stops scaling once its per-core share is exhausted — without a
    /// global event queue across cores.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn share(&self, n: u32) -> Self {
        assert!(n > 0, "cannot share a memory node among zero cores");
        let f = f64::from(n);
        MemoryConfig {
            name: format!("{}/share{}", self.name, n),
            seq_read_gbps: self.seq_read_gbps / f,
            rand_read_gbps: self.rand_read_gbps / f,
            write_gbps: self.write_gbps / f,
            ..self.clone()
        }
    }

    /// Per-channel sequential-read bytes per cycle.
    pub(crate) fn seq_read_bytes_per_cycle_per_channel(&self) -> f64 {
        self.seq_read_gbps / f64::from(self.channels)
    }

    /// Per-channel random-read bytes per cycle.
    pub(crate) fn rand_read_bytes_per_cycle_per_channel(&self) -> f64 {
        self.rand_read_gbps / f64::from(self.channels)
    }

    /// Per-channel write bytes per cycle.
    pub(crate) fn write_bytes_per_cycle_per_channel(&self) -> f64 {
        self.write_gbps / f64::from(self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_matches_paper_table1() {
        let c = MemoryConfig::optane_dcpmm();
        assert_eq!(c.channels, 4);
        assert!((c.seq_read_gbps - 25.6).abs() < 1e-9);
        assert!((c.rand_read_gbps - 6.6).abs() < 1e-9);
        assert!((c.write_gbps - 2.3).abs() < 1e-9);
        assert_eq!(c.granule_bytes, 256);
    }

    #[test]
    fn ddr4_is_faster_than_scm_everywhere() {
        let d = MemoryConfig::ddr4_2666();
        let s = MemoryConfig::optane_dcpmm();
        assert!(d.seq_read_gbps > s.seq_read_gbps);
        assert!(d.rand_read_gbps > s.rand_read_gbps);
        assert!(d.write_gbps > s.write_gbps);
        assert!(d.read_latency_ns < s.read_latency_ns);
    }

    #[test]
    fn share_divides_bandwidth_not_latency() {
        let c = MemoryConfig::optane_dcpmm();
        let s = c.share(8);
        assert!((s.seq_read_gbps - c.seq_read_gbps / 8.0).abs() < 1e-12);
        assert!((s.write_gbps - c.write_gbps / 8.0).abs() < 1e-12);
        assert_eq!(s.read_latency_ns, c.read_latency_ns);
        assert_eq!(s.granule_bytes, c.granule_bytes);
    }

    #[test]
    fn share_of_one_is_identity_on_bandwidth() {
        let c = MemoryConfig::optane_dcpmm();
        let s = c.share(1);
        assert!((s.seq_read_gbps - c.seq_read_gbps).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn share_zero_panics() {
        let _ = MemoryConfig::optane_dcpmm().share(0);
    }

    #[test]
    fn gbps_equals_bytes_per_cycle() {
        let c = MemoryConfig::optane_dcpmm();
        assert!((c.seq_read_bytes_per_cycle_per_channel() - 6.4).abs() < 1e-12);
    }

    #[test]
    fn display_kind() {
        assert_eq!(MemoryKind::Scm.to_string(), "SCM");
        assert_eq!(MemoryKind::Dram.to_string(), "DRAM");
    }
}
