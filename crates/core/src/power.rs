//! Area, power, and energy model (Table III of the paper).
//!
//! The paper synthesizes the Chisel RTL with a TSMC 40 nm library; this
//! reproduction seeds an analytical model with the published per-module
//! constants and derives device-level totals and energies from them.

use crate::config::{DECOMPRESSORS_PER_CORE, SCORERS_PER_CORE};

/// Area (mm²) and average power (mW) of one module instance group, as
/// Table III reports them (the table's Area/Power columns are totals over
/// the instance count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleCost {
    /// Component name as printed in Table III.
    pub name: &'static str,
    /// Instances per core (or per device for peripherals).
    pub count: u32,
    /// Total area of the instances, mm².
    pub area_mm2: f64,
    /// Total average power of the instances, mW.
    pub power_mw: f64,
}

/// Per-core module costs (Table III, "BOSS Core" section).
pub const CORE_MODULES: [ModuleCost; 6] = [
    ModuleCost {
        name: "Block Fetch Module",
        count: 1,
        area_mm2: 0.108,
        power_mw: 10.5,
    },
    ModuleCost {
        name: "Decompression Module",
        count: DECOMPRESSORS_PER_CORE as u32,
        area_mm2: 0.093,
        power_mw: 43.0,
    },
    ModuleCost {
        name: "Intersection Module",
        count: 1,
        area_mm2: 0.003,
        power_mw: 0.49,
    },
    ModuleCost {
        name: "Union Module",
        count: 1,
        area_mm2: 0.011,
        power_mw: 5.55,
    },
    ModuleCost {
        name: "Scoring Module",
        count: SCORERS_PER_CORE as u32,
        area_mm2: 0.464,
        power_mw: 200.0,
    },
    ModuleCost {
        name: "Top-k Module",
        count: 1,
        area_mm2: 0.324,
        power_mw: 147.1,
    },
];

/// Device-level peripheral costs (Table III, "BOSS" section, minus cores).
pub const DEVICE_MODULES: [ModuleCost; 3] = [
    ModuleCost {
        name: "Command Queue",
        count: 1,
        area_mm2: 0.078,
        power_mw: 0.078,
    },
    ModuleCost {
        name: "Query Scheduler",
        count: 1,
        area_mm2: 0.001,
        power_mw: 1.96,
    },
    ModuleCost {
        name: "MAI (with TLB)",
        count: 1,
        area_mm2: 0.127,
        power_mw: 1.20,
    },
];

/// Average package power of the evaluation host CPU (Section V-C), watts.
pub const HOST_CPU_POWER_W: f64 = 74.8;

/// The assembled area/power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPowerModel {
    /// Number of BOSS cores.
    pub n_cores: u32,
}

impl AreaPowerModel {
    /// Model for a device with `n_cores` cores.
    pub fn new(n_cores: u32) -> Self {
        AreaPowerModel { n_cores }
    }

    /// Area of one core, mm² (Table III: 1.003 mm²).
    pub fn core_area_mm2(&self) -> f64 {
        CORE_MODULES.iter().map(|m| m.area_mm2).sum()
    }

    /// Average power of one core, mW (Table III: 406.6 mW).
    pub fn core_power_mw(&self) -> f64 {
        CORE_MODULES.iter().map(|m| m.power_mw).sum()
    }

    /// Total device area, mm² (Table III: 8.27 mm² at 8 cores).
    pub fn device_area_mm2(&self) -> f64 {
        f64::from(self.n_cores) * self.core_area_mm2()
            + DEVICE_MODULES.iter().map(|m| m.area_mm2).sum::<f64>()
    }

    /// Total device power, W (Table III: 3.2 W at 8 cores).
    pub fn device_power_w(&self) -> f64 {
        (f64::from(self.n_cores) * self.core_power_mw()
            + DEVICE_MODULES.iter().map(|m| m.power_mw).sum::<f64>())
            / 1e3
    }

    /// Device energy over a wall-clock interval, joules — the BOSS side
    /// of Figure 17.
    pub fn energy_joules(&self, seconds: f64) -> f64 {
        self.device_power_w() * seconds
    }

    /// Host-CPU energy for the same wall-clock interval, joules — the
    /// Lucene side of Figure 17.
    pub fn host_energy_joules(seconds: f64) -> f64 {
        HOST_CPU_POWER_W * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_totals_match_table3() {
        let m = AreaPowerModel::new(8);
        assert!((m.core_area_mm2() - 1.003).abs() < 1e-9);
        assert!((m.core_power_mw() - 406.64).abs() < 0.01);
    }

    #[test]
    fn device_totals_match_table3() {
        let m = AreaPowerModel::new(8);
        // Table III prints 8.27 mm² total, but its own components sum to
        // 8.23 (8 x 1.003 + 0.206); accept the table's internal rounding.
        assert!(
            (m.device_area_mm2() - 8.27).abs() < 0.05,
            "{}",
            m.device_area_mm2()
        );
        assert!(
            (m.device_power_w() - 3.2).abs() < 0.1,
            "{}",
            m.device_power_w()
        );
    }

    #[test]
    fn power_ratio_vs_host_cpu() {
        // The paper: BOSS consumes 23.3x less power than the host CPU.
        let m = AreaPowerModel::new(8);
        let ratio = HOST_CPU_POWER_W / m.device_power_w();
        assert!((ratio - 23.3).abs() < 0.6, "ratio {ratio}");
    }

    #[test]
    fn energy_scales_with_time_and_cores() {
        let m8 = AreaPowerModel::new(8);
        let m1 = AreaPowerModel::new(1);
        let e8 = m8.energy_joules(1.0);
        let e1 = m1.energy_joules(1.0);
        assert!(e8 > e1);
        assert!((m8.energy_joules(2.0) - 2.0 * e8).abs() < 1e-9);
    }

    #[test]
    fn host_energy() {
        assert!((AreaPowerModel::host_energy_joules(2.0) - 149.6).abs() < 1e-9);
    }
}
