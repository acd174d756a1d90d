//! [`SearchEngine`] on the three simulators themselves.
//!
//! Each impl forwards the query to the simulator's own entry point and
//! supplies the scheduling hooks (`gang_width`, `work_estimate`,
//! bandwidth roofline) the [`BatchExecutor`](crate::BatchExecutor)
//! needs. The hook implementations reproduce the per-system batch
//! drivers the bench crate used to hand-write, constant for constant.

use crate::SearchEngine;
use boss_core::{BossDevice, QueryOutcome, QueryPlan};
use boss_iiu::IiuEngine;
use boss_index::{Error, QueryExpr};
use boss_luceneish::LuceneEngine;
use boss_scm::MemStats;

/// The BOSS accelerator as a [`SearchEngine`].
pub type Boss<'a> = BossDevice<'a>;

/// The IIU baseline accelerator as a [`SearchEngine`].
pub type Iiu<'a> = IiuEngine<'a>;

/// The Lucene-like software baseline as a [`SearchEngine`].
pub type Lucene<'a> = LuceneEngine<'a>;

fn plan(device: &BossDevice<'_>, expr: &QueryExpr) -> Result<QueryPlan, Error> {
    QueryPlan::from_expr(device.index(), expr, device.config())
}

impl SearchEngine for BossDevice<'_> {
    fn label(&self) -> String {
        format!(
            "{}x{}",
            self.config().et_mode.label(),
            self.config().n_cores
        )
    }

    fn clock_ghz(&self) -> f64 {
        self.config().clock_ghz
    }

    fn lanes(&self) -> usize {
        self.config().n_cores as usize
    }

    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        floor: f32,
    ) -> Result<QueryOutcome, Error> {
        self.search_expr_seeded(expr, k, floor)
    }

    fn fork(&self) -> Self {
        BossDevice::fork(self)
    }

    fn gang_width(&self, expr: &QueryExpr) -> usize {
        match plan(self, expr) {
            Ok(plan) => plan
                .n_distinct_terms()
                .div_ceil(self.config().max_terms_per_core)
                .max(1)
                .min(self.lanes()),
            Err(_) => 1,
        }
    }

    fn work_estimate(&self, expr: &QueryExpr) -> u64 {
        match plan(self, expr) {
            Ok(plan) => plan
                .groups()
                .iter()
                .flatten()
                .map(|&t| u64::from(self.index().list(t).df()))
                .sum(),
            Err(_) => 0,
        }
    }

    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        mem.busy_cycles / u64::from(self.config().memory.channels).max(1)
    }
}

impl SearchEngine for IiuEngine<'_> {
    fn label(&self) -> String {
        format!("IIUx{}", self.config().n_cores)
    }

    fn clock_ghz(&self) -> f64 {
        self.config().clock_ghz
    }

    fn lanes(&self) -> usize {
        self.config().n_cores as usize
    }

    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        _floor: f32,
    ) -> Result<QueryOutcome, Error> {
        self.execute(expr, k)
    }

    fn fork(&self) -> Self {
        self.clone()
    }

    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        mem.busy_cycles / u64::from(self.config().memory.channels.max(1))
    }
}

impl SearchEngine for LuceneEngine<'_> {
    fn label(&self) -> String {
        format!("Lucene x{}", self.config().n_threads)
    }

    fn clock_ghz(&self) -> f64 {
        self.config().clock_ghz
    }

    fn lanes(&self) -> usize {
        self.config().n_threads as usize
    }

    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        _floor: f32,
    ) -> Result<QueryOutcome, Error> {
        self.execute(expr, k)
    }

    fn fork(&self) -> Self {
        self.clone()
    }

    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        // The host core clock (2.7 GHz) differs from the 1 GHz memory
        // clock the occupancy is counted in, so the roofline converts
        // through floating point rather than integer division.
        (mem.busy_cycles as f64 / f64::from(self.config().memory.channels.max(1))
            * self.config().clock_ghz) as u64
    }

    fn bandwidth_gbps(&self, mem: &MemStats, makespan_cycles: u64) -> f64 {
        // Host-side view: logical bytes, not device-granule traffic.
        if makespan_cycles == 0 {
            return 0.0;
        }
        let seconds = makespan_cycles as f64 / (self.clock_ghz() * 1e9);
        mem.total_bytes() as f64 / (seconds * 1e9)
    }
}
