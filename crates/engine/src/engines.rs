//! [`SearchEngine`] on the three simulators themselves.
//!
//! Each impl forwards the query to the simulator's own entry point and
//! supplies its clock, its [`EngineSetup`] (lanes and memory, from which
//! the trait derives the bandwidth roofline) and the scheduling hooks
//! (`gang_width`, `work_estimate`) the
//! [`BatchExecutor`](crate::BatchExecutor) needs.

use crate::SearchEngine;
use boss_core::{BossDevice, EngineSetup, QueryOutcome, QueryPlan, CLOCK_GHZ, MAX_TERMS_PER_CORE};
use boss_iiu::IiuEngine;
use boss_index::{Error, QueryExpr};
use boss_luceneish::{LuceneEngine, HOST_CLOCK_GHZ};
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
        format!("{}x{}", self.config().et_mode.label(), self.setup().lanes)
    }

    fn clock_ghz(&self) -> f64 {
        CLOCK_GHZ
    }

    fn setup(&self) -> &EngineSetup {
        &self.config().setup
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
                .div_ceil(MAX_TERMS_PER_CORE)
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
}

impl SearchEngine for IiuEngine<'_> {
    fn label(&self) -> String {
        format!("IIUx{}", self.setup().lanes)
    }

    fn clock_ghz(&self) -> f64 {
        CLOCK_GHZ
    }

    fn setup(&self) -> &EngineSetup {
        &self.config().setup
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
}

impl SearchEngine for LuceneEngine<'_> {
    fn label(&self) -> String {
        format!("Lucene x{}", self.setup().lanes)
    }

    fn clock_ghz(&self) -> f64 {
        HOST_CLOCK_GHZ
    }

    fn setup(&self) -> &EngineSetup {
        &self.config().setup
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

    fn bandwidth_gbps(&self, mem: &MemStats, makespan_cycles: u64) -> f64 {
        // Host-side view: logical bytes, not device-granule traffic.
        if makespan_cycles == 0 {
            return 0.0;
        }
        let seconds = makespan_cycles as f64 / (self.clock_ghz() * 1e9);
        mem.total_bytes() as f64 / (seconds * 1e9)
    }
}
