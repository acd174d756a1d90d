//! [`SearchEngine`] adapters for the three simulated systems.
//!
//! Each adapter owns the underlying simulator plus the accumulated
//! [`MemStats`]/[`EvalCounts`] of every query it has executed, and
//! supplies the scheduling hooks (`gang_width`, `work_estimate`,
//! bandwidth roofline) the [`BatchExecutor`](crate::BatchExecutor)
//! needs. The hook implementations reproduce the per-system batch
//! drivers the bench crate used to hand-write, constant for constant.

use crate::SearchEngine;
use boss_core::{BossConfig, BossDevice, EvalCounts, QueryOutcome, QueryPlan};
use boss_iiu::{IiuConfig, IiuEngine};
use boss_index::{Error, InvertedIndex, QueryExpr};
use boss_luceneish::{LuceneConfig, LuceneEngine};
use boss_scm::MemStats;

/// The BOSS accelerator as a [`SearchEngine`].
#[derive(Debug)]
pub struct Boss<'a> {
    device: BossDevice<'a>,
    mem: MemStats,
    eval: EvalCounts,
}

impl<'a> Boss<'a> {
    /// A BOSS device over `index` with zeroed accumulators.
    pub fn new(index: &'a InvertedIndex, config: BossConfig) -> Self {
        Self::over(BossDevice::new(index, config))
    }

    fn over(device: BossDevice<'a>) -> Self {
        Boss {
            device,
            mem: MemStats::new(),
            eval: EvalCounts::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &BossConfig {
        self.device.config()
    }

    /// The underlying device (e.g. for `search_host_merged`).
    pub fn device(&self) -> &BossDevice<'a> {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut BossDevice<'a> {
        &mut self.device
    }

    /// Executes an oversized union via the host-merged path
    /// (Section IV-D), accumulating its stats like [`SearchEngine::search`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidQuery`] for oversized non-union shapes, plus the
    /// usual planning errors.
    pub fn search_host_merged(
        &mut self,
        expr: &QueryExpr,
        k: usize,
    ) -> Result<QueryOutcome, Error> {
        let out = self.device.search_host_merged(expr, k)?;
        self.mem.merge(&out.mem);
        self.eval.merge(&out.eval);
        Ok(out)
    }

    fn plan(&self, expr: &QueryExpr) -> Result<QueryPlan, Error> {
        QueryPlan::from_expr(self.device.index(), expr, self.device.config())
    }
}

impl SearchEngine for Boss<'_> {
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

    fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        let out = self.device.search_expr(expr, k)?;
        self.mem.merge(&out.mem);
        self.eval.merge(&out.eval);
        Ok(out)
    }

    fn search_seeded(
        &mut self,
        expr: &QueryExpr,
        k: usize,
        floor: f32,
    ) -> Result<QueryOutcome, Error> {
        let out = self.device.search_expr_seeded(expr, k, floor)?;
        self.mem.merge(&out.mem);
        self.eval.merge(&out.eval);
        Ok(out)
    }

    fn mem_stats(&self) -> &MemStats {
        &self.mem
    }

    fn eval_counts(&self) -> &EvalCounts {
        &self.eval
    }

    fn reset_stats(&mut self) {
        self.mem = MemStats::new();
        self.eval = EvalCounts::default();
    }

    fn fork(&self) -> Self {
        Self::over(self.device.fork())
    }

    fn gang_width(&self, expr: &QueryExpr) -> usize {
        match self.plan(expr) {
            Ok(plan) => plan
                .n_distinct_terms()
                .div_ceil(self.config().max_terms_per_core)
                .max(1)
                .min(self.lanes()),
            Err(_) => 1,
        }
    }

    fn work_estimate(&self, expr: &QueryExpr) -> u64 {
        match self.plan(expr) {
            Ok(plan) => plan
                .groups()
                .iter()
                .flatten()
                .map(|&t| u64::from(self.device.index().list(t).df()))
                .sum(),
            Err(_) => 0,
        }
    }

    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        mem.busy_cycles / u64::from(self.config().memory.channels).max(1)
    }
}

/// The IIU baseline accelerator as a [`SearchEngine`].
#[derive(Debug)]
pub struct Iiu<'a> {
    index: &'a InvertedIndex,
    engine: IiuEngine<'a>,
    mem: MemStats,
    eval: EvalCounts,
}

impl<'a> Iiu<'a> {
    /// An IIU device over `index` with zeroed accumulators.
    pub fn new(index: &'a InvertedIndex, config: IiuConfig) -> Self {
        Self::over(index, IiuEngine::new(index, config))
    }

    fn over(index: &'a InvertedIndex, engine: IiuEngine<'a>) -> Self {
        Iiu {
            index,
            engine,
            mem: MemStats::new(),
            eval: EvalCounts::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &IiuConfig {
        self.engine.config()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &IiuEngine<'a> {
        &self.engine
    }
}

impl SearchEngine for Iiu<'_> {
    fn label(&self) -> String {
        format!("IIUx{}", self.config().n_cores)
    }

    fn clock_ghz(&self) -> f64 {
        self.config().clock_ghz
    }

    fn lanes(&self) -> usize {
        self.config().n_cores as usize
    }

    fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        let out = self.engine.execute(expr, k)?;
        self.mem.merge(&out.mem);
        self.eval.merge(&out.eval);
        Ok(out)
    }

    fn mem_stats(&self) -> &MemStats {
        &self.mem
    }

    fn eval_counts(&self) -> &EvalCounts {
        &self.eval
    }

    fn reset_stats(&mut self) {
        self.mem = MemStats::new();
        self.eval = EvalCounts::default();
    }

    fn fork(&self) -> Self {
        Self::over(self.index, self.engine.clone())
    }

    fn bandwidth_limit_cycles(&self, mem: &MemStats) -> u64 {
        mem.busy_cycles / u64::from(self.config().memory.channels.max(1))
    }
}

/// The Lucene-like software baseline as a [`SearchEngine`].
#[derive(Debug)]
pub struct Lucene<'a> {
    index: &'a InvertedIndex,
    engine: LuceneEngine<'a>,
    mem: MemStats,
    eval: EvalCounts,
}

impl<'a> Lucene<'a> {
    /// A Lucene-like engine over `index` with zeroed accumulators.
    pub fn new(index: &'a InvertedIndex, config: LuceneConfig) -> Self {
        Self::over(index, LuceneEngine::new(index, config))
    }

    fn over(index: &'a InvertedIndex, engine: LuceneEngine<'a>) -> Self {
        Lucene {
            index,
            engine,
            mem: MemStats::new(),
            eval: EvalCounts::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &LuceneConfig {
        self.engine.config()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &LuceneEngine<'a> {
        &self.engine
    }
}

impl SearchEngine for Lucene<'_> {
    fn label(&self) -> String {
        format!("Lucene x{}", self.config().n_threads)
    }

    fn clock_ghz(&self) -> f64 {
        self.config().clock_ghz
    }

    fn lanes(&self) -> usize {
        self.config().n_threads as usize
    }

    fn search(&mut self, expr: &QueryExpr, k: usize) -> Result<QueryOutcome, Error> {
        let out = self.engine.execute(expr, k)?;
        self.mem.merge(&out.mem);
        self.eval.merge(&out.eval);
        Ok(out)
    }

    fn mem_stats(&self) -> &MemStats {
        &self.mem
    }

    fn eval_counts(&self) -> &EvalCounts {
        &self.eval
    }

    fn reset_stats(&mut self) {
        self.mem = MemStats::new();
        self.eval = EvalCounts::default();
    }

    fn fork(&self) -> Self {
        Self::over(self.index, self.engine.clone())
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
