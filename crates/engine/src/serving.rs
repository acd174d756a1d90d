//! Open-loop serving: bounded admission, deadlines, and graceful
//! overload degradation over any [`SearchEngine`].
//!
//! The [`BatchExecutor`](crate::BatchExecutor) answers "how fast can the
//! device drain a closed batch"; this module answers the production
//! question — what happens when queries *arrive on their own schedule*,
//! ready or not. It replays a deterministic arrival trace (see
//! `boss_workload::arrivals`) against a pool of simulated servers fed by
//! a **bounded admission queue**, with per-query deadlines, pluggable
//! scheduling, and an overload controller that flips the engines'
//! degrade levers as pressure builds.
//!
//! # Two-phase design: measure, then simulate
//!
//! A query's simulated service time is a pure function of the engine and
//! the query — it does not depend on what else is queued. The harness
//! exploits this by splitting serving into:
//!
//! 1. **Measure** ([`ServiceTable::measure`]) — every query is executed
//!    once per configured [`DegradeLevel`] through the deterministic
//!    [`BatchExecutor`](crate::BatchExecutor), recording its service
//!    cycles and a hash of its served top-k. OS-thread parallelism lives
//!    only here, and outcomes are bit-identical at every thread count by
//!    the executor's contract.
//! 2. **Simulate** ([`simulate`]) — a strictly serial, integer-cycle
//!    event replay: arrivals are admitted or rejected against the queue
//!    bound, dequeued per the scheduling policy, expired on dequeue when
//!    their deadline has already passed, and served at the degrade level
//!    the overload controller currently commands.
//!
//! Every admission, shed, expiry, and served-result decision is therefore
//! a function of `(arrival trace, service table, config)` alone — *never*
//! of OS-thread interleaving — which is what the CI determinism diffs
//! enforce at 1/2/4 workers and 1/4 shards.
//!
//! # Scheduling policies
//!
//! * [`ServePolicy::Fifo`] — arrival order;
//! * [`ServePolicy::Sjf`] — shortest measured normal-level service first
//!   (oracle SJF: the simulator knows true service times, making this the
//!   upper bound a real estimator approaches);
//! * [`ServePolicy::Edf`] — earliest absolute deadline first;
//! * [`ServePolicy::EdfShed`] — EDF plus *shed on overload*: a dequeued
//!   query predicted to finish past its deadline is dropped immediately
//!   instead of burning a server on work nobody will wait for.
//!
//! Every policy's ordering key is totalized by the arrival sequence
//! number, so ties dequeue deterministically.
//!
//! # Overload controller
//!
//! A three-state hysteresis machine (see [`OverloadConfig`]):
//!
//! ```text
//!   Normal --occupancy ≥ degrade--> Degraded --occupancy ≥ shed or
//!     ^                               |  ^      misses ≥ limit--> Shedding
//!     |   occupancy ≤ recover and     |  |                           |
//!     +---window quiet----------------+  +--occupancy ≤ recover------+
//! ```
//!
//! Its levers map to the stack's existing machinery: `Degraded` serves
//! at [`DegradeLevel::Pruned`] (a block-max pruned plan — same top-k,
//! fewer cycles; PR 6), `Shedding` additionally serves
//! [`DegradeLevel::Brownout`] (pruned *and* reduced k — cheaper still,
//! deliberately smaller results) and halves the admission bound. On
//! sharded engines the per-level engines are `Sharded`, so PR 5's
//! replica health routing rides along as a further lever under faults.

// The serving layer is the one module a production deployment would run
// continuously, so it is held to panic-freedom: CI promotes these to
// errors with `-D warnings`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::{BatchExecutor, SearchEngine};
use boss_index::{Error, QueryExpr, SearchHit};

/// Dequeue ordering of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServePolicy {
    /// Arrival order.
    #[default]
    Fifo,
    /// Shortest measured (normal-level) service time first.
    Sjf,
    /// Earliest absolute deadline first.
    Edf,
    /// EDF, dropping dequeued queries predicted to miss their deadline.
    EdfShed,
}

/// All policies, in sweep order.
pub const ALL_SERVE_POLICIES: [ServePolicy; 4] = [
    ServePolicy::Fifo,
    ServePolicy::Sjf,
    ServePolicy::Edf,
    ServePolicy::EdfShed,
];

impl ServePolicy {
    /// The label used in bench output.
    pub fn label(self) -> &'static str {
        match self {
            ServePolicy::Fifo => "fifo",
            ServePolicy::Sjf => "sjf",
            ServePolicy::Edf => "edf",
            ServePolicy::EdfShed => "shed",
        }
    }
}

impl std::fmt::Display for ServePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ServePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(ServePolicy::Fifo),
            "sjf" => Ok(ServePolicy::Sjf),
            "edf" => Ok(ServePolicy::Edf),
            "shed" | "edfshed" => Ok(ServePolicy::EdfShed),
            other => Err(format!(
                "unknown serve policy {other:?}: expected fifo, sjf, edf, or shed"
            )),
        }
    }
}

/// Service quality a query is executed at, the overload controller's
/// lever. Levels fall back downward when a table does not carry them
/// (a table measured without a pruned engine serves `Normal` always).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// The configured plan at full k.
    Normal = 0,
    /// Block-max pruned plan: bit-identical top-k, fewer cycles.
    Pruned = 1,
    /// Pruned plan at reduced k: cheaper still, smaller results.
    Brownout = 2,
}

impl DegradeLevel {
    /// The label used in decision logs.
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::Pruned => "pruned",
            DegradeLevel::Brownout => "brownout",
        }
    }
}

impl std::fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Overload-controller thresholds. Occupancy is queue length over the
/// admission bound; misses are deadline expiries, sheds, and served-late
/// completions within the last [`OverloadConfig::miss_window`] dequeues.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Enter `Degraded` at or above this queue occupancy.
    pub degrade_occupancy: f64,
    /// Enter `Shedding` at or above this queue occupancy.
    pub shed_occupancy: f64,
    /// Step one state down at or below this occupancy (hysteresis).
    pub recover_occupancy: f64,
    /// Dequeue-outcome window the miss rate is counted over.
    pub miss_window: usize,
    /// Misses within the window that force `Shedding`.
    pub miss_limit: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            degrade_occupancy: 0.50,
            shed_occupancy: 0.85,
            recover_occupancy: 0.20,
            miss_window: 32,
            miss_limit: 8,
        }
    }
}

/// Overload controller state; maps one-to-one onto the
/// [`DegradeLevel`] queries are served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum OverloadState {
    #[default]
    Normal,
    Degraded,
    Shedding,
}

/// The three-state hysteresis machine of the module docs. Deterministic:
/// its only inputs are queue occupancy and the windowed miss count, both
/// pure simulated quantities.
#[derive(Debug)]
struct OverloadController {
    config: OverloadConfig,
    state: OverloadState,
    /// Ring of recent dequeue outcomes (true = miss).
    window: std::collections::VecDeque<bool>,
    misses_in_window: usize,
    transitions: u64,
}

impl OverloadController {
    fn new(config: OverloadConfig) -> Self {
        OverloadController {
            config,
            state: OverloadState::Normal,
            window: std::collections::VecDeque::new(),
            misses_in_window: 0,
            transitions: 0,
        }
    }

    fn note_dequeue(&mut self, miss: bool) {
        self.window.push_back(miss);
        if miss {
            self.misses_in_window += 1;
        }
        while self.window.len() > self.config.miss_window.max(1) {
            if self.window.pop_front() == Some(true) {
                self.misses_in_window -= 1;
            }
        }
    }

    fn observe(&mut self, queue_len: usize, bound: usize) {
        let occ = queue_len as f64 / bound.max(1) as f64;
        let c = &self.config;
        let miss_hot = self.misses_in_window >= c.miss_limit.max(1);
        let next = match self.state {
            OverloadState::Normal => {
                if occ >= c.shed_occupancy || miss_hot {
                    OverloadState::Shedding
                } else if occ >= c.degrade_occupancy {
                    OverloadState::Degraded
                } else {
                    OverloadState::Normal
                }
            }
            OverloadState::Degraded => {
                if occ >= c.shed_occupancy || miss_hot {
                    OverloadState::Shedding
                } else if occ <= c.recover_occupancy && self.misses_in_window == 0 {
                    OverloadState::Normal
                } else {
                    OverloadState::Degraded
                }
            }
            OverloadState::Shedding => {
                if occ <= c.recover_occupancy && !miss_hot {
                    OverloadState::Degraded
                } else {
                    OverloadState::Shedding
                }
            }
        };
        if next != self.state {
            self.transitions += 1;
            self.state = next;
        }
    }

    fn level(&self) -> DegradeLevel {
        match self.state {
            OverloadState::Normal => DegradeLevel::Normal,
            OverloadState::Degraded => DegradeLevel::Pruned,
            OverloadState::Shedding => DegradeLevel::Brownout,
        }
    }

    /// Admission bound under the current state: `Shedding` halves it.
    fn effective_bound(&self, bound: usize) -> usize {
        match self.state {
            OverloadState::Shedding => (bound / 2).max(1),
            _ => bound,
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Simulated parallel servers draining the queue (an engine's lanes,
    /// typically). Clamped to ≥ 1.
    pub servers: usize,
    /// Admission queue bound; arrivals finding the queue at the bound are
    /// rejected. Clamped to ≥ 1 — there is no unbounded mode.
    pub queue_bound: usize,
    /// Sojourn budget in cycles: a query must *finish* within
    /// `arrival + deadline`. `None` disables deadlines (and makes EDF
    /// order degenerate to FIFO).
    pub deadline_cycles: Option<u64>,
    /// Dequeue ordering.
    pub policy: ServePolicy,
    /// Overload controller; `None` pins every query to
    /// [`DegradeLevel::Normal`] with a constant admission bound.
    pub overload: Option<OverloadConfig>,
}

impl ServingConfig {
    /// A FIFO, no-deadline, no-degrade configuration — the open-queue
    /// baseline.
    pub fn fifo(servers: usize, queue_bound: usize) -> Self {
        ServingConfig {
            servers,
            queue_bound,
            deadline_cycles: None,
            policy: ServePolicy::Fifo,
            overload: None,
        }
    }
}

/// Measured per-level service data of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelService {
    cycles: u64,
    hits_hash: u64,
}

/// Per-query service measurements at every configured [`DegradeLevel`] —
/// the pure "physics" the serving simulation replays. Build one with
/// [`ServiceTable::measure`] (real engines) or
/// [`ServiceTable::from_cycles`] (synthetic, for property tests).
#[derive(Debug, Clone)]
pub struct ServiceTable {
    normal: Vec<LevelService>,
    pruned: Option<Vec<LevelService>>,
    brownout: Option<Vec<LevelService>>,
}

/// FNV-1a over the served hits: order-sensitive, so two runs agree only
/// when docIDs, ranks, and score bits all agree.
fn hash_hits(hits: &[SearchHit]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u64| {
        for i in 0..8 {
            h ^= (b >> (8 * i)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for hit in hits {
        eat(u64::from(hit.doc));
        eat(u64::from(hit.score.to_bits()));
    }
    h
}

fn measure_level<E: SearchEngine + Send>(
    engine: &E,
    queries: &[QueryExpr],
    k: usize,
    threads: usize,
) -> Result<Vec<LevelService>, Error> {
    let batch = BatchExecutor::with_threads(threads).run(engine, queries, k)?;
    Ok(batch
        .outcomes
        .iter()
        .map(|o| LevelService {
            cycles: o.cycles.max(1),
            hits_hash: hash_hits(&o.hits),
        })
        .collect())
}

impl ServiceTable {
    /// Measures `queries` on the per-level engines through the
    /// deterministic executor: `normal` at full `k`; `pruned` (when
    /// given) at full `k`; the brownout level reuses the pruned engine at
    /// `brownout_k`. `threads` changes wall-clock time only — the table
    /// is bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// The first query (in submission order) that fails to plan or
    /// decode on any of the engines.
    pub fn measure<E: SearchEngine + Send>(
        normal: &E,
        pruned: Option<&E>,
        queries: &[QueryExpr],
        k: usize,
        brownout_k: usize,
        threads: usize,
    ) -> Result<Self, Error> {
        let normal_svc = measure_level(normal, queries, k, threads)?;
        let pruned_svc = match pruned {
            Some(e) => Some(measure_level(e, queries, k, threads)?),
            None => None,
        };
        let brownout_svc = match pruned {
            Some(e) => Some(measure_level(e, queries, brownout_k.clamp(1, k), threads)?),
            None => None,
        };
        Ok(ServiceTable {
            normal: normal_svc,
            pruned: pruned_svc,
            brownout: brownout_svc,
        })
    }

    /// A synthetic table from raw per-level cycle counts (hashes are
    /// zero) — the property-test entry point. Zero cycles clamp to one;
    /// degraded vectors shorter than `normal` fall back per query.
    pub fn from_cycles(
        normal: Vec<u64>,
        pruned: Option<Vec<u64>>,
        brownout: Option<Vec<u64>>,
    ) -> Self {
        let lift = |v: Vec<u64>| {
            v.into_iter()
                .map(|c| LevelService {
                    cycles: c.max(1),
                    hits_hash: 0,
                })
                .collect::<Vec<_>>()
        };
        ServiceTable {
            normal: lift(normal),
            pruned: pruned.map(lift),
            brownout: brownout.map(lift),
        }
    }

    /// Queries in the table.
    pub fn len(&self) -> usize {
        self.normal.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.normal.is_empty()
    }

    /// Mean normal-level service cycles (0.0 when empty) — the capacity
    /// anchor offered-load sweeps are scaled from.
    pub fn mean_normal_cycles(&self) -> f64 {
        if self.normal.is_empty() {
            return 0.0;
        }
        self.normal.iter().map(|s| s.cycles as f64).sum::<f64>() / self.normal.len() as f64
    }

    /// Resolves `level` for query `qi`, falling back toward `Normal`
    /// when a level was not measured.
    fn service(&self, level: DegradeLevel, qi: usize) -> (DegradeLevel, LevelService) {
        let pick = |v: &Option<Vec<LevelService>>| v.as_ref().and_then(|v| v.get(qi).copied());
        if level >= DegradeLevel::Brownout {
            if let Some(s) = pick(&self.brownout) {
                return (DegradeLevel::Brownout, s);
            }
        }
        if level >= DegradeLevel::Pruned {
            if let Some(s) = pick(&self.pruned) {
                return (DegradeLevel::Pruned, s);
            }
        }
        (
            DegradeLevel::Normal,
            self.normal.get(qi).copied().unwrap_or(LevelService {
                cycles: 1,
                hits_hash: 0,
            }),
        )
    }
}

/// What happened to one query — the drop-log entry the CI determinism
/// diffs compare bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Dispatched to a server and completed.
    Served {
        /// Quality level it was executed at.
        level: DegradeLevel,
        /// Dispatch cycle.
        start: u64,
        /// Completion cycle.
        finish: u64,
        /// Hash of the served top-k (see `ServiceTable`).
        hits_hash: u64,
    },
    /// Refused at admission: the queue was at its (effective) bound.
    Rejected,
    /// Dequeued after its deadline had already passed; no service time
    /// was spent on it.
    Expired {
        /// The dequeue cycle at which it was found dead.
        at: u64,
    },
    /// Dropped by [`ServePolicy::EdfShed`]: dequeued alive but predicted
    /// to finish past its deadline.
    Shed {
        /// The dequeue cycle at which it was shed.
        at: u64,
    },
}

impl Disposition {
    /// The label used in decision logs.
    pub fn label(&self) -> &'static str {
        match self {
            Disposition::Served { .. } => "served",
            Disposition::Rejected => "rejected",
            Disposition::Expired { .. } => "expired",
            Disposition::Shed { .. } => "shed",
        }
    }
}

/// One query's record in a [`ServingRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Arrival cycle.
    pub arrival: u64,
    /// What became of it.
    pub disposition: Disposition,
}

/// Result of one serving simulation.
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// Per-query records, in arrival order.
    pub records: Vec<QueryRecord>,
    /// Sojourn times (arrival → completion) of served queries, sorted.
    sojourns_sorted: Vec<u64>,
    /// Served queries per degrade level, indexed by level.
    pub served_by_level: [usize; 3],
    /// Queries refused at admission.
    pub rejected: usize,
    /// Queries expired on dequeue.
    pub expired: usize,
    /// Queries shed on dequeue.
    pub shed: usize,
    /// Served queries that completed after their deadline.
    pub served_late: usize,
    /// Deepest the admission queue ever got (≤ the configured bound).
    pub max_queue_depth: usize,
    /// Completion cycle of the last served query.
    pub makespan_cycles: u64,
    /// Overload-controller state changes.
    pub controller_transitions: u64,
}

impl ServingRun {
    /// Served queries (any level).
    pub fn served(&self) -> usize {
        self.sojourns_sorted.len()
    }

    /// Served queries that met their deadline — the goodput numerator.
    pub(crate) fn served_in_deadline(&self) -> usize {
        self.served() - self.served_late
    }

    /// Sojourn-time percentile over served queries, in cycles
    /// (0 when nothing was served). `p` in `[0, 1]`.
    pub fn sojourn_percentile(&self, p: f64) -> u64 {
        if self.sojourns_sorted.is_empty() {
            return 0;
        }
        let idx = ((self.sojourns_sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.sojourns_sorted[idx.min(self.sojourns_sorted.len() - 1)]
    }

    /// Mean sojourn time over served queries, cycles.
    pub fn mean_sojourn_cycles(&self) -> f64 {
        if self.sojourns_sorted.is_empty() {
            return 0.0;
        }
        self.sojourns_sorted.iter().map(|&c| c as f64).sum::<f64>()
            / self.sojourns_sorted.len() as f64
    }

    /// Goodput in queries/second at `clock_ghz`: served-within-deadline
    /// over the makespan.
    pub fn goodput_qps(&self, clock_ghz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.served_in_deadline() as f64 / (self.makespan_cycles as f64 / (clock_ghz * 1e9))
    }
}

/// A queued query awaiting dispatch.
#[derive(Debug, Clone, Copy)]
struct Queued {
    seq: usize,
    arrival: u64,
    abs_deadline: u64,
}

/// Dequeue-ordering key: policy-specific primary, arrival sequence as the
/// totalizing tie-break.
fn policy_key(policy: ServePolicy, q: &Queued, table: &ServiceTable) -> (u64, usize) {
    match policy {
        ServePolicy::Fifo => (0, q.seq),
        ServePolicy::Sjf => (table.service(DegradeLevel::Normal, q.seq).1.cycles, q.seq),
        ServePolicy::Edf | ServePolicy::EdfShed => (q.abs_deadline, q.seq),
    }
}

/// Replays `arrivals` against `table` under `config`. Strictly serial
/// and integer-exact: every decision is a pure function of the inputs.
///
/// `arrivals[i]` is the arrival cycle of query `i` of the table; the
/// trace must be non-decreasing (the generators produce strictly
/// increasing traces). When the lengths differ, the shorter prefix is
/// served.
pub fn simulate(config: &ServingConfig, arrivals: &[u64], table: &ServiceTable) -> ServingRun {
    let n = arrivals.len().min(table.len());
    let servers = config.servers.max(1);
    let bound = config.queue_bound.max(1);
    let mut controller = config.overload.clone().map(OverloadController::new);

    let mut server_free = vec![0u64; servers];
    let mut queue: Vec<Queued> = Vec::with_capacity(bound);
    let mut records: Vec<QueryRecord> = arrivals[..n]
        .iter()
        .map(|&arrival| QueryRecord {
            arrival,
            disposition: Disposition::Rejected,
        })
        .collect();
    let mut sojourns: Vec<u64> = Vec::with_capacity(n);
    let mut served_by_level = [0usize; 3];
    let (mut rejected, mut expired, mut shed, mut served_late) = (0, 0, 0, 0);
    let mut max_queue_depth = 0usize;
    let mut makespan = 0u64;

    // Dispatches queued queries onto servers for as long as a server
    // frees up at or before `horizon`. Between arrival events the queue
    // only drains, so the earliest-free server is always eligible first.
    macro_rules! drain {
        ($horizon:expr) => {
            while !queue.is_empty() {
                // Earliest-free server; index breaks ties for a stable,
                // deterministic assignment.
                let (si, free) = server_free
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(i, f)| (f, i))
                    .unwrap_or((0, 0));
                if free > $horizon {
                    break;
                }
                // Pick the next query per policy; the seq tie-break makes
                // the order total, so ties dequeue deterministically.
                let pick = queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, q)| policy_key(config.policy, q, table))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let q = queue.remove(pick);
                let start = free.max(q.arrival);
                // On-dequeue expiry: a query already past its deadline is
                // dropped without burning any service time on it.
                if start >= q.abs_deadline {
                    records[q.seq].disposition = Disposition::Expired { at: start };
                    expired += 1;
                    if let Some(c) = controller.as_mut() {
                        c.note_dequeue(true);
                        c.observe(queue.len(), bound);
                    }
                    continue;
                }
                let want = controller
                    .as_ref()
                    .map_or(DegradeLevel::Normal, |c| c.level());
                let (level, svc) = table.service(want, q.seq);
                let finish = start + svc.cycles;
                // Shed-on-overload: don't start work that is already
                // predicted to finish past its deadline.
                if config.policy == ServePolicy::EdfShed && finish > q.abs_deadline {
                    records[q.seq].disposition = Disposition::Shed { at: start };
                    shed += 1;
                    if let Some(c) = controller.as_mut() {
                        c.note_dequeue(true);
                        c.observe(queue.len(), bound);
                    }
                    continue;
                }
                server_free[si] = finish;
                makespan = makespan.max(finish);
                let late = finish > q.abs_deadline;
                if late {
                    served_late += 1;
                }
                served_by_level[level as usize] += 1;
                sojourns.push(finish - q.arrival);
                records[q.seq].disposition = Disposition::Served {
                    level,
                    start,
                    finish,
                    hits_hash: svc.hits_hash,
                };
                if let Some(c) = controller.as_mut() {
                    c.note_dequeue(late);
                    c.observe(queue.len(), bound);
                }
            }
        };
    }

    for (seq, &arrival) in arrivals.iter().enumerate().take(n) {
        drain!(arrival);
        if let Some(c) = controller.as_mut() {
            c.observe(queue.len(), bound);
        }
        let bound_now = controller
            .as_ref()
            .map_or(bound, |c| c.effective_bound(bound));
        if queue.len() >= bound_now {
            // records[seq] already reads Rejected.
            rejected += 1;
            continue;
        }
        let abs_deadline = config
            .deadline_cycles
            .map_or(u64::MAX, |d| arrival.saturating_add(d));
        queue.push(Queued {
            seq,
            arrival,
            abs_deadline,
        });
        max_queue_depth = max_queue_depth.max(queue.len());
    }
    drain!(u64::MAX);

    sojourns.sort_unstable();
    ServingRun {
        records,
        sojourns_sorted: sojourns,
        served_by_level,
        rejected,
        expired,
        shed,
        served_late,
        max_queue_depth,
        makespan_cycles: makespan,
        controller_transitions: controller.map_or(0, |c| c.transitions),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::Boss;
    use boss_core::{BossConfig, QueryAlgorithm};
    use boss_index::{IndexBuilder, InvertedIndex};

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..500)
            .map(|i| {
                let mut t = String::from("base");
                if i % 2 == 0 {
                    t.push_str(" even even");
                }
                if i % 3 == 0 {
                    t.push_str(" three");
                }
                if i % 7 == 0 {
                    t.push_str(" seven");
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    fn queries() -> Vec<QueryExpr> {
        (0..24)
            .map(|i| match i % 3 {
                0 => QueryExpr::term("even"),
                1 => QueryExpr::or([QueryExpr::term("three"), QueryExpr::term("seven")]),
                _ => QueryExpr::and([QueryExpr::term("even"), QueryExpr::term("three")]),
            })
            .collect()
    }

    fn uniform_arrivals(n: usize, gap: u64) -> Vec<u64> {
        (1..=n as u64).map(|i| i * gap).collect()
    }

    #[test]
    fn service_table_is_thread_invariant() {
        let idx = corpus();
        let qs = queries();
        let normal = Boss::new(&idx, BossConfig::with_cores(2));
        let pruned = Boss::new(
            &idx,
            BossConfig::with_cores(2).with_algorithm(QueryAlgorithm::BlockMaxMaxScore),
        );
        let base = ServiceTable::measure(&normal, Some(&pruned), &qs, 10, 3, 1).unwrap();
        for threads in [2usize, 4] {
            let t = ServiceTable::measure(&normal, Some(&pruned), &qs, 10, 3, threads).unwrap();
            assert_eq!(t.normal, base.normal, "{threads} threads");
            assert_eq!(t.pruned, base.pruned, "{threads} threads");
            assert_eq!(t.brownout, base.brownout, "{threads} threads");
        }
    }

    #[test]
    fn light_load_serves_everything_normally() {
        let table = ServiceTable::from_cycles(vec![100; 16], None, None);
        let config = ServingConfig::fifo(4, 8);
        let run = simulate(&config, &uniform_arrivals(16, 10_000), &table);
        assert_eq!(run.served(), 16);
        assert_eq!(run.rejected + run.expired + run.shed, 0);
        assert_eq!(run.served_by_level, [16, 0, 0]);
        // No queueing: sojourn == service.
        assert_eq!(run.sojourn_percentile(1.0), 100);
        assert_eq!(run.max_queue_depth, 1);
    }

    #[test]
    fn overload_rejects_but_never_exceeds_the_bound() {
        let table = ServiceTable::from_cycles(vec![1000; 200], None, None);
        let config = ServingConfig::fifo(1, 4);
        let run = simulate(&config, &uniform_arrivals(200, 10), &table);
        assert!(run.rejected > 100, "rejected {}", run.rejected);
        assert!(run.max_queue_depth <= 4);
        assert_eq!(run.served() + run.rejected, 200);
    }

    #[test]
    fn expired_queries_are_never_served_and_burn_no_service() {
        let table = ServiceTable::from_cycles(vec![1000; 50], None, None);
        let config = ServingConfig {
            servers: 1,
            queue_bound: 64,
            deadline_cycles: Some(1500),
            policy: ServePolicy::Edf,
            overload: None,
        };
        let run = simulate(&config, &uniform_arrivals(50, 100), &table);
        assert!(run.expired > 0);
        for r in &run.records {
            if let Disposition::Served { start, finish, .. } = r.disposition {
                assert!(start < r.arrival + 1500, "started past deadline");
                assert_eq!(finish - start, 1000, "full service charged");
            }
        }
        // With on-dequeue expiry only, some served queries may still
        // finish late; the shed policy removes those too.
        let shed_run = simulate(
            &ServingConfig {
                policy: ServePolicy::EdfShed,
                ..config
            },
            &uniform_arrivals(50, 100),
            &table,
        );
        assert_eq!(shed_run.served_late, 0);
        for r in &shed_run.records {
            if let Disposition::Served { finish, .. } = r.disposition {
                assert!(finish <= r.arrival + 1500);
            }
        }
    }

    #[test]
    fn edf_ties_dequeue_in_arrival_order() {
        // Same deadline everywhere: EDF's tie-break must reproduce FIFO.
        let cycles: Vec<u64> = (0..40).map(|i| 100 + (i % 7) * 50).collect();
        let table = ServiceTable::from_cycles(cycles, None, None);
        let arrivals: Vec<u64> = vec![10; 40]
            .iter()
            .scan(0u64, |t, &g| {
                *t += g;
                Some(*t)
            })
            .collect();
        let fifo = simulate(
            &ServingConfig {
                deadline_cycles: None,
                ..ServingConfig::fifo(2, 64)
            },
            &arrivals,
            &table,
        );
        let edf = simulate(
            &ServingConfig {
                deadline_cycles: None,
                policy: ServePolicy::Edf,
                ..ServingConfig::fifo(2, 64)
            },
            &arrivals,
            &table,
        );
        assert_eq!(fifo.records, edf.records);
    }

    #[test]
    fn degrade_controller_switches_levels_and_recovers() {
        // Normal service 10× slower than arrivals; pruned 10× cheaper.
        let n = 300;
        let table = ServiceTable::from_cycles(vec![1000; n], Some(vec![100; n]), Some(vec![50; n]));
        let config = ServingConfig {
            servers: 1,
            queue_bound: 32,
            deadline_cycles: Some(50_000),
            policy: ServePolicy::Edf,
            overload: Some(OverloadConfig::default()),
        };
        let run = simulate(&config, &uniform_arrivals(n, 150), &table);
        assert!(run.controller_transitions > 0, "controller never moved");
        let degraded = run.served_by_level[1] + run.served_by_level[2];
        assert!(degraded > 0, "no degraded service under overload");
        assert!(
            run.served_by_level[0] > 0,
            "controller never recovered to normal"
        );
        // Degradation keeps the system ahead of the load: nothing is
        // rejected once pruned service outruns the arrival rate.
        assert!(run.served() > n / 2);
    }

    #[test]
    fn simulate_is_deterministic() {
        let cycles: Vec<u64> = (0..128).map(|i| 50 + (i * 37) % 500).collect();
        let table = ServiceTable::from_cycles(cycles.clone(), Some(cycles), None);
        let arrivals = uniform_arrivals(128, 90);
        let config = ServingConfig {
            servers: 3,
            queue_bound: 16,
            deadline_cycles: Some(2_000),
            policy: ServePolicy::EdfShed,
            overload: Some(OverloadConfig::default()),
        };
        let a = simulate(&config, &arrivals, &table);
        let b = simulate(&config, &arrivals, &table);
        assert_eq!(a.records, b.records);
        assert_eq!(a.sojourns_sorted, b.sojourns_sorted);
    }

    /// `serving_latency`'s four postures — deadline-free FIFO and SJF,
    /// EDF with deadlines, EDF + shed + the overload controller — under and
    /// past saturation: every decision is bit-identical whether the service
    /// table was measured by 1, 2 or 4 workers.
    #[test]
    fn end_to_end_run_is_bit_identical_across_worker_counts() {
        const SERVERS: usize = 4;
        let idx = corpus();
        let qs = queries();
        let normal = Boss::new(&idx, BossConfig::with_cores(SERVERS as u32));
        let pruned = Boss::new(
            &idx,
            BossConfig::with_cores(SERVERS as u32).with_algorithm(QueryAlgorithm::BlockMaxMaxScore),
        );
        // (policy, deadlines, overload controller)
        let postures = [
            (ServePolicy::Fifo, false, false),
            (ServePolicy::Sjf, false, false),
            (ServePolicy::Edf, true, false),
            (ServePolicy::EdfShed, true, true),
        ];
        let decisions = |threads| {
            let table = ServiceTable::measure(&normal, Some(&pruned), &qs, 10, 3, threads).unwrap();
            let mean = table.mean_normal_cycles();
            let mut records = Vec::new();
            for load in [0.8, 2.0] {
                let arrivals = boss_workload::arrivals::generate(
                    boss_workload::arrivals::ArrivalKind::Poisson,
                    qs.len(),
                    mean / (SERVERS as f64 * load),
                    7,
                );
                for (policy, deadlines, degrade) in postures {
                    let config = ServingConfig {
                        servers: SERVERS,
                        queue_bound: 8,
                        deadline_cycles: deadlines.then_some((20.0 * mean) as u64),
                        policy,
                        overload: degrade.then(OverloadConfig::default),
                    };
                    records.push(simulate(&config, &arrivals, &table).records);
                }
            }
            records
        };
        let base = decisions(1);
        assert_eq!(base.len(), 8);
        for threads in [2usize, 4] {
            assert_eq!(decisions(threads), base, "{threads} workers");
        }
    }

    #[test]
    fn brownout_falls_back_when_unmeasured() {
        let table = ServiceTable::from_cycles(vec![100; 4], Some(vec![40; 4]), None);
        let (level, svc) = table.service(DegradeLevel::Brownout, 2);
        assert_eq!(level, DegradeLevel::Pruned);
        assert_eq!(svc.cycles, 40);
        let bare = ServiceTable::from_cycles(vec![100; 4], None, None);
        let (level, svc) = bare.service(DegradeLevel::Brownout, 0);
        assert_eq!(level, DegradeLevel::Normal);
        assert_eq!(svc.cycles, 100);
    }

    #[test]
    fn policy_and_kind_labels_parse() {
        for p in ALL_SERVE_POLICIES {
            assert_eq!(p.label().parse::<ServePolicy>().unwrap(), p);
        }
        assert!("lifo".parse::<ServePolicy>().is_err());
    }
}
