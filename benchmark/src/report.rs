//! The metric tables (`BENCHMARK.json` mirrors them; a unit test checks
//! that) and the per-run report: human-readable lines, the driver's
//! one-line JSON result, and the `--out` record `compare` reads.

use crate::stats::Summary;
use serde::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Integer or simulated: repeats bit for bit for one seed and commit,
    /// so `compare` reports any change at all.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the driver's contract), so
/// each is defined for any index + query mix; metrics only one workload
/// could produce live in the per-layer table instead.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", Lower, false),
        def("boss_host_qps", "1/s", Higher, false),
        def("iiu_host_qps", "1/s", Higher, false),
        def("lucene_host_qps", "1/s", Higher, false),
        def("boss_host_p50_us", "us", Lower, false),
        def("boss_host_p99_us", "us", Lower, false),
        def("boss_sim_qps", "1/s", Higher, true),
        def("sim_speedup_vs_iiu", "x", Higher, true),
        def("sim_speedup_vs_lucene", "x", Higher, true),
        def("peak_rss_mb", "MiB", Lower, false),
        def("build_docs_per_s", "1/s", Higher, false),
        def("index_bytes_per_posting", "B/posting", Lower, true),
        def("serve_sim_p99_us", "us", Lower, true),
    ]
}

pub const SCHEMES: [&str; 5] = ["bp", "vb", "optpfd", "s16", "s8b"];
pub const QTYPES: [&str; 6] = ["q1", "q2", "q3", "q4", "q5", "q6"];
pub const LOADS: [(&str, f64); 4] = [("l050", 0.5), ("l080", 0.8), ("l100", 1.0), ("l120", 1.2)];
pub const ENGINES: [&str; 3] = ["boss", "iiu", "lucene"];

/// Per-layer metrics, named by crate/module. A layer a workload does not
/// exercise reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("workload.corpus_gen_s", "s", Lower, false),
        def("workload.query_sample_s", "s", Lower, false),
        def("workload.doc_stream_docs_per_s", "docs/s", Higher, false),
        def("roofline.memcpy_gb_per_s", "GB/s", Higher, false),
        def("roofline.sum_u32_gints_per_s", "Gint/s", Higher, false),
    ];
    for s in SCHEMES {
        v.push(def(
            &format!("compress.decode_mints_per_s.{s}"),
            "Mint/s",
            Higher,
            false,
        ));
    }
    for s in SCHEMES {
        v.push(def(
            &format!("compress.encode_mints_per_s.{s}"),
            "Mint/s",
            Higher,
            false,
        ));
    }
    for s in SCHEMES {
        v.push(def(
            &format!("compress.bits_per_int.{s}"),
            "bit",
            Lower,
            true,
        ));
    }
    for s in SCHEMES {
        v.push(def(
            &format!("compress.hybrid_posting_share.{s}"),
            "frac",
            Higher,
            true,
        ));
    }
    v.extend([
        def("index.build_s", "s", Lower, false),
        def("index.build_mpostings_per_s", "Mpostings/s", Higher, false),
        def("index.meta_bytes_per_posting", "B/posting", Lower, true),
        def("index.decode_block_ns", "ns", Lower, false),
        def("index.decode_mpostings_per_s", "Mpostings/s", Higher, false),
        def("index.score_block_mdocs_per_s", "Mdocs/s", Higher, false),
        def("index.skip_to_block_ns", "ns", Lower, false),
        def("index.reference_us_per_query", "us/query", Lower, false),
        def("index.shard.split_s", "s", Lower, false),
        def("index.shard.merge_topk_us", "us", Lower, false),
        def("index.spimi.add_docs_per_s", "docs/s", Higher, false),
        def("index.spimi.spills", "count", Lower, true),
        def("index.spimi.peak_inmem_bytes", "bytes", Lower, true),
        def("index.segment.finish_s", "s", Lower, false),
        def("index.segment.open_s", "s", Lower, false),
        def("index.segment.open_dir_s", "s", Lower, false),
        def(
            "index.segment.merge_mpostings_per_s",
            "Mpostings/s",
            Higher,
            false,
        ),
        def(
            "index.segment.disk_bytes_per_posting",
            "B/posting",
            Lower,
            true,
        ),
        def("decomp.decode_mints_per_s.bp", "Mint/s", Higher, false),
        def("decomp.decode_mints_per_s.optpfd", "Mint/s", Higher, false),
        def("decomp.plan_compile_us", "us", Lower, false),
        def("scm.access_ns", "ns", Lower, false),
        def("scm.seq_bytes", "bytes", Lower, true),
        def("scm.rand_bytes", "bytes", Lower, true),
        def("scm.rand_accesses", "count", Lower, true),
        def("scm.effective_bytes", "bytes", Lower, true),
        def("scm.busy_cycles", "cycles", Lower, true),
        def("scm.ld_list_bytes", "bytes", Lower, true),
        def("scm.ld_meta_bytes", "bytes", Lower, true),
        def("core.plan_us", "us", Lower, false),
        def("core.topk_offer_ns", "ns", Lower, false),
        def("core.topk_sift_mdocs_per_s", "Mdocs/s", Higher, false),
    ]);
    for q in QTYPES {
        v.push(def(
            &format!("core.host_us_per_query.{q}"),
            "us/query",
            Lower,
            false,
        ));
    }
    for q in QTYPES {
        v.push(def(
            &format!("core.sim_cycles_per_query.{q}"),
            "cycles/query",
            Lower,
            true,
        ));
    }
    v.extend([
        def("core.host_ns_per_posting", "ns/posting", Lower, false),
        def("core.host_ns_per_sim_cycle", "ns/cycle", Lower, false),
        def("core.docs_scored", "count", Lower, true),
        def("core.blocks_fetched", "count", Lower, true),
        def("core.blocks_skipped", "count", Higher, true),
        def("core.blocks_skipped_prune", "count", Higher, true),
        def("core.metas_read", "count", Lower, true),
        def("core.docs_scored_per_hit", "ratio", Lower, true),
        def("core.block_skip_ratio", "frac", Higher, true),
    ]);
    for e in ["iiu", "luceneish"] {
        v.extend([
            def(&format!("{e}.host_us_per_query"), "us/query", Lower, false),
            def(
                &format!("{e}.host_ns_per_posting"),
                "ns/posting",
                Lower,
                false,
            ),
            def(
                &format!("{e}.sim_cycles_per_query"),
                "cycles/query",
                Lower,
                true,
            ),
            def(&format!("{e}.docs_scored"), "count", Lower, true),
            def(&format!("{e}.blocks_fetched"), "count", Lower, true),
            def(&format!("{e}.scm_total_bytes"), "bytes", Lower, true),
        ]);
    }
    v.extend([
        def("engine.executor.overhead_frac", "frac", Lower, false),
        def("engine.executor.speedup_2t", "x", Higher, false),
        def("engine.sharded.host_us_per_query", "us/query", Lower, false),
        def("engine.sharded.fanout_overhead_frac", "frac", Lower, false),
        def("engine.sharded.sim_speedup_4s", "x", Higher, true),
        def("engine.serving.measure_s", "s", Lower, false),
        def(
            "engine.serving.simulate_ns_per_arrival",
            "ns/arrival",
            Lower,
            false,
        ),
        def("engine.serving.max_load_ok", "load", Higher, true),
    ]);
    for (l, _) in LOADS {
        v.push(def(
            &format!("engine.serving.sim_p99_us.{l}"),
            "us",
            Lower,
            true,
        ));
    }
    for (l, _) in LOADS {
        v.push(def(
            &format!("engine.serving.goodput_qps.{l}"),
            "1/s",
            Higher,
            true,
        ));
    }
    for (l, _) in LOADS {
        v.push(def(
            &format!("engine.serving.missed_frac.{l}"),
            "frac",
            Lower,
            true,
        ));
    }
    v.push(def(
        "engine.serving.controller_transitions.l120",
        "count",
        Lower,
        true,
    ));
    for e in ENGINES {
        for part in ["plan", "decode", "score", "topk", "other"] {
            v.push(def(
                &format!("trace.share.{part}.{e}"),
                "frac",
                Lower,
                false,
            ));
        }
    }
    v.push(def("trace.overhead_frac", "frac", Lower, false));
    v.push(def("calib.slowdown", "x", Lower, false));
    v
}

/// One workload run's results.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    values: BTreeMap<String, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons behind `failed` / a false `correct`.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            seconds,
            trace,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        self.values.insert(name.to_string(), summary);
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set(name, crate::stats::summarize(samples));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.values.get(name)
    }

    /// Records a failed check: counts toward `failed` and the exit code.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The table this run reports: end-to-end untraced, per-layer traced.
    pub fn defs(&self) -> Vec<MetricDef> {
        if self.trace {
            per_layer()
        } else {
            end_to_end()
        }
    }

    /// Checks the run produced what its table promises: every end-to-end
    /// metric present, finite and non-zero; unexercised layers become 0.
    pub fn finalize(&mut self) {
        for d in self.defs() {
            match self.values.get(&d.name) {
                Some(s) if s.median.is_finite() && (self.trace || s.median != 0.0) => {}
                Some(s) => {
                    let m = s.median;
                    self.problems
                        .push(format!("metric {} has unusable value {m}", d.name));
                    self.values.insert(d.name, Summary::single(0.0));
                }
                None if self.trace => {
                    self.values.insert(
                        d.name,
                        Summary {
                            n: 0,
                            q1: 0.0,
                            median: 0.0,
                            q3: 0.0,
                        },
                    );
                }
                None => self
                    .problems
                    .push(format!("metric {} was not measured", d.name)),
            }
        }
    }

    /// Every metric by name with unit, median, quartiles and sample count.
    pub fn print_human(&self) {
        println!(
            "# workload {} seed {:#x} seconds {} trace {}",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        if let Some(w) = crate::setup::workload(self.workload) {
            println!("# why: {}", w.why);
        }
        for d in self.defs() {
            let Some(s) = self.values.get(&d.name) else {
                continue;
            };
            if s.n == 0 {
                println!(
                    "{:<44} {:>16} {:<12} (layer not exercised)",
                    d.name, 0, d.unit
                );
            } else {
                println!(
                    "{:<44} {:>16.6} {:<12} q1 {:.6} q3 {:.6} n {} {}-is-better{}",
                    d.name,
                    s.median,
                    d.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    d.better.label(),
                    if d.exact { " exact" } else { "" }
                );
            }
        }
        println!(
            "# attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for p in &self.problems {
            println!("# problem: {p}");
        }
    }

    /// One JSON entry per metric of this run's table, in table order.
    fn metric_map(&self, entry: impl Fn(&MetricDef, &Summary) -> Value) -> Value {
        let entries = (self.defs().into_iter())
            .filter_map(|d| {
                self.values
                    .get(&d.name)
                    .map(|s| entry(&d, s))
                    .map(|v| (d.name, v))
            })
            .collect();
        Value::Map(entries)
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metric_map(|d, s| {
            Value::Map(vec![
                ("value".into(), Value::F64(s.median)),
                ("unit".into(), Value::Str(d.unit.into())),
            ])
        });
        to_json(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics),
        ]))
    }

    /// The `--out` record: one JSON line per run, read back by `compare`.
    pub fn out_line(&self) -> String {
        let metrics = self.metric_map(|d, s| {
            Value::Map(vec![
                ("unit".into(), Value::Str(d.unit.into())),
                ("median".into(), Value::F64(s.median)),
                ("q1".into(), Value::F64(s.q1)),
                ("q3".into(), Value::F64(s.q3)),
                ("n".into(), Value::U64(s.n as u64)),
            ])
        });
        to_json(&Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::U64(self.seed)),
            ("seconds".into(), Value::F64(self.seconds)),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics),
        ]))
    }
}

fn to_json(v: &Value) -> String {
    // Every number reaching here was checked finite by `finalize`.
    serde_json::to_string(v).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let Value::Seq(items) = v.field(key).unwrap() else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |f: &str| match m.field(f).unwrap() {
                    Value::Str(s) => s.clone(),
                    other => panic!("{f}: {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let want = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
            defs.into_iter()
                .map(|d| (d.name, d.unit.to_string(), d.better.label().to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), want(end_to_end()));
        assert_eq!(names(&v, "per_layer"), want(per_layer()));
        let Value::Seq(w) = v.field("workloads").unwrap() else {
            panic!("workloads is not a list");
        };
        let listed: Vec<&Value> = w.iter().map(|m| m.field("name").unwrap()).collect();
        let ours: Vec<Value> = crate::setup::WORKLOADS
            .iter()
            .map(|w| Value::Str(w.name.into()))
            .collect();
        assert_eq!(listed, ours.iter().collect::<Vec<_>>());
    }

    #[test]
    fn tables_fit_the_contract() {
        let (e, l) = (end_to_end(), per_layer());
        assert!(e.len() <= 16 && l.len() <= 128, "{} / {}", e.len(), l.len());
        assert!(e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        let mut all: Vec<&str> = e.iter().chain(&l).map(|d| d.name.as_str()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        for d in e.iter().chain(&l) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("unit", 1, 1.0, false);
        for d in end_to_end() {
            r.set_value(&d.name, 1.5);
        }
        r.attempted = 10;
        r.finalize();
        assert!(r.correct());
        let v: Value = serde_json::from_str(&r.result_line()).unwrap();
        let Value::Map(entries) = &v else { panic!() };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Map(m) = v.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(m.len(), end_to_end().len());
        assert_eq!(m[0].1.field("unit").unwrap(), &Value::Str("s".into()));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_is_a_problem() {
        let mut r = Report::new("unit", 1, 1.0, false);
        r.set_value("setup_s", 0.0);
        r.finalize();
        assert!(!r.correct());
        // Per-layer runs fill unexercised layers with 0 instead.
        let mut t = Report::new("unit", 1, 1.0, true);
        t.finalize();
        assert!(t.correct());
        assert_eq!(t.get("index.spimi.spills").unwrap().n, 0);
    }
}
