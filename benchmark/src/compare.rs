//! `compare A.jsonl B.jsonl`: applies each end-to-end metric's bound from
//! `BENCHMARK.json` to two sets of `--out` records (A = parent, B =
//! change), per (metric, workload). Exact metrics compare by equality.

use crate::report::{end_to_end, Better, MetricDef};
use crate::stats::{summarize, Summary};
use serde::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Improved,
    WithinBound,
    Regressed,
    /// The runs' own spread is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's view of a metric: the medians of its runs, or — for a
/// single run — that run's own quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub values: Vec<f64>,
    pub summary: Summary,
}

/// How much worse (positive) or better (negative) `b` is than `a`, as a
/// share of `a`.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        delta.signum()
    } else {
        delta / a.abs()
    }
}

pub fn judge(def: &MetricDef, bound: f64, a: &Side, b: &Side) -> Verdict {
    let (ma, mb) = (a.summary.median, b.summary.median);
    if def.exact && a.values == b.values {
        return Verdict::Identical;
    }
    let worse = worsening(def.better, ma, mb);
    let spread = a.summary.spread().max(b.summary.spread());
    // Every run of the change reads better than every run of the parent.
    let clean_win =
        (b.values.iter()).all(|&y| a.values.iter().all(|&x| worsening(def.better, x, y) < 0.0));
    if spread > bound && !clean_win {
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0 && (-worse > a.summary.spread() || clean_win) {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

type Runs = BTreeMap<(String, String), Vec<Summary>>;

fn num(v: &Value, field: &str) -> Result<f64, String> {
    match v.field(field).map_err(|e| e.to_string())? {
        Value::F64(x) => Ok(*x),
        Value::U64(x) => Ok(*x as f64),
        Value::I64(x) => Ok(*x as f64),
        other => Err(format!("{field}: expected a number, got {other:?}")),
    }
}

/// Reads `--out` records: one JSON object per line, keyed here by
/// (workload, metric); a workload run several times yields several.
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        let Value::Str(workload) = v.field("workload").map_err(|e| e.to_string())? else {
            return Err(format!("{path}: workload is not a string"));
        };
        let Value::Map(metrics) = v.field("metrics").map_err(|e| e.to_string())? else {
            return Err(format!("{path}: metrics is not a map"));
        };
        for (name, m) in metrics {
            let s = Summary {
                n: num(m, "n")? as usize,
                q1: num(m, "q1")?,
                median: num(m, "median")?,
                q3: num(m, "q3")?,
            };
            runs.entry((workload.clone(), name.clone()))
                .or_default()
                .push(s);
        }
    }
    Ok(runs)
}

fn side(runs: &[Summary]) -> Side {
    let values: Vec<f64> = runs.iter().map(|s| s.median).collect();
    let summary = match runs {
        [one] => *one,
        _ => summarize(&values),
    };
    Side { values, summary }
}

fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Value::Seq(items) = v.field("end_to_end").map_err(|e| e.to_string())? else {
        return Err(format!("{path}: end_to_end is not a list"));
    };
    let mut out = BTreeMap::new();
    for m in items {
        let Value::Str(name) = m.field("name").map_err(|e| e.to_string())? else {
            return Err(format!("{path}: metric name is not a string"));
        };
        out.insert(name.clone(), num(m, "bound")?);
    }
    Ok(out)
}

/// Prints one row per (workload, metric) and returns whether any regressed.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let defs = end_to_end();
    let mut regressed = false;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for def in &defs {
            let key = (workload.clone(), def.name.clone());
            let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = *bounds
                .get(&def.name)
                .ok_or_else(|| format!("{benchmark_json} has no bound for {}", def.name))?;
            let (sa, sb) = (side(ra), side(rb));
            let verdict = judge(def, bound, &sa, &sb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>6.2}% {:>6.2}%  {}{}",
                workload,
                def.name,
                sa.summary.median,
                sb.summary.median,
                -100.0 * worsening(def.better, sa.summary.median, sb.summary.median),
                100.0 * sa.summary.spread().max(sb.summary.spread()),
                100.0 * bound,
                verdict.label(),
                if def.exact && verdict != Verdict::Identical {
                    " (exact metric changed)"
                } else {
                    ""
                },
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, exact: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "x",
            better,
            exact,
        }
    }

    fn runs(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            summary: summarize(values),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let qps = def(Better::Higher, false);
        let base = runs(&[100.0, 101.0, 99.0, 100.0]);
        assert_eq!(
            judge(&qps, 0.1, &base, &runs(&[98.0, 99.0, 97.0, 98.5])),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&qps, 0.1, &base, &runs(&[85.0, 86.0, 84.0, 85.0])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&qps, 0.1, &base, &runs(&[120.0, 121.0, 119.0, 120.0])),
            Verdict::Improved
        );
        // Lower-is-better flips the sign.
        let lat = def(Better::Lower, false);
        assert_eq!(
            judge(&lat, 0.1, &base, &runs(&[120.0, 121.0, 119.0, 120.0])),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, unless B wins every pairing.
        let noisy = runs(&[80.0, 100.0, 120.0, 140.0]);
        assert_eq!(
            judge(&qps, 0.1, &noisy, &runs(&[90.0, 100.0, 110.0, 95.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&qps, 0.1, &noisy, &runs(&[150.0, 160.0, 170.0, 155.0])),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_by_equality() {
        let cycles = def(Better::Lower, true);
        assert_eq!(
            judge(&cycles, 0.05, &runs(&[7.0]), &runs(&[7.0])),
            Verdict::Identical
        );
        assert_eq!(
            judge(&cycles, 0.05, &runs(&[7.0]), &runs(&[7.1])),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&cycles, 0.05, &runs(&[7.0]), &runs(&[8.0])),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_single_run_uses_its_own_quartiles() {
        let one = Summary {
            n: 6,
            q1: 90.0,
            median: 100.0,
            q3: 130.0,
        };
        let s = side(&[one]);
        assert_eq!(s.summary, one);
        assert_eq!(s.values, vec![100.0]);
        let several = side(&[one, Summary::single(110.0), Summary::single(120.0)]);
        assert_eq!(several.summary.median, 110.0);
    }
}
