//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files around calls into each
//! layer (spans inside the crates are a later issue), kept in memory and
//! written as JSON lines when the run ends. A layer's self time is its
//! span's duration minus what its children cover.

use std::io::Write;
use std::time::Instant;

/// Work counts recorded at a span boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub postings: u64,
    pub blocks: u64,
    pub docs_scored: u64,
    pub sim_cycles: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub name: &'static str,
    pub engine: &'static str,
    /// Index of the query in the workload's suite, or -1.
    pub query: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        parent: u32,
        name: &'static str,
        engine: &'static str,
        query: i64,
    ) -> u32 {
        let start = self.now_ns();
        self.push(parent, name, engine, query, start, start, Counts::default())
    }

    pub fn end(&mut self, id: u32, counts: Counts) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.counts = counts;
    }

    /// Records a span whose interval was measured (or replayed) elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        engine: &'static str,
        query: i64,
        start_ns: u64,
        end_ns: u64,
        counts: Counts,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            engine,
            query,
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"engine\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{},\"postings\":{},\"blocks\":{},\"docs_scored\":{},\"sim_cycles\":{}}}",
                s.id, s.parent, s.name, self.workload, s.engine, s.query, s.start_ns, s.end_ns,
                s.counts.postings, s.counts.blocks, s.counts.docs_scored, s.counts.sim_cycles
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children are clipped to the parent and
/// their overlaps are merged, so self time is never negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            engine: "",
            query: -1,
            start_ns: start,
            end_ns: end,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2 on [20, 30) and sticks out past the parent.
            span(3, 1, 20, 120),
            span(4, 2, 10, 15),
        ];
        assert_eq!(self_times(&spans), vec![10, 15, 100, 5]);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let mut r = Recorder::new("unit");
        let root = r.begin(0, "rep", "", -1);
        let child = r.begin(root, "engine.search", "boss", 7);
        r.end(
            child,
            Counts {
                postings: 5,
                blocks: 1,
                docs_scored: 5,
                sim_cycles: 9,
            },
        );
        r.end(root, Counts::default());
        assert_eq!(r.get(child).parent, root);
        assert!(r.get(root).end_ns >= r.get(child).end_ns);
        let path =
            std::env::temp_dir().join(format!("boss-bench-trace-{}.jsonl", std::process::id()));
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            v.field("name").unwrap(),
            &serde::Value::Str("engine.search".into())
        );
        assert_eq!(v.field("query").unwrap(), &serde::Value::U64(7));
        assert_eq!(v.field("sim_cycles").unwrap(), &serde::Value::U64(9));
        assert_eq!(
            v.field("workload").unwrap(),
            &serde::Value::Str("unit".into())
        );
    }
}
