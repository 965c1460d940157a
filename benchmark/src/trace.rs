//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in harness code around each call into a layer
//! (`pass` → `case`; `cold_pass` → `repro`; `job` → `submit` → `poll`×n →
//! `settled`), kept in memory, and written out when the run ends. Nothing
//! under `crates/` is instrumented; spans inside the program are a later
//! change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it; spans
/// of one operation share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle to an open span (`None` when the operation is not recorded).
pub type SpanId = Option<usize>;

/// Thread-safe span store. Every `begin` says whether to record: a traced
/// run records every other pass or operation, so the same run also
/// measures what the recording costs; an untraced run records nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no thread panics while pushing a span")
    }

    /// Opens a span if `on`.
    pub fn begin(&self, on: bool, name: &'static str, op_id: u64, parent: SpanId) -> SpanId {
        if !on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name, op_id, parent, start_ns, end_ns: start_ns });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a child span of `parent` (recorded iff `parent` is).
    pub fn child<T>(
        &self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(parent.is_some(), name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Writes `trace.<workload>.jsonl` (one span per line) and
    /// `trace.<workload>.selftime.txt`, returning the self-time table.
    pub fn write(&self, out_dir: &Path, workload: &str) -> std::io::Result<String> {
        let spans = self.lock();
        let mut jsonl = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                jsonl,
                "{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            );
        }
        let table = self_time_table(&spans);
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(out_dir.join(format!("trace.{workload}.jsonl")), jsonl)?;
        std::fs::write(out_dir.join(format!("trace.{workload}.selftime.txt")), &table)?;
        Ok(table)
    }
}

/// Per span name: count, total time, and self time (the span's duration
/// minus the part its child spans cover).
pub fn self_time_table(spans: &[Span]) -> String {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += dur;
        row.2 += dur.saturating_sub(*children);
    }
    let mut out = format!("{:<14} {:>8} {:>14} {:>14}\n", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, own)) in rows {
        let _ = writeln!(
            out,
            "{name:<14} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { name: "pass", op_id: 1, parent: None, start_ns: 0, end_ns: 10_000_000 },
            Span { name: "case", op_id: 1, parent: Some(0), start_ns: 0, end_ns: 4_000_000 },
            Span {
                name: "case",
                op_id: 1,
                parent: Some(0),
                start_ns: 4_000_000,
                end_ns: 9_000_000,
            },
        ];
        let table = self_time_table(&spans);
        let pass = table.lines().find(|l| l.starts_with("pass")).unwrap();
        assert!(pass.ends_with("10.000          1.000"), "{pass}");
        let case = table.lines().find(|l| l.starts_with("case")).unwrap();
        assert!(case.contains(" 2 ") && case.ends_with("9.000          9.000"), "{case}");
    }

    #[test]
    fn tracer_records_only_when_asked() {
        let t = Tracer::new();
        assert_eq!(t.begin(false, "x", 0, None), None);
        assert_eq!(t.child("y", 0, None, || 1), 1);
        let outer = t.begin(true, "outer", 7, None);
        let inner = t.child("inner", 7, outer, || 5);
        t.end(outer);
        assert_eq!(inner, 5);
        let spans = t.lock();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
