//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around each call into a
//! layer's public functions, and kept in memory until the run ends. A
//! reply's `WITH (trace = on)` stages are attached as children of the
//! call that produced them. The program reports each stage's wall time
//! but not its start, so children are laid end to end from the parent's
//! start in the order the program lists them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use dana::{QueryTrace, TraceSpan};

use crate::report::json_str;

/// The layer a program trace stage belongs to (the repository's crate
/// or module that does the stage's work).
fn stage_layer(stage: &str) -> &'static str {
    match stage {
        "parse" => "query",
        "admission_wait" => "admission",
        "lease" => "accel",
        "scan" => "scan",
        "engine" | "epoch" | "fault_retry" => "engine",
        "merge" => "parallel",
        "materialize" => "infer",
        "reply" => "server",
        _ => "unknown",
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one client request share this id.
    pub request: u64,
    pub name: String,
    pub layer: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub dur_us: f64,
    /// Program stages also carry the cycle model's time.
    pub sim_us: Option<f64>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    next_id: u64,
    next_request: u64,
    /// Per program stage name: (times seen, times with wall time).
    stage_wall: BTreeMap<String, (u64, u64)>,
}

/// In-memory span store. A disabled recorder records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Option<Mutex<Inner>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: enabled.then(|| Mutex::new(Inner::default())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let mut g = inner.lock().expect("no thread panics while recording");
        Some(f(&mut g))
    }

    /// A fresh request id (0 when disabled).
    pub fn request(&self) -> u64 {
        self.with(|g| {
            g.next_request += 1;
            g.next_request
        })
        .unwrap_or(0)
    }

    /// Records `[start, end)` and returns the span id (0 when disabled).
    pub fn record(
        &self,
        request: u64,
        parent: Option<u64>,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.with(|g| push(g, request, parent, name, layer, start_us, dur_us, None))
            .unwrap_or(0)
    }

    /// Attaches a program trace's stages as children of span `parent`.
    pub fn attach(&self, request: u64, parent: u64, parent_start: Instant, trace: &QueryTrace) {
        let start_us = parent_start
            .saturating_duration_since(self.epoch)
            .as_secs_f64()
            * 1e6;
        self.with(|g| attach_children(g, request, parent, start_us, &trace.stages));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.with(|g| g.spans.clone()).unwrap_or_default()
    }

    /// Program stages that never carried wall time — the stages whose
    /// cost the program's own trace cannot yet explain.
    pub fn stages_without_wall(&self) -> Vec<String> {
        self.with(|g| {
            g.stage_wall
                .iter()
                .filter(|(_, &(_, with_wall))| with_wall == 0)
                .map(|(name, _)| name.clone())
                .collect()
        })
        .unwrap_or_default()
    }

    /// Writes every span, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"layer\": {}, \
                 \"start_us\": {}, \"dur_us\": {}, \"sim_us\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                json_str(&s.name),
                json_str(s.layer),
                s.start_us,
                s.dur_us,
                s.sim_us.map_or("null".to_string(), |v| v.to_string()),
            );
        }
        std::fs::write(path, out)
    }
}

#[allow(clippy::too_many_arguments)]
fn push(
    g: &mut Inner,
    request: u64,
    parent: Option<u64>,
    name: &str,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    sim_us: Option<f64>,
) -> u64 {
    g.next_id += 1;
    let id = g.next_id;
    g.spans.push(Span {
        id,
        parent,
        request,
        name: name.to_string(),
        layer,
        start_us,
        dur_us,
        sim_us,
    });
    id
}

fn attach_children(g: &mut Inner, request: u64, parent: u64, start_us: f64, stages: &[TraceSpan]) {
    let mut at = start_us;
    for st in stages {
        let entry = g.stage_wall.entry(st.name.clone()).or_default();
        entry.0 += 1;
        if st.wall_seconds > 0.0 {
            entry.1 += 1;
        }
        let dur_us = st.wall_seconds * 1e6;
        let id = push(
            g,
            request,
            Some(parent),
            &st.name,
            stage_layer(&st.name),
            at,
            dur_us,
            Some(st.sim_seconds * 1e6),
        );
        attach_children(g, request, id, at, &st.children);
        at += dur_us;
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover (children of one parent never overlap here, so their sum,
/// capped at the parent's duration, is that part).
fn self_times(spans: &[Span]) -> Vec<(usize, f64)> {
    let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_sum.entry(p).or_default() += s.dur_us;
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = child_sum.get(&s.id).copied().unwrap_or(0.0).min(s.dur_us);
            (i, s.dur_us - covered)
        })
        .collect()
}

/// Self time summed per layer, in microseconds, plus the total duration
/// of the top-level spans those self times partition.
pub fn self_time_by_layer(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, t) in self_times(spans) {
        *by_layer.entry(spans[i].layer).or_default() += t;
    }
    let top: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_us)
        .sum();
    (by_layer, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_hang_under_the_call_and_self_time_partitions_it() {
        let t = Tracer::new(true);
        let req = t.request();
        let start = Instant::now();
        let end = start + Duration::from_millis(10);
        let call = t.record(req, None, "call", "server", start, end);
        let trace = QueryTrace {
            stages: vec![
                TraceSpan {
                    name: "lease".into(),
                    count: 1,
                    sim_seconds: 0.0,
                    wall_seconds: 0.002,
                    children: vec![],
                },
                TraceSpan {
                    name: "engine".into(),
                    count: 1,
                    sim_seconds: 0.5,
                    wall_seconds: 0.0,
                    children: vec![],
                },
            ],
            total_sim_seconds: 0.5,
            total_wall_seconds: 0.01,
        };
        t.attach(req, call, start, &trace);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == req));
        assert_eq!(spans[1].parent, Some(call));
        let (by_layer, top) = self_time_by_layer(&spans);
        assert!((top - 10_000.0).abs() < 1e-6);
        assert!((by_layer["accel"] - 2_000.0).abs() < 1e-6);
        assert!((by_layer["server"] - 8_000.0).abs() < 1e-6);
        assert_eq!(by_layer["engine"], 0.0);
        assert_eq!(t.stages_without_wall(), vec!["engine".to_string()]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record(t.request(), None, "x", "server", now, now), 0);
        assert!(t.spans().is_empty());
    }
}
