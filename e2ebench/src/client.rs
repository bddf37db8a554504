//! A closed-loop client of the SQL front door that times every call,
//! keeps per-operation samples, and — in a traced run — records spans
//! around each call with the program's own stages hung beneath them.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use dana::{parse_statement, DanaTiming};
use dana_server::{DanaServer, QueryReply, QueryRequest, QueryResponse, SessionId};

use crate::trace::Tracer;

/// Samples for one operation type.
#[derive(Debug, Default, Clone)]
pub struct OpSamples {
    /// Client-observed latency of each successful call.
    pub wall_ms: Vec<f64>,
    pub failed: u64,
    /// Rows the calls processed (rows × epochs for training, rows scored
    /// for scoring, one per point prediction).
    pub rows: u64,
    /// The cycle model's timing of each call that ran a statement.
    pub timing: Vec<DanaTiming>,
}

/// What one client (or several, merged) observed during a phase.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    pub ops: BTreeMap<&'static str, OpSamples>,
    /// Admission-queue wait and worker execution of each SQL reply.
    pub queue_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    /// Client wall − queue − exec, per SQL reply.
    pub server_unattributed_ms: Vec<f64>,
    /// Traced runs only: client wall − Σ program stage walls.
    pub trace_unattributed_ms: Vec<f64>,
    /// Traced runs only: wall of the program's `lease` and `materialize`
    /// stages, and of `parse_statement` on each statement text.
    pub lease_ms: Vec<f64>,
    pub materialize_ms: Vec<f64>,
    pub parse_us: Vec<f64>,
    /// Traced runs only: buffer-pool resident bytes after each statement.
    pub resident_bytes: Vec<f64>,
    /// Traced statements whose merge tier ran (nonzero simulated merge).
    pub merges: u64,
    /// Tuples the access engine handed to the engine.
    pub tuples_extracted: u64,
    /// Rows scored by EVALUATE / PREDICT.
    pub rows_scored: u64,
    /// The rows that shared each point miss's dispatch, and how late
    /// each open-loop request was sent.
    pub batch_rows: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Correctness gates that failed, with what was seen.
    pub gate_failures: Vec<String>,
}

impl OpLog {
    pub fn op(&mut self, name: &'static str) -> &mut OpSamples {
        self.ops.entry(name).or_default()
    }

    pub fn attempted(&self) -> u64 {
        self.ops
            .values()
            .map(|o| o.wall_ms.len() as u64 + o.failed)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|o| o.failed).sum()
    }

    /// Records a correctness gate; a failure is kept, not raised, so the
    /// run still reports everything it measured.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("gate failed: {msg}");
            self.gate_failures.push(msg);
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        for (name, o) in other.ops {
            let mine = self.op(name);
            mine.wall_ms.extend(o.wall_ms);
            mine.failed += o.failed;
            mine.rows += o.rows;
            mine.timing.extend(o.timing);
        }
        self.queue_ms.extend(other.queue_ms);
        self.exec_ms.extend(other.exec_ms);
        self.server_unattributed_ms
            .extend(other.server_unattributed_ms);
        self.trace_unattributed_ms
            .extend(other.trace_unattributed_ms);
        self.lease_ms.extend(other.lease_ms);
        self.materialize_ms.extend(other.materialize_ms);
        self.parse_us.extend(other.parse_us);
        self.resident_bytes.extend(other.resident_bytes);
        self.merges += other.merges;
        self.tuples_extracted += other.tuples_extracted;
        self.rows_scored += other.rows_scored;
        self.batch_rows.extend(other.batch_rows);
        self.late_ms.extend(other.late_ms);
        self.gate_failures.extend(other.gate_failures);
    }
}

/// Builds `base WITH (opts…);`, adding `trace = on` when traced.
pub fn statement(base: &str, opts: &[&str], traced: bool) -> String {
    let mut all: Vec<&str> = opts.to_vec();
    if traced {
        all.push("trace = on");
    }
    if all.is_empty() {
        format!("{base};")
    } else {
        format!("{base} WITH ({});", all.join(", "))
    }
}

/// One session's closed-loop client.
pub struct Client<'a> {
    pub srv: &'a DanaServer,
    pub session: SessionId,
    pub tracer: &'a Tracer,
    pub log: OpLog,
}

impl<'a> Client<'a> {
    pub fn new(srv: &'a DanaServer, name: &str, tracer: &'a Tracer) -> Client<'a> {
        Client {
            srv,
            session: srv.open_session(name),
            tracer,
            log: OpLog::default(),
        }
    }

    /// Runs `base` (with `opts`) through `DanaServer::call`, timed from
    /// the call.
    pub fn sql(&mut self, op: &'static str, base: &str, opts: &[&str]) -> Option<QueryReply> {
        self.sql_from(op, None, base, opts)
    }

    /// As [`Client::sql`], but with latency counted from `due` when
    /// given (an open-loop request's scheduled send time).
    pub fn sql_from(
        &mut self,
        op: &'static str,
        due: Option<Instant>,
        base: &str,
        opts: &[&str],
    ) -> Option<QueryReply> {
        let traced = self.tracer.enabled();
        let text = statement(base, opts, traced);
        let request = self.tracer.request();
        if traced {
            // The front door's parser, timed on its own: its share of a
            // statement's cost, measured beside the call.
            let t0 = Instant::now();
            let parsed = parse_statement(&text);
            let t1 = Instant::now();
            self.log
                .gate(parsed.is_ok(), || format!("{text} does not parse"));
            self.log.parse_us.push((t1 - t0).as_secs_f64() * 1e6);
            self.tracer
                .record(request, None, "parse_statement", "query", t0, t1);
        }
        let start = Instant::now();
        let result = self.srv.call(self.session, QueryRequest::Sql(text.clone()));
        let end = Instant::now();
        let wall_ms = (end - due.unwrap_or(start)).as_secs_f64() * 1e3;
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("{op}: {text} failed: {e}");
                self.log.op(op).failed += 1;
                return None;
            }
        };
        let client_ms = (end - start).as_secs_f64() * 1e3;
        self.log.queue_ms.push(reply.queue_seconds * 1e3);
        self.log.exec_ms.push(reply.exec_seconds * 1e3);
        self.log
            .server_unattributed_ms
            .push(client_ms - (reply.queue_seconds + reply.exec_seconds) * 1e3);
        let (rows, timing) = match &reply.response {
            QueryResponse::Trained(r) => {
                self.log.tuples_extracted += r.access.tuples;
                (r.engine.tuples_processed, Some(r.timing))
            }
            QueryResponse::Predicted(p) => {
                self.log.tuples_extracted += p.scoring.tuples;
                self.log.rows_scored += p.rows_scored;
                (p.rows_scored, Some(p.timing))
            }
            QueryResponse::Evaluated(e) => {
                self.log.tuples_extracted += e.scoring.tuples;
                self.log.rows_scored += e.rows_scored;
                (e.rows_scored, Some(e.timing))
            }
            _ => (0, None),
        };
        let samples = self.log.op(op);
        samples.wall_ms.push(wall_ms);
        samples.rows += rows;
        samples.timing.extend(timing);
        if let Some(trace) = &reply.trace {
            let call = self.tracer.record(request, None, op, "server", start, end);
            self.tracer.attach(request, call, start, trace);
            let stage_wall = |name: &str| trace.stage(name).map_or(0.0, |s| s.wall_seconds);
            let stages_ms: f64 = trace.stages.iter().map(|s| s.wall_seconds).sum::<f64>() * 1e3;
            self.log.trace_unattributed_ms.push(client_ms - stages_ms);
            self.log.lease_ms.push(stage_wall("lease") * 1e3);
            if trace.stage("materialize").is_some() {
                self.log
                    .materialize_ms
                    .push(stage_wall("materialize") * 1e3);
            }
            if trace.stage("merge").is_some_and(|s| s.sim_seconds > 0.0) {
                self.log.merges += 1;
            }
            let buffer = self.srv.stats_snapshot(Some("buffer"));
            self.log
                .resident_bytes
                .push(buffer.get("buffer", "resident_bytes").unwrap_or(0.0));
        }
        Some(reply)
    }

    /// Times a call into another public function of the program (DDL,
    /// a layer entry point) as operation `op` of `layer`.
    pub fn call<T, E: Display>(
        &mut self,
        op: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let request = self.tracer.request();
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.tracer.record(request, None, op, layer, start, end);
        match result {
            Ok(v) => {
                self.log
                    .op(op)
                    .wall_ms
                    .push((end - start).as_secs_f64() * 1e3);
                Some(v)
            }
            Err(e) => {
                eprintln!("{op} failed: {e}");
                self.log.op(op).failed += 1;
                None
            }
        }
    }
}
