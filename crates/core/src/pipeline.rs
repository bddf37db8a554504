//! The DAnA system façade: catalog + buffer pool + compiler + accelerator.
//!
//! Mirrors Fig. 2's flow end-to-end:
//!
//! 1. [`Dana::deploy`] — the UDF is translated (hDFG), compiled (hardware
//!    generator + scheduler), and its artifacts — Strider instructions,
//!    engine design, schedule — are stored in the RDBMS catalog;
//! 2. [`Dana::execute`] — a SQL query names the UDF; the RDBMS side fills
//!    the buffer pool while the access engine walks the pages with Striders
//!    and the execution engine trains the model;
//! 3. the returned [`DanaReport`] carries the trained model and the
//!    simulated end-to-end timing with the pipeline-overlap semantics of
//!    [`crate::runtime`].
//!
//! The buffer pool is the sharded [`SharedBufferPool`] and every scan
//! streams through [`SharedPageStreamSource`] — the storage stack the
//! serving tier's `SystemCore` runs on — so a gang's members stream their
//! page ranges concurrently here too ([`shard_sources`]).

use dana_compiler::{
    compile, compile_with_threads, CompileInput, CompiledAccelerator, PerfEstimate,
};
use dana_engine::{BackendKind, ExecutionBackend, ModelStore};
use dana_fpga::FpgaSpec;
use dana_hdfg::translate;
use dana_infer::MetricKind;
use dana_ml::CpuModel;
use dana_parallel::{evaluate_gang, score_gang_concat, train_gang};
use dana_scan::ScanSpec;
use dana_storage::{
    AcceleratorEntry, BufferPoolConfig, Catalog, DiskModel, HeapFile, HeapId, PageId,
    SharedBufferPool, Tuple,
};
use dana_strider::disassemble;

use dana_obs::{MetricsRegistry, QueryTrace, SpanRecorder, StatEntry, StatsSnapshot};

use crate::advisor::{BackendChoice, HardwareProfile, StrategyComparison};
use crate::error::{DanaError, DanaResult};
use crate::exec::{self, ArtifactBlob, RunArtifacts};
use crate::query::{parse_query, parse_statement, QueryCall, Statement};
use crate::report::{
    AnalyzeReport, DanaReport, DanaTiming, EvalReport, PointReport, PredictReport, QueryOutcome,
    StatementOutcome,
};
use crate::runtime::ExecutionMode;
use crate::source::{shard_sources, FeedKind, ShardSource, SharedPageStreamSource};

pub use crate::exec::CPU_FEED_HANDSHAKE_S;

/// What `drop_table` reports back: everything the drop cleaned up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropSummary {
    pub table: String,
    /// Buffer-pool pages of the dropped heap that were evicted.
    pub pages_evicted: usize,
    /// Accelerators compiled against the table, now marked stale.
    pub invalidated_udfs: Vec<String>,
    /// Materialized prediction tables derived from this table, now stale
    /// (typed error on use; their pages are evicted too).
    pub stale_prediction_tables: Vec<String>,
}

/// What `deploy` reports back to the data scientist.
#[derive(Debug, Clone)]
pub struct DeployInfo {
    pub udf_name: String,
    pub num_threads: u16,
    pub acs_per_thread: u16,
    pub num_striders: u32,
    pub estimate: PerfEstimate,
    /// The generated Strider program, disassembled.
    pub strider_listing: String,
    /// Micro-instruction count of the engine schedule.
    pub micro_ops: usize,
}

/// The DAnA-enhanced database system.
pub struct Dana {
    catalog: Catalog,
    /// The same sharded pool the serving tier's `SystemCore` runs on.
    pool: SharedBufferPool,
    disk: DiskModel,
    fpga: FpgaSpec,
    cpu: CpuModel,
    /// Per-backend throughput estimates the backend advisor prices
    /// `backend = auto` queries against.
    profile: HardwareProfile,
    /// Front-door counters and latency histograms (`SHOW STATS`).
    metrics: MetricsRegistry,
    /// The lifecycle-span recorder of the statement currently executing.
    /// Disabled (every call a no-op) except while a traced statement —
    /// `EXPLAIN ANALYZE` or `WITH (trace = on)` — is in flight.
    rec: SpanRecorder,
}

impl Dana {
    pub fn new(fpga: FpgaSpec, pool: BufferPoolConfig, disk: DiskModel) -> Dana {
        // The default system keeps the paper's behavior: every query
        // offloads (threshold 0 — DAnA has no CPU tier). Calibrating the
        // advisor, or installing a profile without a manual threshold,
        // enables the cost-based choice for `backend = auto`.
        let profile = HardwareProfile::default()
            .with_clock_hz(fpga.clock.hz)
            .with_offload_threshold(Some(0));
        Dana {
            catalog: Catalog::new(),
            pool: SharedBufferPool::new(pool),
            disk,
            fpga,
            cpu: CpuModel::i7_6700(),
            profile,
            metrics: MetricsRegistry::new(),
            rec: SpanRecorder::disabled(),
        }
    }

    /// The paper's default setup: VU9P FPGA, 8 GB pool of 32 KB pages,
    /// SSD-class disk (§7).
    pub fn default_system() -> Dana {
        Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig::paper_default(),
            DiskModel::ssd(),
        )
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn fpga(&self) -> &FpgaSpec {
        &self.fpga
    }

    /// The backend advisor's hardware profile.
    pub fn hardware_profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Replaces the advisor's hardware profile (tests pin decisions with
    /// synthetic profiles; operators can set a manual offload threshold).
    pub fn set_hardware_profile(&mut self, profile: HardwareProfile) {
        self.profile = profile;
    }

    /// Calibrates the advisor's CPU lane rate with the one-time
    /// microbench on this host and enables the break-even model for
    /// `backend = auto` (clearing the default always-offload threshold).
    pub fn calibrate_backend_advisor(&mut self) {
        self.profile.cpu_lane_ops_per_second = dana_engine::calibrate_cpu_lane_rate();
        self.profile.offload_threshold_rows = None;
    }

    pub fn pool_stats(&self) -> dana_storage::BufferPoolStats {
        self.pool.stats()
    }

    /// The front-door metrics registry (`SHOW STATS` reads it; tests
    /// assert against it directly).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A point-in-time statistics snapshot — the `SHOW STATS` result
    /// surface. Push-side counters and histograms come from the registry;
    /// pull-side values (buffer-pool state) are read from their
    /// authoritative owners at snapshot time so the numbers can never
    /// drift from what the subsystems themselves report.
    pub fn stats_snapshot(&self, subsystem: Option<&str>) -> StatsSnapshot {
        let mut entries = Vec::new();
        self.metrics.snapshot_into(&mut entries);
        let ps = self.pool.stats();
        entries.push(StatEntry::new("buffer", "hits", ps.hits as f64));
        entries.push(StatEntry::new("buffer", "misses", ps.misses as f64));
        entries.push(StatEntry::new("buffer", "evictions", ps.evictions as f64));
        entries.push(StatEntry::new("buffer", "io_seconds", ps.io_seconds));
        entries.push(StatEntry::new(
            "buffer",
            "resident_pages",
            self.pool.resident_pages() as f64,
        ));
        entries.push(StatEntry::new(
            "buffer",
            "resident_bytes",
            self.pool.resident_bytes() as f64,
        ));
        let mut per_heap = self.pool.per_heap_frames();
        per_heap.sort_unstable();
        for (heap_id, frames) in per_heap {
            entries.push(StatEntry::new(
                "buffer",
                format!("heap_{heap_id}_frames"),
                frames as f64,
            ));
        }
        let snap = StatsSnapshot::new(entries);
        match subsystem {
            Some(s) => snap.filtered(s),
            None => snap,
        }
    }

    /// Pages currently resident in the buffer pool (the drop paths must
    /// leave none behind for dropped or stale heaps).
    pub fn resident_pages(&self) -> usize {
        self.pool.resident_pages()
    }

    /// Registers a training table.
    pub fn create_table(&mut self, name: &str, heap: HeapFile) -> DanaResult<HeapId> {
        Ok(self.catalog.create_table(name, heap)?)
    }

    /// Drops a table: removes it from the catalog, evicts its pages from
    /// the buffer pool (a dropped table must not keep frames resident),
    /// marks every accelerator compiled against it stale, and marks every
    /// materialized prediction table derived from it stale (evicting
    /// their pages too — stale rows must not occupy frames).
    pub fn drop_table(&mut self, name: &str) -> DanaResult<DropSummary> {
        let heap_id = self.catalog.drop_table(name)?.heap_id;
        let invalidated_udfs = self.catalog.invalidate_accelerators_for(name);
        // Compressed sidecar frames live under the heap's shadow id; a
        // drop must leave neither raw nor compressed pages resident.
        let pages_evicted =
            self.pool.evict_heap_force(heap_id) + self.pool.evict_heap_force(heap_id.shadow());
        let mut stale_prediction_tables = Vec::new();
        for (table, derived_heap) in self.catalog.invalidate_derived_for(name) {
            self.pool.evict_heap_force(derived_heap);
            self.pool.evict_heap_force(derived_heap.shadow());
            stale_prediction_tables.push(table);
        }
        self.metrics
            .staleness_invalidations
            .add((invalidated_udfs.len() + stale_prediction_tables.len()) as u64);
        Ok(DropSummary {
            table: name.to_string(),
            pages_evicted,
            invalidated_udfs,
            stale_prediction_tables,
        })
    }

    /// Warm-cache setup: loads the table into the buffer pool without
    /// charging query I/O.
    pub fn prewarm(&mut self, table: &str) -> DanaResult<usize> {
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let n = self.pool.prewarm(heap_id, heap)?;
        self.pool.reset_stats();
        Ok(n)
    }

    /// Cold-cache setup: drops every cached page.
    pub fn clear_cache(&mut self) {
        self.pool.clear();
        self.pool.reset_stats();
    }

    /// Compiles a UDF for `table` and stores the accelerator in the
    /// catalog under the UDF's name. All expensive resolution happens
    /// here: the compiled engine (validated + lowered once) is installed
    /// on the entry's runtime cache — beside the *scoring lowering*, the
    /// forward-pass recipe PREDICT/EVALUATE bind to trained models — so
    /// EXECUTE never constructs an engine and scoring never re-derives.
    pub fn deploy(&mut self, spec: &dana_dsl::AlgoSpec, table: &str) -> DanaResult<DeployInfo> {
        let acc = self.compile_for(spec, table, None)?;
        // Scoring lowering: derive the forward pass where the analytic
        // has one (custom analytics without one still train fine; their
        // PREDICT is a typed error).
        let scoring = dana_infer::derive_recipe(spec).ok();
        let blob = ArtifactBlob::from_compiled(&acc, scoring.clone());
        let words = dana_strider::isa::encode_program(&acc.strider_program)?;
        let entry = AcceleratorEntry {
            udf_name: spec.name.clone(),
            strider_program: words,
            design_blob: blob.encode()?,
            merge_coef: spec.merge_coef(),
            num_threads: acc.design.num_threads as u32,
            description: format!(
                "{} threads × {} ACs, {} Striders",
                acc.design.num_threads, acc.design.acs_per_thread, acc.budget.num_page_buffers
            ),
            bound_table: table.to_string(),
            stale: false,
            runtime: dana_storage::RuntimeCache::default(),
            trained: dana_storage::RuntimeCache::default(),
        };
        exec::prime_runtime(&entry, &acc, scoring);
        self.catalog.deploy_accelerator(entry);
        Ok(DeployInfo {
            udf_name: spec.name.clone(),
            num_threads: acc.design.num_threads,
            acs_per_thread: acc.design.acs_per_thread,
            num_striders: acc.budget.num_page_buffers,
            estimate: acc.estimate,
            strider_listing: disassemble(&acc.strider_program),
            micro_ops: acc.design.program.micro_ops(),
        })
    }

    /// Parses DSL source text and deploys it (the paper's end-user path).
    pub fn deploy_source(
        &mut self,
        source: &str,
        default_name: &str,
        table: &str,
    ) -> DanaResult<DeployInfo> {
        let spec = dana_dsl::parse_udf(source, default_name)?;
        self.deploy(&spec, table)
    }

    /// Executes `SELECT * FROM dana.<udf>('<table>');` (or the same with
    /// a `WITH (shards = k, backend = …)` clause, routing through the
    /// gang-parallel path or the chosen execution backend).
    pub fn execute(&mut self, sql: &str) -> DanaResult<QueryOutcome> {
        let call = parse_query(sql)?;
        let report = self.run_train_call(&call)?;
        Ok(QueryOutcome {
            udf: call.udf,
            table: call.table,
            report,
        })
    }

    /// Executes any front-door statement: `SELECT … FROM dana.<udf>(…)`
    /// (train), `PREDICT … INTO …` (score + materialize), `EVALUATE …`
    /// (score + metric), `EXPLAIN <stmt>` (price the statement on every
    /// backend without running it), `EXPLAIN ANALYZE <stmt>` (run it and
    /// report the lifecycle trace), or `SHOW STATS` (metrics snapshot).
    pub fn execute_statement(&mut self, sql: &str) -> DanaResult<StatementOutcome> {
        Ok(self.execute_statement_traced(sql)?.0)
    }

    /// [`Dana::execute_statement`], returning the lifecycle trace beside
    /// the outcome when the statement opted in with `WITH (trace = on)`
    /// (`None` otherwise — tracing off is the free default).
    pub fn execute_statement_traced(
        &mut self,
        sql: &str,
    ) -> DanaResult<(StatementOutcome, Option<QueryTrace>)> {
        let parse_start = std::time::Instant::now();
        let stmt = parse_statement(sql)?;
        let parse_wall = parse_start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let result = if stmt.wants_trace() {
            let rec = SpanRecorder::enabled();
            exec::begin_trace(&rec, parse_wall, 0.0);
            self.rec = rec.clone();
            let outcome = self.execute_parsed(&stmt, parse_wall);
            self.rec = SpanRecorder::disabled();
            outcome.map(|outcome| {
                let total_sim = outcome.timing().map(|t| t.total_seconds).unwrap_or(0.0);
                let trace = exec::finish_trace(&rec, total_sim, start.elapsed().as_secs_f64());
                (outcome, trace)
            })
        } else {
            self.execute_parsed(&stmt, parse_wall).map(|o| (o, None))
        };
        self.record_statement_metrics(&result, start.elapsed().as_secs_f64());
        result
    }

    /// Dispatches one parsed statement. `parse_wall` is the measured
    /// parse time, forwarded so `EXPLAIN ANALYZE` can charge it to the
    /// trace's `parse` stage.
    fn execute_parsed(
        &mut self,
        stmt: &Statement,
        parse_wall: f64,
    ) -> DanaResult<StatementOutcome> {
        match stmt {
            Statement::Train(call) => {
                let report = self.run_train_call(call)?;
                Ok(StatementOutcome::Train(QueryOutcome {
                    udf: call.udf.clone(),
                    table: call.table.clone(),
                    report,
                }))
            }
            Statement::Predict(p) => {
                let backend = self.resolve_backend_for(stmt)?;
                let scan = p.scan.as_ref();
                Ok(StatementOutcome::Predict(match (p.shards, backend) {
                    (Some(k), _) if k > 1 => {
                        self.predict_sharded_scan(&p.udf, &p.table, &p.into, k, scan)?
                    }
                    (_, BackendKind::Cpu) => self.predict_full(
                        &p.udf,
                        &p.table,
                        &p.into,
                        ExecutionMode::Strider,
                        None,
                        BackendKind::Cpu,
                        scan,
                    )?,
                    _ => self.predict_full(
                        &p.udf,
                        &p.table,
                        &p.into,
                        ExecutionMode::Strider,
                        None,
                        BackendKind::Fpga,
                        scan,
                    )?,
                }))
            }
            Statement::PredictPoint(p) => {
                let backend = self.resolve_backend_for(stmt)?;
                Ok(StatementOutcome::Point(
                    self.predict_point(&p.udf, &p.rows, backend)?,
                ))
            }
            Statement::Evaluate(e) => {
                let backend = self.resolve_backend_for(stmt)?;
                let scan = e.scan.as_ref();
                Ok(StatementOutcome::Evaluate(match (e.shards, backend) {
                    (Some(k), _) if k > 1 => {
                        self.evaluate_sharded_scan(&e.udf, &e.table, e.metric, k, scan)?
                    }
                    (_, BackendKind::Cpu) => self.evaluate_full(
                        &e.udf,
                        &e.table,
                        e.metric,
                        ExecutionMode::Strider,
                        None,
                        BackendKind::Cpu,
                        scan,
                    )?,
                    _ => self.evaluate_full(
                        &e.udf,
                        &e.table,
                        e.metric,
                        ExecutionMode::Strider,
                        None,
                        BackendKind::Fpga,
                        scan,
                    )?,
                }))
            }
            Statement::Explain(inner) => Ok(StatementOutcome::Explain(self.explain(inner)?)),
            Statement::ExplainAnalyze(inner) => self.analyze(inner, parse_wall),
            Statement::ShowStats(filter) => Ok(StatementOutcome::Stats(
                self.stats_snapshot(filter.as_deref()),
            )),
        }
    }

    /// `EXPLAIN ANALYZE <stmt>`: executes the inner statement with an
    /// enabled span recorder installed, then packages the lifecycle trace
    /// beside the outcome and — where the advisor can price the statement
    /// — the per-backend prediction the observed run calibrates.
    fn analyze(&mut self, inner: &Statement, parse_wall: f64) -> DanaResult<StatementOutcome> {
        let rec = SpanRecorder::enabled();
        exec::begin_trace(&rec, parse_wall, 0.0);
        let start = std::time::Instant::now();
        self.rec = rec.clone();
        let result = self.execute_parsed(inner, 0.0);
        self.rec = SpanRecorder::disabled();
        let outcome = result?;
        let comparison = self.explain(inner).ok();
        let total_sim = outcome.timing().map(|t| t.total_seconds).unwrap_or(0.0);
        let trace = exec::finish_trace(&rec, total_sim, start.elapsed().as_secs_f64())
            .expect("enabled recorder yields a trace");
        Ok(StatementOutcome::Analyze(Box::new(AnalyzeReport {
            outcome,
            trace,
            comparison,
        })))
    }

    /// Folds one finished front-door statement into the metrics registry:
    /// completion/failure counters, the wall-clock histogram, the
    /// backend split, and epochs trained.
    fn record_statement_metrics<T>(&self, result: &DanaResult<(StatementOutcome, T)>, wall: f64) {
        match result {
            Ok((outcome, _)) => {
                self.metrics.queries_completed.inc();
                self.metrics.exec_wall.record(wall);
                match outcome.backend() {
                    Some(BackendKind::Fpga) => self.metrics.fpga_queries.inc(),
                    Some(BackendKind::Cpu) => self.metrics.cpu_queries.inc(),
                    None => {}
                }
                if let StatementOutcome::Train(o) = outcome {
                    self.metrics.epochs_run.add(o.report.epochs_run as u64);
                }
            }
            Err(_) => self.metrics.queries_failed.inc(),
        }
    }

    /// Runs one parsed training call on the substrate its `WITH` clause
    /// (or the advisor) picked: gang queries stay on the FPGA tier, CPU
    /// queries bypass the cycle model entirely.
    fn run_train_call(&mut self, call: &QueryCall) -> DanaResult<DanaReport> {
        let backend = self.resolve_backend_for(&Statement::Train(call.clone()))?;
        let scan = call.scan.as_ref();
        match (call.shards, backend) {
            (Some(k), _) if k > 1 => {
                self.train_sharded_scan(&call.udf, &call.table, ExecutionMode::Strider, k, scan)
            }
            (Some(k), BackendKind::Fpga) => {
                self.train_sharded_scan(&call.udf, &call.table, ExecutionMode::Strider, k, scan)
            }
            (_, BackendKind::Cpu) => self.run_udf_cpu_scan(&call.udf, &call.table, scan),
            (None, BackendKind::Fpga) => self.run_udf_scan(&call.udf, &call.table, scan),
        }
    }

    // ---- the backend advisor --------------------------------------------

    /// Prices a parsed statement on every backend without running it —
    /// the `EXPLAIN` entry point. Pass the *inner* statement (the parser
    /// already rejects nested EXPLAIN).
    pub fn explain(&mut self, stmt: &Statement) -> DanaResult<StrategyComparison> {
        let (cached, rows, columns) = self.advisor_inputs(stmt)?;
        exec::explain_statement(&self.profile, &cached, rows, columns, stmt)
    }

    /// Parses and explains one statement (`EXPLAIN`'s string front door).
    pub fn explain_sql(&mut self, sql: &str) -> DanaResult<StrategyComparison> {
        let stmt = match parse_statement(sql)? {
            Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => *inner,
            other => other,
        };
        self.explain(&stmt)
    }

    /// The advisor's inputs for a statement: the cached accelerator
    /// runtime (stale-checked), the catalog's tuple count, and the table's
    /// column count (0 for the point form) — no data is touched.
    fn advisor_inputs(
        &self,
        stmt: &Statement,
    ) -> DanaResult<(std::sync::Arc<exec::CachedAccelerator>, u64, usize)> {
        let (udf, table) = match stmt {
            Statement::Train(c) => (&c.udf, Some(&c.table)),
            Statement::Predict(p) => (&p.udf, Some(&p.table)),
            // The point form scores its literal rows — no table to count.
            Statement::PredictPoint(p) => (&p.udf, None),
            Statement::Evaluate(e) => (&e.udf, Some(&e.table)),
            Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                return Err(DanaError::Query("EXPLAIN cannot be nested".to_string()))
            }
            Statement::ShowStats(_) => {
                return Err(DanaError::Query(
                    "SHOW STATS has no execution backend".to_string(),
                ))
            }
        };
        let entry = self.catalog.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, _built) = exec::cached_accelerator(entry)?;
        let (rows, columns) = match (table, stmt) {
            (Some(table), _) => {
                let t = self.catalog.live_table(table)?;
                let columns = self.catalog.heap(t.heap_id)?.schema().len();
                (t.tuple_count, columns)
            }
            (None, Statement::PredictPoint(p)) => (p.rows.len() as u64, 0),
            (None, _) => unreachable!("only the point form has no table"),
        };
        Ok((cached, rows, columns))
    }

    /// Resolves the substrate one statement runs on: a `WITH (backend=…)`
    /// override wins; `auto` asks the advisor; a gang (shards > 1) pins
    /// the FPGA tier, and forcing CPU alongside one is a typed error.
    fn resolve_backend_for(&self, stmt: &Statement) -> DanaResult<BackendKind> {
        // Gang rules and explicit overrides resolve without touching the
        // catalog; only `auto` on a serial statement prices the workload.
        let (requested, shards) = match stmt {
            Statement::Train(c) => (c.backend, c.shards),
            Statement::Predict(p) => (p.backend, p.shards),
            Statement::PredictPoint(p) => (p.backend, None),
            Statement::Evaluate(e) => (e.backend, e.shards),
            Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                return Err(DanaError::Query("EXPLAIN cannot be nested".to_string()))
            }
            Statement::ShowStats(_) => {
                return Err(DanaError::Query(
                    "SHOW STATS has no execution backend".to_string(),
                ))
            }
        };
        if shards.is_some_and(|k| k > 1) {
            return match requested {
                BackendChoice::Cpu => Err(exec::gang_needs_fpga()),
                _ => Ok(BackendKind::Fpga),
            };
        }
        match requested {
            BackendChoice::Fpga => Ok(BackendKind::Fpga),
            BackendChoice::Cpu => Ok(BackendKind::Cpu),
            BackendChoice::Auto => {
                let (cached, rows, columns) = self.advisor_inputs(stmt)?;
                exec::resolve_backend(&self.profile, &cached, rows, columns, stmt)
            }
        }
    }

    /// Runs a deployed accelerator by UDF name (full-Strider mode).
    ///
    /// The EXECUTE hot path: the engine comes out of the entry's runtime
    /// cache, primed at DEPLOY — no blob decode, no validation, no
    /// lowering, no design clone per query. The trained model is stored
    /// back on the catalog entry (last training wins), making it
    /// available to PREDICT/EVALUATE.
    pub fn run_udf(&mut self, udf: &str, table: &str) -> DanaResult<DanaReport> {
        self.run_udf_scan(udf, table, None)
    }

    /// [`Dana::run_udf`] with an optional pushdown scan spec (the SQL
    /// front door's `WHERE` / `COLUMNS` clauses): training sees only the
    /// filtered, projected tuple stream.
    fn run_udf_scan(
        &mut self,
        udf: &str,
        table: &str,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let entry = self.catalog.accelerator(udf)?;
        if entry.stale {
            // The accelerator's Strider program walks a page layout whose
            // table has been dropped — refuse with a typed error instead
            // of letting the lookup dangle into `UnknownHeap`.
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, _built) = exec::cached_accelerator(entry)?;
        // Exercise the catalog round trip: the stored Strider words must
        // decode back into a program.
        let decoded = dana_strider::isa::decode_program(&entry.strider_program)?;
        debug_assert!(!decoded.is_empty());
        let report = self.run_with_engine(&cached, table, ExecutionMode::Strider, scan)?;
        exec::store_trained(self.catalog.accelerator(udf)?, &report);
        Ok(report)
    }

    /// Runs a deployed accelerator's lowered program on the **native CPU
    /// backend** (`… WITH (backend = cpu)`, or `auto` below break-even):
    /// the identical streamed scan and epoch loop, timed with a stopwatch
    /// instead of the cycle model. Models and engine counters are
    /// bit-identical to [`Dana::run_udf`]; the report's timing is
    /// wall-clock only and no accelerator resources are charged.
    pub fn run_udf_cpu(&mut self, udf: &str, table: &str) -> DanaResult<DanaReport> {
        self.run_udf_cpu_scan(udf, table, None)
    }

    /// [`Dana::run_udf_cpu`] with an optional pushdown scan spec.
    fn run_udf_cpu_scan(
        &mut self,
        udf: &str,
        table: &str,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let entry = self.catalog.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, _built) = exec::cached_accelerator(entry)?;
        let design = cached.engine.design();
        let table_entry = self.catalog.live_table(table)?;
        let heap_id = table_entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, cached.budget, &self.fpga);
        let state = exec::scan_state(table_entry, heap, scan)?;
        let mut store = ModelStore::new(design, exec::initial_models(design))?;
        let feed = FeedKind::for_mode(ExecutionMode::Strider);
        let base =
            SharedPageStreamSource::new(&self.pool, &self.disk, heap, heap_id, &access, feed);
        let mut source = match &state {
            Some(s) => base.with_scan(s.clone()),
            None => base,
        };
        let run = cached.cpu.run_training(&mut source, &mut store)?;
        let (access_stats, _) = source.into_stats();
        if let Some(s) = &state {
            exec::record_scan_metrics(&self.metrics, &access_stats, &s.sidecar, heap.tuple_count());
        }
        let report = exec::assemble_cpu_report(design, run, access_stats, store, &self.rec);
        exec::store_trained(self.catalog.accelerator(udf)?, &report);
        Ok(report)
    }

    // ---- intra-query data parallelism -----------------------------------

    /// Runs a deployed accelerator gang-parallel across `shards`
    /// page-range shards of `table` (`EXECUTE … WITH (shards = k)`): each
    /// shard trains one epoch of the cached lowered program, partial
    /// models merge deterministically at every epoch boundary (weighted
    /// averaging for dense analytics, factor-row ownership for LRMF), and
    /// the merged model trains the next epoch. `shards = 1` is
    /// bit-identical to [`Dana::run_udf`]. The members stream their page
    /// ranges through the shared pool concurrently, as in `SystemCore`.
    pub fn run_udf_sharded(
        &mut self,
        udf: &str,
        table: &str,
        shards: u16,
    ) -> DanaResult<DanaReport> {
        self.train_sharded_with(udf, table, ExecutionMode::Strider, shards)
    }

    /// [`Dana::run_udf_sharded`]'s engine room, mode-generic (the
    /// ablation/differential suites drive CpuFed/Tabla through it too).
    pub fn train_sharded_with(
        &mut self,
        udf: &str,
        table: &str,
        mode: ExecutionMode,
        shards: u16,
    ) -> DanaResult<DanaReport> {
        self.train_sharded_scan(udf, table, mode, shards, None)
    }

    /// [`Dana::train_sharded_with`] with an optional pushdown scan spec:
    /// the filtered stream is extracted once and the surviving tuples are
    /// re-split at packed page boundaries, so the gang's merge schedule is
    /// identical to training on a pre-materialized filtered table.
    fn train_sharded_scan(
        &mut self,
        udf: &str,
        table: &str,
        mode: ExecutionMode,
        shards: u16,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let entry = self.catalog.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, _built) = exec::cached_accelerator(entry)?;
        let report = self.run_gang_with_engine(&cached, table, mode, shards, scan)?;
        exec::store_trained(self.catalog.accelerator(udf)?, &report);
        Ok(report)
    }

    /// Compiles `spec` ad hoc and trains it gang-parallel in the given
    /// mode (the differential suite's mode-matrix entry point; nothing is
    /// stored in the catalog) — the sharded twin of
    /// [`Dana::train_with_spec`]. `shards = 1` is bit-identical to it.
    pub fn train_with_spec_sharded(
        &mut self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        mode: ExecutionMode,
        shards: u16,
    ) -> DanaResult<DanaReport> {
        let threads = match mode {
            ExecutionMode::Tabla => Some(1),
            _ => None,
        };
        let acc = self.compile_for(spec, table, threads)?;
        self.run_gang_with_engine(
            &exec::CachedAccelerator::from_compiled(&acc, None),
            table,
            mode,
            shards,
            None,
        )
    }

    fn run_gang_with_engine(
        &mut self,
        acc: &exec::CachedAccelerator,
        table: &str,
        mode: ExecutionMode,
        shards: u16,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let budget = acc.budget;
        let engine = &acc.engine;
        let design = engine.design();
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let mut sources = shard_sources(
            &self.pool,
            &self.disk,
            heap,
            heap_id,
            &access,
            FeedKind::for_mode(mode),
            shards as usize,
            state.as_ref(),
            &self.metrics,
        )?;
        let outcome = train_gang(engine, &mut sources, exec::initial_models(design))?;
        let arts = sources
            .into_iter()
            .zip(&outcome.shard_stats)
            .map(|(src, stats)| src.into_artifacts(*stats))
            .collect();
        exec::assemble_gang_report(
            mode,
            design,
            budget,
            &self.fpga,
            &self.cpu,
            &self.disk,
            self.pool.frames(),
            heap,
            arts,
            outcome.merge_cycles,
            outcome.models,
            &self.rec,
        )
    }

    /// Gang-parallel PREDICT (`PREDICT … INTO … WITH (shards = k)`):
    /// shards score concurrently, outputs concatenate in shard-index
    /// order (= source page order), and the materialized prediction table
    /// is **bit-identical to serial PREDICT for every shard count**.
    pub fn predict_sharded(
        &mut self,
        udf: &str,
        source: &str,
        dest: &str,
        shards: u16,
    ) -> DanaResult<PredictReport> {
        self.predict_sharded_scan(udf, source, dest, shards, None)
    }

    /// [`Dana::predict_sharded`] with an optional pushdown scan spec:
    /// shards score the filtered stream and the materialized table keeps
    /// only surviving tuples and projected columns.
    fn predict_sharded_scan(
        &mut self,
        udf: &str,
        source: &str,
        dest: &str,
        shards: u16,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<PredictReport> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        if self.catalog.table(dest).is_ok() {
            return Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(dest.to_string()),
            ));
        }
        let (predictions, timing, stats, k) =
            self.sharded_scoring_scan(&setup, source, shards, scan, |program, lanes, sources| {
                Ok(score_gang_concat(program, lanes, sources)?)
            })?;
        let entry = self.catalog.live_table(source)?;
        let heap = self.catalog.heap(entry.heap_id)?;
        let mat_start = std::time::Instant::now();
        let out_heap = exec::materialize_predictions(entry, heap, scan, &predictions)?;
        self.catalog.create_derived_table(dest, out_heap, source)?;
        self.rec
            .add_wall(exec::stage::MATERIALIZE, mat_start.elapsed().as_secs_f64());
        Ok(PredictReport {
            udf: udf.to_string(),
            source_table: source.to_string(),
            output_table: dest.to_string(),
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards: k,
            backend: BackendKind::Fpga,
            scoring: stats,
            timing,
        })
    }

    /// Gang-parallel EVALUATE: shards fold their metric partials
    /// concurrently; partials combine in shard-index order and the metric
    /// finishes once. `shards = 1` is bit-identical to serial EVALUATE.
    pub fn evaluate_sharded(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        shards: u16,
    ) -> DanaResult<EvalReport> {
        self.evaluate_sharded_scan(udf, table, metric, shards, None)
    }

    /// [`Dana::evaluate_sharded`] with an optional pushdown scan spec.
    fn evaluate_sharded_scan(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        shards: u16,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<EvalReport> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let metric = metric.unwrap_or_else(|| setup.recipe.default_metric());
        setup.recipe.check_metric(metric)?;
        let (value, timing, stats, k) =
            self.sharded_scoring_scan(&setup, table, shards, scan, |program, lanes, sources| {
                let evals = evaluate_gang(program, lanes, sources, metric)?;
                let mut partial = dana_infer::MetricPartial::default();
                for e in &evals {
                    partial.absorb(e.partial);
                }
                let stats: Vec<_> = evals.iter().map(|e| e.stats).collect();
                Ok((partial.finish(metric)?, stats))
            })?;
        Ok(EvalReport {
            udf: udf.to_string(),
            table: table.to_string(),
            metric,
            value,
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards: k,
            backend: BackendKind::Fpga,
            scoring: stats,
            timing,
        })
    }

    /// Gang-parallel raw scoring (differential-suite entry point).
    pub fn score_sharded(&mut self, udf: &str, table: &str, shards: u16) -> DanaResult<Vec<f32>> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let (predictions, _, _, _) =
            self.sharded_scoring_scan(&setup, table, shards, None, |program, lanes, sources| {
                Ok(score_gang_concat(program, lanes, sources)?)
            })?;
        Ok(predictions)
    }

    /// The one sharded scoring scan: open the gang's shard sources, run
    /// `run` (scoring or metric fold) over them, and compose the gang
    /// timing. Shared by predict/evaluate/score so the shard plumbing
    /// exists exactly once.
    fn sharded_scoring_scan<R>(
        &mut self,
        setup: &exec::ScoringSetup,
        table: &str,
        shards: u16,
        scan: Option<&ScanSpec>,
        run: impl FnOnce(
            &dana_infer::ScoringProgram,
            u16,
            &mut [ShardSource<'_>],
        ) -> DanaResult<(R, Vec<dana_infer::ScoringStats>)>,
    ) -> DanaResult<(R, crate::report::DanaTiming, dana_infer::ScoringStats, u16)> {
        let mode = ExecutionMode::Strider;
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, setup.cached.budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let mut sources = shard_sources(
            &self.pool,
            &self.disk,
            heap,
            heap_id,
            &access,
            FeedKind::for_mode(mode),
            shards as usize,
            state.as_ref(),
            &self.metrics,
        )?;
        let shard_count = sources.len() as u16;
        let (result, stats) = run(&setup.program, setup.lanes, &mut sources)?;
        let arts: Vec<_> = sources
            .into_iter()
            .map(|src| src.into_artifacts(Default::default()))
            .collect();
        let (timing, combined) = exec::assemble_gang_scoring_timing(
            mode,
            setup.cached.budget,
            &self.fpga,
            &self.cpu,
            &self.disk,
            self.pool.frames(),
            heap,
            &arts,
            &stats,
            &self.rec,
        );
        Ok((result, timing, combined, shard_count))
    }

    // ---- the inference tier --------------------------------------------

    /// Scores `source` with `udf`'s latest trained model and materializes
    /// the predictions as a new catalog table `dest`: the source schema
    /// plus an appended `prediction real` column, registered as a real
    /// heap — scannable, snapshottable, and droppable like any table.
    pub fn predict(&mut self, udf: &str, source: &str, dest: &str) -> DanaResult<PredictReport> {
        self.predict_with(udf, source, dest, ExecutionMode::Strider, None)
    }

    /// [`Dana::predict`] with explicit execution mode and lockstep lane
    /// count (the ablation / differential-suite entry point). Lanes
    /// default to the deployed design's thread count; TABLA mode is
    /// single-lane, like training.
    pub fn predict_with(
        &mut self,
        udf: &str,
        source: &str,
        dest: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<PredictReport> {
        self.predict_full(udf, source, dest, mode, lanes, BackendKind::Fpga, None)
    }

    /// `PREDICT … WITH (backend = cpu)`: the identical scoring scan with
    /// stopwatch accounting — the materialized predictions are
    /// bit-identical to the FPGA tier's.
    pub fn predict_cpu(
        &mut self,
        udf: &str,
        source: &str,
        dest: &str,
    ) -> DanaResult<PredictReport> {
        self.predict_full(
            udf,
            source,
            dest,
            ExecutionMode::Strider,
            None,
            BackendKind::Cpu,
            None,
        )
    }

    /// Point-form `PREDICT dana.<udf>(VALUES ...)`: binds the literal
    /// rows straight into the cached scoring program and scores them as
    /// one in-memory SoA batch — no heap scan, no buffer-pool traffic,
    /// nothing materialized. Bit-identical to the materializing path on
    /// the same rows because the identical SoA executor runs in both.
    pub fn predict_point(
        &mut self,
        udf: &str,
        rows: &[Vec<f32>],
        backend: BackendKind,
    ) -> DanaResult<PointReport> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let batch = exec::point_batch(udf, &setup.program, rows)?;
        let start = std::time::Instant::now();
        let (predictions, stats) = dana_infer::score_batch(&setup.program, setup.lanes, &batch)?;
        let wall = start.elapsed().as_secs_f64();
        let timing = exec::point_timing(backend, &stats, wall, &self.fpga);
        match backend {
            BackendKind::Cpu => exec::record_cpu_spans(&self.rec, wall),
            BackendKind::Fpga => self.rec.add_sim(exec::stage::ENGINE, timing.engine_seconds),
        }
        Ok(PointReport {
            udf: udf.to_string(),
            predictions,
            lanes: setup.lanes,
            backend,
            cached: false,
            scoring: stats,
            timing,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn predict_full(
        &mut self,
        udf: &str,
        source: &str,
        dest: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
        backend: BackendKind,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<PredictReport> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        // Refuse an existing destination before scanning anything.
        if self.catalog.table(dest).is_ok() {
            return Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(dest.to_string()),
            ));
        }
        let (predictions, stats, timing) =
            self.scoring_scan(&setup, source, mode, backend, scan, |p, l, stream| {
                let mut out = Vec::new();
                let stats = dana_infer::score_source(p, l, stream, &mut out)?;
                Ok((out, stats))
            })?;
        let entry = self.catalog.live_table(source)?;
        let heap = self.catalog.heap(entry.heap_id)?;
        let mat_start = std::time::Instant::now();
        let out_heap = exec::materialize_predictions(entry, heap, scan, &predictions)?;
        self.catalog.create_derived_table(dest, out_heap, source)?;
        self.rec
            .add_wall(exec::stage::MATERIALIZE, mat_start.elapsed().as_secs_f64());
        Ok(PredictReport {
            udf: udf.to_string(),
            source_table: source.to_string(),
            output_table: dest.to_string(),
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards: 1,
            backend,
            scoring: stats,
            timing,
        })
    }

    /// Scores `table` and folds an in-database quality metric over the
    /// `(prediction, label)` stream — no tuple ever leaves the engine and
    /// nothing is materialized. `metric` defaults to the analytic's
    /// natural one (mse / log_loss / accuracy / lrmf_rmse).
    pub fn evaluate(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
    ) -> DanaResult<EvalReport> {
        self.evaluate_with(udf, table, metric, ExecutionMode::Strider, None)
    }

    /// [`Dana::evaluate`] with explicit execution mode and lane count.
    pub fn evaluate_with(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<EvalReport> {
        self.evaluate_full(udf, table, metric, mode, lanes, BackendKind::Fpga, None)
    }

    /// `EVALUATE … WITH (backend = cpu)`: the identical metric fold with
    /// stopwatch accounting.
    pub fn evaluate_cpu(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
    ) -> DanaResult<EvalReport> {
        self.evaluate_full(
            udf,
            table,
            metric,
            ExecutionMode::Strider,
            None,
            BackendKind::Cpu,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn evaluate_full(
        &mut self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        mode: ExecutionMode,
        lanes: Option<u16>,
        backend: BackendKind,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<EvalReport> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        let metric = metric.unwrap_or_else(|| setup.recipe.default_metric());
        setup.recipe.check_metric(metric)?;
        let (value, stats, timing) =
            self.scoring_scan(&setup, table, mode, backend, scan, |p, l, stream| {
                dana_infer::evaluate_source(p, l, stream, metric)
            })?;
        Ok(EvalReport {
            udf: udf.to_string(),
            table: table.to_string(),
            metric,
            value,
            rows_scored: stats.tuples,
            lanes: setup.lanes,
            shards: 1,
            backend,
            scoring: stats,
            timing,
        })
    }

    /// Scores `table` and returns the raw prediction stream (differential
    /// suite / ablation entry point; nothing is materialized).
    pub fn score_with(
        &mut self,
        udf: &str,
        table: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<Vec<f32>> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        let (predictions, _, _) = self.scoring_scan(
            &setup,
            table,
            mode,
            BackendKind::Fpga,
            None,
            |p, l, stream| {
                let mut out = Vec::new();
                let stats = dana_infer::score_source(p, l, stream, &mut out)?;
                Ok((out, stats))
            },
        )?;
        Ok(predictions)
    }

    /// Resolves everything a scoring query needs from the catalog (the
    /// stale check, the cached accelerator, the recipe bound to the
    /// latest trained models, the lane count) — see
    /// [`exec::scoring_setup`].
    fn scoring_setup(
        &self,
        udf: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<exec::ScoringSetup> {
        let entry = self.catalog.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, _built) = exec::cached_accelerator(entry)?;
        exec::scoring_setup(udf, entry, cached, mode, lanes)
    }

    /// The one scoring scan: stream `table`'s pages through the data path
    /// into `run` (which drives the SoA scorer — collecting predictions
    /// or folding a metric) and account its cost for `backend` — the
    /// composed cycle-model timing on the FPGA tier, a stopwatch around
    /// the scan ([`DanaTiming::wall_only`]) on the CPU tier. Shared by
    /// predict/evaluate/score so the scan plumbing exists exactly once.
    fn scoring_scan<R>(
        &mut self,
        setup: &exec::ScoringSetup,
        table: &str,
        mode: ExecutionMode,
        backend: BackendKind,
        scan: Option<&ScanSpec>,
        run: impl FnOnce(
            &dana_infer::ScoringProgram,
            u16,
            &mut SharedPageStreamSource<'_>,
        ) -> dana_infer::InferResult<(R, dana_infer::ScoringStats)>,
    ) -> DanaResult<(R, dana_infer::ScoringStats, crate::report::DanaTiming)> {
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, setup.cached.budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let feed = FeedKind::for_mode(mode);
        let base =
            SharedPageStreamSource::new(&self.pool, &self.disk, heap, heap_id, &access, feed);
        let mut stream = match &state {
            Some(s) => base.with_scan(s.clone()),
            None => base,
        };
        let start = std::time::Instant::now();
        let (result, stats) = run(&setup.program, setup.lanes, &mut stream)?;
        let wall = start.elapsed().as_secs_f64();
        let (access_stats, io_first) = stream.into_stats();
        if let Some(s) = &state {
            exec::record_scan_metrics(&self.metrics, &access_stats, &s.sidecar, heap.tuple_count());
        }
        let timing = match backend {
            BackendKind::Cpu => {
                exec::record_cpu_spans(&self.rec, wall);
                DanaTiming::wall_only(wall)
            }
            BackendKind::Fpga => exec::assemble_scoring_timing(
                mode,
                setup.cached.budget,
                &self.fpga,
                &self.cpu,
                &self.disk,
                self.pool.frames(),
                heap,
                &access_stats,
                io_first,
                &stats,
                &self.rec,
            ),
        };
        Ok((result, stats, timing))
    }

    /// Compiles a spec ad hoc and runs it in the given mode (the Fig. 11 /
    /// Fig. 16 ablation entry point; nothing is stored in the catalog).
    /// The engine is the one the compiler already built — no second
    /// construction.
    pub fn train_with_spec(
        &mut self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        mode: ExecutionMode,
    ) -> DanaResult<DanaReport> {
        let threads = match mode {
            ExecutionMode::Tabla => Some(1),
            _ => None,
        };
        let acc = self.compile_for(spec, table, threads)?;
        self.run_with_engine(
            &exec::CachedAccelerator::from_compiled(&acc, None),
            table,
            mode,
            None,
        )
    }

    fn compile_for(
        &self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        threads: Option<u32>,
    ) -> DanaResult<CompiledAccelerator> {
        let (entry, heap) = self.catalog.table_heap(table)?;
        let hdfg = translate(spec);
        let input = CompileInput {
            hdfg: &hdfg,
            fpga: self.fpga,
            layout: *heap.layout(),
            schema_columns: heap.schema().len(),
            expected_tuples: entry.tuple_count,
        };
        Ok(match threads {
            Some(t) => compile_with_threads(&input, t)?,
            None => compile(&input)?,
        })
    }

    fn run_with_engine(
        &mut self,
        acc: &exec::CachedAccelerator,
        table: &str,
        mode: ExecutionMode,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let budget = acc.budget;
        let engine = &acc.engine;
        let design = engine.design();
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;

        // ---- compute path, fed by the streaming data path ---------------
        // The shared, deploy-time-built engine pulls flat batches
        // page-by-page out of the buffer pool: fetch → extract (Striders
        // or CPU, per mode) → train interleave with no full-table
        // materialization (Fig. 2).
        let mut store = ModelStore::new(design, exec::initial_models(design))?;
        let feed = FeedKind::for_mode(mode);
        let base =
            SharedPageStreamSource::new(&self.pool, &self.disk, heap, heap_id, &access, feed);
        let mut source = match &state {
            Some(s) => base.with_scan(s.clone()),
            None => base,
        };
        let (stats, epoch_cycles) = engine.run_training_logged(&mut source, &mut store)?;
        let (access_stats, io_first) = source.into_stats();
        if let Some(s) = &state {
            exec::record_scan_metrics(&self.metrics, &access_stats, &s.sidecar, heap.tuple_count());
        }

        // ---- timing composition (shared with the serving tier) -----------
        Ok(exec::assemble_report(
            mode,
            design,
            budget,
            &self.fpga,
            &self.cpu,
            &self.disk,
            self.pool.frames(),
            heap,
            RunArtifacts {
                engine_stats: stats,
                access_stats,
                io_first,
                epoch_cycles,
            },
            store,
            &self.rec,
        ))
    }

    /// Reference data path, retained for differential testing: compiles
    /// `spec` like [`Dana::train_with_spec`] but materializes the entire
    /// table as per-tuple `Vec<f32>` rows first (the pre-streaming
    /// pipeline) and trains via the engine's reference rows path. The
    /// equivalence suite holds this and the streaming path to bit-identical
    /// models; it reports models only — no timing.
    pub fn train_with_spec_reference(
        &mut self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        mode: ExecutionMode,
    ) -> DanaResult<Vec<Vec<f32>>> {
        let threads = match mode {
            ExecutionMode::Tabla => Some(1),
            _ => None,
        };
        let acc = self.compile_for(spec, table, threads)?;
        let entry = self.catalog.live_table(table)?;
        let heap_id = entry.heap_id;
        let heap = self.catalog.heap(heap_id)?;
        let access = exec::access_engine_for(heap, acc.budget, &self.fpga);

        // Full-table materialization: one heap allocation per tuple.
        let mut tuples: Vec<Vec<f32>> = Vec::with_capacity(heap.tuple_count() as usize);
        for page_no in 0..heap.page_count() {
            let (bytes, _) = self
                .pool
                .fetch(PageId::new(heap_id, page_no), heap, &self.disk)?;
            if mode.uses_striders() {
                let (page_tuples, _) = access.extract_page_rows(&bytes)?;
                tuples.extend(page_tuples.into_iter().map(|t| t.values));
            } else {
                let page = dana_storage::HeapPage::from_bytes(bytes.to_vec(), *heap.layout())?;
                for slot in 0..page.tuple_count() {
                    let t = Tuple::deform(heap.schema(), page.tuple_bytes(slot)?)?;
                    tuples.push(t.values.iter().map(|d| d.as_f32()).collect());
                }
            }
        }

        let mut store = ModelStore::new(&acc.design, exec::initial_models(&acc.design))?;
        acc.engine.run_training_rows(&tuples, &mut store)?;
        Ok(store.into_values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{linear_regression, DenseParams};
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, Schema};

    fn small_system() -> Dana {
        Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            DiskModel::ssd(),
        )
    }

    fn linreg_heap(n: usize, d: usize) -> HeapFile {
        let truth: Vec<f32> = (0..d).map(|i| 0.3 * i as f32 - 0.5).collect();
        let mut b =
            HeapFileBuilder::new(Schema::training(d), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d)
                .map(|i| (((k * 7 + i * 3) % 11) as f32 - 5.0) / 5.0)
                .collect();
            let y: f32 = x.iter().zip(&truth).map(|(a, b)| a * b).sum();
            b.insert(&Tuple::training(&x, y)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn deploy_then_execute_via_sql() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(500, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap();
        let info = db.deploy(&spec, "t").unwrap();
        assert!(info.num_threads >= 1);
        assert!(info.strider_listing.contains("readB"));
        assert_eq!(db.catalog().accelerator_names(), vec!["linearR"]);

        let out = db.execute("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(out.udf, "linearR");
        let w = out.report.dense_model();
        // The planted model is 0.3i − 0.5.
        for (i, v) in w.iter().enumerate() {
            let truth = 0.3 * i as f32 - 0.5;
            assert!((v - truth).abs() < 0.05, "w[{i}] = {v}, truth {truth}");
        }
        assert!(out.report.timing.total_seconds > 0.0);
        assert!(out.report.timing.engine_seconds > 0.0);
    }

    #[test]
    fn deploy_from_source_text() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(200, 10)).unwrap();
        let src = dana_dsl::zoo::linear_regression_source(10, 8, 5);
        let info = db.deploy_source(&src, "fallback", "t").unwrap();
        assert_eq!(info.udf_name, "linearR");
        assert!(db.run_udf("linearR", "t").is_ok());
    }

    #[test]
    fn warm_cache_is_faster_than_cold() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(3000, 16)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 16,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 3,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        db.clear_cache();
        let cold = db.run_udf("linearR", "t").unwrap();
        assert!(cold.timing.io_seconds > 0.0);

        db.prewarm("t").unwrap();
        let warm = db.run_udf("linearR", "t").unwrap();
        assert_eq!(warm.timing.io_seconds, 0.0);
        assert!(warm.timing.total_seconds < cold.timing.total_seconds);
        // Same pages, same schedule → identical models.
        assert_eq!(warm.models, cold.models);
    }

    #[test]
    fn strider_mode_beats_cpu_fed() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(2000, 32)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 32,
            learning_rate: 0.1,
            merge_coef: 16,
            epochs: 2,
        })
        .unwrap();
        let with = db
            .train_with_spec(&spec, "t", ExecutionMode::Strider)
            .unwrap();
        let without = db
            .train_with_spec(&spec, "t", ExecutionMode::CpuFed)
            .unwrap();
        assert!(
            with.timing.total_seconds < without.timing.total_seconds,
            "Striders must win: {} vs {}",
            with.timing.total_seconds,
            without.timing.total_seconds
        );
        // Same math either way.
        assert_eq!(with.models, without.models);
    }

    #[test]
    fn tabla_mode_is_single_threaded_and_slower() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(2000, 32)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 32,
            learning_rate: 0.1,
            merge_coef: 16,
            epochs: 2,
        })
        .unwrap();
        let dana = db
            .train_with_spec(&spec, "t", ExecutionMode::Strider)
            .unwrap();
        let tabla = db
            .train_with_spec(&spec, "t", ExecutionMode::Tabla)
            .unwrap();
        assert_eq!(tabla.num_threads, 1);
        assert!(tabla.engine.cycles > dana.engine.cycles);
        assert!(tabla.timing.total_seconds > dana.timing.total_seconds);
    }

    #[test]
    fn drop_table_evicts_pages_and_invalidates_accelerators() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(500, 8)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(db.pool_stats().hits + db.pool_stats().misses == 0);

        let summary = db.drop_table("t").unwrap();
        assert_eq!(summary.table, "t");
        assert!(summary.pages_evicted > 0, "prewarmed pages must be evicted");
        assert_eq!(summary.invalidated_udfs, vec!["linearR".to_string()]);

        // The stale accelerator refuses with a typed error — never a
        // dangling UnknownHeap.
        match db.run_udf("linearR", "t") {
            Err(DanaError::StaleAccelerator { udf, dropped_table }) => {
                assert_eq!(udf, "linearR");
                assert_eq!(dropped_table, "t");
            }
            other => panic!("expected StaleAccelerator, got {other:?}"),
        }
        // Dropping again is a typed unknown-table error.
        assert!(matches!(
            db.drop_table("t"),
            Err(DanaError::Storage(
                dana_storage::StorageError::UnknownTable(_)
            ))
        ));
    }

    #[test]
    fn redeploy_after_drop_revives_udf() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        db.drop_table("t").unwrap();
        assert!(db.run_udf("linearR", "t").is_err());

        // Re-create the table and redeploy: the UDF name works again.
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(db.run_udf("linearR", "t").is_ok());
    }

    #[test]
    fn predict_materializes_and_evaluate_round_trips() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(700, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        // PREDICT before any training is a typed error.
        assert!(matches!(
            db.predict("linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));
        let trained = db.run_udf("linearR", "t").unwrap();

        // PREDICT materializes a real catalog table.
        let report = db.predict("linearR", "t", "p").unwrap();
        assert_eq!(report.rows_scored, 700);
        assert_eq!(report.output_table, "p");
        assert!(report.timing.total_seconds > 0.0);
        assert!(report.scoring.cycles > 0);

        // Scan it back: source columns + a prediction column holding the
        // CPU reference scores bit-exactly.
        let (entry, heap) = db.catalog().table_heap("p").unwrap();
        assert_eq!(entry.tuple_count, 700);
        assert_eq!(entry.derived_from.as_deref(), Some("t"));
        assert_eq!(heap.schema().len(), 10); // 8 features + y + prediction
        let batch = heap.scan_batch().unwrap();
        let model = dana_ml::DenseModel(trained.dense_model().to_vec());
        let src_batch = db
            .catalog()
            .table_heap("t")
            .unwrap()
            .1
            .scan_batch()
            .unwrap();
        let reference = dana_ml::score_dense(&model, &src_batch, dana_ml::Link::Identity);
        let stored: Vec<f32> = batch.rows().map(|r| r[9]).collect();
        assert_eq!(stored, reference, "materialized predictions round-trip");

        // EVALUATE the prediction table (the trailing prediction column
        // is ignored; the label column is still read) and the source —
        // identical metric, equal to the whole-batch reference.
        let on_pred = db.evaluate("linearR", "p", None).unwrap();
        let on_src = db.evaluate("linearR", "t", None).unwrap();
        assert_eq!(on_pred.metric, dana_infer::MetricKind::Mse);
        assert_eq!(on_pred.value, on_src.value);
        assert_eq!(
            on_src.value,
            dana_ml::metrics::mse(&model, &src_batch).unwrap()
        );
        assert!(
            on_src.value < 0.01,
            "trained model must fit: {}",
            on_src.value
        );

        // The prediction table drops like any heap.
        let summary = db.drop_table("p").unwrap();
        assert_eq!(summary.table, "p");
        assert!(db.catalog().table("p").is_err());
    }

    #[test]
    fn execute_statement_dispatches_all_three_forms() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(300, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 20,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();

        let out = db
            .execute_statement("SELECT * FROM dana.linearR('t');")
            .unwrap();
        assert!(matches!(out, StatementOutcome::Train(_)));
        assert!(out.timing().unwrap().total_seconds > 0.0);

        let out = db
            .execute_statement("PREDICT dana.linearR('t') INTO 'scores';")
            .unwrap();
        let StatementOutcome::Predict(p) = out else {
            panic!("expected predict outcome");
        };
        assert_eq!(p.output_table, "scores");
        assert!(db.catalog().table("scores").is_ok());

        let out = db
            .execute_statement("EVALUATE dana.linearR('t', 'mse');")
            .unwrap();
        let StatementOutcome::Evaluate(e) = out else {
            panic!("expected evaluate outcome");
        };
        assert_eq!(e.metric, dana_infer::MetricKind::Mse);
        assert!(e.value.is_finite());

        // Predicting into an existing table is a typed duplicate error.
        assert!(matches!(
            db.execute_statement("PREDICT dana.linearR('t') INTO 'scores';"),
            Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(_)
            ))
        ));
    }

    #[test]
    fn dropping_source_stales_prediction_tables_and_scoring_caches() {
        let mut db = small_system();
        db.create_table("t", linreg_heap(400, 8)).unwrap();
        db.prewarm("t").unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        db.run_udf("linearR", "t").unwrap();
        db.predict("linearR", "t", "p").unwrap();
        // Pull the prediction table into the pool so the drop has pages
        // to evict.
        db.prewarm("p").unwrap();

        let summary = db.drop_table("t").unwrap();
        assert_eq!(summary.invalidated_udfs, vec!["linearR".to_string()]);
        assert_eq!(summary.stale_prediction_tables, vec!["p".to_string()]);

        // The stale prediction table refuses queries with a typed error…
        assert!(matches!(
            db.prewarm("p"),
            Err(DanaError::Storage(
                dana_storage::StorageError::StaleDerivedTable { .. }
            ))
        ));
        // …its pages are gone from the pool…
        assert_eq!(db.resident_pages(), 0, "stale pages must be evicted");
        // …the scoring cache died with the accelerator…
        assert!(matches!(
            db.predict("linearR", "p", "q"),
            Err(DanaError::StaleAccelerator { .. })
        ));
        // …and cleanup still works.
        assert!(db.drop_table("p").is_ok());
    }

    #[test]
    fn unknown_udf_or_table_errors() {
        let mut db = small_system();
        assert!(db.execute("SELECT * FROM dana.ghost('t');").is_err());
        db.create_table("t", linreg_heap(100, 4)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 4,
            ..Default::default()
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        assert!(db.run_udf("linearR", "missing_table").is_err());
    }

    fn deployed_db(rows: usize) -> Dana {
        let mut db = small_system();
        db.create_table("t", linreg_heap(rows, 8)).unwrap();
        let spec = linear_regression(DenseParams {
            n_features: 8,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 20,
        })
        .unwrap();
        db.deploy(&spec, "t").unwrap();
        db
    }

    /// The out-of-the-box system keeps the paper's semantics: every
    /// `backend = auto` query offloads to the simulated FPGA.
    #[test]
    fn default_profile_always_offloads() {
        let mut db = deployed_db(300);
        assert_eq!(db.hardware_profile().offload_threshold_rows, Some(0));
        let out = db.execute("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(out.report.backend, BackendKind::Fpga);
        assert!(out.report.timing.total_seconds > 0.0);
        assert!(out.report.timing.wall_seconds.is_none());
    }

    /// Once a model-based profile is installed, `auto` routes a tiny
    /// table to the CPU tier — and the CPU run is bit-identical.
    #[test]
    fn auto_routes_small_tables_to_cpu_once_profile_enabled() {
        let mut db = deployed_db(300);
        let fpga = db.execute("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(fpga.report.backend, BackendKind::Fpga);

        // Enable the throughput model: 300 rows is far below the default
        // profile's break-even (~tens of thousands of rows).
        let profile = db.hardware_profile().with_offload_threshold(None);
        db.set_hardware_profile(profile);
        let cpu = db.execute("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(cpu.report.backend, BackendKind::Cpu);
        assert_eq!(cpu.report.timing.total_seconds, 0.0);
        assert!(cpu.report.timing.wall_seconds.is_some());
        assert_eq!(
            cpu.report.models, fpga.report.models,
            "backends must agree bit-for-bit"
        );

        // An explicit WITH override beats the advisor both ways.
        let forced = db
            .execute("SELECT * FROM dana.linearR('t') WITH (backend = fpga);")
            .unwrap();
        assert_eq!(forced.report.backend, BackendKind::Fpga);
        assert_eq!(forced.report.models, fpga.report.models);
        let profile = db.hardware_profile().with_offload_threshold(Some(0));
        db.set_hardware_profile(profile);
        let forced_cpu = db
            .execute("SELECT * FROM dana.linearR('t') WITH (backend = cpu);")
            .unwrap();
        assert_eq!(forced_cpu.report.backend, BackendKind::Cpu);
        assert_eq!(forced_cpu.report.models, fpga.report.models);
    }

    /// EXPLAIN prints the per-backend comparison without executing
    /// anything: the model store stays untrained.
    #[test]
    fn explain_compares_backends_without_executing() {
        let mut db = deployed_db(400);
        let out = db
            .execute_statement("EXPLAIN SELECT * FROM dana.linearR('t');")
            .unwrap();
        let StatementOutcome::Explain(cmp) = out else {
            panic!("expected explain outcome");
        };
        assert_eq!(cmp.rows, 400);
        assert_eq!(cmp.options.len(), 2);
        assert!(cmp.estimated_seconds(BackendKind::Fpga).is_some());
        assert!(cmp.estimated_seconds(BackendKind::Cpu).is_some());
        // Default profile: manual always-offload threshold pins FPGA.
        assert_eq!(cmp.chosen, BackendKind::Fpga);
        let text = cmp.to_string();
        assert!(text.contains("fpga"), "rendered comparison: {text}");
        assert!(text.contains("cpu"), "rendered comparison: {text}");

        // Nothing ran: scoring still refuses with ModelNotTrained.
        assert!(matches!(
            db.predict("linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));

        // A forced backend shows up as forced in the comparison.
        let forced = db
            .explain_sql("EXPLAIN SELECT * FROM dana.linearR('t') WITH (backend = cpu);")
            .unwrap();
        assert!(forced.forced);
        assert_eq!(forced.chosen, BackendKind::Cpu);
    }

    /// A gang (shards > 1) is FPGA-only: forcing the CPU tier is a typed
    /// query error, while `auto` quietly resolves to the FPGA.
    #[test]
    fn gang_pins_fpga_and_rejects_cpu_backend() {
        let mut db = deployed_db(600);
        match db.execute("SELECT * FROM dana.linearR('t') WITH (shards = 2, backend = cpu);") {
            Err(DanaError::Query(msg)) => {
                assert!(msg.contains("gang"), "unexpected message: {msg}")
            }
            other => panic!("expected typed query error, got {other:?}"),
        }
        // Even with a CPU-favoring profile, auto + shards stays FPGA.
        let profile = db.hardware_profile().with_offload_threshold(None);
        db.set_hardware_profile(profile);
        let out = db
            .execute("SELECT * FROM dana.linearR('t') WITH (shards = 2);")
            .unwrap();
        assert_eq!(out.report.backend, BackendKind::Fpga);
        assert_eq!(out.report.shards, 2);
    }
}
