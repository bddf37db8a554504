//! The shared system core: the thread-safe counterpart of `dana::Dana`.
//!
//! `Dana` funnels every operation through one `&mut self` — correct for a
//! single notebook user, useless for a serving tier. [`SystemCore`] is the
//! same façade split along the concurrency seam:
//!
//! * the **catalog** sits behind an `RwLock`: queries take short read
//!   locks to snapshot (entry, `Arc<HeapFile>`, accelerator blob) and then
//!   run lock-free; DDL takes the write lock only for the map mutation;
//! * the **buffer pool** is the sharded [`SharedBufferPool`], fetched
//!   through `&self` — the same pool and page source `Dana` scans
//!   through, so both facades share one storage stack;
//! * the **execution engine is never built per query**: DEPLOY compiles,
//!   validates, and lowers it once, caching `Arc<ExecutionEngine>` (plus
//!   budget and estimate) on the catalog entry's `RuntimeCache`; EXECUTE
//!   clones the `Arc` under the read lock and runs. Only genuinely
//!   per-query state (access engine, model store, stream source) is
//!   built per request, so any number of queries run in parallel, each
//!   borrowing a leased accelerator instance and the shared engine.
//!
//! Every numerical path is byte-for-byte the one `Dana` runs — the
//! compile pipeline, page source, gang shard split
//! (`dana::shard_sources`), lowered executor, and
//! `dana::exec::assemble_report` are shared — which is what the
//! equivalence suite holds the serving tier to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dana::exec::{self, ArtifactBlob, CachedAccelerator, RunArtifacts};
use dana::{
    shard_sources, AnalyzeReport, BackendKind, DanaError, DanaReport, DanaResult, DeployInfo,
    DropSummary, EvalReport, ExecutionMode, FeedKind, HardwareProfile, MetricKind, PointCall,
    PointReport, PredictReport, QueryOutcome, ScanSpec, ShardSource, SharedPageStreamSource,
    Statement, StatementOutcome, StrategyComparison,
};
use dana_compiler::{compile, compile_with_threads, CompileInput, CompiledAccelerator};
use dana_engine::{
    run_training_guarded, CancelToken, ExecutionBackend, FaultEvents, FaultPlan, ModelStore,
    RetryPolicy, RunGuard,
};
use dana_fpga::FpgaSpec;
use dana_hdfg::translate;
use dana_ml::CpuModel;
use dana_obs::{MetricsRegistry, SpanRecorder, StatEntry, StatsSnapshot};
use dana_parallel::{evaluate_gang, score_gang_concat, train_gang_guarded, GangGuard};
use dana_storage::{
    AcceleratorEntry, BufferPoolConfig, BufferPoolStats, Catalog, DiskModel, HeapFile, HeapId,
    RuntimeCache, SharedBufferPool, TableEntry,
};
use dana_strider::disassemble;

/// How to build a [`SystemCore`].
#[derive(Debug, Clone, Copy)]
pub struct SystemCoreConfig {
    /// Template spec for every accelerator instance in the pool.
    pub fpga: FpgaSpec,
    pub pool: BufferPoolConfig,
    /// Buffer-pool lock shards.
    pub pool_shards: usize,
    pub disk: DiskModel,
}

impl Default for SystemCoreConfig {
    fn default() -> SystemCoreConfig {
        SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig::paper_default(),
            pool_shards: dana_storage::shared_pool::DEFAULT_SHARDS,
            disk: DiskModel::ssd(),
        }
    }
}

/// Per-query execution context: the cooperative cancellation token the
/// epoch loops check at every boundary, the retry policy answering
/// transient faults, and the out-channel reporting which gang shards
/// faulted (so the worker can quarantine the pool instances behind
/// them). Built by the server worker from the statement's `WITH
/// (timeout_ms / retries)` options; [`QueryCtx::unbounded`] is the
/// embedded/default path — never cancels, default retries.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Cooperative cancellation (deadline and/or manual flag).
    pub cancel: CancelToken,
    /// Backoff/retry policy for transient accelerator faults.
    pub retry: RetryPolicy,
    /// Gang shards that faulted during this query (filled by the gang
    /// path; drained by the worker for pool quarantine).
    faulted: Mutex<Vec<usize>>,
}

impl QueryCtx {
    /// A context that never cancels, with the default retry policy.
    pub fn unbounded() -> QueryCtx {
        QueryCtx::new(CancelToken::none(), RetryPolicy::default())
    }

    pub fn new(cancel: CancelToken, retry: RetryPolicy) -> QueryCtx {
        QueryCtx {
            cancel,
            retry,
            faulted: Mutex::new(Vec::new()),
        }
    }

    /// Gang shards that faulted while this query ran (ascending, deduped
    /// by the gang executor).
    pub fn faulted_shards(&self) -> Vec<usize> {
        match self.faulted.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn record_faulted(&self, shards: &[usize]) {
        let mut g = match self.faulted.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        g.extend_from_slice(shards);
    }
}

/// The shared catalog + buffer pool + models, usable from any thread.
pub struct SystemCore {
    catalog: RwLock<Catalog>,
    pool: SharedBufferPool,
    disk: DiskModel,
    fpga: FpgaSpec,
    cpu: CpuModel,
    /// The backend advisor's cost profile (see [`SystemCore::explain_statement`]).
    profile: RwLock<HardwareProfile>,
    /// Execution engines constructed (deploy-time builds + cache misses) —
    /// the EXECUTE path must never grow this past the deploy count.
    engines_built: AtomicU64,
    /// EXECUTE/estimate requests served from a cached `Arc<ExecutionEngine>`.
    engine_cache_hits: AtomicU64,
    /// Push-side observability counters/histograms (`SHOW STATS` rows the
    /// core owns; the server layers queue/pool/session rows on top).
    metrics: MetricsRegistry,
    /// Deterministic fault-injection plan consulted by every guarded
    /// training path. `None` (the production state) injects nothing;
    /// tests and smoke runs install a plan to rehearse recovery.
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
}

/// Engine-construction accounting: how many engines were ever built vs.
/// how many requests rode the DEPLOY-time cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCacheStats {
    pub built: u64,
    pub hits: u64,
}

impl SystemCore {
    pub fn new(config: SystemCoreConfig) -> SystemCore {
        SystemCore {
            catalog: RwLock::new(Catalog::new()),
            pool: SharedBufferPool::with_shards(config.pool, config.pool_shards),
            disk: config.disk,
            cpu: CpuModel::i7_6700(),
            engines_built: AtomicU64::new(0),
            engine_cache_hits: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            fault_plan: RwLock::new(None),
            // Same default as `Dana`: always offload (the paper's
            // semantics) until an operator installs a real profile.
            profile: RwLock::new(
                HardwareProfile::default()
                    .with_clock_hz(config.fpga.clock.hz)
                    .with_offload_threshold(Some(0)),
            ),
            fpga: config.fpga,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Catalog> {
        match self.catalog.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, Catalog> {
        match self.catalog.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn fpga(&self) -> &FpgaSpec {
        &self.fpga
    }

    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Frames still referenced by a reader — must be zero when idle (the
    /// frame-leak detector the stress suite asserts on).
    pub fn held_frames(&self) -> usize {
        self.pool.held_frames()
    }

    pub fn resident_pages(&self) -> usize {
        self.pool.resident_pages()
    }

    /// Engine-construction counters — the serving tier's proof that
    /// repeated EXECUTEs share one DEPLOY-time engine.
    pub fn engine_cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            built: self.engines_built.load(Ordering::Relaxed),
            hits: self.engine_cache_hits.load(Ordering::Relaxed),
        }
    }

    /// The core's metrics registry (workers charge admission/lease waits
    /// and completion counters here; `SHOW STATS` folds it into rows).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Installs (or clears, with `None`) the deterministic
    /// fault-injection plan every guarded training path consults.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        match self.fault_plan.write() {
            Ok(mut g) => *g = plan,
            Err(poisoned) => *poisoned.into_inner() = plan,
        }
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        match self.fault_plan.read() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Folds one guarded run's fault events into the registry and the
    /// lifecycle trace. A quiet run records nothing — the `fault_retry`
    /// span exists only when a fault actually fired, so no-fault trace
    /// structure is a function of the statement alone.
    fn record_fault_events(&self, events: &FaultEvents, rec: &SpanRecorder) {
        if events.is_quiet() {
            return;
        }
        self.metrics
            .transient_faults
            .add(events.transient_faults as u64);
        self.metrics.fault_retries.add(events.retries as u64);
        self.metrics
            .gang_member_faults
            .add(events.faulted_shards.len() as u64);
        rec.add_wall(exec::stage::FAULT_RETRY, events.backoff_seconds);
        rec.set_count(exec::stage::FAULT_RETRY, events.retries as u64);
    }

    /// The core-owned `SHOW STATS` rows: registry counters/histograms
    /// plus pull-side buffer-pool and engine-cache values, read from
    /// their authoritative owners at snapshot time so they cannot drift.
    /// The server appends its queue/pool/session rows before filtering.
    pub fn stats_entries(&self, out: &mut Vec<StatEntry>) {
        self.metrics.snapshot_into(out);
        let ps = self.pool.stats();
        out.push(StatEntry::new("buffer", "hits", ps.hits as f64));
        out.push(StatEntry::new("buffer", "misses", ps.misses as f64));
        out.push(StatEntry::new("buffer", "evictions", ps.evictions as f64));
        out.push(StatEntry::new("buffer", "io_seconds", ps.io_seconds));
        out.push(StatEntry::new(
            "buffer",
            "resident_pages",
            self.pool.resident_pages() as f64,
        ));
        out.push(StatEntry::new(
            "buffer",
            "resident_bytes",
            self.pool.resident_bytes() as f64,
        ));
        let mut per_heap = self.pool.per_heap_frames();
        per_heap.sort_unstable();
        for (heap_id, frames) in per_heap {
            out.push(StatEntry::new(
                "buffer",
                format!("heap_{heap_id}_frames"),
                frames as f64,
            ));
        }
        let ec = self.engine_cache_stats();
        out.push(StatEntry::new("engine", "engines_built", ec.built as f64));
        out.push(StatEntry::new(
            "engine",
            "engine_cache_hits",
            ec.hits as f64,
        ));
    }

    /// A point-in-time snapshot of the core-owned rows only (embedded
    /// uses without a [`crate::DanaServer`] in front; the server's `SHOW
    /// STATS` adds queue/pool/session rows).
    pub fn stats_snapshot(&self, subsystem: Option<&str>) -> StatsSnapshot {
        let mut entries = Vec::new();
        self.stats_entries(&mut entries);
        let snap = StatsSnapshot::new(entries);
        match subsystem {
            Some(s) => snap.filtered(s),
            None => snap,
        }
    }

    // ---- DDL ------------------------------------------------------------

    /// Registers a training table.
    pub fn create_table(&self, name: &str, heap: HeapFile) -> DanaResult<HeapId> {
        Ok(self.write().create_table(name, heap)?)
    }

    /// Drops a table: detaches it from the catalog, force-evicts its pages
    /// (in-flight scans keep their `Arc` snapshots and finish cleanly),
    /// marks accelerators compiled against it stale, and marks prediction
    /// tables materialized from it stale (force-evicting their pages too).
    pub fn drop_table(&self, name: &str) -> DanaResult<DropSummary> {
        let mut cat = self.write();
        let entry = cat.drop_table(name)?;
        let invalidated_udfs = cat.invalidate_accelerators_for(name);
        let derived = cat.invalidate_derived_for(name);
        drop(cat);
        // Evict raw frames and the scan tier's compressed shadow frames;
        // the zone-map/codec sidecar died with the catalog entry above.
        let pages_evicted = self.pool.evict_heap_force(entry.heap_id)
            + self.pool.evict_heap_force(entry.heap_id.shadow());
        let mut stale_prediction_tables = Vec::new();
        for (table, heap_id) in derived {
            self.pool.evict_heap_force(heap_id);
            self.pool.evict_heap_force(heap_id.shadow());
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
    pub fn prewarm(&self, table: &str) -> DanaResult<usize> {
        let (entry, heap) = self.snapshot_table(table)?;
        let n = self.pool.prewarm(entry.heap_id, &heap)?;
        self.pool.reset_stats();
        Ok(n)
    }

    /// Cold-cache setup: drops every cached page.
    pub fn clear_cache(&self) {
        self.pool.clear();
        self.pool.reset_stats();
    }

    /// Shared snapshot of a live table's heap — what a query would scan.
    /// Useful for inspecting materialized prediction tables without
    /// reaching into the catalog lock.
    pub fn table_snapshot(&self, table: &str) -> DanaResult<Arc<HeapFile>> {
        Ok(self.snapshot_table(table)?.1)
    }

    /// Pages in a table's heap, if the table exists — what the serving
    /// tier clamps gang sizes against (a shard plan never makes more
    /// shards than pages, so a lease must not hold more instances).
    pub fn table_pages(&self, table: &str) -> Option<u32> {
        self.read().table(table).ok().map(|t| t.page_count)
    }

    pub fn table_names(&self) -> Vec<String> {
        self.read()
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    pub fn accelerator_names(&self) -> Vec<String> {
        self.read()
            .accelerator_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    // ---- deploy ---------------------------------------------------------

    /// Compiles a UDF for `table` and stores the accelerator in the
    /// catalog. Compilation runs outside the catalog lock; the write lock
    /// is re-taken only to install the entry (verifying the table still
    /// exists, in case a concurrent drop won the race).
    pub fn deploy(&self, spec: &dana_dsl::AlgoSpec, table: &str) -> DanaResult<DeployInfo> {
        let (snap, heap) = self.snapshot_table(table)?;
        let acc = self.compile_for(spec, &heap, snap.tuple_count, None)?;
        // Scoring lowering: the forward-pass recipe rides the blob and
        // the runtime cache beside the training engine.
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
            runtime: RuntimeCache::default(),
            trained: RuntimeCache::default(),
        };
        // The compile already built (validated + lowered) the engine once;
        // prime the entry so every EXECUTE is a cache hit.
        exec::prime_runtime(&entry, &acc, scoring);
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        {
            let mut cat = self.write();
            // The compile raced against DDL: only install if the table the
            // accelerator was compiled for is still the live one.
            match cat.table(table) {
                Ok(t) if t.heap_id == snap.heap_id => cat.deploy_accelerator(entry),
                Ok(_) | Err(_) => {
                    return Err(DanaError::Storage(
                        dana_storage::StorageError::UnknownTable(table.to_string()),
                    ))
                }
            }
        }
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

    /// Parses DSL source text and deploys it.
    pub fn deploy_source(
        &self,
        source: &str,
        default_name: &str,
        table: &str,
    ) -> DanaResult<DeployInfo> {
        let spec = dana_dsl::parse_udf(source, default_name)?;
        self.deploy(&spec, table)
    }

    // ---- query execution ------------------------------------------------

    /// Runs a deployed accelerator by UDF name (full-Strider mode).
    ///
    /// The concurrent EXECUTE hot path: a short catalog read lock snapshots
    /// the cached `Arc<ExecutionEngine>` (built once at DEPLOY) and the
    /// heap; no blob decode, validation, lowering, or design clone happens
    /// per query. The trained model is stored back on the entry (last
    /// training wins) for PREDICT/EVALUATE to bind.
    pub fn run_udf(&self, udf: &str, table: &str) -> DanaResult<DanaReport> {
        self.run_udf_rec(
            udf,
            table,
            &SpanRecorder::disabled(),
            &QueryCtx::unbounded(),
            None,
        )
    }

    /// [`SystemCore::run_udf`] with a span recorder for the lifecycle
    /// trace (a no-op when disabled — the common case), the query's
    /// cancellation/retry context, and the SQL front door's optional
    /// pushdown scan spec.
    fn run_udf_rec(
        &self,
        udf: &str,
        table: &str,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let cached = self.accelerator_runtime(udf)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let report = self.run_on_heap(
            &cached,
            &entry,
            &heap,
            ExecutionMode::Strider,
            rec,
            ctx,
            scan,
        )?;
        // Store through a short read lock (the slot is interior-mutable).
        // A drop that raced the run cleared `trained` and marked the
        // entry stale — don't resurrect a model for a dropped table.
        let cat = self.read();
        if let Ok(entry) = cat.accelerator(udf) {
            if !entry.stale {
                exec::store_trained(entry, &report);
            }
        }
        Ok(report)
    }

    // ---- the backend advisor --------------------------------------------

    /// The advisor's current cost profile (a copy).
    pub fn hardware_profile(&self) -> HardwareProfile {
        match self.profile.read() {
            Ok(g) => *g,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Installs a new advisor profile (e.g. a calibrated one, or one with
    /// the always-offload default cleared to enable break-even routing).
    pub fn set_hardware_profile(&self, profile: HardwareProfile) {
        match self.profile.write() {
            Ok(mut g) => *g = profile,
            Err(poisoned) => *poisoned.into_inner() = profile,
        }
    }

    /// Prices a statement on every backend without running it — the
    /// serving tier's `EXPLAIN`. Runs entirely on catalog metadata and
    /// the cached lowering; no lease, no scan.
    pub fn explain_statement(&self, stmt: &Statement) -> DanaResult<StrategyComparison> {
        let (cached, rows, columns) = self.advisor_inputs(stmt)?;
        exec::explain_statement(&self.hardware_profile(), &cached, rows, columns, stmt)
    }

    /// Resolves the substrate one statement runs on (`WITH (backend=…)`
    /// override, gang rules, or the advisor for `auto`) — what the worker
    /// consults *before* leasing accelerators, so CPU-tier runs never
    /// charge the pool.
    pub fn resolve_backend(&self, stmt: &Statement) -> DanaResult<BackendKind> {
        let (requested, shards) = match stmt {
            Statement::Train(c) => (c.backend, c.shards),
            Statement::Predict(p) => (p.backend, p.shards),
            Statement::Evaluate(e) => (e.backend, e.shards),
            Statement::PredictPoint(p) => (p.backend, None),
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
                dana::BackendChoice::Cpu => Err(exec::gang_needs_fpga()),
                _ => Ok(BackendKind::Fpga),
            };
        }
        match requested {
            dana::BackendChoice::Fpga => Ok(BackendKind::Fpga),
            dana::BackendChoice::Cpu => Ok(BackendKind::Cpu),
            dana::BackendChoice::Auto => {
                let (cached, rows, columns) = self.advisor_inputs(stmt)?;
                exec::resolve_backend(&self.hardware_profile(), &cached, rows, columns, stmt)
            }
        }
    }

    /// The advisor's inputs for a statement: the cached accelerator
    /// runtime (stale-checked, cache-counted) and the row count it
    /// would score — the live table's tuple count, or the inline
    /// VALUES row count for point-form PREDICT (no table involved).
    fn advisor_inputs(&self, stmt: &Statement) -> DanaResult<(Arc<CachedAccelerator>, u64, usize)> {
        let (udf, table) = match stmt {
            Statement::Train(c) => (&c.udf, Some(&c.table)),
            Statement::Predict(p) => (&p.udf, Some(&p.table)),
            Statement::Evaluate(e) => (&e.udf, Some(&e.table)),
            Statement::PredictPoint(p) => (&p.udf, None),
            Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                return Err(DanaError::Query("EXPLAIN cannot be nested".to_string()))
            }
            Statement::ShowStats(_) => {
                return Err(DanaError::Query(
                    "SHOW STATS has no execution backend".to_string(),
                ))
            }
        };
        let cached = self.accelerator_runtime(udf)?;
        let (rows, columns) = match (table, stmt) {
            (Some(table), _) => {
                let cat = self.read();
                let t = cat.live_table(table)?;
                let columns = cat.heap(t.heap_id)?.schema().len();
                (t.tuple_count, columns)
            }
            (None, Statement::PredictPoint(p)) => (p.rows.len() as u64, 0),
            (None, _) => unreachable!("only point predictions are table-less"),
        };
        Ok((cached, rows, columns))
    }

    /// Runs a deployed accelerator's lowered program on the **native CPU
    /// backend**: the identical shared-pool streamed scan and epoch loop,
    /// timed with a stopwatch instead of the cycle model. Models and
    /// engine counters are bit-identical to [`SystemCore::run_udf`]; no
    /// accelerator lease is required.
    pub fn run_udf_cpu(&self, udf: &str, table: &str) -> DanaResult<DanaReport> {
        self.run_udf_cpu_rec(
            udf,
            table,
            &SpanRecorder::disabled(),
            &QueryCtx::unbounded(),
            None,
        )
    }

    fn run_udf_cpu_rec(
        &self,
        udf: &str,
        table: &str,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let cached = self.accelerator_runtime(udf)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let design = cached.engine.design();
        let access = exec::access_engine_for(&heap, cached.budget, &self.fpga);
        let state = exec::scan_state(&entry, &heap, scan)?;
        let mut store = ModelStore::new(design, exec::initial_models(design))?;
        let feed = FeedKind::for_mode(ExecutionMode::Strider);
        let base = SharedPageStreamSource::new(
            &self.pool,
            &self.disk,
            &heap,
            entry.heap_id,
            &access,
            feed,
        );
        let mut source = match &state {
            Some(s) => base.with_scan(s.clone()),
            None => base,
        };
        let plan = self.fault_plan();
        let guard = RunGuard::new(&ctx.cancel)
            .with_fault(plan.as_deref())
            .with_retry(ctx.retry);
        let (run, events) = cached
            .cpu
            .run_training_guarded(&mut source, &mut store, &guard)?;
        self.record_fault_events(&events, rec);
        let (access_stats, _io_first) = source.into_stats();
        if let Some(s) = &state {
            exec::record_scan_metrics(&self.metrics, &access_stats, &s.sidecar, heap.tuple_count());
        }
        let report = exec::assemble_cpu_report(design, run, access_stats, store, rec);
        let cat = self.read();
        if let Ok(entry) = cat.accelerator(udf) {
            if !entry.stale {
                exec::store_trained(entry, &report);
            }
        }
        Ok(report)
    }

    /// CPU-tier PREDICT: the identical scoring scan with stopwatch
    /// accounting; the materialized predictions are bit-identical to the
    /// FPGA tier's.
    pub fn predict_cpu(&self, udf: &str, source: &str, dest: &str) -> DanaResult<PredictReport> {
        self.predict_full(
            udf,
            source,
            dest,
            ExecutionMode::Strider,
            None,
            BackendKind::Cpu,
            &SpanRecorder::disabled(),
            None,
        )
    }

    /// CPU-tier EVALUATE: the identical metric fold with stopwatch
    /// accounting.
    pub fn evaluate_cpu(
        &self,
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
            &SpanRecorder::disabled(),
            None,
        )
    }

    /// Compiles `spec` ad hoc and runs it in the given mode (nothing is
    /// stored in the catalog) — the serving twin of
    /// `Dana::train_with_spec`.
    ///
    /// Compile and execution use the *same* heap snapshot: a concurrent
    /// drop+recreate of the table cannot slip a different layout under an
    /// accelerator compiled for the old one.
    pub fn train_with_spec(
        &self,
        spec: &dana_dsl::AlgoSpec,
        table: &str,
        mode: ExecutionMode,
    ) -> DanaResult<DanaReport> {
        let (entry, heap) = self.snapshot_table(table)?;
        let threads = match mode {
            ExecutionMode::Tabla => Some(1),
            _ => None,
        };
        let acc = self.compile_for(spec, &heap, entry.tuple_count, threads)?;
        self.engines_built.fetch_add(1, Ordering::Relaxed);
        self.run_on_heap(
            &CachedAccelerator::from_compiled(&acc, None),
            &entry,
            &heap,
            mode,
            &SpanRecorder::disabled(),
            &QueryCtx::unbounded(),
            None,
        )
    }

    // ---- intra-query data parallelism -----------------------------------

    /// Runs a deployed accelerator **gang-parallel** across `shards`
    /// page-range shards of `table` (`EXECUTE … WITH (shards = k)`): the
    /// gang's members each stream their own range through the shared
    /// pool concurrently, train the cached lowered program
    /// epoch-synchronously, and merge partial models deterministically at
    /// every epoch boundary (weighted averaging for dense analytics,
    /// factor-row ownership for LRMF). `shards = 1` is bit-identical to
    /// [`SystemCore::run_udf`] — models, stats, and timing.
    ///
    /// The caller (a server worker) is expected to hold a gang lease of
    /// matching size on the accelerator pool.
    pub fn run_udf_sharded(&self, udf: &str, table: &str, shards: u16) -> DanaResult<DanaReport> {
        self.run_udf_sharded_rec(
            udf,
            table,
            shards,
            &SpanRecorder::disabled(),
            &QueryCtx::unbounded(),
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_udf_sharded_rec(
        &self,
        udf: &str,
        table: &str,
        shards: u16,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let cached = self.accelerator_runtime(udf)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let report = self.run_gang_on_heap(
            &cached,
            &entry,
            &heap,
            ExecutionMode::Strider,
            shards,
            rec,
            ctx,
            scan,
        )?;
        let cat = self.read();
        if let Ok(entry) = cat.accelerator(udf) {
            if !entry.stale {
                exec::store_trained(entry, &report);
            }
        }
        Ok(report)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_gang_on_heap(
        &self,
        acc: &CachedAccelerator,
        entry: &TableEntry,
        heap: &HeapFile,
        mode: ExecutionMode,
        shards: u16,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let budget = acc.budget;
        let engine = &acc.engine;
        let design = engine.design();
        let heap_id = entry.heap_id;
        let access = exec::access_engine_for(heap, budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let fault = self.fault_plan();
        let guard = GangGuard::new(&ctx.cancel).with_fault(fault.as_deref());
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
        let outcome =
            train_gang_guarded(engine, &mut sources, exec::initial_models(design), &guard)?;
        let arts = sources
            .into_iter()
            .zip(&outcome.shard_stats)
            .map(|(src, stats)| src.into_artifacts(*stats))
            .collect();
        if !outcome.faulted_shards.is_empty() {
            self.record_fault_events(
                &FaultEvents {
                    transient_faults: outcome.faulted_shards.len() as u32,
                    faulted_shards: outcome.faulted_shards.clone(),
                    ..FaultEvents::default()
                },
                rec,
            );
            self.metrics
                .shard_reexecutions
                .add(outcome.reexecuted_epochs as u64);
            rec.set_count(exec::stage::FAULT_RETRY, outcome.reexecuted_epochs as u64);
            ctx.record_faulted(&outcome.faulted_shards);
        }
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
            rec,
        )
    }

    /// Gang-parallel PREDICT: shards score their page ranges
    /// concurrently; outputs concatenate in shard-index order — source
    /// page order — so the materialized prediction table is
    /// **bit-identical to serial PREDICT for every shard count**. Same
    /// guarded install as [`SystemCore::predict`].
    pub fn predict_sharded(
        &self,
        udf: &str,
        source: &str,
        dest: &str,
        shards: u16,
    ) -> DanaResult<PredictReport> {
        self.predict_sharded_rec(udf, source, dest, shards, &SpanRecorder::disabled(), None)
    }

    fn predict_sharded_rec(
        &self,
        udf: &str,
        source: &str,
        dest: &str,
        shards: u16,
        rec: &SpanRecorder,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<PredictReport> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let (entry, heap) = self.snapshot_table(source)?;
        if self.read().table(dest).is_ok() {
            return Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(dest.to_string()),
            ));
        }
        let (predictions, stats, timing, k) = self.sharded_scoring_scan(
            &setup,
            &entry,
            &heap,
            shards,
            scan,
            rec,
            |program, lanes, sources| Ok(score_gang_concat(program, lanes, sources)?),
        )?;
        let mat_start = std::time::Instant::now();
        let out_heap = exec::materialize_predictions(&entry, &heap, scan, &predictions)?;
        {
            let mut cat = self.write();
            match cat.table(source) {
                Ok(t) if t.heap_id == entry.heap_id && !t.stale => {
                    cat.create_derived_table(dest, out_heap, source)?;
                }
                _ => {
                    return Err(DanaError::Storage(
                        dana_storage::StorageError::UnknownTable(source.to_string()),
                    ));
                }
            }
        }
        rec.add_wall(exec::stage::MATERIALIZE, mat_start.elapsed().as_secs_f64());
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

    /// Gang-parallel EVALUATE: shards fold metric partials concurrently;
    /// partials combine in shard-index order, the metric finishes once.
    /// `shards = 1` is bit-identical to [`SystemCore::evaluate`].
    pub fn evaluate_sharded(
        &self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        shards: u16,
    ) -> DanaResult<EvalReport> {
        self.evaluate_sharded_rec(udf, table, metric, shards, &SpanRecorder::disabled(), None)
    }

    #[allow(clippy::too_many_arguments)]
    fn evaluate_sharded_rec(
        &self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        shards: u16,
        rec: &SpanRecorder,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<EvalReport> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let metric = metric.unwrap_or_else(|| setup.recipe.default_metric());
        setup.recipe.check_metric(metric)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let (value, stats, timing, k) = self.sharded_scoring_scan(
            &setup,
            &entry,
            &heap,
            shards,
            scan,
            rec,
            |program, lanes, sources| {
                let evals = evaluate_gang(program, lanes, sources, metric)?;
                let mut partial = dana_infer::MetricPartial::default();
                for e in &evals {
                    partial.absorb(e.partial);
                }
                let stats: Vec<_> = evals.iter().map(|e| e.stats).collect();
                Ok((partial.finish(metric)?, stats))
            },
        )?;
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

    /// Gang-parallel raw scoring (the differential suite's entry point).
    pub fn score_sharded(&self, udf: &str, table: &str, shards: u16) -> DanaResult<Vec<f32>> {
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let (predictions, _, _, _) = self.sharded_scoring_scan(
            &setup,
            &entry,
            &heap,
            shards,
            None,
            &SpanRecorder::disabled(),
            |program, lanes, sources| Ok(score_gang_concat(program, lanes, sources)?),
        )?;
        Ok(predictions)
    }

    /// The one gang-parallel scoring scan: open the gang's shard sources
    /// (concurrent page-range streams, or replayed slices of one filtered
    /// scan — see [`shard_sources`]), run `run` (scoring or metric fold)
    /// over them, and compose the gang timing from the critical member.
    /// Shared by predict/evaluate/score.
    #[allow(clippy::too_many_arguments)]
    fn sharded_scoring_scan<R>(
        &self,
        setup: &exec::ScoringSetup,
        entry: &TableEntry,
        heap: &HeapFile,
        shards: u16,
        scan: Option<&ScanSpec>,
        rec: &SpanRecorder,
        run: impl FnOnce(
            &dana_infer::ScoringProgram,
            u16,
            &mut [ShardSource<'_>],
        ) -> DanaResult<(R, Vec<dana::ScoringStats>)>,
    ) -> DanaResult<(R, dana::ScoringStats, dana::DanaTiming, u16)> {
        let mode = ExecutionMode::Strider;
        let access = exec::access_engine_for(heap, setup.cached.budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let mut sources = shard_sources(
            &self.pool,
            &self.disk,
            heap,
            entry.heap_id,
            &access,
            FeedKind::for_mode(mode),
            shards as usize,
            state.as_ref(),
            &self.metrics,
        )?;
        let k = sources.len() as u16;
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
            rec,
        );
        Ok((result, combined, timing, k))
    }

    /// Snapshot of the accelerator's artifact blob, with the stale check.
    /// (Introspection path — queries use [`SystemCore::accelerator_runtime`].)
    pub fn accelerator_blob(&self, udf: &str) -> DanaResult<ArtifactBlob> {
        let cat = self.read();
        let entry = cat.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        ArtifactBlob::decode(&entry.design_blob)
    }

    /// The accelerator's cached runtime artifact (engine + budget +
    /// estimate), with the stale check. Served from the entry's DEPLOY-time
    /// cache under a short read lock; a miss (cache invalidated or entry
    /// restored from a blob) rebuilds from the persisted lowering once.
    pub fn accelerator_runtime(&self, udf: &str) -> DanaResult<Arc<CachedAccelerator>> {
        let cat = self.read();
        let entry = cat.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, built) = exec::cached_accelerator(entry)?;
        if built {
            self.engines_built.fetch_add(1, Ordering::Relaxed);
        } else {
            self.engine_cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(cached)
    }

    /// SJF's ordering key for a deployed UDF: the deploy-time estimate
    /// priced in simulated seconds (read straight off the runtime cache —
    /// submit-time cost hints don't re-parse catalog blobs either).
    pub fn estimated_seconds(&self, udf: &str) -> DanaResult<f64> {
        let cached = self.accelerator_runtime(udf)?;
        Ok(exec::estimate_seconds(
            &cached.estimate,
            cached.engine.design().convergence.max_epochs(),
            &self.fpga,
        ))
    }

    /// SJF's ordering key for a *scoring* query: tuple count × per-tuple
    /// program length across the design's lockstep lanes. Scoring is a
    /// single pass, so these hints let PREDICT/EVALUATE overtake long
    /// multi-epoch training jobs under SJF.
    pub fn estimated_scoring_seconds(&self, udf: &str, table: &str) -> DanaResult<f64> {
        let cached = self.accelerator_runtime(udf)?;
        let Some(recipe) = cached.scoring.as_ref() else {
            return Ok(0.0); // unknown work: the conservative (early) hint
        };
        let tuples = self.read().table(table).map(|t| t.tuple_count).unwrap_or(0);
        Ok(exec::scoring_estimate_seconds(
            recipe,
            tuples,
            cached.engine.design().num_threads as u32,
            &self.fpga,
        ))
    }

    /// SJF's ordering key for a *point* scoring query: the inline row
    /// count × per-tuple program length across the lanes. Never the
    /// bound table's tuples × epochs — a handful of VALUES rows is
    /// microseconds of work and must sort ahead of any scan.
    pub fn estimated_point_seconds(&self, udf: &str, rows: u64) -> DanaResult<f64> {
        let cached = self.accelerator_runtime(udf)?;
        let Some(recipe) = cached.scoring.as_ref() else {
            return Ok(0.0); // unknown work: the conservative (early) hint
        };
        Ok(exec::scoring_estimate_seconds(
            recipe,
            rows,
            cached.engine.design().num_threads as u32,
            &self.fpga,
        ))
    }

    /// The UDF's current trained-model generation: the `Arc` in its
    /// trained-model slot, as an identity witness. `None` when
    /// untrained, stale, or unknown. The serving tier's prediction
    /// cache stamps entries with this `Arc` and refuses hits whose
    /// stamp is no longer pointer-equal to the live one — a retrain
    /// swaps the `Arc` (last write wins) and a drop clears the slot,
    /// so either way the stamp mismatch invalidates without any flag
    /// on the hot path. Holding the `Arc` (not a raw pointer) makes
    /// the comparison ABA-safe: the old generation's allocation cannot
    /// be reused while a cache entry still references it.
    pub fn trained_generation(&self, udf: &str) -> Option<Arc<dana::TrainedModels>> {
        let cat = self.read();
        let entry = cat.accelerator(udf).ok()?;
        if entry.stale {
            return None;
        }
        exec::trained_models(entry)
    }

    // ---- the inference tier --------------------------------------------

    /// Scores `source` with `udf`'s latest trained model and materializes
    /// the predictions as a new catalog table — the concurrent twin of
    /// `Dana::predict`. The scan runs lock-free on a heap snapshot; the
    /// result installs under the write lock only if the source is still
    /// the same live heap (a drop or drop+recreate that raced the scan
    /// refuses the install instead of registering an orphan).
    pub fn predict(&self, udf: &str, source: &str, dest: &str) -> DanaResult<PredictReport> {
        self.predict_with(udf, source, dest, ExecutionMode::Strider, None)
    }

    /// [`SystemCore::predict`] with explicit mode and lane count.
    pub fn predict_with(
        &self,
        udf: &str,
        source: &str,
        dest: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<PredictReport> {
        self.predict_full(
            udf,
            source,
            dest,
            mode,
            lanes,
            BackendKind::Fpga,
            &SpanRecorder::disabled(),
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn predict_full(
        &self,
        udf: &str,
        source: &str,
        dest: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
        backend: BackendKind,
        rec: &SpanRecorder,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<PredictReport> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        let (entry, heap) = self.snapshot_table(source)?;
        // Cheap early refusal; the authoritative check is the guarded
        // install below.
        if self.read().table(dest).is_ok() {
            return Err(DanaError::Storage(
                dana_storage::StorageError::DuplicateName(dest.to_string()),
            ));
        }
        let (predictions, stats, timing) = self.scoring_scan(
            &setup,
            &entry,
            &heap,
            mode,
            backend,
            rec,
            scan,
            |p, l, stream| {
                let mut out = Vec::with_capacity(heap.tuple_count() as usize);
                let stats = dana_infer::score_source(p, l, stream, &mut out)?;
                Ok((out, stats))
            },
        )?;
        let mat_start = std::time::Instant::now();
        let out_heap = exec::materialize_predictions(&entry, &heap, scan, &predictions)?;
        {
            let mut cat = self.write();
            match cat.table(source) {
                Ok(t) if t.heap_id == entry.heap_id && !t.stale => {
                    cat.create_derived_table(dest, out_heap, source)?;
                }
                _ => {
                    // The source was dropped (or swapped) mid-scan: the
                    // predictions describe rows that no longer exist.
                    return Err(DanaError::Storage(
                        dana_storage::StorageError::UnknownTable(source.to_string()),
                    ));
                }
            }
        }
        rec.add_wall(exec::stage::MATERIALIZE, mat_start.elapsed().as_secs_f64());
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

    /// The **point fast path**: scores inline VALUES rows against
    /// `udf`'s latest trained model — no heap scan, no buffer-pool
    /// traffic, no materialization, and (on the CPU tier) no
    /// accelerator lease. The rows bind straight into the cached
    /// scoring program's SoA batch scorer, which is the same lockstep
    /// kernel the materializing path streams pages through — so the
    /// predictions are bit-identical to `PREDICT … INTO` on the same
    /// rows.
    pub fn predict_point(
        &self,
        udf: &str,
        rows: &[Vec<f32>],
        backend: BackendKind,
    ) -> DanaResult<PointReport> {
        self.predict_point_rec(
            udf,
            rows,
            backend,
            &SpanRecorder::disabled(),
            &QueryCtx::unbounded(),
        )
    }

    /// [`SystemCore::predict_point`] with the backend resolved through
    /// the advisor (the typed `QueryRequest::PredictPoint` entry point).
    pub fn predict_point_ctx(
        &self,
        udf: &str,
        rows: &[Vec<f32>],
        ctx: &QueryCtx,
    ) -> DanaResult<PointReport> {
        let backend = self.point_backend(udf, rows)?;
        self.predict_point_rec(udf, rows, backend, &SpanRecorder::disabled(), ctx)
    }

    /// The substrate a typed (non-SQL) point prediction runs on: the
    /// advisor's verdict for its inline row count (point batches are
    /// tiny, so a break-even profile routes them to the CPU tier and
    /// they never lease an accelerator).
    pub fn point_backend(&self, udf: &str, rows: &[Vec<f32>]) -> DanaResult<BackendKind> {
        let stmt = Statement::PredictPoint(PointCall {
            udf: udf.to_string(),
            rows: rows.to_vec(),
            backend: dana::BackendChoice::Auto,
            trace: false,
            timeout_ms: None,
            retries: None,
        });
        self.resolve_backend(&stmt)
    }

    fn predict_point_rec(
        &self,
        udf: &str,
        rows: &[Vec<f32>],
        backend: BackendKind,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
    ) -> DanaResult<PointReport> {
        self.check_deadline(ctx)?;
        let setup = self.scoring_setup(udf, ExecutionMode::Strider, None)?;
        let batch = exec::point_batch(udf, &setup.program, rows)?;
        let start = std::time::Instant::now();
        let (predictions, stats) = dana_infer::score_batch(&setup.program, setup.lanes, &batch)?;
        let wall = start.elapsed().as_secs_f64();
        let timing = exec::point_timing(backend, &stats, wall, &self.fpga);
        match backend {
            BackendKind::Cpu => exec::record_cpu_spans(rec, wall),
            BackendKind::Fpga => rec.add_sim(exec::stage::ENGINE, timing.engine_seconds),
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

    /// Scores `table` and folds an in-database metric over the stream —
    /// the concurrent twin of `Dana::evaluate`.
    pub fn evaluate(
        &self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
    ) -> DanaResult<EvalReport> {
        self.evaluate_with(udf, table, metric, ExecutionMode::Strider, None)
    }

    /// [`SystemCore::evaluate`] with explicit mode and lane count.
    pub fn evaluate_with(
        &self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<EvalReport> {
        self.evaluate_full(
            udf,
            table,
            metric,
            mode,
            lanes,
            BackendKind::Fpga,
            &SpanRecorder::disabled(),
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn evaluate_full(
        &self,
        udf: &str,
        table: &str,
        metric: Option<MetricKind>,
        mode: ExecutionMode,
        lanes: Option<u16>,
        backend: BackendKind,
        rec: &SpanRecorder,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<EvalReport> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        let metric = metric.unwrap_or_else(|| setup.recipe.default_metric());
        setup.recipe.check_metric(metric)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let (value, stats, timing) = self.scoring_scan(
            &setup,
            &entry,
            &heap,
            mode,
            backend,
            rec,
            scan,
            |p, l, stream| dana_infer::evaluate_source(p, l, stream, metric),
        )?;
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

    /// Scores `table` and returns the raw prediction stream (the
    /// equivalence suite's entry point; nothing is materialized).
    pub fn score_with(
        &self,
        udf: &str,
        table: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<Vec<f32>> {
        let setup = self.scoring_setup(udf, mode, lanes)?;
        let (entry, heap) = self.snapshot_table(table)?;
        let (predictions, _, _) = self.scoring_scan(
            &setup,
            &entry,
            &heap,
            mode,
            BackendKind::Fpga,
            &SpanRecorder::disabled(),
            None,
            |p, l, stream| {
                let mut out = Vec::with_capacity(heap.tuple_count() as usize);
                let stats = dana_infer::score_source(p, l, stream, &mut out)?;
                Ok((out, stats))
            },
        )?;
        Ok(predictions)
    }

    /// Everything a scoring query resolves under the catalog read lock
    /// (stale check, cached accelerator — with the engine-cache counters —
    /// recipe bound to the latest trained models, lane count).
    fn scoring_setup(
        &self,
        udf: &str,
        mode: ExecutionMode,
        lanes: Option<u16>,
    ) -> DanaResult<exec::ScoringSetup> {
        let cat = self.read();
        let entry = cat.accelerator(udf)?;
        if entry.stale {
            return Err(DanaError::StaleAccelerator {
                udf: udf.to_string(),
                dropped_table: entry.bound_table.clone(),
            });
        }
        let (cached, built) = exec::cached_accelerator(entry)?;
        if built {
            self.engines_built.fetch_add(1, Ordering::Relaxed);
        } else {
            self.engine_cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        exec::scoring_setup(udf, entry, cached, mode, lanes)
    }

    /// The one lock-free scoring scan over a heap snapshot: stream pages
    /// through the shared pool into `run` (which drives the SoA scorer —
    /// collecting predictions or folding a metric) and compose the
    /// timing. Shared by predict/evaluate/score so the scan plumbing
    /// exists exactly once.
    #[allow(clippy::too_many_arguments)]
    fn scoring_scan<R>(
        &self,
        setup: &exec::ScoringSetup,
        entry: &TableEntry,
        heap: &HeapFile,
        mode: ExecutionMode,
        backend: BackendKind,
        rec: &SpanRecorder,
        scan: Option<&ScanSpec>,
        run: impl FnOnce(
            &dana_infer::ScoringProgram,
            u16,
            &mut SharedPageStreamSource<'_>,
        ) -> dana_infer::InferResult<(R, dana::ScoringStats)>,
    ) -> DanaResult<(R, dana::ScoringStats, dana::DanaTiming)> {
        let access = exec::access_engine_for(heap, setup.cached.budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let feed = FeedKind::for_mode(mode);
        let base =
            SharedPageStreamSource::new(&self.pool, &self.disk, heap, entry.heap_id, &access, feed);
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
                exec::record_cpu_spans(rec, wall);
                dana::DanaTiming::wall_only(wall)
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
                rec,
            ),
        };
        Ok((result, stats, timing))
    }

    // ---- statement dispatch ---------------------------------------------

    /// Dispatches one parsed statement on the substrate its `WITH` clause
    /// (or the advisor) picked — the concurrent twin of the serial
    /// façade's dispatcher, shared by every server worker. `shards` is
    /// the **effective** gang size the caller leased (the worker clamps
    /// the statement's request to the pool size and the table's page
    /// count; the run must agree with the lease). `rec` carries the
    /// lifecycle trace and is a no-op when disabled (the common case).
    pub fn execute_parsed(
        &self,
        stmt: &Statement,
        shards: u16,
        rec: &SpanRecorder,
    ) -> DanaResult<StatementOutcome> {
        self.execute_parsed_ctx(stmt, shards, rec, &QueryCtx::unbounded())
    }

    /// [`SystemCore::execute_parsed`] with the query's
    /// cancellation/retry context (the server worker's entry point —
    /// deadlines from `WITH (timeout_ms = …)` or the server default are
    /// checked cooperatively at epoch boundaries and before every
    /// scoring scan).
    pub fn execute_parsed_ctx(
        &self,
        stmt: &Statement,
        shards: u16,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
    ) -> DanaResult<StatementOutcome> {
        match stmt {
            Statement::Train(call) => {
                let scan = call.scan.as_ref();
                let report = if shards > 1 {
                    self.run_udf_sharded_rec(&call.udf, &call.table, shards, rec, ctx, scan)?
                } else {
                    match self.resolve_backend(stmt)? {
                        BackendKind::Cpu => {
                            self.run_udf_cpu_rec(&call.udf, &call.table, rec, ctx, scan)?
                        }
                        BackendKind::Fpga => {
                            self.run_udf_rec(&call.udf, &call.table, rec, ctx, scan)?
                        }
                    }
                };
                Ok(StatementOutcome::Train(QueryOutcome {
                    udf: call.udf.clone(),
                    table: call.table.clone(),
                    report,
                }))
            }
            Statement::Predict(p) => Ok(StatementOutcome::Predict(if shards > 1 {
                self.check_deadline(ctx)?;
                self.predict_sharded_rec(&p.udf, &p.table, &p.into, shards, rec, p.scan.as_ref())?
            } else {
                self.check_deadline(ctx)?;
                let backend = self.resolve_backend(stmt)?;
                self.predict_full(
                    &p.udf,
                    &p.table,
                    &p.into,
                    ExecutionMode::Strider,
                    None,
                    backend,
                    rec,
                    p.scan.as_ref(),
                )?
            })),
            Statement::Evaluate(e) => Ok(StatementOutcome::Evaluate(if shards > 1 {
                self.check_deadline(ctx)?;
                self.evaluate_sharded_rec(&e.udf, &e.table, e.metric, shards, rec, e.scan.as_ref())?
            } else {
                self.check_deadline(ctx)?;
                let backend = self.resolve_backend(stmt)?;
                self.evaluate_full(
                    &e.udf,
                    &e.table,
                    e.metric,
                    ExecutionMode::Strider,
                    None,
                    backend,
                    rec,
                    e.scan.as_ref(),
                )?
            })),
            Statement::PredictPoint(p) => {
                let backend = self.resolve_backend(stmt)?;
                Ok(StatementOutcome::Point(
                    self.predict_point_rec(&p.udf, &p.rows, backend, rec, ctx)?,
                ))
            }
            Statement::Explain(inner) => {
                Ok(StatementOutcome::Explain(self.explain_statement(inner)?))
            }
            Statement::ExplainAnalyze(inner) => {
                self.analyze_parsed_ctx(inner, shards, 0.0, 0.0, 0.0, ctx)
            }
            Statement::ShowStats(filter) => Ok(StatementOutcome::Stats(
                self.stats_snapshot(filter.as_deref()),
            )),
        }
    }

    /// Pre-scan cooperative deadline check for scoring queries (their
    /// single pass has no epoch boundaries to observe the token at, so
    /// an already-expired deadline is refused before the scan starts).
    fn check_deadline(&self, ctx: &QueryCtx) -> DanaResult<()> {
        Ok(ctx.cancel.check()?)
    }

    /// `EXPLAIN ANALYZE <stmt>`: executes the inner statement with an
    /// enabled span recorder and packages the lifecycle trace beside the
    /// outcome. The worker forwards its measured parse / admission-wait /
    /// lease-wait walls so the trace charges the server-side stages a
    /// serial run never sees.
    pub fn analyze_parsed(
        &self,
        inner: &Statement,
        shards: u16,
        parse_wall: f64,
        admission_wall: f64,
        lease_wall: f64,
    ) -> DanaResult<StatementOutcome> {
        self.analyze_parsed_ctx(
            inner,
            shards,
            parse_wall,
            admission_wall,
            lease_wall,
            &QueryCtx::unbounded(),
        )
    }

    /// [`SystemCore::analyze_parsed`] with the query's
    /// cancellation/retry context.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_parsed_ctx(
        &self,
        inner: &Statement,
        shards: u16,
        parse_wall: f64,
        admission_wall: f64,
        lease_wall: f64,
        ctx: &QueryCtx,
    ) -> DanaResult<StatementOutcome> {
        let rec = SpanRecorder::enabled();
        exec::begin_trace(&rec, parse_wall, admission_wall);
        rec.add_wall(exec::stage::LEASE, lease_wall);
        let start = std::time::Instant::now();
        let outcome = self.execute_parsed_ctx(inner, shards, &rec, ctx)?;
        let comparison = self.explain_statement(inner).ok();
        let total_sim = outcome.timing().map(|t| t.total_seconds).unwrap_or(0.0);
        let trace = exec::finish_trace(&rec, total_sim, start.elapsed().as_secs_f64())
            .expect("enabled recorder yields a trace");
        Ok(StatementOutcome::Analyze(Box::new(AnalyzeReport {
            outcome,
            trace,
            comparison,
        })))
    }

    /// Consistent (catalog entry, heap snapshot) for a table, under a read
    /// lock released before returning. All downstream work (compile,
    /// execution) must use this one snapshot so concurrent DDL cannot swap
    /// the heap mid-query. Stale derived tables are refused with a typed
    /// error.
    fn snapshot_table(&self, table: &str) -> DanaResult<(TableEntry, Arc<HeapFile>)> {
        let cat = self.read();
        let entry = cat.live_table(table)?.clone();
        let heap = cat.heap_arc(entry.heap_id)?;
        Ok((entry, heap))
    }

    fn compile_for(
        &self,
        spec: &dana_dsl::AlgoSpec,
        heap: &HeapFile,
        expected_tuples: u64,
        threads: Option<u32>,
    ) -> DanaResult<CompiledAccelerator> {
        let hdfg = translate(spec);
        let input = CompileInput {
            hdfg: &hdfg,
            fpga: self.fpga,
            layout: *heap.layout(),
            schema_columns: heap.schema().len(),
            expected_tuples,
        };
        Ok(match threads {
            Some(t) => compile_with_threads(&input, t)?,
            None => compile(&input)?,
        })
    }

    /// The concurrent query hot path: stream the snapshotted heap through
    /// the shared pool into the shared DEPLOY-time engine — no locks held
    /// while training runs, no per-query engine construction.
    #[allow(clippy::too_many_arguments)]
    fn run_on_heap(
        &self,
        acc: &CachedAccelerator,
        entry: &TableEntry,
        heap: &HeapFile,
        mode: ExecutionMode,
        rec: &SpanRecorder,
        ctx: &QueryCtx,
        scan: Option<&ScanSpec>,
    ) -> DanaResult<DanaReport> {
        let budget = acc.budget;
        let engine = &acc.engine;
        let design = engine.design();
        let heap_id = entry.heap_id;
        let access = exec::access_engine_for(heap, budget, &self.fpga);
        let state = exec::scan_state(entry, heap, scan)?;
        let mut store = ModelStore::new(design, exec::initial_models(design))?;
        let feed = FeedKind::for_mode(mode);
        let base =
            SharedPageStreamSource::new(&self.pool, &self.disk, heap, heap_id, &access, feed);
        let mut source = match &state {
            Some(s) => base.with_scan(s.clone()),
            None => base,
        };
        let plan = self.fault_plan();
        let guard = RunGuard::new(&ctx.cancel)
            .with_fault(plan.as_deref())
            .with_retry(ctx.retry);
        let run = run_training_guarded(engine, &mut source, &mut store, &guard)?;
        self.record_fault_events(&run.events, rec);
        let (stats, epoch_cycles) = (run.stats, run.epoch_cycles);
        let (access_stats, io_first) = source.into_stats();
        if let Some(s) = &state {
            exec::record_scan_metrics(&self.metrics, &access_stats, &s.sidecar, heap.tuple_count());
        }
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
            rec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_dsl::zoo::{linear_regression, DenseParams};
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, Schema, Tuple};

    fn small_core() -> SystemCore {
        SystemCore::new(SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            pool_shards: 4,
            disk: DiskModel::ssd(),
        })
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

    fn linreg_spec(d: usize) -> dana_dsl::AlgoSpec {
        linear_regression(DenseParams {
            n_features: d,
            learning_rate: 0.2,
            merge_coef: 8,
            epochs: 25,
        })
        .unwrap()
    }

    #[test]
    fn deploy_and_run_through_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(500, 8)).unwrap();
        let info = core.deploy(&linreg_spec(8), "t").unwrap();
        assert!(info.num_threads >= 1);
        assert_eq!(core.accelerator_names(), vec!["linearR".to_string()]);
        let report = core.run_udf("linearR", "t").unwrap();
        let w = report.dense_model();
        for (i, v) in w.iter().enumerate() {
            let truth = 0.3 * i as f32 - 0.5;
            assert!((v - truth).abs() < 0.05, "w[{i}] = {v}, truth {truth}");
        }
        assert_eq!(core.held_frames(), 0, "query must release every frame");
    }

    #[test]
    fn matches_single_threaded_dana_bit_for_bit() {
        let core = small_core();
        core.create_table("t", linreg_heap(800, 12)).unwrap();
        core.prewarm("t").unwrap();
        let spec = linreg_spec(12);
        core.deploy(&spec, "t").unwrap();
        let concurrent = core.run_udf("linearR", "t").unwrap();

        let mut db = dana::Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            DiskModel::ssd(),
        );
        db.create_table("t", linreg_heap(800, 12)).unwrap();
        db.prewarm("t").unwrap();
        db.deploy(&spec, "t").unwrap();
        let serial = db.run_udf("linearR", "t").unwrap();

        assert_eq!(
            concurrent.models, serial.models,
            "paths must be bit-identical"
        );
        assert_eq!(concurrent.epochs_run, serial.epochs_run);
        assert_eq!(concurrent.engine.cycles, serial.engine.cycles);
    }

    #[test]
    fn drop_table_invalidates_and_run_is_typed_error() {
        let core = small_core();
        core.create_table("t", linreg_heap(300, 8)).unwrap();
        core.prewarm("t").unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        let summary = core.drop_table("t").unwrap();
        assert!(summary.pages_evicted > 0);
        assert_eq!(summary.invalidated_udfs, vec!["linearR".to_string()]);
        assert!(matches!(
            core.run_udf("linearR", "t"),
            Err(DanaError::StaleAccelerator { .. })
        ));
        assert_eq!(core.resident_pages(), 0);
    }

    #[test]
    fn concurrent_predict_matches_serial_bit_for_bit() {
        let core = small_core();
        core.create_table("t", linreg_heap(600, 10)).unwrap();
        let spec = linreg_spec(10);
        core.deploy(&spec, "t").unwrap();
        core.run_udf("linearR", "t").unwrap();
        let report = core.predict("linearR", "t", "p").unwrap();
        assert_eq!(report.rows_scored, 600);
        assert_eq!(core.held_frames(), 0, "scoring must release every frame");

        let mut db = dana::Dana::new(
            FpgaSpec::vu9p(),
            BufferPoolConfig {
                pool_bytes: 64 << 20,
                page_size: 8 * 1024,
            },
            DiskModel::ssd(),
        );
        db.create_table("t", linreg_heap(600, 10)).unwrap();
        db.deploy(&spec, "t").unwrap();
        db.run_udf("linearR", "t").unwrap();
        db.predict("linearR", "t", "p").unwrap();

        // Scan both materialized tables: bit-identical predictions.
        let concurrent: Vec<f32> = {
            let cat = core.read();
            let heap = cat.heap_arc(cat.table("p").unwrap().heap_id).unwrap();
            drop(cat);
            heap.scan_batch().unwrap().rows().map(|r| r[11]).collect()
        };
        let serial: Vec<f32> = db
            .catalog()
            .table_heap("p")
            .unwrap()
            .1
            .scan_batch()
            .unwrap()
            .rows()
            .map(|r| r[11])
            .collect();
        assert_eq!(concurrent, serial, "paths must be bit-identical");

        // Evaluate agrees too.
        let c = core.evaluate("linearR", "t", None).unwrap();
        let s = db.evaluate("linearR", "t", None).unwrap();
        assert_eq!(c.value, s.value);
        assert_eq!(c.metric, s.metric);
    }

    #[test]
    fn predict_without_training_is_typed_error() {
        let core = small_core();
        core.create_table("t", linreg_heap(100, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        assert!(matches!(
            core.predict("linearR", "t", "p"),
            Err(DanaError::ModelNotTrained { .. })
        ));
        assert!(matches!(
            core.evaluate("linearR", "t", None),
            Err(DanaError::ModelNotTrained { .. })
        ));
    }

    #[test]
    fn drop_source_stales_prediction_table_in_concurrent_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(300, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        core.run_udf("linearR", "t").unwrap();
        core.predict("linearR", "t", "p").unwrap();
        core.prewarm("p").unwrap();

        let summary = core.drop_table("t").unwrap();
        assert_eq!(summary.stale_prediction_tables, vec!["p".to_string()]);
        assert_eq!(core.resident_pages(), 0, "stale pages must be evicted");
        // The stale table refuses snapshots with a typed error; cleanup
        // still works.
        assert!(matches!(
            core.prewarm("p"),
            Err(DanaError::Storage(
                dana_storage::StorageError::StaleDerivedTable { .. }
            ))
        ));
        assert!(core.drop_table("p").is_ok());
    }

    #[test]
    fn scoring_hint_prices_tuples_over_program_length() {
        let core = small_core();
        core.create_table("small", linreg_heap(200, 8)).unwrap();
        core.create_table("large", linreg_heap(4000, 8)).unwrap();
        core.deploy(&linreg_spec(8), "small").unwrap();
        let s = core.estimated_scoring_seconds("linearR", "small").unwrap();
        let l = core.estimated_scoring_seconds("linearR", "large").unwrap();
        assert!(s > 0.0);
        assert!(l > s, "more tuples must cost more: {l} vs {s}");
        // Scoring is one pass; training the same table runs 25 epochs.
        let train = core.estimated_seconds("linearR").unwrap();
        assert!(
            s < train,
            "a scoring pass must undercut training under SJF: {s} vs {train}"
        );
    }

    #[test]
    fn cpu_backend_matches_fpga_in_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(500, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();

        let fpga = core.run_udf("linearR", "t").unwrap();
        let cpu = core.run_udf_cpu("linearR", "t").unwrap();
        assert_eq!(cpu.backend, BackendKind::Cpu);
        assert_eq!(cpu.models, fpga.models, "tiers must agree bit-for-bit");
        assert_eq!(cpu.engine.cycles, fpga.engine.cycles);
        assert_eq!(cpu.timing.total_seconds, 0.0, "nothing was simulated");
        assert!(cpu.timing.wall_seconds.is_some());
        assert_eq!(core.held_frames(), 0, "CPU tier must release every frame");

        // Scoring tiers agree too, and the CPU report keeps the units
        // separation.
        let p_fpga = core.predict("linearR", "t", "pf").unwrap();
        let p_cpu = core.predict_cpu("linearR", "t", "pc").unwrap();
        assert_eq!(p_cpu.backend, BackendKind::Cpu);
        assert_eq!(p_fpga.backend, BackendKind::Fpga);
        assert!(p_cpu.timing.wall_seconds.is_some());
        let scan = |t: &str| -> Vec<f32> {
            core.table_snapshot(t)
                .unwrap()
                .scan_batch()
                .unwrap()
                .rows()
                .map(|r| r[9])
                .collect()
        };
        assert_eq!(scan("pf"), scan("pc"), "predictions must be bit-identical");
        let e_fpga = core.evaluate("linearR", "t", None).unwrap();
        let e_cpu = core.evaluate_cpu("linearR", "t", None).unwrap();
        assert_eq!(e_cpu.value, e_fpga.value);
        assert_eq!(e_cpu.backend, BackendKind::Cpu);
    }

    #[test]
    fn advisor_routes_statements_in_shared_core() {
        let core = small_core();
        core.create_table("t", linreg_heap(300, 8)).unwrap();
        core.deploy(&linreg_spec(8), "t").unwrap();
        let stmt = dana::parse_statement("SELECT * FROM dana.linearR('t');").unwrap();

        // Default: always offload, and EXPLAIN prices both tiers.
        assert_eq!(core.resolve_backend(&stmt).unwrap(), BackendKind::Fpga);
        let cmp = core.explain_statement(&stmt).unwrap();
        assert_eq!(cmp.rows, 300);
        assert_eq!(cmp.options.len(), 2);
        assert_eq!(cmp.chosen, BackendKind::Fpga);

        // Break-even model on: 300 rows routes to the CPU tier.
        core.set_hardware_profile(core.hardware_profile().with_offload_threshold(None));
        assert_eq!(core.resolve_backend(&stmt).unwrap(), BackendKind::Cpu);
        // Forced backend still wins.
        let forced =
            dana::parse_statement("SELECT * FROM dana.linearR('t') WITH (backend = fpga);")
                .unwrap();
        assert_eq!(core.resolve_backend(&forced).unwrap(), BackendKind::Fpga);
        // Gang + cpu is the typed conflict.
        let conflict = dana::parse_statement(
            "SELECT * FROM dana.linearR('t') WITH (shards = 2, backend = cpu);",
        )
        .unwrap();
        assert!(matches!(
            core.resolve_backend(&conflict),
            Err(DanaError::Query(_))
        ));
    }

    #[test]
    fn estimated_seconds_orders_small_before_large() {
        let core = small_core();
        core.create_table("small", linreg_heap(200, 8)).unwrap();
        core.create_table("large", linreg_heap(3000, 8)).unwrap();
        let mut small_spec = linreg_spec(8);
        small_spec.name = "smallR".into();
        let mut large_spec = linreg_spec(8);
        large_spec.name = "largeR".into();
        core.deploy(&small_spec, "small").unwrap();
        core.deploy(&large_spec, "large").unwrap();
        let s = core.estimated_seconds("smallR").unwrap();
        let l = core.estimated_seconds("largeR").unwrap();
        assert!(s > 0.0 && l > 0.0);
        assert!(l > s, "more tuples must cost more: {l} vs {s}");
    }
}
