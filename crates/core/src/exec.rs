//! Shared execution machinery: everything the query path needs that is the
//! same whether one query runs at a time (the [`crate::Dana`] facade) or
//! many run concurrently (the `dana-server` serving tier).
//!
//! The split follows the concurrency refactor: [`crate::Dana`] used to own
//! catalog-blob codecs, access-engine construction, and the cost-model
//! composition privately. A concurrent server cannot borrow a `&mut Dana`
//! per query, so those pieces live here as free functions over *immutable*
//! inputs — a per-query execution context is just (design, budget, heap,
//! FPGA/CPU/disk models) plus the run's measured stats, and
//! [`assemble_report`] is a pure function of them. Bit-identical results
//! between the serial and concurrent paths fall out of that purity.

use std::any::Any;
use std::sync::Arc;

use dana_compiler::{CompiledAccelerator, PerfEstimate};
use dana_engine::{
    BackendKind, BackendRun, CpuBackend, EngineDesign, EngineStats, ExecutionEngine, FpgaBackend,
    LoweredProgram, ModelStore,
};
use dana_fpga::{AxiLink, FpgaSpec, ResourceBudget};
use dana_infer::{ScoringProgram, ScoringRecipe, ScoringStats};
use dana_ml::CpuModel;
use dana_obs::{MetricsRegistry, SpanRecorder};
use dana_scan::{BoundScanSpec, ScanSidecar, ScanSpec};
use dana_storage::{
    AcceleratorEntry, DiskModel, HeapFile, PageLayoutDesc, TableEntry, TUPLE_HEADER_BYTES,
};
use dana_strider::{AccessEngine, AccessEngineConfig, AccessStats};

use crate::advisor::{self, BackendChoice, HardwareProfile, StrategyComparison, Workload};
use crate::error::{DanaError, DanaResult};
use crate::query::Statement;
use crate::report::{DanaReport, DanaTiming, Seconds};
use crate::runtime::{compose, stage_partition, EpochCosts, ExecutionMode};

/// The query-lifecycle trace's stage vocabulary, in lifecycle order.
/// Both facades pre-register the front half (`parse` → `admission_wait`
/// → `lease`) and the shared assembly helpers here fill in the execution
/// stages, so the two paths emit structurally identical traces.
pub mod stage {
    pub const PARSE: &str = "parse";
    pub const ADMISSION: &str = "admission_wait";
    pub const LEASE: &str = "lease";
    pub const SCAN: &str = "scan";
    pub const ENGINE: &str = "engine";
    pub const MERGE: &str = "merge";
    pub const MATERIALIZE: &str = "materialize";
    pub const REPLY: &str = "reply";
    /// Fault-recovery span: present only when a transient fault actually
    /// fired, so no-fault runs keep the statement-determined trace
    /// structure. Wall = backoff pauses; count = retries performed.
    pub const FAULT_RETRY: &str = "fault_retry";
}

/// Pre-registers the lifecycle skeleton on a recorder: the three stages
/// every query passes before execution, in order, with the measured
/// parse/wait walls. No-op when the recorder is disabled.
pub fn begin_trace(rec: &SpanRecorder, parse_wall: Seconds, admission_wall: Seconds) {
    if !rec.is_enabled() {
        return;
    }
    rec.stage(stage::PARSE);
    rec.add_wall(stage::PARSE, parse_wall);
    rec.stage(stage::ADMISSION);
    rec.add_wall(stage::ADMISSION, admission_wall);
    rec.stage(stage::LEASE);
}

/// Seals a trace: appends the terminal `reply` stage and drains the
/// recorder into a [`dana_obs::QueryTrace`] carrying the end-to-end
/// totals. Returns `None` on a disabled recorder.
pub fn finish_trace(
    rec: &SpanRecorder,
    total_sim: Seconds,
    total_wall: Seconds,
) -> Option<dana_obs::QueryTrace> {
    if !rec.is_enabled() {
        return None;
    }
    rec.stage(stage::REPLY);
    rec.finish(total_sim, total_wall)
}

/// Records the execution-stage spans (`scan` / `engine` + per-epoch
/// children / `merge`) of one composed training run. The stage sims are
/// an exact partition of [`compose`]'s `total_seconds` — `lease + scan +
/// engine + merge` reproduces the report total to float rounding, which
/// `EXPLAIN ANALYZE` asserts against the query report. `scan` also
/// carries the page sources' measured wall
/// ([`AccessStats::scan_wall_seconds`]).
///
/// Counts and children depend only on the statement and the engine's
/// deterministic epoch outcome — never on gang width or facade — so the
/// trace *shape* is identical across serial/concurrent paths and shard
/// counts (gang scan work aggregates into the one `scan` stage via the
/// critical path, which is exactly how the cost model composes it).
#[allow(clippy::too_many_arguments)]
fn record_training_spans(
    rec: &SpanRecorder,
    mode: ExecutionMode,
    epochs: u32,
    costs: &EpochCosts,
    scan_wall: Seconds,
    clock_hz: f64,
    epoch_cycles: &[u64],
    merge_cycles: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    let part = stage_partition(mode, epochs, costs);
    rec.add_sim(stage::LEASE, part.setup);
    rec.add_sim(stage::SCAN, part.scan);
    rec.add_wall(stage::SCAN, scan_wall);
    // The gang's epoch-boundary merge tier rides the engine's cycle
    // counter in the cost model; carve its share back out so the trace
    // attributes it to its own stage (bounded by the engine slice).
    let merge_sim = (merge_cycles as f64 / clock_hz.max(1.0)).min(part.engine);
    let engine_sim = part.engine - merge_sim;
    rec.add_sim(stage::ENGINE, engine_sim);
    let epochs = epochs.max(1) as usize;
    rec.set_count(stage::ENGINE, epochs as u64);
    let logged: u64 = epoch_cycles.iter().sum();
    for e in 0..epochs {
        // A real per-epoch cycle log distributes the engine slice in the
        // measured proportions; without one (gang members log per shard)
        // the epochs share it uniformly. Either way the children sum to
        // the parent stage.
        let share = if epoch_cycles.len() == epochs && logged > 0 {
            engine_sim * epoch_cycles[e] as f64 / logged as f64
        } else {
            engine_sim / epochs as f64
        };
        rec.child(stage::ENGINE, "epoch", share);
    }
    rec.add_sim(stage::MERGE, merge_sim);
}

/// [`record_training_spans`]'s scoring twin: one pass, no epochs, no
/// merge tier — `engine` carries the forward-pass compute
/// ([`ScoringStats::engine_seconds`]) and `merge` stays an empty anchor
/// so scoring traces keep the same stage order as training.
fn record_scoring_spans(
    rec: &SpanRecorder,
    mode: ExecutionMode,
    costs: &EpochCosts,
    scan_wall: Seconds,
) {
    if !rec.is_enabled() {
        return;
    }
    let part = stage_partition(mode, 1, costs);
    rec.add_sim(stage::LEASE, part.setup);
    rec.add_sim(stage::SCAN, part.scan);
    rec.add_wall(stage::SCAN, scan_wall);
    rec.add_sim(stage::ENGINE, part.engine);
    rec.stage(stage::MERGE);
}

/// Records the wall-clock execution spans of a native-CPU run, where no
/// cycle model exists: the measured backend wall lands on `engine`, and
/// `scan`/`merge` stay structural anchors so CPU traces share the FPGA
/// trace's stage order.
pub fn record_cpu_spans(rec: &SpanRecorder, wall_seconds: Seconds) {
    if !rec.is_enabled() {
        return;
    }
    rec.stage(stage::SCAN);
    rec.add_wall(stage::ENGINE, wall_seconds);
    rec.stage(stage::MERGE);
}

/// Per-tuple CPU→FPGA handshake cost in the Strider-less ablation
/// ("significant overhead due to the handshaking between CPU and FPGA",
/// §5.1.1).
pub const CPU_FEED_HANDSHAKE_S: f64 = 0.35e-6;

/// Catalog payload: everything the query path needs to reconstruct the
/// accelerator (stored as the `design_blob` JSON in the RDBMS catalog).
/// Since the deploy-time lowering refactor it also carries the
/// [`LoweredProgram`] — the pre-resolved executable artifact — so
/// restoring an engine from the catalog reuses the deploy-time lowering
/// instead of re-deriving it.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ArtifactBlob {
    pub design: EngineDesign,
    pub lowered: LoweredProgram,
    pub budget: ResourceBudget,
    pub estimate: PerfEstimate,
    /// The deploy-time *scoring* lowering: the forward-pass recipe that
    /// PREDICT/EVALUATE bind to trained model values. `None` for
    /// analytics with no derivable forward pass.
    pub scoring: Option<ScoringRecipe>,
}

impl ArtifactBlob {
    pub fn from_compiled(
        acc: &CompiledAccelerator,
        scoring: Option<ScoringRecipe>,
    ) -> ArtifactBlob {
        ArtifactBlob {
            design: acc.design.clone(),
            lowered: acc.engine.lowered().clone(),
            budget: acc.budget,
            estimate: acc.estimate,
            scoring,
        }
    }

    /// Serializes for catalog storage.
    pub fn encode(&self) -> DanaResult<String> {
        serde_json::to_string(self).map_err(|e| DanaError::Blob(e.to_string()))
    }

    /// Reconstructs the accelerator from a catalog `design_blob`.
    pub fn decode(blob: &str) -> DanaResult<ArtifactBlob> {
        serde_json::from_str(blob).map_err(|e| DanaError::Blob(e.to_string()))
    }
}

/// The runtime artifact one EXECUTE needs, resolved once per deployed
/// accelerator and cached on its catalog entry: the validated + lowered
/// engine behind an `Arc`, plus the resource budget and deploy-time
/// estimate (so the hot path never re-parses the JSON blob either).
pub struct CachedAccelerator {
    pub engine: Arc<ExecutionEngine>,
    pub budget: ResourceBudget,
    pub estimate: PerfEstimate,
    /// The deploy-time scoring recipe, cached beside the training engine
    /// so PREDICT/EVALUATE never re-derive (or re-parse the blob for) it.
    pub scoring: Option<ScoringRecipe>,
    /// The simulated-FPGA execution backend over `engine`, cached so the
    /// hot path never re-wraps per query.
    pub fpga: Arc<FpgaBackend>,
    /// The native CPU execution backend over the same lowered program.
    pub cpu: Arc<CpuBackend>,
}

impl CachedAccelerator {
    pub fn new(
        engine: Arc<ExecutionEngine>,
        budget: ResourceBudget,
        estimate: PerfEstimate,
        scoring: Option<ScoringRecipe>,
    ) -> CachedAccelerator {
        CachedAccelerator {
            fpga: Arc::new(FpgaBackend::new(Arc::clone(&engine))),
            cpu: Arc::new(CpuBackend::new(Arc::clone(&engine))),
            engine,
            budget,
            estimate,
            scoring,
        }
    }

    pub fn from_compiled(
        acc: &CompiledAccelerator,
        scoring: Option<ScoringRecipe>,
    ) -> CachedAccelerator {
        CachedAccelerator::new(Arc::clone(&acc.engine), acc.budget, acc.estimate, scoring)
    }

    /// The cached backend instance for a substrate.
    pub fn backend(&self, kind: BackendKind) -> Arc<dyn dana_engine::ExecutionBackend> {
        match kind {
            BackendKind::Fpga => Arc::clone(&self.fpga) as _,
            BackendKind::Cpu => Arc::clone(&self.cpu) as _,
        }
    }
}

/// Installs the compile-time engine (and the scoring recipe) on a catalog
/// entry's runtime cache — called at DEPLOY so the first EXECUTE is
/// already a cache hit.
pub fn prime_runtime(
    entry: &AcceleratorEntry,
    acc: &CompiledAccelerator,
    scoring: Option<ScoringRecipe>,
) {
    entry
        .runtime
        .set(Arc::new(CachedAccelerator::from_compiled(acc, scoring)));
}

/// Resolves a catalog entry's runtime artifact: a cache hit returns the
/// shared engine untouched; a miss (an entry restored from a persisted
/// blob, or one whose cache was invalidated) decodes the blob, rebuilds
/// the engine from the deploy-time lowering, and installs it for every
/// later query. Returns `(artifact, built_now)`.
pub fn cached_accelerator(entry: &AcceleratorEntry) -> DanaResult<(Arc<CachedAccelerator>, bool)> {
    if let Some(cached) = entry
        .runtime
        .get()
        .and_then(|any| Arc::downcast::<CachedAccelerator>(any).ok())
    {
        return Ok((cached, false));
    }
    let blob = ArtifactBlob::decode(&entry.design_blob)?;
    let engine = Arc::new(ExecutionEngine::from_artifact(blob.design, blob.lowered)?);
    let cached = Arc::new(CachedAccelerator::new(
        engine,
        blob.budget,
        blob.estimate,
        blob.scoring,
    ));
    entry
        .runtime
        .set(Arc::clone(&cached) as Arc<dyn Any + Send + Sync>);
    Ok((cached, true))
}

/// The latest trained model values for one deployed accelerator, stored
/// on its catalog entry by EXECUTE (last training wins) and consumed by
/// PREDICT/EVALUATE.
pub struct TrainedModels {
    /// Model values, one vec per model variable (row-major), in the
    /// UDF's declaration order.
    pub models: Vec<Vec<f32>>,
    /// Model variable names aligned with `models`.
    pub names: Vec<String>,
}

/// Records a finished training run's models on the catalog entry so
/// scoring queries can bind them. Interior-mutable (like the runtime
/// cache) so both the serial facade and the concurrent core store through
/// a shared reference; last write wins.
pub fn store_trained(entry: &AcceleratorEntry, report: &DanaReport) {
    entry.trained.store(Arc::new(TrainedModels {
        models: report.models.clone(),
        names: report.model_names.clone(),
    }));
}

/// The entry's latest trained models, if any EXECUTE has stored some.
pub fn trained_models(entry: &AcceleratorEntry) -> Option<Arc<TrainedModels>> {
    entry
        .trained
        .get()
        .and_then(|any| Arc::downcast::<TrainedModels>(any).ok())
}

/// Everything one scoring query resolves up front: the cached
/// accelerator, the deploy-time recipe, the recipe bound to the latest
/// trained model values, and the lockstep lane count.
pub struct ScoringSetup {
    pub cached: Arc<CachedAccelerator>,
    pub recipe: ScoringRecipe,
    pub program: ScoringProgram,
    pub lanes: u16,
}

/// Builds a [`ScoringSetup`] from an already-resolved runtime artifact
/// (the caller holds the `Arc` — no second cache resolution). Typed
/// errors distinguish "this analytic cannot score" from "train it
/// first". Lanes default to the design's thread count; TABLA is
/// single-lane, like training.
pub fn scoring_setup(
    udf: &str,
    entry: &AcceleratorEntry,
    cached: Arc<CachedAccelerator>,
    mode: ExecutionMode,
    lanes: Option<u16>,
) -> DanaResult<ScoringSetup> {
    let recipe = cached.scoring.clone().ok_or_else(|| {
        DanaError::Infer(dana_infer::InferError::UnsupportedAnalytic {
            udf: udf.to_string(),
            reason: "no scoring recipe was derived at deploy".to_string(),
        })
    })?;
    let trained = trained_models(entry).ok_or_else(|| DanaError::ModelNotTrained {
        udf: udf.to_string(),
    })?;
    let program = ScoringProgram::bind(&recipe, &trained.names, &trained.models)?;
    let lanes = match mode {
        ExecutionMode::Tabla => 1,
        _ => lanes.unwrap_or(cached.engine.design().num_threads).max(1),
    };
    Ok(ScoringSetup {
        cached,
        recipe,
        program,
        lanes,
    })
}

/// Initial model values: zeros for broadcast (dense) models, the shared
/// deterministic LRMF initialization for row-indexed factors.
pub fn initial_models(design: &EngineDesign) -> Vec<Vec<f32>> {
    design
        .models
        .iter()
        .map(|m| {
            if m.broadcast_slots.is_some() {
                vec![0.0; m.elements()]
            } else {
                dana_ml::default_lrmf_init(m.elements())
            }
        })
        .collect()
}

/// Builds the access engine (Striders + AXI front end) for one query over
/// `heap` on an accelerator instance described by `fpga`.
pub fn access_engine_for(heap: &HeapFile, budget: ResourceBudget, fpga: &FpgaSpec) -> AccessEngine {
    let axi = AxiLink::with_bandwidth(fpga.axi_bandwidth);
    AccessEngine::for_table(
        *heap.layout(),
        heap.schema().clone(),
        AccessEngineConfig::new(budget.num_page_buffers.max(1), fpga.clock, axi),
    )
}

// ---- pushdown scan plumbing (shared by both facades) ---------------------

/// Resolves a statement's optional `WHERE`/`COLUMNS` spec into the
/// [`ScanState`](crate::ScanState) the page sources consume: `None` for no spec or a
/// trivial one (plain full scans never touch the sidecar), otherwise the
/// spec bound to the heap's schema plus the table's compressed sidecar —
/// built on first use and cached on the catalog entry's runtime slot, so
/// every later pushdown scan of the table shares one sidecar and a DROP
/// discards it with the entry.
pub fn scan_state(
    entry: &TableEntry,
    heap: &HeapFile,
    spec: Option<&ScanSpec>,
) -> DanaResult<Option<crate::source::ScanState>> {
    let Some(spec) = spec else { return Ok(None) };
    if spec.is_trivial() {
        return Ok(None);
    }
    let bound = spec
        .bind(heap.schema())
        .map_err(|e| DanaError::Query(e.to_string()))?;
    let cached = entry
        .scan
        .get()
        .and_then(|a| a.downcast::<ScanSidecar>().ok());
    let sidecar = match cached {
        Some(s) => s,
        None => {
            let built: Arc<ScanSidecar> = Arc::new(ScanSidecar::build(heap)?);
            // First write wins; re-read so concurrent builders converge on
            // one shared sidecar.
            entry.scan.set(built.clone());
            entry
                .scan
                .get()
                .and_then(|a| a.downcast::<ScanSidecar>().ok())
                .unwrap_or(built)
        }
    };
    Ok(Some(crate::source::ScanState {
        sidecar,
        spec: Arc::new(bound),
    }))
}

/// Charges one finished pushdown scan to the `SHOW STATS ('scan')`
/// counters. `rows_considered` is the pre-filter tuple count of the
/// scanned range (the selectivity denominator); the post-filter rows,
/// skipped pages, and decompressed bytes come off the scan's access
/// stats, and the sidecar contributes the compression-ratio terms.
pub fn record_scan_metrics(
    metrics: &MetricsRegistry,
    stats: &AccessStats,
    sidecar: &ScanSidecar,
    rows_considered: u64,
) {
    metrics.scan_queries.inc();
    metrics.scan_pages_skipped.add(stats.pages_skipped);
    metrics
        .scan_bytes_decompressed
        .add(stats.decompressed_bytes);
    metrics.scan_rows_considered.add(rows_considered);
    metrics.scan_rows_emitted.add(stats.tuples);
    metrics.scan_raw_bytes.add(sidecar.raw_bytes());
    metrics
        .scan_compressed_bytes
        .add(sidecar.compressed_bytes());
}

/// Tuples per page of the virtual *materialized filtered table* a
/// pushdown gang plans its shard boundaries against: the page capacity a
/// [`dana_storage::HeapFileBuilder`] would compute for the projected
/// schema at the source heap's page size and placement direction.
/// Post-filter tuples land densely packed in such a table, so splitting
/// the filtered stream at multiples of this capacity reproduces the
/// table's [`dana_parallel::ShardPlan`] boundaries exactly — which is
/// what keeps a filtered gang bit-identical to running the same gang on
/// the pre-materialized table.
pub fn packed_page_capacity(heap: &HeapFile, spec: &BoundScanSpec) -> DanaResult<u64> {
    let schema = heap.schema();
    let data_width: usize = match &spec.projection {
        Some(proj) => proj.iter().map(|&c| schema.columns()[c].ty.width()).sum(),
        None => schema.tuple_data_width(),
    };
    let layout = PageLayoutDesc::new(
        heap.layout().page_size,
        0,
        TUPLE_HEADER_BYTES + data_width,
        TUPLE_HEADER_BYTES,
        heap.layout().direction,
    )?;
    Ok(u64::from(layout.capacity))
}

/// Splits one filtered scan's measured stats into per-shard
/// [`ShardArtifacts`] inputs, `splits[i]` tuples apiece. A filtered gang
/// runs ONE scan of the source (post-filter rows don't align with page
/// boundaries) and replays slices of it per member; this divides the
/// scan's cost model the same way — tuples exactly per split, integer
/// counters evenly with the remainder on the earliest shards, float
/// terms evenly. The measured scan wall is not split: the one scan ran
/// before any member started, so every member carries all of it. One
/// shard passes the stats through untouched, which is what keeps a
/// `shards = 1` filtered gang bit-identical to the serial filtered query.
pub fn split_filtered_scan_stats(
    stats: &AccessStats,
    io_first: Seconds,
    splits: &[u64],
) -> Vec<(AccessStats, Seconds)> {
    let k = splits.len().max(1) as u64;
    if k == 1 {
        return vec![(*stats, io_first)];
    }
    let div = |v: u64, i: u64| v / k + u64::from(i < v % k);
    splits
        .iter()
        .enumerate()
        .map(|(i, &tuples)| {
            let i = i as u64;
            let share = AccessStats {
                pages: div(stats.pages, i),
                tuples,
                bytes_transferred: div(stats.bytes_transferred, i),
                axi_seconds: stats.axi_seconds / k as f64,
                strider_cycles: div(stats.strider_cycles, i),
                conversion_cycles: div(stats.conversion_cycles, i),
                decompress_cycles: div(stats.decompress_cycles, i),
                decompressed_bytes: div(stats.decompressed_bytes, i),
                pages_skipped: div(stats.pages_skipped, i),
                access_seconds: stats.access_seconds / k as f64,
                scan_wall_seconds: stats.scan_wall_seconds,
            };
            (share, io_first / k as f64)
        })
        .collect()
}

/// Materializes a PREDICT's output heap, honoring an optional pushdown
/// scan: without one every source tuple is kept (the classic path); with
/// one, only the tuples the predicates kept and the columns the
/// projection named survive into the prediction table — byte-for-byte
/// what scoring a pre-materialized filtered table would build.
pub fn materialize_predictions(
    entry: &TableEntry,
    heap: &HeapFile,
    scan: Option<&ScanSpec>,
    predictions: &[f32],
) -> DanaResult<HeapFile> {
    match scan_state(entry, heap, scan)? {
        None => Ok(dana_infer::build_prediction_heap(heap, predictions)?),
        Some(state) => {
            let slots = dana_scan::select_slots(heap, &state.spec)?;
            Ok(dana_infer::build_prediction_heap_selected(
                heap,
                &slots,
                state.spec.projection.as_deref(),
                predictions,
            )?)
        }
    }
}

/// Everything one training run measured, handed to [`assemble_report`].
pub struct RunArtifacts {
    pub engine_stats: EngineStats,
    pub access_stats: AccessStats,
    /// Simulated disk seconds charged by the first (cold-ish) scan.
    pub io_first: Seconds,
    /// Per-epoch engine-cycle deltas from the training session's log
    /// (sums to `engine_stats.cycles`). Empty when the run didn't log —
    /// the trace then shares the engine stage uniformly across epochs.
    pub epoch_cycles: Vec<u64>,
}

/// Composes a finished run's stats into the end-to-end [`DanaReport`] via
/// the pipeline-overlap cost model — pure function, shared verbatim by the
/// single-query facade and every server worker.
#[allow(clippy::too_many_arguments)]
pub fn assemble_report(
    mode: ExecutionMode,
    design: &EngineDesign,
    budget: ResourceBudget,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    disk: &DiskModel,
    pool_frames: usize,
    heap: &HeapFile,
    run: RunArtifacts,
    store: ModelStore,
    rec: &SpanRecorder,
) -> DanaReport {
    let RunArtifacts {
        engine_stats: stats,
        access_stats,
        io_first,
        epoch_cycles,
    } = run;
    let epochs = stats.epochs_run.max(1);
    let engine_per_epoch = stats.cycles as f64 / epochs as f64 / fpga.clock.hz;
    let costs = stream_costs(
        budget,
        fpga,
        cpu,
        disk,
        pool_frames,
        heap,
        heap.page_count(),
        &access_stats,
        io_first,
        engine_per_epoch,
    );
    let timing: DanaTiming = compose(mode, epochs, &costs);
    record_training_spans(
        rec,
        mode,
        epochs,
        &costs,
        access_stats.scan_wall_seconds,
        fpga.clock.hz,
        &epoch_cycles,
        0,
    );

    let model_names = design.models.iter().map(|m| m.name.clone()).collect();
    DanaReport {
        models: store.into_values(),
        model_names,
        epochs_run: stats.epochs_run,
        converged_early: stats.converged_early,
        num_threads: design.num_threads,
        shards: 1,
        backend: BackendKind::Fpga,
        timing,
        engine: stats,
        access: access_stats,
    }
}

/// Composes a finished **native CPU** training run into a [`DanaReport`]:
/// no cycle-model composition at all — the timing is the stopwatch the
/// backend measured ([`DanaTiming::wall_only`]), every simulated slot
/// stays zero, and the report is tagged [`BackendKind::Cpu`]. Models and
/// engine counters are the FPGA tier's bit-identical twins.
pub fn assemble_cpu_report(
    design: &EngineDesign,
    run: BackendRun,
    access_stats: AccessStats,
    store: ModelStore,
    rec: &SpanRecorder,
) -> DanaReport {
    record_cpu_spans(rec, run.wall_seconds.unwrap_or(0.0));
    let model_names = design.models.iter().map(|m| m.name.clone()).collect();
    DanaReport {
        models: store.into_values(),
        model_names,
        epochs_run: run.stats.epochs_run,
        converged_early: run.stats.converged_early,
        num_threads: design.num_threads,
        shards: 1,
        backend: BackendKind::Cpu,
        timing: DanaTiming::wall_only(run.wall_seconds.unwrap_or(0.0)),
        engine: run.stats,
        access: access_stats,
    }
}

// ---- the backend advisor (shared dispatch) ------------------------------

/// The typed conflict between a gang and the CPU tier: intra-query
/// parallelism (shards > 1) is accelerator-side only.
pub fn gang_needs_fpga() -> DanaError {
    DanaError::Query(
        "backend = cpu cannot run a gang: intra-query parallelism (shards > 1) \
         is FPGA-only — drop the shards option or use backend = fpga"
            .to_string(),
    )
}

/// The advisor's workload shape for one statement against a deployed
/// accelerator: rows from the catalog's tuple count, compute shape from
/// the cached lowering — no data is touched. Training statements price
/// the full epoch schedule; scoring statements (PREDICT/EVALUATE) price
/// one forward pass per tuple on both tiers.
pub fn statement_workload(
    cached: &CachedAccelerator,
    rows: u64,
    columns: usize,
    stmt: &Statement,
) -> Workload {
    let design = cached.engine.design();
    let lowered = cached.engine.lowered();
    let scan = statement_scan(stmt);
    let selectivity = scan.map_or(1.0, ScanSpec::planning_selectivity);
    let width_fraction = match scan.and_then(|s| s.projection.as_ref()) {
        Some(proj) if columns > 0 => (proj.len() as f64 / columns as f64).clamp(0.0, 1.0),
        _ => 1.0,
    };
    match stmt {
        Statement::Train(_) | Statement::Explain(_) => Workload {
            rows,
            epochs: design.convergence.max_epochs(),
            threads: design.num_threads,
            cycles_per_group: cached
                .engine
                .estimated_batch_cycles(design.num_threads as usize),
            lane_ops_per_tuple: lowered.per_tuple_lane_ops(),
            ops_per_group: lowered.per_group_ops(),
            selectivity,
            width_fraction,
        },
        _ => {
            let per_tuple = cached
                .scoring
                .as_ref()
                .map(|r| r.per_tuple_cycles())
                .unwrap_or_else(|| lowered.per_tuple_lane_ops());
            Workload {
                rows,
                epochs: 1,
                threads: design.num_threads,
                cycles_per_group: per_tuple,
                lane_ops_per_tuple: per_tuple,
                ops_per_group: 0,
                selectivity,
                width_fraction,
            }
        }
    }
}

/// The pushdown scan spec a statement carries, if any. The point form
/// and the meta statements have none.
pub fn statement_scan(stmt: &Statement) -> Option<&ScanSpec> {
    match stmt {
        Statement::Train(c) => c.scan.as_ref(),
        Statement::Predict(p) => p.scan.as_ref(),
        Statement::Evaluate(e) => e.scan.as_ref(),
        Statement::PredictPoint(_)
        | Statement::Explain(_)
        | Statement::ExplainAnalyze(_)
        | Statement::ShowStats(_) => None,
    }
}

/// The `WITH (backend = …)` request and shard count a statement carries.
fn statement_request(stmt: &Statement) -> DanaResult<(BackendChoice, Option<u16>)> {
    match stmt {
        Statement::Train(c) => Ok((c.backend, c.shards)),
        Statement::Predict(p) => Ok((p.backend, p.shards)),
        // The point form has no scan to shard — the parser rejects the
        // shards option, so the request is always serial.
        Statement::PredictPoint(p) => Ok((p.backend, None)),
        Statement::Evaluate(e) => Ok((e.backend, e.shards)),
        Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
            Err(DanaError::Query("EXPLAIN cannot be nested".to_string()))
        }
        Statement::ShowStats(_) => Err(DanaError::Query(
            "SHOW STATS has no execution backend".to_string(),
        )),
    }
}

/// Prices a statement on every backend without running it — the
/// `EXPLAIN` core shared by the serial facade and the serving tier. A
/// gang (shards > 1) pins the FPGA tier; CPU + gang is a typed conflict.
pub fn explain_statement(
    profile: &HardwareProfile,
    cached: &CachedAccelerator,
    rows: u64,
    columns: usize,
    stmt: &Statement,
) -> DanaResult<StrategyComparison> {
    let (requested, shards) = statement_request(stmt)?;
    let requested = match (shards, requested) {
        (Some(k), BackendChoice::Cpu) if k > 1 => return Err(gang_needs_fpga()),
        (Some(k), BackendChoice::Auto) if k > 1 => BackendChoice::Fpga,
        _ => requested,
    };
    let workload = statement_workload(cached, rows, columns, stmt);
    let statement = match stmt {
        Statement::Train(c) => format!("EXECUTE {} ON {}", c.udf, c.table),
        Statement::Predict(p) => format!("PREDICT {} ON {} INTO {}", p.udf, p.table, p.into),
        Statement::PredictPoint(p) => {
            format!("PREDICT {} ON {} inline row(s)", p.udf, p.rows.len())
        }
        Statement::Evaluate(e) => format!("EVALUATE {} ON {}", e.udf, e.table),
        Statement::Explain(_) | Statement::ExplainAnalyze(_) | Statement::ShowStats(_) => {
            unreachable!("rejected by statement_request")
        }
    };
    Ok(advisor::advise(profile, &workload, requested, statement))
}

/// Resolves the substrate one statement runs on: a `WITH (backend = …)`
/// override wins; `auto` asks the advisor; a gang (shards > 1) pins the
/// FPGA tier, and forcing CPU alongside one is a typed error.
pub fn resolve_backend(
    profile: &HardwareProfile,
    cached: &CachedAccelerator,
    rows: u64,
    columns: usize,
    stmt: &Statement,
) -> DanaResult<BackendKind> {
    let (requested, shards) = statement_request(stmt)?;
    if shards.is_some_and(|k| k > 1) {
        return match requested {
            BackendChoice::Cpu => Err(gang_needs_fpga()),
            _ => Ok(BackendKind::Fpga),
        };
    }
    Ok(match requested {
        BackendChoice::Fpga => BackendKind::Fpga,
        BackendChoice::Cpu => BackendKind::Cpu,
        BackendChoice::Auto => {
            let workload = statement_workload(cached, rows, columns, stmt);
            advisor::advise(profile, &workload, BackendChoice::Auto, String::new()).chosen
        }
    })
}

/// The per-epoch cost inputs every streamed scan shares (training and
/// scoring): disk, AXI, Strider extraction, CPU-feed ablation — only the
/// engine-compute term differs between the two query types. `scan_pages`
/// is how many pages one pass of *this* scan touches — the whole heap
/// for a serial query, the critical shard's range for a gang member.
#[allow(clippy::too_many_arguments)]
fn stream_costs(
    budget: ResourceBudget,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    disk: &DiskModel,
    pool_frames: usize,
    heap: &HeapFile,
    scan_pages: u32,
    access_stats: &AccessStats,
    io_first: Seconds,
    engine_per_epoch: Seconds,
) -> EpochCosts {
    let clock = fpga.clock;
    let page_size = heap.layout().page_size;
    let missing_later = scan_pages.saturating_sub(pool_frames as u32) as f64;
    let width = heap.schema().len();
    let tuple_bytes = heap.layout().tuple_bytes;
    let float_bytes = access_stats.tuples as f64 * width as f64 * 4.0;
    let axi = AxiLink::with_bandwidth(fpga.axi_bandwidth);
    EpochCosts {
        io_first,
        io_later: missing_later * disk.read_time(page_size as u64),
        axi: access_stats.axi_seconds,
        decompress: clock.to_seconds(access_stats.decompress_cycles),
        strider: clock.to_seconds(
            access_stats
                .strider_cycles
                .div_ceil(budget.num_page_buffers.max(1) as u64),
        ),
        engine: engine_per_epoch,
        cpu_feed: access_stats.tuples as f64
            * (tuple_bytes as f64 * cpu.deform_s_per_byte
                + width as f64 * cpu.conv_s_per_value
                + CPU_FEED_HANDSHAKE_S)
            + float_bytes / fpga.axi_bandwidth,
        fill: axi.burst_time(page_size as u64),
    }
}

/// Composes a finished *scoring* scan's stats into its end-to-end timing:
/// one pass over the heap (scoring has no epochs) with the same pipeline
/// overlap as training — pure function, shared by the serial facade and
/// the concurrent serving tier.
#[allow(clippy::too_many_arguments)]
pub fn assemble_scoring_timing(
    mode: ExecutionMode,
    budget: ResourceBudget,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    disk: &DiskModel,
    pool_frames: usize,
    heap: &HeapFile,
    access_stats: &AccessStats,
    io_first: Seconds,
    scoring: &ScoringStats,
    rec: &SpanRecorder,
) -> DanaTiming {
    let costs = stream_costs(
        budget,
        fpga,
        cpu,
        disk,
        pool_frames,
        heap,
        heap.page_count(),
        access_stats,
        io_first,
        scoring.engine_seconds(fpga.clock.hz),
    );
    record_scoring_spans(rec, mode, &costs, access_stats.scan_wall_seconds);
    compose(mode, 1, &costs)
}

// ---- gang (intra-query-parallel) report composition ---------------------

/// What one gang member (shard) measured: its engine counters, its
/// range-scan extraction stats, and its first-scan disk seconds.
pub struct ShardArtifacts {
    pub engine_stats: EngineStats,
    pub access_stats: AccessStats,
    pub io_first: Seconds,
}

/// Element-wise maximum of the shards' access stats — the gang's
/// critical extraction path (shards stream their ranges simultaneously,
/// so one epoch's extraction costs what the slowest member costs).
fn critical_access(shards: &[ShardArtifacts]) -> AccessStats {
    let mut crit = AccessStats::default();
    for s in shards {
        let a = &s.access_stats;
        crit.pages = crit.pages.max(a.pages);
        crit.tuples = crit.tuples.max(a.tuples);
        crit.bytes_transferred = crit.bytes_transferred.max(a.bytes_transferred);
        crit.axi_seconds = crit.axi_seconds.max(a.axi_seconds);
        crit.strider_cycles = crit.strider_cycles.max(a.strider_cycles);
        crit.conversion_cycles = crit.conversion_cycles.max(a.conversion_cycles);
        crit.decompress_cycles = crit.decompress_cycles.max(a.decompress_cycles);
        crit.decompressed_bytes = crit.decompressed_bytes.max(a.decompressed_bytes);
        crit.pages_skipped = crit.pages_skipped.max(a.pages_skipped);
        crit.access_seconds = crit.access_seconds.max(a.access_seconds);
        crit.scan_wall_seconds = crit.scan_wall_seconds.max(a.scan_wall_seconds);
    }
    crit
}

/// Composes a gang-scheduled training run into one [`DanaReport`].
///
/// A one-shard gang delegates straight to [`assemble_report`] — the
/// report is bit-identical to the serial query's. For `k > 1`, the
/// simulated engine/extraction/I/O terms take the **critical path**
/// (element-wise max across members: the gang's epoch ends when its
/// slowest member does), the epoch-boundary merge tier's cycles ride the
/// engine's merge counter, and throughput counters (tuples, batches) sum
/// across members so the report still states true totals.
#[allow(clippy::too_many_arguments)]
pub fn assemble_gang_report(
    mode: ExecutionMode,
    design: &EngineDesign,
    budget: ResourceBudget,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    disk: &DiskModel,
    pool_frames: usize,
    heap: &HeapFile,
    shards: Vec<ShardArtifacts>,
    merge_cycles: u64,
    models: Vec<Vec<f32>>,
    rec: &SpanRecorder,
) -> DanaResult<DanaReport> {
    let store = ModelStore::new(design, models)?;
    let shard_count = shards.len() as u16;
    if shards.len() == 1 && merge_cycles == 0 {
        let s = shards.into_iter().next().expect("one shard");
        return Ok(assemble_report(
            mode,
            design,
            budget,
            fpga,
            cpu,
            disk,
            pool_frames,
            heap,
            RunArtifacts {
                engine_stats: s.engine_stats,
                access_stats: s.access_stats,
                io_first: s.io_first,
                epoch_cycles: Vec::new(),
            },
            store,
            rec,
        ));
    }
    let mut stats = EngineStats::default();
    for s in &shards {
        let e = &s.engine_stats;
        stats.compute_cycles = stats.compute_cycles.max(e.compute_cycles);
        stats.merge_cycles = stats.merge_cycles.max(e.merge_cycles);
        stats.broadcast_cycles = stats.broadcast_cycles.max(e.broadcast_cycles);
        stats.batches += e.batches;
        stats.tuples_processed += e.tuples_processed;
        stats.epochs_run = stats.epochs_run.max(e.epochs_run);
        stats.converged_early |= e.converged_early;
    }
    // The merge tier runs after the members join; it extends the gang's
    // critical path like the engine's own tree-bus merge does.
    stats.merge_cycles += merge_cycles;
    stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
    let access = critical_access(&shards);
    let io_first = shards.iter().map(|s| s.io_first).fold(0.0, f64::max);
    let scan_pages = shards
        .iter()
        .map(|s| s.access_stats.pages as u32)
        .max()
        .unwrap_or(0);

    let epochs = stats.epochs_run.max(1);
    let engine_per_epoch = stats.cycles as f64 / epochs as f64 / fpga.clock.hz;
    let costs = stream_costs(
        budget,
        fpga,
        cpu,
        disk,
        pool_frames,
        heap,
        scan_pages,
        &access,
        io_first,
        engine_per_epoch,
    );
    let timing: DanaTiming = compose(mode, epochs, &costs);
    record_training_spans(
        rec,
        mode,
        epochs,
        &costs,
        access.scan_wall_seconds,
        fpga.clock.hz,
        &[],
        merge_cycles,
    );
    let model_names = design.models.iter().map(|m| m.name.clone()).collect();
    Ok(DanaReport {
        models: store.into_values(),
        model_names,
        epochs_run: stats.epochs_run,
        converged_early: stats.converged_early,
        num_threads: design.num_threads,
        shards: shard_count,
        backend: BackendKind::Fpga,
        timing,
        engine: stats,
        access,
    })
}

/// Composes a gang-scheduled *scoring* scan's timing and combined
/// counters. One shard delegates to [`assemble_scoring_timing`]
/// (bit-identical to serial); `k > 1` takes the critical member for the
/// timing terms while tuple/group counters sum.
#[allow(clippy::too_many_arguments)]
pub fn assemble_gang_scoring_timing(
    mode: ExecutionMode,
    budget: ResourceBudget,
    fpga: &FpgaSpec,
    cpu: &CpuModel,
    disk: &DiskModel,
    pool_frames: usize,
    heap: &HeapFile,
    shards: &[ShardArtifacts],
    scoring: &[ScoringStats],
    rec: &SpanRecorder,
) -> (DanaTiming, ScoringStats) {
    assert_eq!(
        shards.len(),
        scoring.len(),
        "one scoring-stat entry per gang member"
    );
    if shards.len() == 1 {
        let timing = assemble_scoring_timing(
            mode,
            budget,
            fpga,
            cpu,
            disk,
            pool_frames,
            heap,
            &shards[0].access_stats,
            shards[0].io_first,
            &scoring[0],
            rec,
        );
        return (timing, scoring[0]);
    }
    let combined = ScoringStats {
        tuples: scoring.iter().map(|s| s.tuples).sum(),
        groups: scoring.iter().map(|s| s.groups).sum(),
        cycles: scoring.iter().map(|s| s.cycles).max().unwrap_or(0),
        lanes: scoring.first().map(|s| s.lanes).unwrap_or(0),
    };
    let access = critical_access(shards);
    let io_first = shards.iter().map(|s| s.io_first).fold(0.0, f64::max);
    let scan_pages = shards
        .iter()
        .map(|s| s.access_stats.pages as u32)
        .max()
        .unwrap_or(0);
    let costs = stream_costs(
        budget,
        fpga,
        cpu,
        disk,
        pool_frames,
        heap,
        scan_pages,
        &access,
        io_first,
        combined.engine_seconds(fpga.clock.hz),
    );
    record_scoring_spans(rec, mode, &costs, access.scan_wall_seconds);
    (compose(mode, 1, &costs), combined)
}

/// SJF's ordering key for a *scoring* query: tuple count × per-tuple
/// program length, divided across the lockstep lanes — the inference
/// twin of [`estimate_seconds`].
pub fn scoring_estimate_seconds(
    recipe: &ScoringRecipe,
    tuples: u64,
    lanes: u32,
    fpga: &FpgaSpec,
) -> Seconds {
    let groups = tuples.div_ceil(lanes.max(1) as u64);
    fpga.clock
        .to_seconds(groups.saturating_mul(recipe.per_tuple_cycles()))
}

/// Validates point-form PREDICT rows against the bound scoring program
/// and packs them into one in-memory SoA batch — the fast path's bind
/// step, shared by the serial facade and the serving tier. Every row
/// must have the same width, at least the program's scoring width
/// (extra trailing columns, e.g. a label as stored in the source heap,
/// are carried but ignored by the forward pass — exactly like the
/// materializing scan).
pub fn point_batch(
    udf: &str,
    program: &ScoringProgram,
    rows: &[Vec<f32>],
) -> DanaResult<dana_storage::TupleBatch> {
    if rows.is_empty() {
        return Err(DanaError::Query(
            "point-form PREDICT needs at least one VALUES row".to_string(),
        ));
    }
    let need = program.min_width();
    let width = rows[0].len();
    if width < need {
        return Err(DanaError::Query(format!(
            "VALUES row has {width} value(s) but '{udf}' scoring reads {need} column(s)"
        )));
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != width {
            return Err(DanaError::Query(format!(
                "VALUES row {} has {} value(s) but row 0 has {width} — all rows must have the \
                 same width",
                i + 1,
                row.len()
            )));
        }
    }
    Ok(dana_storage::TupleBatch::from_rows(width, rows))
}

/// Timing for a point scoring dispatch: the CPU tier reports the
/// measured stopwatch; the FPGA tier composes an engine-only simulated
/// cost (there is no scan — no disk, AXI, or Strider term to charge).
pub fn point_timing(
    backend: BackendKind,
    stats: &ScoringStats,
    wall: Seconds,
    fpga: &FpgaSpec,
) -> DanaTiming {
    match backend {
        BackendKind::Cpu => DanaTiming::wall_only(wall),
        BackendKind::Fpga => {
            let engine = stats.engine_seconds(fpga.clock.hz);
            DanaTiming {
                engine_seconds: engine,
                total_seconds: engine,
                ..DanaTiming::default()
            }
        }
    }
}

/// Coarse run-time prediction from the *deploy-time* estimate alone — the
/// shortest-job-first scheduler's ordering key. It deliberately prices only
/// the engine compute (the dominant, workload-proportional term); ties in
/// I/O or extraction do not change the SJF order in practice.
pub fn estimate_seconds(estimate: &PerfEstimate, max_epochs: u32, fpga: &FpgaSpec) -> Seconds {
    fpga.clock.to_seconds(
        estimate
            .epoch_engine_cycles
            .saturating_mul(max_epochs.max(1) as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trip_preserves_estimate() {
        let estimate = PerfEstimate {
            epoch_engine_cycles: 1000,
            strider_cycles_per_page: 50,
            per_tuple_cycles: 7,
            post_merge_cycles: 3,
        };
        let budget = ResourceBudget {
            data_model_bytes: 1024,
            page_buffer_bytes: 64 * 1024,
            num_page_buffers: 2,
            num_aus: 16,
            num_acs: 2,
            num_threads: 2,
        };
        let design = test_design();
        let scoring = dana_infer::derive_recipe(
            &dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
                n_features: 4,
                ..Default::default()
            })
            .unwrap(),
        )
        .ok();
        let blob = ArtifactBlob {
            lowered: dana_engine::lower(&design),
            design,
            budget,
            estimate,
            scoring: scoring.clone(),
        };
        let decoded = ArtifactBlob::decode(&blob.encode().unwrap()).unwrap();
        assert_eq!(decoded.estimate.epoch_engine_cycles, 1000);
        assert_eq!(decoded.design, blob.design);
        assert_eq!(decoded.budget, budget);
        // The deploy-time lowering artifact survives the catalog round
        // trip bit-for-bit and is consistent with its design.
        assert_eq!(decoded.lowered, blob.lowered);
        assert!(decoded.lowered.is_consistent_with(&decoded.design));
        // The scoring recipe rides the same blob.
        assert!(scoring.is_some());
        assert_eq!(decoded.scoring, scoring);
        // Corrupt blobs surface as typed errors, not panics.
        assert!(ArtifactBlob::decode("not json").is_err());
    }

    fn test_design() -> EngineDesign {
        use dana_dsl::zoo::{linear_regression, DenseParams};
        let spec = linear_regression(DenseParams {
            n_features: 4,
            ..Default::default()
        })
        .unwrap();
        dana_compiler::schedule_hdfg(
            &dana_hdfg::translate(&spec),
            dana_compiler::ScheduleParams {
                num_threads: 2,
                acs_per_thread: 1,
                slots_per_au: 1024,
                bus_lanes: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn scoring_estimate_scales_with_tuples_and_lanes() {
        let fpga = FpgaSpec::vu9p();
        let recipe = dana_infer::derive_recipe(
            &dana_dsl::zoo::linear_regression(dana_dsl::zoo::DenseParams {
                n_features: 10,
                ..Default::default()
            })
            .unwrap(),
        )
        .unwrap();
        let small = scoring_estimate_seconds(&recipe, 1_000, 4, &fpga);
        let large = scoring_estimate_seconds(&recipe, 100_000, 4, &fpga);
        assert!(large > small, "more tuples must cost more");
        let wide = scoring_estimate_seconds(&recipe, 100_000, 16, &fpga);
        assert!(wide < large, "more lanes must cost less");
        // Zero lanes clamps instead of dividing by zero.
        assert!(scoring_estimate_seconds(&recipe, 100, 0, &fpga) > 0.0);
    }

    #[test]
    fn estimate_seconds_scales_with_epochs() {
        let e = PerfEstimate {
            epoch_engine_cycles: 150_000_000, // one second at 150 MHz
            strider_cycles_per_page: 0,
            per_tuple_cycles: 0,
            post_merge_cycles: 0,
        };
        let fpga = FpgaSpec::vu9p();
        let one = estimate_seconds(&e, 1, &fpga);
        let five = estimate_seconds(&e, 5, &fpga);
        assert!((five / one - 5.0).abs() < 1e-9);
        // Zero epochs clamps to one.
        assert_eq!(estimate_seconds(&e, 0, &fpga), one);
    }
}
