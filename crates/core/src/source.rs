//! The buffer-pool-backed [`TupleSource`]: the staged streaming loop that
//! replaces full-table materialization on the query hot path.
//!
//! Fig. 2's execution flow interleaves, per page: disk → buffer pool
//! (misses only), pool → FPGA page streaming, Strider extraction, and
//! engine compute. [`SharedPageStreamSource`] realizes that schedule in
//! the simulator: each `next_batch` call fetches ONE page through the
//! [`SharedBufferPool`], extracts it into a flat [`TupleBatch`] (via
//! Striders or the CPU-deform ablation — the Fig. 11 comparison is just a
//! different [`FeedKind`]), and hands the batch to the execution engine,
//! which trains on it while the source is ready to fetch the next page.
//! Allocation is O(pages), not O(tuples). Both facades — the single-session
//! `Dana` and the serving tier's `SystemCore` — scan through this one
//! source over one pool; the pool's `&self` fetches let a gang's members
//! stream their page ranges at once ([`shard_sources`]).
//!
//! Epochs past the first replay the extracted batches from an in-memory
//! cache rather than re-driving the Striders: the hardware would stream
//! pages again, but its *per-epoch* cost is identical, so the cost model
//! charges extraction once and [`crate::runtime::compose`] multiplies per
//! epoch — keeping the simulated timing identical to the hardware schedule
//! while the functional replay stays cheap and deterministic.

use std::sync::Arc;
use std::time::Instant;

use dana_engine::EngineError;
use dana_obs::MetricsRegistry;
use dana_parallel::{packed_tuple_splits, split_replay_sources, ReplaySource, ShardPlan};
use dana_scan::{BoundScanSpec, ScanSidecar};
use dana_storage::{
    ColumnType, DiskModel, HeapFile, HeapId, PageId, PageView, SharedBufferPool, SourceError,
    StorageResult, TupleBatch, TupleSource,
};
use dana_strider::{AccessEngine, AccessStats};

use crate::error::{DanaError, DanaResult};
use crate::exec::{self, ShardArtifacts};
use crate::report::Seconds;

/// Pushdown state for one scan: the table's compressed sidecar (shared out
/// of the catalog's runtime cache) plus the `WHERE`/`COLUMNS` spec bound to
/// its schema. Attaching this to a page source flips the whole data path:
/// pages stream *compressed* through the buffer pool (under the heap's
/// shadow id, charged at compressed size), are decompressed on fetch with
/// cycles charged to the access stats, zone-unmatchable pages are skipped
/// without a fetch, and surviving tuples are filtered/projected before the
/// engine sees them.
#[derive(Clone)]
pub struct ScanState {
    pub sidecar: Arc<ScanSidecar>,
    pub spec: Arc<BoundScanSpec>,
}

/// CPU-deform twin of the Strider filtered extraction: decodes each tuple
/// full-width with the same per-cell [`ColumnType::decode_f32`] conversion
/// `deform_all_into` uses, gates it on the spec, and pushes the projected
/// row — so the Fig. 11 ablation stays bit-identical to the Strider feed
/// under pushdown too.
fn cpu_extract_filtered(
    bytes: &[u8],
    heap: &HeapFile,
    spec: &BoundScanSpec,
    batch: &mut TupleBatch,
) -> Result<(), SourceError> {
    let layout = heap.layout();
    let schema = heap.schema();
    let view = PageView::new(bytes, *layout)?;
    let cols: Vec<(usize, ColumnType)> = (0..schema.len())
        .map(|i| Ok((schema.column_offset(i)?, schema.columns()[i].ty)))
        .collect::<StorageResult<_>>()?;
    let mut row = vec![0f32; schema.len()];
    for slot in 0..view.tuple_count() {
        let data = &view.tuple_bytes(slot)?[layout.tuple_header_bytes..];
        for (c, &(off, ty)) in cols.iter().enumerate() {
            row[c] = ty.decode_f32(&data[off..off + ty.width()]);
        }
        if !spec.row_matches(&row) {
            continue;
        }
        match &spec.projection {
            Some(proj) => {
                let mut out = batch.start_row();
                for &c in proj {
                    out.push(row[c]);
                }
                out.finish();
            }
            None => batch.push_row(&row),
        }
    }
    Ok(())
}

/// How raw page bytes become engine-native f32 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// On-chip Striders walk the raw page (full DAnA).
    Strider,
    /// Host CPU deforms and converts each tuple (Fig. 11 / TABLA ablation).
    Cpu,
}

impl FeedKind {
    /// The feed matching an execution mode: Striders on-chip for full
    /// DAnA, CPU deform for the ablations.
    pub fn for_mode(mode: crate::runtime::ExecutionMode) -> FeedKind {
        if mode.uses_striders() {
            FeedKind::Strider
        } else {
            FeedKind::Cpu
        }
    }
}

/// Streams a table page-by-page out of a [`SharedBufferPool`] as flat
/// batches, through `&self` fetches, so many queries can scan
/// simultaneously. Page bytes come back as `Arc<[u8]>` images; each is
/// held only for the duration of its extraction, so the source never pins
/// a frame across engine compute.
///
/// Because the pool's statistics aggregate *every* concurrent query, this
/// source meters its own simulated I/O: `io_seconds` is the disk time of
/// this scan's misses alone.
pub struct SharedPageStreamSource<'a> {
    pool: &'a SharedBufferPool,
    disk: &'a DiskModel,
    heap: &'a HeapFile,
    heap_id: HeapId,
    access: &'a AccessEngine,
    feed: FeedKind,
    next_page: u32,
    /// One past the last page this source scans (a shard boundary for
    /// gang-parallel scans; `page_count` for a whole-table scan).
    end_page: u32,
    start_page: u32,
    scan_done: bool,
    replay: usize,
    cache: Vec<TupleBatch>,
    stats: AccessStats,
    io_seconds: Seconds,
    scan: Option<ScanState>,
}

impl<'a> SharedPageStreamSource<'a> {
    pub fn new(
        pool: &'a SharedBufferPool,
        disk: &'a DiskModel,
        heap: &'a HeapFile,
        heap_id: HeapId,
        access: &'a AccessEngine,
        feed: FeedKind,
    ) -> SharedPageStreamSource<'a> {
        SharedPageStreamSource::with_range(
            pool,
            disk,
            heap,
            heap_id,
            access,
            feed,
            0,
            heap.page_count(),
        )
    }

    /// A source over the page range `[start_page, end_page)` — one shard
    /// of a gang-parallel scan. The shared pool's `&self` fetches let any
    /// number of shard sources stream simultaneously, each metering its
    /// own simulated I/O.
    #[allow(clippy::too_many_arguments)]
    pub fn with_range(
        pool: &'a SharedBufferPool,
        disk: &'a DiskModel,
        heap: &'a HeapFile,
        heap_id: HeapId,
        access: &'a AccessEngine,
        feed: FeedKind,
        start_page: u32,
        end_page: u32,
    ) -> SharedPageStreamSource<'a> {
        let end_page = end_page.min(heap.page_count());
        let start_page = start_page.min(end_page);
        SharedPageStreamSource {
            pool,
            disk,
            heap,
            heap_id,
            access,
            feed,
            next_page: start_page,
            end_page,
            start_page,
            scan_done: false,
            replay: 0,
            cache: Vec::with_capacity((end_page - start_page) as usize),
            stats: AccessStats::default(),
            io_seconds: 0.0,
            scan: None,
        }
    }

    /// Attaches a pushdown [`ScanState`] — see its docs for how it changes
    /// the data path.
    pub fn with_scan(mut self, scan: ScanState) -> SharedPageStreamSource<'a> {
        self.scan = Some(scan);
        self
    }

    /// Extraction-pass counters plus the simulated disk seconds this
    /// query's first scan was charged.
    pub fn into_stats(self) -> (AccessStats, Seconds) {
        let mut stats = self.stats;
        self.access.finish_stats(&mut stats);
        (stats, self.io_seconds)
    }

    /// Completes the scan (if it has not finished) and dismantles the
    /// source into its extracted per-page batches, finished access stats,
    /// and metered I/O — how [`shard_sources`] builds replaying shard
    /// sources for a *filtered* gang, whose post-filter shard boundaries do
    /// not fall on source page boundaries.
    pub fn into_cache(mut self) -> Result<(Vec<TupleBatch>, AccessStats, Seconds), SourceError> {
        self.rewind()?;
        let mut stats = self.stats;
        self.access.finish_stats(&mut stats);
        Ok((self.cache, stats, self.io_seconds))
    }

    /// Returns `false` when the page was zone-pruned (no fetch, no batch).
    fn extract_next_page(&mut self, page_no: u32) -> Result<bool, SourceError> {
        if let Some(scan) = &self.scan {
            if !scan.spec.page_can_match(scan.sidecar.zone(page_no)) {
                self.stats.pages_skipped += 1;
                return Ok(false);
            }
        }
        let started = Instant::now();
        let width = self.width();
        let mut batch = TupleBatch::with_capacity(width, self.heap.layout().capacity as usize);
        match &self.scan {
            None => {
                let (bytes, io) =
                    self.pool
                        .fetch(PageId::new(self.heap_id, page_no), self.heap, self.disk)?;
                self.io_seconds += io;
                match self.feed {
                    FeedKind::Strider => self
                        .access
                        .extract_page_into(&bytes, &mut batch)
                        .map(|cycles| self.stats.strider_cycles += cycles)
                        .map_err(|e| SourceError(e.to_string()))?,
                    FeedKind::Cpu => PageView::new(&bytes, *self.heap.layout())
                        .and_then(|view| view.deform_all_into(self.heap.schema(), &mut batch))
                        .map_err(SourceError::from)?,
                };
                // `bytes` drops here, releasing the frame hold — errors
                // included, so a corrupt page cannot leak a held frame.
            }
            Some(scan) => {
                // Compressed image under the shadow id, charged at
                // compressed size; the frame hold is released as soon as
                // the page is reconstructed.
                let (bytes, io) = self.pool.fetch_raw(
                    PageId::new(self.heap_id.shadow(), page_no),
                    scan.sidecar.page(page_no),
                    self.disk,
                )?;
                self.io_seconds += io;
                let raw =
                    dana_scan::decompress_page(&bytes, self.heap.layout(), self.heap.schema())
                        .map_err(|e| SourceError(e.to_string()))?;
                drop(bytes);
                self.stats.decompress_cycles += dana_scan::decompress_cycles(raw.len());
                self.stats.decompressed_bytes += raw.len() as u64;
                match self.feed {
                    FeedKind::Strider => self
                        .access
                        .extract_page_filtered_into(
                            &raw,
                            &mut batch,
                            scan.spec.projection.as_deref(),
                            |row| scan.spec.row_matches(row),
                        )
                        .map(|cycles| self.stats.strider_cycles += cycles)
                        .map_err(|e| SourceError(e.to_string()))?,
                    FeedKind::Cpu => cpu_extract_filtered(&raw, self.heap, &scan.spec, &mut batch)?,
                }
            }
        };
        self.stats.pages += 1;
        self.stats.tuples += batch.len() as u64;
        self.stats.scan_wall_seconds += started.elapsed().as_secs_f64();
        self.cache.push(batch);
        Ok(true)
    }
}

impl TupleSource for SharedPageStreamSource<'_> {
    fn width(&self) -> usize {
        match &self.scan {
            Some(s) => s.spec.output_width(self.heap.schema().len()),
            None => self.heap.schema().len(),
        }
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        if self.scan_done {
            if self.replay >= self.cache.len() {
                return Ok(None);
            }
            self.replay += 1;
            return Ok(Some(&self.cache[self.replay - 1]));
        }
        loop {
            if self.next_page >= self.end_page {
                self.scan_done = true;
                self.replay = self.cache.len();
                return Ok(None);
            }
            let page_no = self.next_page;
            self.next_page += 1;
            // Zone-pruned pages push no batch; keep walking the range.
            if self.extract_next_page(page_no)? {
                break;
            }
        }
        Ok(Some(self.cache.last().expect("page just extracted")))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        // A mid-scan rewind must still visit every page exactly once so
        // the access stats describe one full extraction pass.
        while !self.scan_done {
            if self.next_batch()?.is_none() {
                break;
            }
        }
        self.replay = 0;
        Ok(())
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        match &self.scan {
            // Post-filter estimate off the zone maps; a sizing hint only.
            Some(s) => Some(s.spec.estimated_tuples(
                &s.sidecar.zones()[self.start_page as usize..self.end_page as usize],
            )),
            None => Some(
                self.heap
                    .tuples_in_page_range(self.start_page, self.end_page),
            ),
        }
    }
}

/// One member of a gang-parallel scan.
pub enum ShardSource<'a> {
    /// A page-range stream over the shared pool, metering its own
    /// extraction and I/O while the other members stream theirs.
    Range(SharedPageStreamSource<'a>),
    /// A replayed slice of one filtered scan, carrying its share of that
    /// scan's measured cost.
    Slice(ReplaySource, (AccessStats, Seconds)),
}

impl ShardSource<'_> {
    /// The member's first-scan cost beside the engine counters the gang
    /// reported for it.
    pub fn into_artifacts(self, engine_stats: dana_engine::EngineStats) -> ShardArtifacts {
        let (access_stats, io_first) = match self {
            ShardSource::Range(src) => src.into_stats(),
            ShardSource::Slice(_, cost) => cost,
        };
        ShardArtifacts {
            engine_stats,
            access_stats,
            io_first,
        }
    }
}

impl TupleSource for ShardSource<'_> {
    fn width(&self) -> usize {
        match self {
            ShardSource::Range(s) => s.width(),
            ShardSource::Slice(s, _) => s.width(),
        }
    }

    fn next_batch(&mut self) -> Result<Option<&TupleBatch>, SourceError> {
        match self {
            ShardSource::Range(s) => s.next_batch(),
            ShardSource::Slice(s, _) => s.next_batch(),
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        match self {
            ShardSource::Range(s) => s.rewind(),
            ShardSource::Slice(s, _) => s.rewind(),
        }
    }

    fn tuple_count_hint(&self) -> Option<u64> {
        match self {
            ShardSource::Range(s) => s.tuple_count_hint(),
            ShardSource::Slice(s, _) => s.tuple_count_hint(),
        }
    }
}

/// Opens the members of a gang-parallel scan of `heap` over `requested`
/// shards — the one shard split both facades use.
///
/// Without pushdown, each member streams one [`ShardPlan`] page range
/// through the pool concurrently. With a pushdown scan attached the whole
/// table is streamed **once** through the filter, and the surviving tuples
/// are re-split at the page boundaries a pre-materialized filtered table
/// would have — so shard contents (and therefore gang merges and
/// concatenated scores) are bit-identical to sharding that table, and the
/// shard count never exceeds its page count.
#[allow(clippy::too_many_arguments)]
pub fn shard_sources<'a>(
    pool: &'a SharedBufferPool,
    disk: &'a DiskModel,
    heap: &'a HeapFile,
    heap_id: HeapId,
    access: &'a AccessEngine,
    feed: FeedKind,
    requested: usize,
    scan: Option<&ScanState>,
    metrics: &MetricsRegistry,
) -> DanaResult<Vec<ShardSource<'a>>> {
    let Some(state) = scan else {
        return Ok(ShardPlan::new(heap, requested)
            .ranges()
            .iter()
            .map(|r| {
                ShardSource::Range(SharedPageStreamSource::with_range(
                    pool,
                    disk,
                    heap,
                    heap_id,
                    access,
                    feed,
                    r.start_page,
                    r.end_page,
                ))
            })
            .collect());
    };
    let src = SharedPageStreamSource::new(pool, disk, heap, heap_id, access, feed)
        .with_scan(state.clone());
    let (batches, stats, io_first) = src
        .into_cache()
        .map_err(|e| DanaError::Engine(EngineError::from(e)))?;
    exec::record_scan_metrics(metrics, &stats, &state.sidecar, heap.tuple_count());
    let capacity = exec::packed_page_capacity(heap, &state.spec)?;
    let splits = packed_tuple_splits(stats.tuples, capacity, requested);
    let width = state.spec.output_width(heap.schema().len());
    Ok(split_replay_sources(width, &batches, &splits)
        .into_iter()
        .zip(exec::split_filtered_scan_stats(&stats, io_first, &splits))
        .map(|(src, cost)| ShardSource::Slice(src, cost))
        .collect())
}
