//! The multi-Strider access engine (Fig. 5).
//!
//! "Training data is written to multiple page buffers, where each buffer
//! stores one database page at a time and has access to its personal
//! Strider. ... we store multiple pages on the FPGA and parallelize data
//! extraction from the pages across their corresponding Striders." (§5.1.1)
//!
//! The engine couples three cost sources the runtime later overlaps:
//! AXI streaming of raw pages, Strider cycles (parallel across page
//! buffers), and the float-conversion unit that turns extracted column
//! bytes into the execution engine's f32 operands ("transform user data
//! into a floating point format", §6.2).
//!
//! Two walkers share one contract. [`StriderMachine`] interprets the
//! generated program instruction by instruction and is the cycle-model
//! reference; [`PageWalk`] is the same program compiled once, when the
//! engine is built, into a straight-line walk that reads each tuple's
//! user data straight out of the page. Extraction takes the compiled walk
//! whenever it accepts a page and the interpreter otherwise, so records,
//! cycles and errors are the interpreter's on every page.

use dana_fpga::{AxiLink, Clock, Seconds};
use dana_storage::{ColumnType, HeapFile, PageLayoutDesc, Schema, TupleBatch};

use crate::codegen::strider_program_for_layout;
use crate::error::{StriderError, StriderResult};
use crate::kernel::{live_count, PageWalk};
use crate::machine::{StriderMachine, StriderRun};

/// Sizing and timing configuration for the access engine.
#[derive(Debug, Clone, Copy)]
pub struct AccessEngineConfig {
    /// Number of page buffers (= Striders) the hardware generator allotted.
    pub num_striders: u32,
    /// FPGA clock for cycle→seconds conversion.
    pub clock: Clock,
    /// Host→FPGA link for page streaming.
    pub axi: AxiLink,
}

impl AccessEngineConfig {
    pub fn new(num_striders: u32, clock: Clock, axi: AxiLink) -> AccessEngineConfig {
        assert!(num_striders >= 1, "need at least one Strider");
        AccessEngineConfig {
            num_striders,
            clock,
            axi,
        }
    }
}

/// One extracted, cleansed, float-converted training tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedTuple {
    /// All column values in schema order, as the engine's native f32.
    pub values: Vec<f32>,
}

impl ExtractedTuple {
    /// Splits a training-schema tuple into (features, label).
    pub fn as_training(&self) -> (&[f32], f32) {
        let n = self.values.len();
        (&self.values[..n - 1], self.values[n - 1])
    }
}

/// One column's byte → engine-native f32 conversion (the float-conversion
/// unit of §6.2). Shared by every extraction path so they are
/// bit-identical by construction.
#[inline(always)]
fn convert_cell(ty: ColumnType, bytes: &[u8]) -> f32 {
    match ty {
        ColumnType::Float4 => f32::from_le_bytes(bytes.try_into().unwrap()),
        ColumnType::Float8 => f64::from_le_bytes(bytes.try_into().unwrap()) as f32,
        ColumnType::Int4 => i32::from_le_bytes(bytes.try_into().unwrap()) as f32,
        ColumnType::Int8 => i64::from_le_bytes(bytes.try_into().unwrap()) as f32,
    }
}

/// Converts one run of same-typed cells into `out`. Always inlined into
/// an arm that fixes `ty`, so the per-cell rule folds to one conversion.
#[inline(always)]
fn convert_run(ty: ColumnType, cells: &[u8], out: &mut [f32]) {
    for (v, cell) in out.iter_mut().zip(cells.chunks_exact(ty.width())) {
        *v = convert_cell(ty, cell);
    }
}

/// Consecutive columns of one type: the unit a record converts in.
#[derive(Debug, Clone, Copy)]
struct CellRun {
    ty: ColumnType,
    /// First column's index in the schema.
    column: usize,
    /// First cell's offset in the record's user data.
    offset: usize,
    columns: usize,
}

/// Aggregate costs of one extraction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessStats {
    pub pages: u64,
    pub tuples: u64,
    /// Raw page bytes that crossed the AXI link.
    pub bytes_transferred: u64,
    /// AXI streaming time (pages pipelined back-to-back).
    pub axi_seconds: Seconds,
    /// Total Strider cycles across all pages (before dividing across
    /// parallel Striders).
    pub strider_cycles: u64,
    /// Float-conversion cycles (one per extracted column value).
    pub conversion_cycles: u64,
    /// Page-decompression cycles spent upstream of the Striders (the scan
    /// tier's codec). Zero on raw-page scans; charged by the page sources
    /// when frames are cached compressed.
    pub decompress_cycles: u64,
    /// Reconstructed page bytes the decompressor produced (the numerator
    /// of `SHOW STATS ('scan')`'s bytes-decompressed gauge).
    pub decompressed_bytes: u64,
    /// Pages a pushdown scan proved unmatchable from their zone maps and
    /// never fetched. Excluded from `pages`/`bytes_transferred`.
    pub pages_skipped: u64,
    /// Simulated seconds for the access engine with `num_striders`-way
    /// parallel extraction overlapped against AXI streaming.
    pub access_seconds: Seconds,
    /// Measured host seconds the page source spent producing this pass's
    /// batches: buffer-pool fetch, decompression and extraction. The one
    /// host-clock figure here (every other field is a count or the cycle
    /// model); it is the `scan` trace stage's wall time.
    pub scan_wall_seconds: Seconds,
}

/// The access engine for one table's layout + schema.
pub struct AccessEngine {
    config: AccessEngineConfig,
    machine: StriderMachine,
    /// The generated program as a compiled page walk — `None` leaves
    /// every page on the interpreter.
    kernel: Option<PageWalk>,
    /// The schema's columns grouped into same-typed runs, in order.
    runs: Vec<CellRun>,
    schema: Schema,
    layout: PageLayoutDesc,
}

impl AccessEngine {
    /// Builds the engine for a table: generates the Strider program for the
    /// table's page layout (the deployment-time compiler step) and
    /// compiles it into the page walk extraction runs on.
    pub fn for_table(
        layout: PageLayoutDesc,
        schema: Schema,
        config: AccessEngineConfig,
    ) -> AccessEngine {
        let (program, regs) = strider_program_for_layout(&layout);
        // A walk whose records are not the layout's user data would fail
        // the interpreter's length check; keep such pages interpreted.
        let kernel = PageWalk::compile(&program, &regs)
            .filter(|k| k.record_bytes() == layout.tuple_data_bytes());
        let mut runs: Vec<CellRun> = Vec::new();
        let mut offset = 0;
        for (column, c) in schema.columns().iter().enumerate() {
            match runs.last_mut() {
                Some(run) if run.ty == c.ty => run.columns += 1,
                _ => runs.push(CellRun {
                    ty: c.ty,
                    column,
                    offset,
                    columns: 1,
                }),
            }
            offset += c.ty.width();
        }
        AccessEngine {
            config,
            machine: StriderMachine::new(program, regs),
            kernel,
            runs,
            schema,
            layout,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn layout(&self) -> &PageLayoutDesc {
        &self.layout
    }

    /// Extracts every tuple from one raw page image into `batch` (appended
    /// in slot order), returning the Strider cycles spent (extraction +
    /// float conversion). This is the hot path: page bytes become flat
    /// engine-native f32 rows with no per-tuple allocation, mirroring how
    /// the hardware streams converted values straight to the execution
    /// engine's input buffers (§6.2).
    ///
    /// A page whose header declares no live tuples yields no rows and
    /// costs no cycles: the host checks the count before starting a
    /// Strider, as the DMA engine would never ship such a page.
    pub fn extract_page_into(&self, page: &[u8], batch: &mut TupleBatch) -> StriderResult<u64> {
        self.walk_page(page, |rec| {
            batch.push_row_with(|row| self.convert(rec, row))
        })
    }

    /// Filtered/projected variant of [`AccessEngine::extract_page_into`]:
    /// every tuple is still walked and float-converted (the Striders and
    /// conversion unit do full-width work — pushdown saves *downstream*
    /// tuples, not extraction cycles on a matched page), but only rows
    /// passing `keep` reach `batch`, and only the columns in `projection`
    /// (schema order; `None` = all). The batch's width must equal the
    /// projected width.
    ///
    /// The predicate sees the full-width row in schema order, so the same
    /// closure drives this path and the scan tier's slot selection —
    /// membership can never disagree between them.
    pub fn extract_page_filtered_into(
        &self,
        page: &[u8],
        batch: &mut TupleBatch,
        projection: Option<&[usize]>,
        mut keep: impl FnMut(&[f32]) -> bool,
    ) -> StriderResult<u64> {
        let mut row = vec![0f32; self.schema.len()];
        self.walk_page(page, |rec| {
            self.convert(rec, &mut row);
            if !keep(&row) {
                return;
            }
            match projection {
                Some(cols) => {
                    let mut out = batch.start_row();
                    for &c in cols {
                        out.push(row[c]);
                    }
                    out.finish();
                }
                None => batch.push_row(&row),
            }
        })
    }

    /// Reference per-tuple extraction path: always the interpreter,
    /// retained for differential testing of the compiled walk and the
    /// batch pipeline (and for callers that want row objects). Allocates
    /// one `Vec<f32>` per tuple — never used on the deploy/execute hot
    /// path.
    pub fn extract_page_rows(&self, page: &[u8]) -> StriderResult<(Vec<ExtractedTuple>, u64)> {
        let run = self.interpret(page)?;
        let mut tuples = Vec::with_capacity(run.len());
        for rec in run.records() {
            self.check_record_len(rec)?;
            let mut values = vec![0f32; self.schema.len()];
            self.convert(rec, &mut values);
            tuples.push(ExtractedTuple { values });
        }
        let conversion = (tuples.len() * self.schema.len()) as u64;
        Ok((tuples, run.cycles + conversion))
    }

    /// The interpreter's run over one page, after the host-side skip of
    /// pages declaring no live tuples (the generated loop is do-while, so
    /// the Strider itself would emit the page header as a record).
    fn interpret(&self, page: &[u8]) -> StriderResult<StriderRun> {
        if live_count(page) == Some(0) {
            return Ok(StriderRun::default());
        }
        self.machine.run(page)
    }

    /// Walks one page, handing each record's user-data bytes to `emit`
    /// in walk order, and returns the cycles charged: Strider extraction
    /// plus one conversion cycle per value. The compiled walk takes the
    /// page when it accepts it; otherwise the interpreter runs, so the
    /// records, cycles and errors are always the interpreter's.
    fn walk_page(&self, page: &[u8], mut emit: impl FnMut(&[u8])) -> StriderResult<u64> {
        let values = self.schema.len() as u64;
        if let Some(walk) = self.kernel.and_then(|k| k.walk(page)) {
            // Every record is `record_bytes` long, checked at build time.
            for rec in walk.records() {
                emit(rec);
            }
            return Ok(walk.cycles() + walk.len() as u64 * values);
        }
        let run = self.interpret(page)?;
        for rec in run.records() {
            self.check_record_len(rec)?;
            emit(rec);
        }
        Ok(run.cycles + run.len() as u64 * values)
    }

    fn check_record_len(&self, rec: &[u8]) -> StriderResult<()> {
        let expected = self.layout.tuple_data_bytes();
        if rec.len() != expected {
            return Err(StriderError::BadTupleBytes(format!(
                "record is {} bytes, schema expects {expected}",
                rec.len()
            )));
        }
        Ok(())
    }

    /// Converts one cleansed record (user-data bytes) into `row`'s f32
    /// columns, in schema order.
    fn convert(&self, rec: &[u8], row: &mut [f32]) {
        for run in &self.runs {
            let cells = &rec[run.offset..run.offset + run.columns * run.ty.width()];
            let out = &mut row[run.column..run.column + run.columns];
            // One arm per type, so each run's loop converts a single type.
            match run.ty {
                ColumnType::Float4 => convert_run(ColumnType::Float4, cells, out),
                ColumnType::Float8 => convert_run(ColumnType::Float8, cells, out),
                ColumnType::Int4 => convert_run(ColumnType::Int4, cells, out),
                ColumnType::Int8 => convert_run(ColumnType::Int8, cells, out),
            }
        }
    }

    /// Extracts an entire heap file into one flat batch, producing tuples
    /// in page/slot order and the aggregate access-engine cost model.
    pub fn extract_heap(&self, heap: &HeapFile) -> StriderResult<(TupleBatch, AccessStats)> {
        let mut all = TupleBatch::with_capacity(self.schema.len(), heap.tuple_count() as usize);
        let mut stats = AccessStats::default();
        for p in 0..heap.page_count() {
            let page = heap.page_bytes(p).expect("page in range");
            let before = all.len();
            let cycles = self.extract_page_into(page, &mut all)?;
            stats.pages += 1;
            stats.tuples += (all.len() - before) as u64;
            stats.strider_cycles += cycles;
        }
        self.finish_stats(&mut stats);
        Ok((all, stats))
    }

    /// Completes an extraction pass's cost model from its raw counters
    /// (pages, tuples, strider cycles): bytes shipped, AXI streaming time,
    /// conversion cycles, and the overlapped wall-clock cost.
    pub fn finish_stats(&self, stats: &mut AccessStats) {
        stats.bytes_transferred = stats.pages * self.layout.page_size as u64;
        stats.conversion_cycles = stats.tuples * self.schema.len() as u64;
        stats.axi_seconds = self
            .config
            .axi
            .stream_time(stats.bytes_transferred, self.layout.page_size as u64);
        stats.access_seconds = self.access_seconds(stats);
    }

    /// Computes the engine's wall-clock cost: Strider work spreads across
    /// `num_striders` parallel units and overlaps with AXI streaming; the
    /// slower of the two dominates, plus one page of pipeline fill.
    pub fn access_seconds(&self, stats: &AccessStats) -> Seconds {
        if stats.pages == 0 {
            return 0.0;
        }
        let parallel_cycles = stats
            .strider_cycles
            .div_ceil(self.config.num_striders as u64);
        let strider_seconds = self.config.clock.to_seconds(parallel_cycles);
        let fill = self.config.axi.burst_time(self.layout.page_size as u64);
        stats.axi_seconds.max(strider_seconds) + fill
    }

    pub fn config(&self) -> &AccessEngineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dana_storage::page::TupleDirection;
    use dana_storage::{HeapFileBuilder, HeapPage, Tuple};

    fn heap_with(n: usize, features: usize) -> HeapFile {
        let schema = Schema::training(features);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let feats: Vec<f32> = (0..features).map(|i| (k + i) as f32 * 0.5).collect();
            b.insert(&Tuple::training(&feats, -(k as f32))).unwrap();
        }
        b.finish()
    }

    fn engine_for(heap: &HeapFile, striders: u32) -> AccessEngine {
        AccessEngine::for_table(
            *heap.layout(),
            heap.schema().clone(),
            AccessEngineConfig::new(striders, Clock::FPGA_150MHZ, AxiLink::with_bandwidth(2.5e9)),
        )
    }

    #[test]
    fn extracted_tuples_match_cpu_scan() {
        let heap = heap_with(500, 12);
        let engine = engine_for(&heap, 4);
        let (batch, stats) = engine.extract_heap(&heap).unwrap();
        assert_eq!(batch.len(), 500);
        assert_eq!(batch.width(), 13);
        assert_eq!(stats.tuples, 500);
        for (ext, cpu) in batch.rows().zip(heap.scan()) {
            let cpu_vals: Vec<f32> = cpu.values.iter().map(|d| d.as_f32()).collect();
            assert_eq!(ext, &cpu_vals[..]);
        }
    }

    #[test]
    fn batch_path_matches_reference_rows_path() {
        let heap = heap_with(200, 7);
        let engine = engine_for(&heap, 2);
        let (batch, _) = engine.extract_heap(&heap).unwrap();
        let mut row_idx = 0usize;
        let mut ref_cycles = 0u64;
        for p in 0..heap.page_count() {
            let (rows, cycles) = engine
                .extract_page_rows(heap.page_bytes(p).unwrap())
                .unwrap();
            ref_cycles += cycles;
            for t in rows {
                assert_eq!(batch.row(row_idx), &t.values[..]);
                row_idx += 1;
            }
        }
        assert_eq!(row_idx, batch.len());
        // Same cycle accounting either way.
        let mut scratch = TupleBatch::new(batch.width());
        let mut batch_cycles = 0u64;
        for p in 0..heap.page_count() {
            batch_cycles += engine
                .extract_page_into(heap.page_bytes(p).unwrap(), &mut scratch)
                .unwrap();
        }
        assert_eq!(batch_cycles, ref_cycles);
    }

    #[test]
    fn training_split_puts_label_last() {
        let heap = heap_with(3, 4);
        let engine = engine_for(&heap, 1);
        let (tuples, _) = engine
            .extract_page_rows(heap.page_bytes(0).unwrap())
            .unwrap();
        let (x, y) = tuples[2].as_training();
        assert_eq!(x.len(), 4);
        assert_eq!(y, -2.0);
    }

    #[test]
    fn rating_schema_converts_ints() {
        let schema = Schema::rating();
        let mut b =
            HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
        b.insert(&Tuple::rating(42, 99, 3.5)).unwrap();
        let heap = b.finish();
        let engine = engine_for(&heap, 1);
        let (batch, _) = engine.extract_heap(&heap).unwrap();
        assert_eq!(batch.row(0), &[42.0, 99.0, 3.5]);
    }

    #[test]
    fn more_striders_reduce_access_time() {
        let heap = heap_with(3000, 16);
        let one = engine_for(&heap, 1);
        let eight = engine_for(&heap, 8);
        let (_, s1) = one.extract_heap(&heap).unwrap();
        let (_, s8) = eight.extract_heap(&heap).unwrap();
        assert_eq!(s1.strider_cycles, s8.strider_cycles, "same total work");
        assert!(
            s8.access_seconds < s1.access_seconds,
            "parallel striders must cut wall time ({} vs {})",
            s8.access_seconds,
            s1.access_seconds
        );
    }

    #[test]
    fn access_time_is_bounded_below_by_axi() {
        let heap = heap_with(2000, 16);
        // Absurdly many striders: AXI must become the floor.
        let engine = engine_for(&heap, 1024);
        let (_, stats) = engine.extract_heap(&heap).unwrap();
        assert!(stats.access_seconds >= stats.axi_seconds);
    }

    #[test]
    fn conversion_cycles_count_every_value() {
        let heap = heap_with(10, 6);
        let engine = engine_for(&heap, 1);
        let (_, stats) = engine.extract_heap(&heap).unwrap();
        assert_eq!(stats.conversion_cycles, 10 * 7); // 6 features + label
    }

    #[test]
    fn empty_page_yields_no_records_and_no_cycles() {
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let schema = Schema::training(4);
            let mut b = HeapFileBuilder::new(schema, 8 * 1024, dir).unwrap();
            b.insert(&Tuple::training(&[1.0; 4], 1.0)).unwrap();
            let engine = engine_for(&b.finish(), 1);
            let mut page = HeapPage::new(*engine.layout());
            page.seal();
            let page = page.as_bytes();
            // The do-while walk alone would emit the header as a record.
            assert_eq!(engine.machine.run(page).unwrap().len(), 1);

            let mut batch = TupleBatch::new(5);
            assert_eq!(engine.extract_page_into(page, &mut batch), Ok(0));
            let filtered = engine.extract_page_filtered_into(page, &mut batch, None, |_| true);
            assert_eq!(filtered, Ok(0));
            assert!(batch.is_empty(), "{dir:?}");
            assert_eq!(engine.extract_page_rows(page), Ok((Vec::new(), 0)));
        }
    }

    #[test]
    fn empty_heap_costs_nothing() {
        let schema = Schema::training(4);
        let heap = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending)
            .unwrap()
            .finish();
        let engine = engine_for(&heap, 2);
        let (batch, stats) = engine.extract_heap(&heap).unwrap();
        assert!(batch.is_empty());
        assert_eq!(stats.access_seconds, 0.0);
    }
}
