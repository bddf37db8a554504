//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use dana_dsl::Dims;
use dana_storage::page::TupleDirection;
use dana_storage::{
    BufferPool, BufferPoolConfig, DiskModel, HeapFileBuilder, HeapId, PageId, Schema, Tuple,
};
use dana_storage::{ColumnType, HeapPage, PageLayoutDesc, TupleBatch};
use dana_strider::isa::{decode_program, encode_program, Instr, Opcode, Operand, Reg};
use dana_strider::{
    strider_program_for_layout, AccessEngine, AccessEngineConfig, PageWalk, StriderError,
    StriderMachine,
};

const COLUMN_TYPES: [ColumnType; 4] = [
    ColumnType::Float4,
    ColumnType::Float8,
    ColumnType::Int4,
    ColumnType::Int8,
];

/// xorshift64*: the byte source for generated pages (raw bits, so float
/// columns see NaNs and infinities too).
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How a generated page is damaged before extraction.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    None,
    /// Live count above the layout's capacity.
    CountAboveCapacity,
    /// First line pointer within one stride of either page end.
    FirstPointerNearEnd,
    /// Random bytes overwritten, some in the header fields the walk reads.
    Scribble,
}

fn write_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn mutate(page: &mut [u8], layout: &PageLayoutDesc, how: Mutation, bits: &mut Bits) {
    let stride = layout.tuple_bytes;
    match how {
        Mutation::None => {}
        Mutation::CountAboveCapacity => {
            write_u16(page, 16, layout.capacity + 1 + bits.below(40) as u16);
        }
        Mutation::FirstPointerNearEnd => {
            let first = if bits.next().is_multiple_of(2) {
                page.len() - stride + bits.below(3)
            } else {
                bits.below(stride)
            };
            write_u16(page, 24, first as u16);
        }
        Mutation::Scribble => {
            for _ in 0..1 + bits.below(8) {
                let at = match bits.below(4) {
                    0 => 16 + bits.below(2),
                    1 => 24 + bits.below(2),
                    _ => bits.below(page.len()),
                };
                page[at] = bits.next() as u8;
            }
        }
    }
}

fn row_bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// The reference the compiled walk must reproduce: the interpreter's own
/// run over the page, each record decoded cell by cell, with a page
/// declaring no live tuples skipped.
fn interpreted(
    page: &[u8],
    layout: &PageLayoutDesc,
    schema: &Schema,
) -> Result<(Vec<Vec<u32>>, u64), StriderError> {
    if page[16..18] == [0, 0] {
        return Ok((Vec::new(), 0));
    }
    let (program, config) = strider_program_for_layout(layout);
    let run = StriderMachine::new(program, config).run(page)?;
    let rows = run
        .records()
        .map(|rec| {
            let mut off = 0;
            schema
                .columns()
                .iter()
                .map(|c| {
                    off += c.ty.width();
                    c.ty.decode_f32(&rec[off - c.ty.width()..off]).to_bits()
                })
                .collect()
        })
        .collect();
    Ok((rows, run.cycles + run.len() as u64 * schema.len() as u64))
}

proptest! {
    /// Tuple form/deform is the identity for any finite values.
    #[test]
    fn tuple_round_trip(values in prop::collection::vec(-1.0e6f32..1.0e6, 1..60), label in -1.0e6f32..1.0e6) {
        let schema = Schema::training(values.len());
        let t = Tuple::training(&values, label);
        let bytes = t.form(&schema, 7, 0).unwrap();
        let back = Tuple::deform(&schema, &bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Heap construction preserves tuple order and count for any direction
    /// and supported page size.
    #[test]
    fn heap_preserves_order(
        n in 1usize..400,
        d in 1usize..24,
        dir_desc in any::<bool>(),
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
    ) {
        let dir = if dir_desc { TupleDirection::Descending } else { TupleDirection::Ascending };
        let schema = Schema::training(d);
        let mut b = HeapFileBuilder::new(schema, page_kb * 1024, dir).unwrap();
        for k in 0..n {
            b.insert(&Tuple::training(&vec![k as f32; d], k as f32)).unwrap();
        }
        let heap = b.finish();
        prop_assert_eq!(heap.tuple_count(), n as u64);
        let labels: Vec<f32> = heap.scan().map(|t| t.as_training().1).collect();
        for (k, l) in labels.iter().enumerate() {
            prop_assert_eq!(*l, k as f32);
        }
    }

    /// Strider extraction equals CPU scan for arbitrary table shapes.
    #[test]
    fn strider_equals_scan(n in 1usize..200, d in 1usize..16, seed_vals in prop::collection::vec(-100.0f32..100.0, 16)) {
        let schema = Schema::training(d);
        let mut b = HeapFileBuilder::new(schema.clone(), 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..d).map(|i| seed_vals[(k + i) % seed_vals.len()] + k as f32).collect();
            b.insert(&Tuple::training(&x, -(k as f32))).unwrap();
        }
        let heap = b.finish();
        let engine = AccessEngine::for_table(
            *heap.layout(),
            schema,
            AccessEngineConfig::new(2, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let (tuples, stats) = engine.extract_heap(&heap).unwrap();
        prop_assert_eq!(tuples.len(), n);
        prop_assert_eq!(stats.tuples, n as u64);
        for (ext, cpu) in tuples.rows().zip(heap.scan()) {
            let vals: Vec<f32> = cpu.values.iter().map(|v| v.as_f32()).collect();
            prop_assert_eq!(ext, &vals[..]);
        }
    }

    /// The compiled page walk is the interpreter, exactly: on generated
    /// layouts (both directions, every column type, several header and
    /// page sizes) and on pages damaged three ways, full, filtered and
    /// reference extraction give the interpreter's records bit for bit,
    /// its cycles, and its error.
    #[test]
    fn compiled_walk_equals_interpreter(
        dir_desc in any::<bool>(),
        page_kb in prop::sample::select(vec![8usize, 16, 32]),
        header in prop::sample::select(vec![0usize, 4, 8, 23]),
        special in prop::sample::select(vec![0usize, 16]),
        types in prop::collection::vec(0usize..4, 1..12),
        fill in 0usize..10_000,
        seed in 1u64..u64::MAX,
    ) {
        let dir = if dir_desc { TupleDirection::Descending } else { TupleDirection::Ascending };
        let schema = Schema::new(
            types.iter().enumerate().map(|(i, &t)| (format!("c{i}"), COLUMN_TYPES[t])).collect(),
        );
        let layout = PageLayoutDesc::new(
            page_kb * 1024,
            special,
            header + schema.tuple_data_width(),
            header,
            dir,
        )
        .unwrap();
        let mut bits = Bits(seed);
        let mut clean = HeapPage::new(layout);
        // Empty and full pages on purpose, any fill otherwise.
        let capacity = layout.capacity as usize;
        let rows = match fill % 5 {
            0 => 0,
            1 => capacity,
            _ => fill % (capacity + 1),
        };
        for _ in 0..rows {
            let tuple: Vec<u8> = (0..layout.tuple_bytes).map(|_| bits.next() as u8).collect();
            clean.insert(&tuple).unwrap();
        }
        clean.seal();
        let engine = AccessEngine::for_table(
            layout,
            schema.clone(),
            AccessEngineConfig::new(2, dana_fpga::Clock::FPGA_150MHZ, dana_fpga::AxiLink::with_bandwidth(2.5e9)),
        );
        let (program, config) = strider_program_for_layout(&layout);
        let walk = PageWalk::compile(&program, &config).expect("generated walk compiles");
        // A clean page with live tuples must take the compiled walk.
        prop_assert_eq!(walk.walk(clean.as_bytes()).is_some(), rows > 0);

        let last = schema.len() - 1;
        let projection = [last, 0];
        let keep = |row: &[f32]| !row[0].to_bits().is_multiple_of(3);
        for how in [
            Mutation::None,
            Mutation::CountAboveCapacity,
            Mutation::FirstPointerNearEnd,
            Mutation::Scribble,
        ] {
            let mut page = clean.as_bytes().to_vec();
            mutate(&mut page, &layout, how, &mut bits);
            let want = interpreted(&page, &layout, &schema);

            let mut batch = TupleBatch::new(schema.len());
            let got = engine
                .extract_page_into(&page, &mut batch)
                .map(|cycles| (batch.rows().map(row_bits).collect::<Vec<_>>(), cycles));
            prop_assert_eq!(&got, &want, "full extraction, {:?}", how);

            let reference = engine.extract_page_rows(&page).map(|(tuples, cycles)| {
                (tuples.iter().map(|t| row_bits(&t.values)).collect::<Vec<_>>(), cycles)
            });
            prop_assert_eq!(&reference, &want, "reference rows, {:?}", how);

            let mut filtered = TupleBatch::new(projection.len());
            let got = engine
                .extract_page_filtered_into(&page, &mut filtered, Some(&projection), keep)
                .map(|cycles| (filtered.rows().map(row_bits).collect::<Vec<_>>(), cycles));
            let want = want.map(|(rows, cycles)| {
                let kept = rows
                    .into_iter()
                    .filter(|r| keep(&[f32::from_bits(r[0])]))
                    .map(|r| projection.iter().map(|&c| r[c]).collect())
                    .collect::<Vec<_>>();
                (kept, cycles)
            });
            prop_assert_eq!(&got, &want, "filtered extraction, {:?}", how);
        }
    }

    /// Every well-formed Strider instruction survives the 22-bit encoding.
    #[test]
    fn strider_isa_round_trip(
        op in 0u32..11,
        a_reg in any::<bool>(), a in 0u8..32,
        b_reg in any::<bool>(), b in 0u8..32,
        c_reg in any::<bool>(), c in 0u8..32,
    ) {
        let mk = |is_reg: bool, v: u8| if is_reg { Operand::Reg(Reg(v)) } else { Operand::Imm(v % 32) };
        let instr = Instr::new(Opcode::from_u32(op).unwrap(), mk(a_reg, a), mk(b_reg, b), mk(c_reg, c));
        let words = encode_program(&[instr]).unwrap();
        prop_assert!(words[0] < (1 << 22));
        let back = decode_program(&words).unwrap();
        prop_assert_eq!(back[0], instr);
    }

    /// Dims broadcasting is commutative in shape (a⊗b and b⊗a agree for
    /// symmetric cases) and reduction removes exactly one axis.
    #[test]
    fn dims_algebra(a in prop::collection::vec(1usize..12, 0..3), axis in 1usize..4) {
        let d = Dims(a.clone());
        // broadcast with self: identity.
        prop_assert_eq!(d.broadcast(&d, "*").unwrap(), d.clone());
        // broadcast with scalar: identity.
        prop_assert_eq!(d.broadcast(&Dims::scalar(), "*").unwrap(), d.clone());
        prop_assert_eq!(Dims::scalar().broadcast(&d, "*").unwrap(), d.clone());
        // reduce: rank drops by one when the axis is valid.
        if axis <= d.rank() {
            let r = d.reduce(axis).unwrap();
            prop_assert_eq!(r.rank(), d.rank().saturating_sub(1));
            let removed = d.0[d.rank() - axis];
            prop_assert_eq!(r.elements() * removed, d.elements());
        }
    }

    /// The buffer pool never exceeds its frame budget, never loses a
    /// pinned page, and hits+misses always equals total fetches.
    #[test]
    fn bufferpool_invariants(ops in prop::collection::vec(0u32..12, 1..150), frames in 2usize..8) {
        let schema = Schema::training(4);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..2400 {
            b.insert(&Tuple::training(&[k as f32; 4], 0.0)).unwrap();
        }
        let heap = b.finish();
        prop_assume!(heap.page_count() >= 12);
        let mut pool = BufferPool::new(BufferPoolConfig {
            pool_bytes: (frames * 8 * 1024) as u64,
            page_size: 8 * 1024,
        });
        let disk = DiskModel::instant();
        let mut fetches = 0u64;
        for page_no in ops {
            if let Ok((frame, _)) = pool.fetch(PageId::new(HeapId(0), page_no), &heap, &disk) {
                fetches += 1;
                prop_assert!(pool.frame_bytes(frame).len() == 8 * 1024);
                pool.unpin(frame);
            }
            prop_assert!(pool.resident_pages() <= frames);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, fetches);
    }

    /// Page checksums detect any single-byte corruption of the data area.
    #[test]
    fn checksum_detects_corruption(offset in 0usize..1000, flip in 1u8..255) {
        let schema = Schema::training(8);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..100 {
            b.insert(&Tuple::training(&[k as f32; 8], 0.0)).unwrap();
        }
        let heap = b.finish();
        let mut bytes = heap.page_bytes(0).unwrap().to_vec();
        let pos = dana_storage::PAGE_HEADER_BYTES + (offset % (bytes.len() - dana_storage::PAGE_HEADER_BYTES));
        bytes[pos] ^= flip;
        let page = dana_storage::HeapPage::from_bytes(bytes, *heap.layout()).unwrap();
        prop_assert!(!page.verify_checksum());
    }
}

// ALU ops agree with plain f32 arithmetic (non-property spot checks for
// the full op set are in the engine crate; here: random operands).
proptest! {
    #[test]
    fn alu_matches_f32(a in -1.0e3f32..1.0e3, b in -1.0e3f32..1.0e3) {
        use dana_engine::AluOp;
        prop_assert_eq!(AluOp::Add.apply(a, b), a + b);
        prop_assert_eq!(AluOp::Sub.apply(a, b), a - b);
        prop_assert_eq!(AluOp::Mul.apply(a, b), a * b);
        prop_assert_eq!(AluOp::Max.apply(a, b), a.max(b));
        prop_assert_eq!(AluOp::Gt.apply(a, b), if a > b { 1.0 } else { 0.0 });
        prop_assert_eq!(AluOp::Mov.apply(a, b), a);
    }
}
