//! The compiled page walk: the extraction hot path.
//!
//! [`crate::machine::StriderMachine`] is the cycle-model reference: it
//! executes a Strider program one instruction at a time, staging every
//! tuple through `readB`, draining its header with `cln` and copying the
//! user data out with `writeB`. For the one program shape the code
//! generator actually emits, that whole loop has a closed form: the live
//! count and first line pointer come from the page header, tuple `k`
//! starts `k` strides from the first, and the cycles are
//! [`crate::codegen::estimated_cycles_per_page`]. [`PageWalk`] is that
//! closed form. It yields each tuple's user-data slice straight from the
//! page bytes, copying nothing.
//!
//! A kernel only exists for a program that matches the generated walk
//! instruction for instruction (the listings below are kept here, apart
//! from the code generator, so a codegen change makes programs stop
//! matching instead of silently diverging). And it only takes pages whose
//! walk stays inside the page with every offset in range; any other page
//! — a count above capacity, a line pointer near the page end, a
//! descending walk that would saturate at offset 0 — returns `None` and
//! the caller runs the interpreter, so records, cycles and errors stay
//! the reference's on every input.

use dana_storage::page::TupleDirection;

use crate::asm::assemble;
use crate::codegen::page_walk_cycles;
use crate::isa::{config_regs, Instr, Reg};

/// Header offset of the live tuple count (`u16`), the walk's first read.
const COUNT_OFFSET: usize = 16;
/// Header offset of the first line pointer's tuple offset (`u16`).
const FIRST_POINTER_OFFSET: usize = 24;
/// Page bytes the header reads need (`readB 24, 4`).
const HEADER_READ_END: usize = FIRST_POINTER_OFFSET + 4;

/// The walk the kernel implements, minus its step instruction.
const WALK_HEAD: &str = "\
readB 16, 2, %t1
readB 24, 4, %t2
extrB 0, 2, %t2
ad %t2, 0, %t0
ad 0, 0, %t3
bentr
readB %t0, %cr2, %t4
cln 0, %cr5, 0
writeB 0, 0, 0
";
const ASCENDING_STEP: &str = "ad %t0, %cr2, %t0\n";
const DESCENDING_STEP: &str = "sub %t0, %cr2, %t0\n";
const WALK_TAIL: &str = "\
ad %t3, 1, %t3
bexit 1, %t3, %t1
";

/// The live tuple count a page header declares, or `None` when the page
/// is too short to hold one. The host reads it before starting a Strider:
/// the generated loop is do-while, so a page declaring no tuples would
/// otherwise emit its own header as one bogus record.
pub(crate) fn live_count(page: &[u8]) -> Option<u16> {
    read_u16(page, COUNT_OFFSET)
}

fn read_u16(page: &[u8], at: usize) -> Option<u16> {
    let b = page.get(at..at + 2)?;
    Some(u16::from_le_bytes([b[0], b[1]]))
}

/// A Strider page-walk program compiled to a straight-line kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWalk {
    direction: TupleDirection,
    /// On-page tuple size (`%cr2`).
    stride: usize,
    /// Tuple header bytes `cln` strips (`%cr5`).
    header: usize,
    /// Tuples per page (`%cr1`): a larger live count is left to the
    /// interpreter.
    capacity: usize,
}

impl PageWalk {
    /// Compiles `program` under configuration registers `config`, or
    /// returns `None` when the program is not the generated page walk (or
    /// its registers describe a degenerate tuple with no user data).
    pub fn compile(program: &[Instr], config: &[u64; 16]) -> Option<PageWalk> {
        let direction = [TupleDirection::Ascending, TupleDirection::Descending]
            .into_iter()
            .find(|&d| expected_program(d).as_deref() == Some(program))?;
        let reg = |r: Reg| usize::try_from(config[r.0 as usize]).ok();
        let stride = reg(config_regs::TUPLE_BYTES)?;
        let header = reg(config_regs::TUPLE_HEADER)?;
        let capacity = reg(config_regs::TUPLES_PER_PAGE)?;
        // `readB`/`writeB` of zero bytes still cost a cycle, which the
        // closed-form count does not model: leave such walks interpreted.
        if header >= stride {
            return None;
        }
        Some(PageWalk {
            direction,
            stride,
            header,
            capacity,
        })
    }

    /// User-data bytes per record.
    pub(crate) fn record_bytes(&self) -> usize {
        self.stride - self.header
    }

    /// Plans the walk of one page, or `None` when the page needs the
    /// interpreter: too short for the header reads, a live count of zero
    /// or above capacity, or any tuple outside the page.
    pub fn walk<'p>(&self, page: &'p [u8]) -> Option<WalkedPage<'p>> {
        if page.len() < HEADER_READ_END {
            return None;
        }
        let count = usize::from(live_count(page)?);
        if count == 0 || count > self.capacity {
            return None;
        }
        let first = usize::from(read_u16(page, FIRST_POINTER_OFFSET)?);
        let span = (count - 1).checked_mul(self.stride)?;
        // Start of the highest-addressed tuple the walk visits.
        let highest = match self.direction {
            TupleDirection::Ascending => first.checked_add(span)?,
            TupleDirection::Descending => {
                // `sub` saturates at 0: an offset that would underflow
                // reads the page start instead, which only the
                // interpreter models.
                first.checked_sub(span)?;
                first
            }
        };
        if highest.checked_add(self.stride)? > page.len() {
            return None;
        }
        Some(WalkedPage {
            page,
            walk: *self,
            first,
            count,
        })
    }
}

/// The generated walk for one tuple direction, assembled from the
/// listings above.
fn expected_program(direction: TupleDirection) -> Option<Vec<Instr>> {
    let step = match direction {
        TupleDirection::Ascending => ASCENDING_STEP,
        TupleDirection::Descending => DESCENDING_STEP,
    };
    assemble(&format!("{WALK_HEAD}{step}{WALK_TAIL}")).ok()
}

/// One page's planned walk: every tuple is known to lie inside the page.
#[derive(Debug, Clone, Copy)]
pub struct WalkedPage<'p> {
    page: &'p [u8],
    walk: PageWalk,
    first: usize,
    count: usize,
}

impl<'p> WalkedPage<'p> {
    /// Records the walk emits (at least one).
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Strider cycles the interpreter would charge for this page.
    pub fn cycles(&self) -> u64 {
        page_walk_cycles(
            self.walk.stride as u64,
            self.walk.record_bytes() as u64,
            self.count as u64,
        )
    }

    /// Each tuple's user data, in walk order, borrowed from the page.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &'p [u8]> + 'p {
        let WalkedPage {
            page,
            walk,
            first,
            count,
        } = *self;
        (0..count).map(move |k| {
            let start = match walk.direction {
                TupleDirection::Ascending => first + k * walk.stride,
                TupleDirection::Descending => first - k * walk.stride,
            };
            &page[start + walk.header..start + walk.stride]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::strider_program_for_layout;
    use crate::isa::{Opcode, Operand};
    use crate::machine::StriderMachine;
    use dana_storage::{HeapFile, HeapFileBuilder, Schema, Tuple};

    fn heap(dir: TupleDirection, n: usize, features: usize) -> HeapFile {
        let mut b = HeapFileBuilder::new(Schema::training(features), 8 * 1024, dir).unwrap();
        for k in 0..n {
            let x: Vec<f32> = (0..features).map(|i| (k * 31 + i) as f32).collect();
            b.insert(&Tuple::training(&x, k as f32)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn generated_programs_compile_in_both_directions() {
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let h = heap(dir, 300, 9);
            let (prog, config) = strider_program_for_layout(h.layout());
            let walk = PageWalk::compile(&prog, &config).expect("generated walk compiles");
            assert_eq!(walk.direction, dir);
            assert_eq!(walk.record_bytes(), h.layout().tuple_data_bytes());
        }
    }

    #[test]
    fn kernel_matches_the_interpreter_on_every_page() {
        for dir in [TupleDirection::Ascending, TupleDirection::Descending] {
            let h = heap(dir, 451, 6);
            let (prog, config) = strider_program_for_layout(h.layout());
            let walk = PageWalk::compile(&prog, &config).unwrap();
            let machine = StriderMachine::new(prog, config);
            for p in 0..h.page_count() {
                let page = h.page_bytes(p).unwrap();
                let run = machine.run(page).unwrap();
                let kernel = walk.walk(page).expect("well-formed page takes the kernel");
                assert_eq!(kernel.cycles(), run.cycles, "{dir:?} page {p}");
                assert!(kernel.records().eq(run.records()), "{dir:?} page {p}");
            }
        }
    }

    #[test]
    fn any_other_program_stays_on_the_interpreter() {
        let h = heap(TupleDirection::Ascending, 10, 4);
        let (prog, config) = strider_program_for_layout(h.layout());
        // A different header offset for the count read.
        let mut moved = prog.clone();
        moved[0] = Instr::new(
            Opcode::ReadB,
            Operand::Imm(18),
            Operand::Imm(2),
            Operand::Reg(Reg::t(1)),
        );
        assert!(PageWalk::compile(&moved, &config).is_none());
        // One extra instruction anywhere.
        let mut longer = prog.clone();
        longer.insert(
            8,
            Instr::new(Opcode::Ad, Operand::ZERO, Operand::ZERO, Operand::ZERO),
        );
        assert!(PageWalk::compile(&longer, &config).is_none());
        // A header as wide as the tuple leaves no user data.
        let mut degenerate = config;
        degenerate[config_regs::TUPLE_HEADER.0 as usize] =
            degenerate[config_regs::TUPLE_BYTES.0 as usize];
        assert!(PageWalk::compile(&prog, &degenerate).is_none());
    }

    #[test]
    fn out_of_range_walks_are_declined() {
        let h = heap(TupleDirection::Descending, 20, 4);
        let (prog, config) = strider_program_for_layout(h.layout());
        let walk = PageWalk::compile(&prog, &config).unwrap();
        let page = h.page_bytes(0).unwrap().to_vec();
        assert!(walk.walk(&page).is_some());
        assert!(walk.walk(&page[..HEADER_READ_END - 1]).is_none());

        let with = |at: usize, v: u16| {
            let mut p = page.clone();
            p[at..at + 2].copy_from_slice(&v.to_le_bytes());
            p
        };
        // No live tuples, or more than fit.
        assert!(walk.walk(&with(COUNT_OFFSET, 0)).is_none());
        let over = h.layout().capacity + 1;
        assert!(walk.walk(&with(COUNT_OFFSET, over)).is_none());
        // First tuple running off the page end.
        let near_end = (page.len() - h.layout().tuple_bytes + 1) as u16;
        assert!(walk.walk(&with(FIRST_POINTER_OFFSET, near_end)).is_none());
        // A descending walk that would saturate below offset 0.
        assert!(walk.walk(&with(FIRST_POINTER_OFFSET, 8)).is_none());
    }
}
