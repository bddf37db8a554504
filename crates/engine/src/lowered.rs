//! Deploy-time program lowering and the SoA lockstep executor — the
//! engine's hot path.
//!
//! The paper's premise is that all resolution work happens at DEPLOY:
//! "the hDFG does not change, there is no hardware managed cache, and the
//! accelerator architecture is fixed during execution" (§6.1). The
//! [`crate::engine::ExecutionEngine`] interpreter honors that for cycle
//! *accounting* but still pays interpretation cost per op per tuple:
//! `MicroOp`/`Src` enum dispatch, `au * slots + slot` flattening, and a
//! dynamic read-before-write staging buffer for intra-step hazards.
//!
//! [`lower`] runs once, at deploy, and removes all of it:
//!
//! * every `Src`/`Loc` is resolved to a raw scratchpad word offset;
//! * constants are inlined (`Const ⊕ Const` folds to an immediate, `Mov`
//!   becomes a copy or an immediate store);
//! * gather/scatter row bases and model shapes are pre-bound into the op;
//! * intra-step read-after-write hazards are resolved *statically*:
//!   hazardous writes are redirected to staging slots appended past the
//!   architectural scratchpad, and drain copies are emitted after the
//!   step — the runtime loop has no `writes` buffer and no hazard branch.
//!
//! Execution is **group-at-a-time** over a slot-major structure-of-arrays
//! scratchpad: word `w` of thread `t` lives at `buf[w * threads + t]`, so
//! one lowered ALU op executes across all active lockstep threads in a
//! tight, auto-vectorizable inner loop — the software analogue of the
//! paper's lockstep thread model (§5.2). Programs whose per-tuple region
//! touches the shared model memory (LRMF's gather/scatter) run
//! thread-at-a-time instead, preserving the interpreter's thread ordering
//! of model-memory traffic exactly.
//!
//! The executor is held bit-identical to both retained interpreter tiers
//! (`run_training_interpreter`, `run_training_rows`) — models *and* cycle
//! stats — by the equivalence suite and the randomized differential tests
//! in `tests/lowered_differential.rs`.

use dana_dsl::MergeOp;
use dana_storage::TupleSource;

use crate::engine::{
    step_is_hazard_free, EngineDesign, EngineStats, MergePlan, ModelStore, ModelWrite, BUS_WORDS,
    MODEL_PORTS,
};
use crate::error::{EngineError, EngineResult};
use crate::isa::{AluOp, Loc, MicroOp, Src, Step};

/// Gather/scatter row index operand, pre-resolved at lower time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LowIdx {
    /// Read the row index from a scratchpad word offset.
    Slot(u32),
    /// Immediate row index (constant-folded).
    Const(f32),
}

/// One fully resolved micro-op: raw word offsets, inlined immediates,
/// pre-bound model shapes. No `Loc` arithmetic, no operand dispatch.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LoweredOp {
    /// `buf[dst] ← op(buf[a], buf[b])`
    Bin { op: AluOp, a: u32, b: u32, dst: u32 },
    /// `buf[dst] ← op(imm, buf[b])`
    BinImmA {
        op: AluOp,
        imm: f32,
        b: u32,
        dst: u32,
    },
    /// `buf[dst] ← op(buf[a], imm)`
    BinImmB {
        op: AluOp,
        a: u32,
        imm: f32,
        dst: u32,
    },
    /// `buf[dst] ← v` (folded constants, constant `Mov`s)
    Imm { v: f32, dst: u32 },
    /// `buf[dst] ← buf[src]` (slot `Mov`s and staging drains)
    Copy { src: u32, dst: u32 },
    /// Model row gather with pre-bound shape and destination offsets.
    Gather {
        model: u8,
        rows: u32,
        cols: u32,
        index: LowIdx,
        dst: Vec<u32>,
    },
    /// Model row scatter with pre-bound shape and source offsets.
    Scatter {
        model: u8,
        rows: u32,
        cols: u32,
        index: LowIdx,
        src: Vec<u32>,
    },
}

/// Dense-model broadcast with destination offsets pre-resolved.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoweredBroadcast {
    pub model: u8,
    pub dst: Vec<u32>,
}

/// Tree-bus merge over pre-resolved word offsets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoweredMerge {
    pub op: MergeOp,
    pub slots: Vec<u32>,
}

/// Model write-back with offsets and shapes pre-bound.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LoweredModelWrite {
    Whole {
        model: u8,
        src: Vec<u32>,
    },
    Row {
        model: u8,
        rows: u32,
        cols: u32,
        index: u32,
        src: Vec<u32>,
    },
}

/// The deploy-time lowering artifact: everything the runtime loop needs,
/// pre-resolved. Produced once by [`lower`] (at compile/deploy), carried
/// through the catalog inside the accelerator's artifact blob, and
/// executed by its streaming loop (`LoweredProgram::run_streaming`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoweredProgram {
    /// Architectural words per thread (`aus × slots_per_au`).
    pub(crate) arch_words: u32,
    /// Architectural words plus the staging slots appended by hazard
    /// resolution — the lowered scratchpad size per thread.
    pub(crate) words_per_thread: u32,
    pub(crate) per_tuple: Vec<LoweredOp>,
    pub(crate) post_merge: Vec<LoweredOp>,
    /// True when the per-tuple region reads or writes the shared model
    /// memory (gather/scatter): threads then execute one at a time so
    /// model-memory traffic interleaves exactly as on the interpreter.
    /// Dense programs run op-lockstep across the whole group.
    pub(crate) sequential: bool,
    pub(crate) input_offsets: Vec<u32>,
    pub(crate) output_offsets: Vec<u32>,
    pub(crate) meta: Vec<(u32, f32)>,
    pub(crate) broadcasts: Vec<LoweredBroadcast>,
    pub(crate) merge: Option<LoweredMerge>,
    pub(crate) model_writes: Vec<LoweredModelWrite>,
    /// Word offset of the convergence-condition slot, if any.
    pub(crate) convergence_slot: Option<u32>,
    pub(crate) per_tuple_cycles: u64,
    pub(crate) post_merge_cycles: u64,
    pub(crate) gather_elems: u64,
}

/// Lowers a validated design's programs and data bindings into a
/// [`LoweredProgram`]. Pure and deterministic: lowering the same design
/// always produces the same artifact.
pub fn lower(d: &EngineDesign) -> LoweredProgram {
    let slots = d.slots_per_au as usize;
    let arch_words = d.aus_per_thread() as usize * slots;
    let flat = |l: &Loc| (l.au as usize * slots + l.slot as usize) as u32;
    let mut words_high = arch_words;

    let mut lower_steps = |steps: &[Step]| -> Vec<LoweredOp> {
        let mut out = Vec::new();
        for step in steps {
            let direct = step_is_hazard_free(step, slots);
            // Staging slots are assigned per step and reused across steps:
            // drains empty them before the next step issues.
            let mut next_stage = arch_words as u32;
            let mut drains: Vec<(u32, u32)> = Vec::new();
            let mut stage = |real: u32, drains: &mut Vec<(u32, u32)>| -> u32 {
                let s = next_stage;
                next_stage += 1;
                drains.push((s, real));
                s
            };
            for op in &step.ops {
                match op {
                    MicroOp::Alu { au, op, a, b, dst } => {
                        let real = (*au as usize * slots + *dst as usize) as u32;
                        let dst = if direct {
                            real
                        } else {
                            stage(real, &mut drains)
                        };
                        out.push(lower_alu(*op, a, b, dst, &flat));
                    }
                    MicroOp::Gather { model, index, dst } => {
                        let m = &d.models[*model as usize];
                        let dst: Vec<u32> = dst
                            .iter()
                            .map(|l| {
                                let real = flat(l);
                                if direct {
                                    real
                                } else {
                                    stage(real, &mut drains)
                                }
                            })
                            .collect();
                        out.push(LoweredOp::Gather {
                            model: *model,
                            rows: m.rows as u32,
                            cols: m.cols as u32,
                            index: lower_idx(index, &flat),
                            dst,
                        });
                    }
                    MicroOp::Scatter { model, index, src } => {
                        // Scatter reads scratchpad (pre-step values — the
                        // staged writes haven't drained) and writes model
                        // memory: never staged.
                        let m = &d.models[*model as usize];
                        out.push(LoweredOp::Scatter {
                            model: *model,
                            rows: m.rows as u32,
                            cols: m.cols as u32,
                            index: lower_idx(index, &flat),
                            src: src.iter().map(&flat).collect(),
                        });
                    }
                }
            }
            out.extend(
                drains
                    .into_iter()
                    .map(|(src, dst)| LoweredOp::Copy { src, dst }),
            );
            words_high = words_high.max(next_stage as usize);
        }
        out
    };

    let per_tuple = lower_steps(&d.program.per_tuple);
    let post_merge = lower_steps(&d.program.post_merge);
    let sequential = d
        .program
        .per_tuple
        .iter()
        .flat_map(|s| &s.ops)
        .any(|o| matches!(o, MicroOp::Gather { .. } | MicroOp::Scatter { .. }));

    let broadcasts = d
        .models
        .iter()
        .enumerate()
        .filter_map(|(mi, m)| {
            m.broadcast_slots.as_ref().map(|slots| LoweredBroadcast {
                model: mi as u8,
                dst: slots.iter().map(&flat).collect(),
            })
        })
        .collect();
    let merge = match &d.merge {
        MergePlan::None => None,
        MergePlan::Whole { op, slots } => Some(LoweredMerge {
            op: *op,
            slots: slots.iter().map(&flat).collect(),
        }),
    };
    let model_writes = d
        .model_writes
        .iter()
        .map(|w| match w {
            ModelWrite::Whole { model, src } => LoweredModelWrite::Whole {
                model: *model,
                src: src.iter().map(&flat).collect(),
            },
            ModelWrite::Row { model, index, src } => {
                let m = &d.models[*model as usize];
                LoweredModelWrite::Row {
                    model: *model,
                    rows: m.rows as u32,
                    cols: m.cols as u32,
                    index: flat(index),
                    src: src.iter().map(&flat).collect(),
                }
            }
        })
        .collect();
    let convergence_slot = match &d.convergence {
        crate::engine::ConvergenceCheck::Epochs(_) => None,
        crate::engine::ConvergenceCheck::Condition { slot, .. } => Some(flat(slot)),
    };
    let gather_elems = d
        .program
        .per_tuple
        .iter()
        .flat_map(|s| &s.ops)
        .map(|o| match o {
            MicroOp::Gather { dst, .. } => dst.len() as u64,
            _ => 0,
        })
        .sum();

    LoweredProgram {
        arch_words: arch_words as u32,
        words_per_thread: words_high as u32,
        per_tuple,
        post_merge,
        sequential,
        input_offsets: d.input_slots.iter().map(&flat).collect(),
        output_offsets: d.output_slots.iter().map(&flat).collect(),
        meta: d.meta.iter().map(|(l, v)| (flat(l), *v)).collect(),
        broadcasts,
        merge,
        model_writes,
        convergence_slot,
        per_tuple_cycles: d.program.per_tuple_cycles(),
        post_merge_cycles: d.program.post_merge_cycles(),
        gather_elems,
    }
}

fn lower_idx(index: &Src, flat: &impl Fn(&Loc) -> u32) -> LowIdx {
    match index {
        Src::Slot(l) => LowIdx::Slot(flat(l)),
        Src::Const(c) => LowIdx::Const(*c),
    }
}

fn lower_alu(op: AluOp, a: &Src, b: &Src, dst: u32, flat: &impl Fn(&Loc) -> u32) -> LoweredOp {
    match (op, a, b) {
        (AluOp::Mov, Src::Slot(l), _) => LoweredOp::Copy { src: flat(l), dst },
        (AluOp::Mov, Src::Const(c), _) => LoweredOp::Imm { v: *c, dst },
        (op, Src::Const(ca), Src::Const(cb)) => LoweredOp::Imm {
            v: op.apply(*ca, *cb),
            dst,
        },
        (op, Src::Slot(la), Src::Slot(lb)) => LoweredOp::Bin {
            op,
            a: flat(la),
            b: flat(lb),
            dst,
        },
        (op, Src::Const(ca), Src::Slot(lb)) => LoweredOp::BinImmA {
            op,
            imm: *ca,
            b: flat(lb),
            dst,
        },
        (op, Src::Slot(la), Src::Const(cb)) => LoweredOp::BinImmB {
            op,
            a: flat(la),
            imm: *cb,
            dst,
        },
    }
}

/// Per-run scratch state: the slot-major SoA buffer plus the group's
/// buffered tuples. Allocated once per training run; the engine itself
/// stays shared and immutable across concurrent queries.
pub(crate) struct SoaWorkspace {
    /// `words_per_thread × stride` f32 words, slot-major: word `w` of
    /// thread `t` at `buf[w * stride + t]`.
    buf: Vec<f32>,
    /// Tuples buffered for the current group, row-major `[thread][width]`.
    group: Vec<f32>,
    stride: usize,
    width: usize,
}

/// SoA elements one lowered op touches per lane (scalar ops move one
/// word; gather/scatter move a model row's worth).
fn op_elems(op: &LoweredOp) -> u64 {
    match op {
        LoweredOp::Gather { dst, .. } => dst.len() as u64,
        LoweredOp::Scatter { src, .. } => src.len() as u64,
        _ => 1,
    }
}

impl LoweredProgram {
    /// Lowered scratchpad words per thread (architectural + staging).
    pub fn words_per_thread(&self) -> usize {
        self.words_per_thread as usize
    }

    /// SoA inner-loop elements ("lane-ops") the CPU tier executes per
    /// tuple: every per-tuple op touches one element per lane, and every
    /// dense-model broadcast element is refilled per lane per group. The
    /// backend advisor divides this by the calibrated lane rate to
    /// estimate CPU seconds per tuple.
    pub fn per_tuple_lane_ops(&self) -> u64 {
        let ops: u64 = self.per_tuple.iter().map(op_elems).sum();
        let broadcast: u64 = self.broadcasts.iter().map(|b| b.dst.len() as u64).sum();
        ops + broadcast
    }

    /// Elements touched once per thread group (post-merge region, tree
    /// merge, model write-back) — amortized across the group's lanes by
    /// the advisor's cost model.
    pub fn per_group_ops(&self) -> u64 {
        let post: u64 = self.post_merge.iter().map(op_elems).sum();
        let merge = self.merge.as_ref().map_or(0, |m| m.slots.len() as u64);
        let writes: u64 = self
            .model_writes
            .iter()
            .map(|w| match w {
                LoweredModelWrite::Whole { src, .. } => src.len() as u64,
                LoweredModelWrite::Row { src, .. } => src.len() as u64,
            })
            .sum();
        post + merge + writes
    }

    /// True when the per-tuple region runs op-lockstep across the whole
    /// thread group (no model-memory traffic inside the region).
    pub fn is_lockstep(&self) -> bool {
        !self.sequential
    }

    /// Structural consistency check against a design — used when restoring
    /// a lowered artifact from the catalog so a mismatched, corrupt, or
    /// hand-edited blob falls back to re-lowering instead of executing
    /// out-of-bounds offsets or silently-wrong pre-bound model shapes.
    /// Covers *every* offset the executor dereferences (programs, loads,
    /// meta, broadcasts, merge, model writes, convergence) and every
    /// pre-bound model index/shape.
    pub fn is_consistent_with(&self, d: &EngineDesign) -> bool {
        let arch = d.aus_per_thread() as u32 * d.slots_per_au as u32;
        if self.arch_words != arch || self.words_per_thread < self.arch_words {
            return false;
        }
        let words = self.words_per_thread;
        let off_ok = |o: &u32| *o < words;
        let idx_ok = |i: &LowIdx| match i {
            LowIdx::Slot(o) => off_ok(o),
            LowIdx::Const(_) => true,
        };
        // A pre-bound (model, rows, cols) triple must name a real model and
        // match its true shape — a shape mismatch would compute wrong row
        // bases without ever going out of bounds.
        let shape_ok = |model: u8, rows: u32, cols: u32| {
            d.models
                .get(model as usize)
                .is_some_and(|m| m.rows as u32 == rows && m.cols as u32 == cols)
        };
        let op_ok = |op: &LoweredOp| match op {
            LoweredOp::Bin { a, b, dst, .. } => off_ok(a) && off_ok(b) && off_ok(dst),
            LoweredOp::BinImmA { b, dst, .. } => off_ok(b) && off_ok(dst),
            LoweredOp::BinImmB { a, dst, .. } => off_ok(a) && off_ok(dst),
            LoweredOp::Imm { dst, .. } => off_ok(dst),
            LoweredOp::Copy { src, dst } => off_ok(src) && off_ok(dst),
            LoweredOp::Gather {
                model,
                rows,
                cols,
                index,
                dst,
            } => {
                shape_ok(*model, *rows, *cols)
                    && idx_ok(index)
                    && dst.len() <= *cols as usize
                    && dst.iter().all(off_ok)
            }
            LoweredOp::Scatter {
                model,
                rows,
                cols,
                index,
                src,
            } => {
                shape_ok(*model, *rows, *cols)
                    && idx_ok(index)
                    && src.len() <= *cols as usize
                    && src.iter().all(off_ok)
            }
        };
        let broadcasts_ok = self.broadcasts.iter().all(|b| {
            d.models.get(b.model as usize).is_some_and(|m| {
                m.broadcast_slots.is_some()
                    && b.dst.len() == m.elements()
                    && b.dst.iter().all(off_ok)
            })
        });
        let merge_ok = self
            .merge
            .as_ref()
            .is_none_or(|m| m.slots.iter().all(off_ok));
        let writes_ok = self.model_writes.iter().all(|w| match w {
            LoweredModelWrite::Whole { model, src } => {
                d.models
                    .get(*model as usize)
                    .is_some_and(|m| src.len() == m.elements())
                    && src.iter().all(off_ok)
            }
            LoweredModelWrite::Row {
                model,
                rows,
                cols,
                index,
                src,
            } => {
                shape_ok(*model, *rows, *cols)
                    && off_ok(index)
                    && src.len() <= *cols as usize
                    && src.iter().all(off_ok)
            }
        });
        self.per_tuple.iter().all(op_ok)
            && self.post_merge.iter().all(op_ok)
            && self.input_offsets.iter().all(off_ok)
            && self.output_offsets.iter().all(off_ok)
            && self.meta.iter().all(|(o, _)| off_ok(o))
            && broadcasts_ok
            && merge_ok
            && writes_ok
            && self.convergence_slot.as_ref().is_none_or(off_ok)
    }

    fn workspace(&self, threads: usize, width: usize) -> SoaWorkspace {
        let stride = threads.max(1);
        let mut buf = vec![0.0f32; self.words_per_thread() * stride];
        // Meta constants: configuration data, loaded once, to every thread.
        for &(off, v) in &self.meta {
            let base = off as usize * stride;
            buf[base..base + stride].fill(v);
        }
        SoaWorkspace {
            buf,
            group: vec![0.0f32; stride * width],
            stride,
            width,
        }
    }

    /// Runs training to convergence from a streaming source — the lowered
    /// twin of the interpreter's `run_training`, bit-identical in models
    /// and stats. Internally this is just the epoch loop over a
    /// [`TrainingSession`], so the serial path and the gang-scheduled
    /// shard path (which merges models at every epoch boundary) execute
    /// the exact same per-epoch code.
    pub(crate) fn run_streaming(
        &self,
        d: &EngineDesign,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<EngineStats> {
        Ok(self.run_streaming_logged(d, source, store)?.0)
    }

    /// [`LoweredProgram::run_streaming`], also yielding the per-epoch
    /// cycle log.
    pub(crate) fn run_streaming_logged(
        &self,
        d: &EngineDesign,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<(EngineStats, Vec<u64>)> {
        let mut session = TrainingSession::new(self, d.num_threads as usize);
        let max_epochs = d.convergence.max_epochs();
        let mut epochs_run = 0u32;
        let mut converged_early = false;
        for epoch in 0..max_epochs {
            if epoch > 0 {
                source.rewind().map_err(EngineError::from)?;
            }
            let converged = session.run_epoch(source, store)?;
            epochs_run += 1;
            if converged {
                converged_early = true;
                break;
            }
        }
        Ok(session.finish_logged(epochs_run, converged_early))
    }

    /// One streaming epoch: buffer tuples into the group, flush full
    /// groups, flush the final partial group at end of scan. Returns
    /// whether the convergence condition fired.
    fn run_epoch(
        &self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
        ws: &mut SoaWorkspace,
        stats: &mut EngineStats,
    ) -> EngineResult<bool> {
        let threads = ws.stride;
        let width = ws.width;
        let mut active = 0usize;
        while let Some(batch) = source.next_batch().map_err(EngineError::from)? {
            if batch.width() != width {
                return Err(EngineError::TupleWidth {
                    got: batch.width(),
                    expected: width,
                });
            }
            for tuple in batch.rows() {
                ws.group[active * width..(active + 1) * width].copy_from_slice(tuple);
                active += 1;
                if active == threads {
                    self.flush_group(active, ws, store, stats)?;
                    active = 0;
                }
            }
        }
        if active > 0 {
            self.flush_group(active, ws, store, stats)?;
        }
        stats.cycles = stats.compute_cycles + stats.merge_cycles + stats.broadcast_cycles;
        if let Some(off) = self.convergence_slot {
            return Ok(ws.buf[off as usize * ws.stride] != 0.0);
        }
        Ok(false)
    }

    /// One thread group: broadcast → load → per-tuple program (lockstep or
    /// sequential) → merge → post-merge on thread 0 → model write-back.
    /// The broadcast→load→execute ordering matches the interpreter's
    /// per-group sequence exactly.
    fn flush_group(
        &self,
        active: usize,
        ws: &mut SoaWorkspace,
        store: &mut ModelStore,
        stats: &mut EngineStats,
    ) -> EngineResult<()> {
        let stride = ws.stride;
        // Dense models stream once over the shared bus; all threads listen.
        for b in &self.broadcasts {
            let values = store.model(b.model as usize);
            for (&off, &v) in b.dst.iter().zip(values) {
                let base = off as usize * stride;
                ws.buf[base..base + stride].fill(v);
            }
            stats.broadcast_cycles += (values.len() as u64).div_ceil(BUS_WORDS);
        }
        // Load the buffered tuples into the SoA columns.
        for t in 0..active {
            let row = &ws.group[t * ws.width..(t + 1) * ws.width];
            for (k, &off) in self.input_offsets.iter().enumerate() {
                ws.buf[off as usize * stride + t] = row[k];
            }
            let base = self.input_offsets.len();
            for (k, &off) in self.output_offsets.iter().enumerate() {
                ws.buf[off as usize * stride + t] = row[base + k];
            }
        }
        // Per-tuple region.
        if self.sequential {
            for t in 0..active {
                exec_thread(&self.per_tuple, t, &mut ws.buf, stride, store)?;
            }
        } else {
            exec_lockstep(&self.per_tuple, active, &mut ws.buf, stride);
        }
        stats.compute_cycles += self.per_tuple_cycles;
        if self.gather_elems > 0 {
            stats.merge_cycles += (active as u64 * self.gather_elems).div_ceil(MODEL_PORTS);
        }
        stats.merge_cycles += self.merge(active, ws);
        // Post-merge region on thread 0.
        exec_thread(&self.post_merge, 0, &mut ws.buf, stride, store)?;
        stats.compute_cycles += self.post_merge_cycles;
        stats.merge_cycles += self.write_models(active, ws, store)?;
        stats.batches += 1;
        stats.tuples_processed += active as u64;
        Ok(())
    }

    /// Tree-bus merge into thread 0 — the rows are contiguous in the SoA
    /// layout, so each fold runs over adjacent words.
    fn merge(&self, active: usize, ws: &mut SoaWorkspace) -> u64 {
        let Some(m) = &self.merge else {
            return 0;
        };
        if active <= 1 {
            return 0;
        }
        for &off in &m.slots {
            let base = off as usize * ws.stride;
            let row = &mut ws.buf[base..base + active];
            let mut acc = row[0];
            for &v in row.iter().take(active).skip(1) {
                acc = match m.op {
                    MergeOp::Sum | MergeOp::Avg => acc + v,
                    MergeOp::Max => acc.max(v),
                };
            }
            if m.op == MergeOp::Avg {
                acc /= active as f32;
            }
            row[0] = acc;
        }
        m.slots.len() as u64 + (64 - (active as u64 - 1).leading_zeros() as u64)
    }

    /// Model write-back. Row writes validate every thread's row index
    /// *before* charging port-contention cycles or touching model memory —
    /// an out-of-range row must not inflate `merge_cycles` on the error
    /// path (nor partially apply the scatter).
    fn write_models(
        &self,
        active: usize,
        ws: &SoaWorkspace,
        store: &mut ModelStore,
    ) -> EngineResult<u64> {
        let stride = ws.stride;
        let buf = &ws.buf;
        let mut cycles = 0u64;
        for w in &self.model_writes {
            match w {
                LoweredModelWrite::Whole { model, src } => {
                    let m = store.model_mut(*model as usize);
                    debug_assert_eq!(m.len(), src.len());
                    for (k, &off) in src.iter().enumerate() {
                        m[k] = buf[off as usize * stride];
                    }
                    cycles += (src.len() as u64).div_ceil(BUS_WORDS);
                }
                LoweredModelWrite::Row {
                    model,
                    rows,
                    cols,
                    index,
                    src,
                } => {
                    let idx_base = *index as usize * stride;
                    for t in 0..active {
                        let row = buf[idx_base + t].round() as i64;
                        if row < 0 || row as u32 >= *rows {
                            return Err(EngineError::RowOutOfRange {
                                model: *model,
                                row,
                                rows: *rows as usize,
                            });
                        }
                    }
                    // Every active thread scatters its row through the
                    // shared model-memory ports (§7.2's LRMF overhead).
                    cycles += (active as u64 * src.len() as u64).div_ceil(MODEL_PORTS);
                    let m = store.model_mut(*model as usize);
                    for t in 0..active {
                        let base = buf[idx_base + t].round() as usize * *cols as usize;
                        for (k, &off) in src.iter().enumerate() {
                            m[base + k] = buf[off as usize * stride + t];
                        }
                    }
                }
            }
        }
        Ok(cycles)
    }
}

/// One training run's mutable engine state, held **epoch-at-a-time**: the
/// SoA workspace and the accumulated cycle counters, with the model store
/// supplied per epoch by the caller.
///
/// This is the seam intra-query data parallelism hangs off: the serial
/// path (`run_streaming`) loops epochs over one session, while the gang
/// executor in `dana-parallel` runs one session **per shard**, joins them
/// at every epoch boundary, and feeds each the *merged* model for the
/// next epoch. Because both paths share this per-epoch code verbatim, a
/// one-shard gang is bit-identical — models and stats — to the serial
/// run.
pub struct TrainingSession<'e> {
    lowered: &'e LoweredProgram,
    ws: SoaWorkspace,
    stats: EngineStats,
    width: usize,
    /// Engine cycles charged by each completed epoch, in order — the
    /// observability layer's per-epoch span source. Cycle deltas, so the
    /// log always sums to `stats.cycles`.
    epoch_cycles: Vec<u64>,
}

impl<'e> TrainingSession<'e> {
    pub(crate) fn new(lowered: &'e LoweredProgram, threads: usize) -> TrainingSession<'e> {
        let width = lowered.input_offsets.len() + lowered.output_offsets.len();
        TrainingSession {
            ws: lowered.workspace(threads, width),
            lowered,
            stats: EngineStats::default(),
            width,
            epoch_cycles: Vec::new(),
        }
    }

    /// Runs one full epoch over `source` (the caller rewinds between
    /// epochs, exactly like the serial loop), training into `store`.
    /// Returns whether the design's convergence condition fired.
    pub fn run_epoch(
        &mut self,
        source: &mut dyn TupleSource,
        store: &mut ModelStore,
    ) -> EngineResult<bool> {
        if source.width() != self.width {
            return Err(EngineError::TupleWidth {
                got: source.width(),
                expected: self.width,
            });
        }
        let before = self.stats.cycles;
        let converged = self
            .lowered
            .run_epoch(source, store, &mut self.ws, &mut self.stats)?;
        self.epoch_cycles.push(self.stats.cycles - before);
        Ok(converged)
    }

    /// Cycle counters accumulated so far (epoch bookkeeping is the epoch
    /// loop's job, so `epochs_run`/`converged_early` are still zero here).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The per-epoch cycle deltas recorded so far (one entry per
    /// completed [`TrainingSession::run_epoch`] call).
    pub fn epoch_cycle_log(&self) -> &[u64] {
        &self.epoch_cycles
    }

    /// Seals the run: stamps the epoch-loop outcome onto the accumulated
    /// counters.
    pub fn finish(self, epochs_run: u32, converged_early: bool) -> EngineStats {
        self.finish_logged(epochs_run, converged_early).0
    }

    /// [`TrainingSession::finish`], also yielding the per-epoch cycle log
    /// for the lifecycle trace's epoch spans.
    pub fn finish_logged(self, epochs_run: u32, converged_early: bool) -> (EngineStats, Vec<u64>) {
        let mut stats = self.stats;
        stats.epochs_run = epochs_run;
        stats.converged_early = converged_early;
        (stats, self.epoch_cycles)
    }
}

/// Op-lockstep execution: each op dispatches once and then runs a tight
/// inner loop across all `n` active threads' contiguous SoA rows. Only
/// reachable for programs with no model-memory ops in the region.
fn exec_lockstep(ops: &[LoweredOp], n: usize, buf: &mut [f32], stride: usize) {
    for op in ops {
        match *op {
            LoweredOp::Bin { op, a, b, dst } => {
                let (a, b, d) = (
                    a as usize * stride,
                    b as usize * stride,
                    dst as usize * stride,
                );
                lockstep_lanes(buf, op, d, n, move |m, t| (m[a + t], m[b + t]));
            }
            LoweredOp::BinImmA { op, imm, b, dst } => {
                let (b, d) = (b as usize * stride, dst as usize * stride);
                lockstep_lanes(buf, op, d, n, move |m, t| (imm, m[b + t]));
            }
            LoweredOp::BinImmB { op, a, imm, dst } => {
                let (a, d) = (a as usize * stride, dst as usize * stride);
                lockstep_lanes(buf, op, d, n, move |m, t| (m[a + t], imm));
            }
            LoweredOp::Imm { v, dst } => {
                let d = dst as usize * stride;
                buf[d..d + n].fill(v);
            }
            LoweredOp::Copy { src, dst } => {
                let (s, d) = (src as usize * stride, dst as usize * stride);
                buf.copy_within(s..s + n, d);
            }
            LoweredOp::Gather { .. } | LoweredOp::Scatter { .. } => {
                unreachable!("model-memory ops run on the sequential path")
            }
        }
    }
}

/// One binary op across `n` lockstep threads. `fetch` supplies the two
/// operands for lane `t` (slot/slot, imm/slot, or slot/imm — monomorphized
/// per call site). The arithmetic per arm is exactly `AluOp::apply`'s —
/// bit-identical f32 results — but the op match is hoisted out of the
/// thread loop, leaving a tight inner loop over contiguous SoA rows for
/// the vectorizer.
#[inline]
fn lockstep_lanes(
    buf: &mut [f32],
    op: AluOp,
    d: usize,
    n: usize,
    fetch: impl Fn(&[f32], usize) -> (f32, f32),
) {
    macro_rules! lanes {
        ($f:expr) => {{
            for t in 0..n {
                let (x, y) = fetch(&*buf, t);
                buf[d + t] = $f(x, y);
            }
        }};
    }
    match op {
        AluOp::Add => lanes!(|x: f32, y: f32| x + y),
        AluOp::Sub => lanes!(|x: f32, y: f32| x - y),
        AluOp::Mul => lanes!(|x: f32, y: f32| x * y),
        AluOp::Div => lanes!(|x: f32, y: f32| x / y),
        AluOp::Gt => lanes!(|x: f32, y: f32| if x > y { 1.0 } else { 0.0 }),
        AluOp::Lt => lanes!(|x: f32, y: f32| if x < y { 1.0 } else { 0.0 }),
        AluOp::Max => lanes!(|x: f32, y: f32| x.max(y)),
        _ => lanes!(|x: f32, y: f32| op.apply(x, y)),
    }
}

/// Scalar execution of a lowered op sequence on one thread's SoA column —
/// used for the post-merge region (thread 0) and for sequential-mode
/// per-tuple programs. Model slices are hoisted out of the per-element
/// gather/scatter loops.
fn exec_thread(
    ops: &[LoweredOp],
    t: usize,
    buf: &mut [f32],
    stride: usize,
    store: &mut ModelStore,
) -> EngineResult<()> {
    for op in ops {
        match op {
            LoweredOp::Bin { op, a, b, dst } => {
                let x = buf[*a as usize * stride + t];
                let y = buf[*b as usize * stride + t];
                buf[*dst as usize * stride + t] = op.apply(x, y);
            }
            LoweredOp::BinImmA { op, imm, b, dst } => {
                let y = buf[*b as usize * stride + t];
                buf[*dst as usize * stride + t] = op.apply(*imm, y);
            }
            LoweredOp::BinImmB { op, a, imm, dst } => {
                let x = buf[*a as usize * stride + t];
                buf[*dst as usize * stride + t] = op.apply(x, *imm);
            }
            LoweredOp::Imm { v, dst } => buf[*dst as usize * stride + t] = *v,
            LoweredOp::Copy { src, dst } => {
                buf[*dst as usize * stride + t] = buf[*src as usize * stride + t]
            }
            LoweredOp::Gather {
                model,
                rows,
                cols,
                index,
                dst,
            } => {
                let row = row_index(buf, stride, t, index, *model, *rows)?;
                let base = row * *cols as usize;
                let values = store.model(*model as usize);
                for (k, &off) in dst.iter().enumerate() {
                    buf[off as usize * stride + t] = values[base + k];
                }
            }
            LoweredOp::Scatter {
                model,
                rows,
                cols,
                index,
                src,
            } => {
                let row = row_index(buf, stride, t, index, *model, *rows)?;
                let base = row * *cols as usize;
                let m = store.model_mut(*model as usize);
                for (k, &off) in src.iter().enumerate() {
                    m[base + k] = buf[off as usize * stride + t];
                }
            }
        }
    }
    Ok(())
}

fn row_index(
    buf: &[f32],
    stride: usize,
    t: usize,
    index: &LowIdx,
    model: u8,
    rows: u32,
) -> EngineResult<usize> {
    let raw = match index {
        LowIdx::Slot(off) => buf[*off as usize * stride + t],
        LowIdx::Const(c) => *c,
    };
    let row = raw.round() as i64;
    if row < 0 || row as u32 >= rows {
        return Err(EngineError::RowOutOfRange {
            model,
            row,
            rows: rows as usize,
        });
    }
    Ok(row as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConvergenceCheck, ModelDesc};
    use crate::isa::EngineProgram;
    use dana_storage::TupleBatch;

    fn alu(au: u16, op: AluOp, a: Src, b: Src, dst: u16) -> MicroOp {
        MicroOp::Alu { au, op, a, b, dst }
    }

    fn s(au: u16, slot: u16) -> Src {
        Src::Slot(Loc::new(au, slot))
    }

    /// A design whose second step has an intra-step RAW hazard: AU 0
    /// rewrites slot 1 while AU 1 reads the old slot 1 in the same step.
    fn hazardous_design(num_threads: u16) -> EngineDesign {
        EngineDesign {
            num_threads,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![
                    Step {
                        ops: vec![alu(0, AluOp::Mul, s(0, 0), Src::Const(2.0), 1)],
                    },
                    Step {
                        // RAW hazard: AU0 writes slot 1 (reading it), AU1
                        // reads AU0's old slot 1 via Mov.
                        ops: vec![
                            alu(0, AluOp::Add, s(0, 1), Src::Const(1.0), 1),
                            alu(1, AluOp::Mov, s(0, 1), Src::Const(0.0), 2),
                        ],
                    },
                    Step {
                        ops: vec![alu(0, AluOp::Add, s(0, 1), s(1, 2), 3)],
                    },
                ],
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![],
            meta: vec![],
            models: vec![ModelDesc {
                name: "w".into(),
                rows: 1,
                cols: 1,
                broadcast_slots: Some(vec![Loc::new(1, 7)]),
            }],
            merge: MergePlan::Whole {
                op: MergeOp::Sum,
                slots: vec![Loc::new(0, 3)],
            },
            model_writes: vec![ModelWrite::Whole {
                model: 0,
                src: vec![Loc::new(0, 3)],
            }],
            convergence: ConvergenceCheck::Epochs(2),
        }
    }

    #[test]
    fn hazardous_steps_get_staging_slots_and_no_runtime_branch() {
        let d = hazardous_design(4);
        let lp = lower(&d);
        // Step 2 has two staged writes → two staging slots past the
        // architectural words, drained by trailing copies.
        assert!(lp.words_per_thread > lp.arch_words);
        assert!(
            lp.per_tuple
                .iter()
                .any(|op| matches!(op, LoweredOp::Copy { src, .. } if *src >= lp.arch_words)),
            "staging drains expected: {:?}",
            lp.per_tuple
        );
        // And the staged execution matches the interpreter bit-for-bit.
        let engine = crate::ExecutionEngine::new(d.clone()).unwrap();
        let tuples: Vec<Vec<f32>> = (0..13).map(|k| vec![k as f32 * 0.5 - 2.0]).collect();
        let batch = TupleBatch::from_rows(1, &tuples);
        let mut lowered_store = ModelStore::zeroed(&d);
        let lowered_stats = engine
            .run_training_batch(&batch, &mut lowered_store)
            .unwrap();
        let mut interp_store = ModelStore::zeroed(&d);
        let interp_stats = engine
            .run_training_interpreter_batch(&batch, &mut interp_store)
            .unwrap();
        assert_eq!(lowered_store, interp_store);
        assert_eq!(lowered_stats, interp_stats);
    }

    #[test]
    fn constants_fold_and_movs_lower_to_copies() {
        let mut d = hazardous_design(1);
        d.program.per_tuple = vec![Step {
            ops: vec![
                alu(0, AluOp::Add, Src::Const(2.0), Src::Const(3.0), 1),
                alu(1, AluOp::Mov, s(0, 0), Src::Const(0.0), 0),
            ],
        }];
        let lp = lower(&d);
        assert!(
            matches!(lp.per_tuple[0], LoweredOp::Imm { v, .. } if v == 5.0),
            "const-const must fold: {:?}",
            lp.per_tuple[0]
        );
        assert!(matches!(lp.per_tuple[1], LoweredOp::Copy { .. }));
    }

    #[test]
    fn dense_programs_run_lockstep_and_model_ops_force_sequential() {
        let d = hazardous_design(4);
        assert!(lower(&d).is_lockstep());
        let mut d2 = d.clone();
        d2.program.per_tuple.push(Step {
            ops: vec![MicroOp::Gather {
                model: 0,
                index: Src::Const(0.0),
                dst: vec![Loc::new(0, 5)],
            }],
        });
        assert!(!lower(&d2).is_lockstep());
    }

    #[test]
    fn artifact_round_trip_is_consistent_and_reused() {
        let d = hazardous_design(4);
        let lp = lower(&d);
        assert!(lp.is_consistent_with(&d));
        let engine = crate::ExecutionEngine::from_artifact(d.clone(), lp.clone()).unwrap();
        assert_eq!(engine.lowered(), &lp);
        // A mismatched artifact (different geometry) is rejected and
        // re-lowered rather than trusted.
        let mut other = d.clone();
        other.slots_per_au = 16;
        let engine = crate::ExecutionEngine::from_artifact(other.clone(), lp.clone()).unwrap();
        assert!(engine.lowered().is_consistent_with(&other));
        assert_ne!(engine.lowered(), &lp);

        // Corruption anywhere the executor dereferences — an out-of-range
        // model-write offset, a wrong pre-bound model shape, a bad merge
        // slot — must fail the check (and thus trigger re-lowering), never
        // reach execution.
        let mut bad = lp.clone();
        bad.model_writes = vec![LoweredModelWrite::Whole {
            model: 0,
            src: vec![99_999],
        }];
        assert!(!bad.is_consistent_with(&d));
        let mut bad = lp.clone();
        bad.per_tuple.push(LoweredOp::Gather {
            model: 0,
            rows: 7, // true shape is 1×1
            cols: 1,
            index: LowIdx::Const(0.0),
            dst: vec![0],
        });
        assert!(!bad.is_consistent_with(&d));
        let mut bad = lp.clone();
        if let Some(m) = &mut bad.merge {
            m.slots[0] = 99_999;
        }
        assert!(!bad.is_consistent_with(&d));
        let mut bad = lp.clone();
        bad.broadcasts[0].dst = vec![99_999];
        assert!(!bad.is_consistent_with(&d));
        let rebuilt = crate::ExecutionEngine::from_artifact(d.clone(), bad).unwrap();
        assert_eq!(
            rebuilt.lowered(),
            &lp,
            "corrupt artifact must be re-lowered"
        );
    }

    #[test]
    fn lowered_program_serde_round_trips() {
        let d = hazardous_design(4);
        let lp = lower(&d);
        let json = serde_json::to_string(&lp).unwrap();
        let back: LoweredProgram = serde_json::from_str(&json).unwrap();
        assert_eq!(lp, back);
    }

    #[test]
    fn row_write_back_error_does_not_charge_cycles() {
        // A Row model write whose index is out of range must fail without
        // inflating merge_cycles or partially applying the scatter.
        let d = EngineDesign {
            num_threads: 2,
            acs_per_thread: 1,
            slots_per_au: 8,
            bus_lanes: 1,
            program: EngineProgram {
                per_tuple: vec![Step {
                    ops: vec![alu(0, AluOp::Mov, s(0, 0), Src::Const(0.0), 1)],
                }],
                post_merge: vec![],
            },
            input_slots: vec![Loc::new(0, 0)],
            output_slots: vec![],
            meta: vec![],
            models: vec![ModelDesc {
                name: "L".into(),
                rows: 2,
                cols: 1,
                broadcast_slots: None,
            }],
            merge: MergePlan::None,
            model_writes: vec![ModelWrite::Row {
                model: 0,
                index: Loc::new(0, 0),
                src: vec![Loc::new(0, 1)],
            }],
            convergence: ConvergenceCheck::Epochs(1),
        };
        let engine = crate::ExecutionEngine::new(d.clone()).unwrap();
        // Thread 0 in range (would write), thread 1 out of range: the whole
        // write-back must refuse before touching the store.
        let batch = TupleBatch::from_rows(1, &[vec![0.0], vec![9.0]]);
        for run in [
            crate::ExecutionEngine::run_training_batch,
            crate::ExecutionEngine::run_training_interpreter_batch,
        ] {
            let mut store = ModelStore::new(&d, vec![vec![-1.0, -2.0]]).unwrap();
            let err = run(&engine, &batch, &mut store).unwrap_err();
            assert!(matches!(err, EngineError::RowOutOfRange { .. }));
            assert_eq!(
                store.model(0),
                &[-1.0, -2.0],
                "no partial scatter on the error path"
            );
        }
    }
}
