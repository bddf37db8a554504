//! The cross-request batcher.
//!
//! Point predictions are tiny — one row through the SoA lockstep
//! scorer — so per-request dispatch overhead (admission, leasing, the
//! program walk) dominates. When several clients hit the *same*
//! accelerator concurrently, their rows can share one dispatch: the
//! engine scores lanes in lockstep anyway, and per-row predictions are
//! independent of batch composition, so coalescing changes throughput
//! but not a single output bit.
//!
//! ## Protocol
//!
//! Each UDF has at most one *open* batch cell. The first caller to
//! register in a cell becomes its **leader**; later callers are
//! **followers**. Followers park on a reply channel. The leader waits
//! up to the configured window (or until the cell fills to
//! `max_batch`), *seals* the cell so no further rows can join, runs the
//! scoring closure over the accumulated rows, and fans each caller its
//! own row's prediction by registration index — so replies are
//! deterministic regardless of thread arrival order.
//!
//! The batcher is **work-conserving**: a leader pays the window only
//! when another request can actually join. Next to its open cell, each
//! UDF keeps how many of its dispatches are in flight and whether its
//! last *windowed* batch closed with a single row (`lonely`). A new
//! leader that finds `lonely` set and nothing in flight seals at once
//! and dispatches alone — a *window skip*; waiting would only add the
//! window to its latency. Every other leader waits as above. After a
//! dispatch, a windowed batch sets `lonely` to whether it carried one
//! row, and any batch of more than one row clears it. `lonely` starts
//! clear, so the first batch of a fresh batcher always waits, and
//! contention — a dispatch in flight, or a batch that coalesced —
//! re-arms the window.
//!
//! On a failed dispatch the leader surfaces the typed error; followers
//! receive a string copy ([`ServeError::Batch`]) because the underlying
//! errors are not cloneable. A scorer that returns the wrong number of
//! predictions fails the whole batch the same way, as
//! [`ServeError::Batch`].

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::error::{ServeError, ServeResult};

/// Coalescing knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Rows after which a cell seals immediately (leader stops waiting).
    pub max_batch: usize,
    /// The longest a leader holds the cell open for followers. It is
    /// paid only when batching can help: a leader whose UDF has nothing
    /// in flight, and whose last windowed batch found no company, seals
    /// at once (see the module docs). Zero means singleton mode: every
    /// request dispatches alone.
    pub window: Duration,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig {
            max_batch: 16,
            window: Duration::from_micros(500),
        }
    }
}

type Reply = Result<(f32, usize), String>;

struct BatchInner {
    /// Registered rows; `rows[0]` is the leader's.
    rows: Vec<Vec<f32>>,
    /// Followers' reply channels: `replies[i]` answers `rows[i + 1]`.
    replies: Vec<Sender<Reply>>,
    /// Once true, no further registration: the leader is (or is about
    /// to start) dispatching this cell's rows.
    sealed: bool,
}

struct BatchCell {
    inner: Mutex<BatchInner>,
    /// Signalled when the cell fills to `max_batch`, waking the leader
    /// out of its window early.
    full: Condvar,
}

impl BatchCell {
    /// A cell opened by a leader holding `row`.
    fn new(row: Vec<f32>) -> BatchCell {
        BatchCell {
            inner: Mutex::new(BatchInner {
                rows: vec![row],
                replies: Vec::new(),
                sealed: false,
            }),
            full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BatchInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// One UDF's coalescing state, guarded by the batcher's map lock.
#[derive(Default)]
struct UdfSlot {
    /// The open cell, if any. A cell leaves the slot exactly when it
    /// seals, so a cell found here always accepts rows.
    open: Option<Arc<BatchCell>>,
    /// Sealed dispatches that have not finished yet.
    in_flight: usize,
    /// Whether the last windowed batch closed with a single row.
    lonely: bool,
}

impl UdfSlot {
    /// Seals the slot's open cell (whose guard is `inner`): retires it,
    /// so the next arrival opens a fresh batch, and counts its dispatch
    /// in flight.
    fn seal(&mut self, inner: &mut BatchInner) {
        inner.sealed = true;
        self.open = None;
        self.in_flight += 1;
    }
}

/// How a submission takes part in a batch.
enum Role {
    /// Window skipped: dispatch this row alone, right away.
    Solo(Vec<f32>),
    /// Opened a cell: wait for followers, then dispatch.
    Leader(Arc<BatchCell>),
    /// Joined an open cell: wait for the leader's reply.
    Follower(Receiver<Reply>),
}

/// A sealed dispatch in flight. Dropping it — also when the scorer
/// panics — retires the dispatch from its UDF's slot and records
/// whether the batch found company.
struct Flight<'a> {
    batcher: &'a Batcher,
    udf: &'a str,
    rows: usize,
    windowed: bool,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut slots = self.batcher.lock_slots();
        if let Some(slot) = slots.get_mut(self.udf) {
            slot.in_flight = slot.in_flight.saturating_sub(1);
            if self.windowed || self.rows > 1 {
                slot.lonely = self.rows == 1;
            }
        }
    }
}

fn slot_mut<'m>(slots: &'m mut HashMap<String, UdfSlot>, udf: &str) -> &'m mut UdfSlot {
    slots.entry(udf.to_string()).or_default()
}

/// Scores `row` in a dispatch of its own.
fn score_alone<F>(row: Vec<f32>, score: F) -> ServeResult<(f32, usize)>
where
    F: FnOnce(&[Vec<f32>]) -> ServeResult<Vec<f32>>,
{
    let preds = check_arity(score(std::slice::from_ref(&row))?, 1)?;
    Ok((preds[0], 1))
}

/// A scorer must return one prediction per row; anything else fails the
/// batch with a typed error instead of an out-of-bounds panic.
fn check_arity(preds: Vec<f32>, rows: usize) -> ServeResult<Vec<f32>> {
    if preds.len() == rows {
        Ok(preds)
    } else {
        Err(ServeError::Batch(format!(
            "scorer returned {} predictions for {rows} rows",
            preds.len()
        )))
    }
}

type SkipHook = Box<dyn Fn() + Send + Sync>;

/// Coalesces concurrent point predictions per UDF. All methods take
/// `&self`; share it behind an `Arc` across request threads.
pub struct Batcher {
    slots: Mutex<HashMap<String, UdfSlot>>,
    config: BatcherConfig,
    on_window_skip: Option<SkipHook>,
}

impl Batcher {
    pub fn new(config: BatcherConfig) -> Batcher {
        Batcher {
            slots: Mutex::new(HashMap::new()),
            config,
            on_window_skip: None,
        }
    }

    /// Calls `hook` once per dispatch that sealed without waiting out
    /// the window (a window skip), e.g. to bump a metrics counter.
    pub(crate) fn on_window_skip(mut self, hook: impl Fn() + Send + Sync + 'static) -> Batcher {
        self.on_window_skip = Some(Box::new(hook));
        self
    }

    fn lock_slots(&self) -> MutexGuard<'_, HashMap<String, UdfSlot>> {
        match self.slots.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Submits one row for `udf` and blocks until its prediction is
    /// available. `score` runs at most once per sealed batch — on the
    /// leader's thread, with no batcher locks held — and must return
    /// one prediction per input row, in order.
    ///
    /// Returns `(prediction, batch_rows)` where `batch_rows` is how
    /// many rows shared the dispatch (1 = not coalesced).
    pub fn submit<F>(&self, udf: &str, row: Vec<f32>, score: F) -> ServeResult<(f32, usize)>
    where
        F: FnOnce(&[Vec<f32>]) -> ServeResult<Vec<f32>>,
    {
        if self.config.window.is_zero() || self.config.max_batch <= 1 {
            // Singleton mode: no cell bookkeeping at all.
            return score_alone(row, score);
        }

        match self.register(udf, row) {
            Role::Solo(row) => {
                if let Some(hook) = &self.on_window_skip {
                    hook();
                }
                let _flight = Flight {
                    batcher: self,
                    udf,
                    rows: 1,
                    windowed: false,
                };
                score_alone(row, score)
            }
            Role::Leader(cell) => self.lead(udf, &cell, score),
            Role::Follower(rx) => match rx.recv() {
                Ok(Ok(reply)) => Ok(reply),
                Ok(Err(msg)) => Err(ServeError::Batch(msg)),
                Err(_) => Err(ServeError::Batch(
                    "batch dispatch dropped without replying".to_string(),
                )),
            },
        }
    }

    /// Joins the UDF's open cell, or else opens one — or, when nobody
    /// can join, skips the window and dispatches alone.
    fn register(&self, udf: &str, row: Vec<f32>) -> Role {
        let mut slots = self.lock_slots();
        let slot = slot_mut(&mut slots, udf);
        if let Some(cell) = slot.open.clone() {
            // Lock order everywhere: map, then cell.
            let (tx, rx) = bounded::<Reply>(1);
            let mut inner = cell.lock();
            inner.rows.push(row);
            inner.replies.push(tx);
            if inner.rows.len() >= self.config.max_batch {
                slot.seal(&mut inner);
                cell.full.notify_all();
            }
            return Role::Follower(rx);
        }
        if slot.lonely && slot.in_flight == 0 {
            slot.in_flight += 1;
            return Role::Solo(row);
        }
        let cell = Arc::new(BatchCell::new(row));
        slot.open = Some(Arc::clone(&cell));
        Role::Leader(cell)
    }

    /// The leader's half: hold the window open, seal, dispatch, fan out.
    fn lead<F>(&self, udf: &str, cell: &BatchCell, score: F) -> ServeResult<(f32, usize)>
    where
        F: FnOnce(&[Vec<f32>]) -> ServeResult<Vec<f32>>,
    {
        let deadline = Instant::now() + self.config.window;
        let mut inner = cell.lock();
        while !inner.sealed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = match cell.full.wait_timeout(inner, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner = guard;
        }
        drop(inner);

        // Seal on timeout (unless a follower filled the cell meanwhile)
        // and take the rows, holding the map lock first.
        let (rows, replies) = {
            let mut slots = self.lock_slots();
            let mut inner = cell.lock();
            if !inner.sealed {
                slot_mut(&mut slots, udf).seal(&mut inner);
            }
            (
                std::mem::take(&mut inner.rows),
                std::mem::take(&mut inner.replies),
            )
        };

        let n = rows.len();
        let _flight = Flight {
            batcher: self,
            udf,
            rows: n,
            windowed: true,
        };
        match score(&rows).and_then(|preds| check_arity(preds, n)) {
            Ok(preds) => {
                for (reply, &pred) in replies.iter().zip(&preds[1..]) {
                    let _ = reply.send(Ok((pred, n)));
                }
                Ok((preds[0], n))
            }
            Err(e) => {
                // Followers get message copies; the typed error
                // propagates to the leader through this return.
                let msg = e.to_string();
                for reply in &replies {
                    let _ = reply.send(Err(msg.clone()));
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn sum_scorer(calls: &Arc<AtomicUsize>) -> impl Fn(&[Vec<f32>]) -> ServeResult<Vec<f32>> + '_ {
        let calls = Arc::clone(calls);
        move |rows: &[Vec<f32>]| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(rows.iter().map(|r| r.iter().sum()).collect())
        }
    }

    #[test]
    fn singleton_mode_dispatches_alone() {
        let b = Batcher::new(BatcherConfig {
            max_batch: 16,
            window: Duration::ZERO,
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let (p, n) = b.submit("f", vec![1.0, 2.0], sum_scorer(&calls)).unwrap();
        assert_eq!(p, 3.0);
        assert_eq!(n, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_fan_out_by_row() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::from_millis(100),
        }));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let b = Arc::clone(&b);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let row = vec![t as f32, 10.0];
                b.submit("f", row, |rows| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        let results: Vec<(f32, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each caller got exactly its own row's sum, and at least one
        // dispatch carried multiple rows (fewer dispatches than rows).
        for (t, (p, _n)) in results.iter().enumerate() {
            assert_eq!(*p, t as f32 + 10.0);
        }
        assert!(calls.load(Ordering::SeqCst) < 4);
        assert!(results.iter().any(|(_, n)| *n > 1));
    }

    #[test]
    fn max_batch_seals_the_cell_early() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            // A window long enough that only the max-batch seal can
            // explain a prompt return.
            window: Duration::from_secs(5),
        }));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(2));
        let start = std::time::Instant::now();
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let b = Arc::clone(&b);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit("f", vec![t as f32], |rows| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn failed_dispatch_reaches_every_member() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            window: Duration::from_secs(5),
        }));
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let b = Arc::clone(&b);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit("f", vec![t as f32], |_rows| {
                    Err(ServeError::Batch("scorer exploded".to_string()))
                })
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("scorer exploded"), "{err}");
        }
    }

    #[test]
    fn different_udfs_never_share_a_batch() {
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::from_millis(20),
        }));
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for (udf, v) in [("f", 1.0f32), ("g", 2.0f32)] {
            let b = Arc::clone(&b);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                b.submit(udf, vec![v], |rows| {
                    Ok(rows.iter().map(|r| r.iter().sum()).collect())
                })
                .unwrap()
            }));
        }
        let results: Vec<(f32, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0].0, 1.0);
        assert_eq!(results[1].0, 2.0);
        assert!(results.iter().all(|(_, n)| *n == 1));
    }

    fn sum_rows(rows: &[Vec<f32>]) -> ServeResult<Vec<f32>> {
        Ok(rows.iter().map(|r| r.iter().sum()).collect())
    }

    #[test]
    fn a_lone_submitter_pays_the_window_once() {
        let window = Duration::from_millis(200);
        let skips = Arc::new(AtomicUsize::new(0));
        let b = Batcher::new(BatcherConfig {
            max_batch: 8,
            window,
        })
        .on_window_skip({
            let skips = Arc::clone(&skips);
            move || {
                skips.fetch_add(1, Ordering::SeqCst);
            }
        });
        // A fresh batcher cannot know the UDF runs alone: it waits.
        let start = Instant::now();
        assert_eq!(b.submit("f", vec![1.0], sum_rows).unwrap(), (1.0, 1));
        assert!(start.elapsed() >= window);
        assert_eq!(skips.load(Ordering::SeqCst), 0);

        // That batch closed alone with nothing in flight, so every
        // further lone submit seals at once.
        let start = Instant::now();
        for t in 0..20u32 {
            let (p, n) = b.submit("f", vec![t as f32], sum_rows).unwrap();
            assert_eq!((p, n), (t as f32, 1));
        }
        assert!(start.elapsed() < window, "{:?}", start.elapsed());
        assert_eq!(skips.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn contention_rearms_the_window() {
        let window = Duration::from_millis(200);
        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            window,
        }));
        // One lone windowed batch: the UDF turns lonely.
        b.submit("f", vec![1.0], sum_rows).unwrap();

        // Hold a window-skipping dispatch in flight: its scorer blocks
        // until released.
        let (entered_tx, entered_rx) = bounded::<()>(0);
        let (release_tx, release_rx) = bounded::<()>(0);
        let held = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                b.submit("f", vec![2.0], |rows| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    sum_rows(rows)
                })
                .unwrap()
            })
        };
        entered_rx.recv().unwrap();

        // With a dispatch in flight the next leader arms its window, so
        // a second submitter joins it (max_batch 2 seals the pair).
        let barrier = Arc::new(Barrier::new(2));
        let pair: Vec<_> = (0..2u32)
            .map(|t| {
                let b = Arc::clone(&b);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    b.submit("f", vec![10.0 + t as f32], sum_rows).unwrap()
                })
            })
            .collect();
        for (t, h) in pair.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (10.0 + t as f32, 2));
        }
        release_tx.send(()).unwrap();
        assert_eq!(held.join().unwrap(), (2.0, 1));

        // The pair coalesced, so the next lone batch waits again.
        let start = Instant::now();
        assert_eq!(b.submit("f", vec![3.0], sum_rows).unwrap(), (3.0, 1));
        assert!(start.elapsed() >= window);
    }

    #[test]
    fn wrong_prediction_count_is_a_typed_error_for_every_member() {
        let empty = |_rows: &[Vec<f32>]| -> ServeResult<Vec<f32>> { Ok(Vec::new()) };
        let singleton = Batcher::new(BatcherConfig {
            max_batch: 8,
            window: Duration::ZERO,
        });
        match singleton.submit("f", vec![1.0], empty) {
            Err(ServeError::Batch(msg)) => assert!(msg.contains("0 predictions"), "{msg}"),
            other => panic!("expected a batch error, got {other:?}"),
        }

        let b = Arc::new(Batcher::new(BatcherConfig {
            max_batch: 2,
            window: Duration::from_secs(5),
        }));
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let b = Arc::clone(&b);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    b.submit("f", vec![t as f32], empty)
                })
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                Err(ServeError::Batch(msg)) => {
                    assert!(msg.contains("0 predictions for 2 rows"), "{msg}")
                }
                other => panic!("expected a batch error, got {other:?}"),
            }
        }
    }
}
