//! # dana-serve — the online serving tier
//!
//! DAnA's front door ([`dana_server::DanaServer`]) is built for
//! analytical traffic: multi-epoch training gangs and whole-table
//! scoring scans. An *online* workload looks nothing like that — a
//! stream of single-row `PREDICT` calls, each microseconds of work,
//! latency-bound, and heavily repetitive. This crate layers the three
//! mechanisms that workload needs over the unchanged server:
//!
//! * **the point fast path** — `PREDICT dana.<udf>(VALUES (…))` (or the
//!   typed [`dana_server::QueryRequest::PredictPoint`]) binds parameter
//!   rows straight into the cached scoring program: no heap scan, no
//!   buffer-pool traffic, no materialization, and no accelerator lease
//!   when the advisor routes the rows to the CPU tier. Predictions are
//!   bit-identical to the materializing path on the same rows, because
//!   the rows feed the *same* SoA lockstep scorer the scan would;
//! * **cross-request batching** ([`Batcher`]) — concurrent point
//!   requests against the same accelerator coalesce into one dispatch
//!   (a bounded wait window, paid only when another request can join,
//!   plus a max batch size). Fan-out is deterministic:
//!   each caller gets exactly its own row's prediction, so replies are
//!   independent of arrival order and bit-identical to serial scoring;
//! * **a staleness-aware prediction cache** ([`PredictionCache`]) —
//!   keyed on (accelerator, input row bits), every entry stamped with
//!   the model-generation `Arc` it was computed under. A hit is served
//!   only while the stamp is pointer-equal to the live generation;
//!   retrain swaps the generation and drop clears it, so a hit can
//!   never surface a stale model's prediction, and a dropped
//!   accelerator refuses with the same typed error the scan path uses.
//!
//! Point queries ride the admission queue's `Interactive` class
//! ([`dana_server::Priority`]): the dequeue prefers them over any
//! waiting batch job, so they are never starved behind gang training.
//! Serving counters land in the core metrics registry and surface
//! through `SHOW STATS ('serving')`.

pub mod batcher;
pub mod cache;
pub mod error;
pub mod tier;

pub use batcher::{Batcher, BatcherConfig};
pub use cache::{CacheConfig, CacheLookup, PredictionCache};
pub use error::{ServeError, ServeResult};
pub use tier::{PointReply, ServeConfig, ServeTier};
