//! # dana-server — the concurrent query-serving subsystem
//!
//! DAnA's premise is an accelerator *inside a live RDBMS* (§1): analytics
//! queries arrive alongside regular traffic and contend for a fixed set of
//! FPGA resources. The single-user `dana::Dana` facade cannot express
//! that — everything funnels through one `&mut`. This crate is the serving
//! tier on top of the shared core:
//!
//! * [`SystemCore`] — the thread-safe counterpart of `Dana`: `RwLock`
//!   catalog, per-query execution contexts, and the same sharded
//!   [`dana_storage::SharedBufferPool`] and page source the serial facade
//!   runs on, sharing every numerical path with it;
//! * [`SessionManager`] — per-client sessions with query accounting;
//! * admission control ([`AdmissionConfig`]) — a bounded queue with FIFO
//!   and shortest-job-first policies, SJF ordered by the deploy-time
//!   `DanaTiming` cost estimate;
//! * [`AcceleratorPool`] — N independent accelerator instances behind a
//!   lease scheduler that doubles as the simulated-time list scheduler
//!   (greedy least-loaded placement, makespan and utilization reports);
//! * [`DanaServer`] — the front door: worker threads (vendored crossbeam
//!   channels carry replies) execute admitted queries in parallel on
//!   leased instances.
//!
//! Concurrent execution is held **bit-identical** to the single-threaded
//! path by the equivalence suite: same pool, same compiler, same
//! extraction, same engine interpreter, same report assembly — only the
//! locking changed.

pub mod accel;
pub mod admission;
pub mod core;
pub mod error;
pub mod server;
pub mod session;

pub use accel::{AcceleratorPool, GangLease, Health, Lease, PoolHealth, PoolUtilization};
pub use admission::{AdmissionConfig, Priority, QueueStats, SchedPolicy};
pub use core::{EngineCacheStats, QueryCtx, SystemCore, SystemCoreConfig};
pub use error::{ServerError, ServerResult};
pub use server::{DanaServer, QueryReply, QueryRequest, QueryResponse, ServerConfig, Ticket};
pub use session::{SessionId, SessionManager, SessionStats};
