//! # DAnA — in-RDBMS hardware acceleration of advanced analytics
//!
//! A full-system Rust reproduction of *"In-RDBMS Hardware Acceleration of
//! Advanced Analytics"* (Mahajan et al., PVLDB 11(11), 2018).
//!
//! DAnA turns a machine-learning UDF — written in a Python-embedded DSL and
//! invoked from SQL — into an FPGA accelerator whose **Striders** walk raw
//! buffer-pool pages on-chip, feeding a multi-threaded selective-SIMD
//! **execution engine** that trains the model. This crate is the façade
//! tying the whole stack together:
//!
//! ```text
//!  DSL (dana-dsl) ──► hDFG (dana-hdfg) ──► compiler (dana-compiler)
//!                                              │ engine design + Strider program
//!                                              ▼
//!  SQL query ──► catalog (dana-storage) ──► [Dana::execute]
//!                     │ buffer pool                │
//!                     ▼                            ▼
//!            pages ──AXI──► access engine (dana-strider)
//!                                  │ tuples
//!                                  ▼
//!                        execution engine (dana-engine) ──► trained model
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use dana::prelude::*;
//!
//! // A database with a training table.
//! let mut db = Dana::default_system();
//! let workload = dana_workloads::workload("Patient").unwrap().scaled(0.01);
//! let table = dana_workloads::generate(&workload, 32 * 1024, 42).unwrap();
//! db.create_table("patient_data", table.heap).unwrap();
//!
//! // The UDF (≈15 DSL lines) — deploy compiles it to an accelerator.
//! let spec = workload.spec();
//! db.deploy(&spec, "patient_data").unwrap();
//!
//! // Run it from SQL.
//! let out = db.execute("SELECT * FROM dana.linearR('patient_data');").unwrap();
//! assert!(out.report.timing.total_seconds > 0.0);
//! ```

pub mod advisor;
pub mod analytic;
pub mod error;
pub mod exec;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod runtime;
pub mod source;

pub use advisor::{BackendChoice, BackendOption, HardwareProfile, StrategyComparison, Workload};
pub use analytic::{
    analytic_dana, analytic_dana_threads, analytic_external, analytic_greenplum, analytic_madlib,
    compile_workload, AnalyticTiming, SystemParams,
};
pub use dana_engine::{BackendKind, CpuBackend, ExecutionBackend, FpgaBackend};
pub use dana_infer::{MetricKind, ScoringRecipe, ScoringStats};
pub use dana_obs::{MetricsRegistry, QueryTrace, SpanRecorder, StatsSnapshot, TraceSpan};
pub use dana_parallel::{ParallelError, ShardPlan, ShardRange};
pub use dana_scan::{CmpOp, Predicate, ScanSpec};
pub use error::{DanaError, DanaResult};
pub use exec::{ArtifactBlob, CachedAccelerator, RunArtifacts, ShardArtifacts, TrainedModels};
pub use pipeline::{Dana, DeployInfo, DropSummary};
pub use query::{
    parse_query, parse_statement, EvaluateCall, PointCall, PredictCall, QueryCall, Statement,
};
pub use report::{
    AnalyzeReport, DanaReport, DanaTiming, EvalReport, PointReport, PredictReport, QueryOutcome,
    StatementOutcome,
};
pub use runtime::ExecutionMode;
pub use source::{shard_sources, FeedKind, ScanState, ShardSource, SharedPageStreamSource};

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use crate::advisor::{BackendChoice, HardwareProfile, StrategyComparison};
    pub use crate::pipeline::{Dana, DeployInfo};
    pub use crate::report::{DanaReport, DanaTiming, QueryOutcome};
    pub use crate::runtime::ExecutionMode;
    pub use crate::{DanaError, DanaResult};
    pub use dana_dsl::{parse_udf, AlgoBuilder, AlgoSpec, MergeOp};
    pub use dana_engine::BackendKind;
    pub use dana_fpga::FpgaSpec;
    pub use dana_ml::{Algorithm, TrainConfig};
    pub use dana_storage::{BufferPoolConfig, DiskModel, HeapFile, Schema, Tuple};
}
