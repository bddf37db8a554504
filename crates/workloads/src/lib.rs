//! Workloads: the paper's Table 3, as data.
//!
//! Fourteen workloads drive the evaluation — six over public datasets
//! (Remote Sensing, WLAN, Netflix, Patient, Blog Feedback) and eight
//! synthetic (S/N = nominal, S/E = extensive). The public datasets
//! themselves are not redistributable here, so [`generate()`] synthesizes
//! data with **identical topology** (feature count, tuple count, byte
//! volume) from planted ground-truth models — the substitution DESIGN.md §1
//! documents. Every generator is seeded and deterministic.
//!
//! **LRMF representation.** The paper stores factorization training data as
//! dense user rows (Netflix: 6 040 tuples of 3 952 ratings ≈ 96 MB). We
//! store `(i, j, rating)` triples — the conventional sparse form — and size
//! the triple count to preserve the dataset's *byte volume and page count*,
//! which is what the access path (and therefore the Strider/AXI behaviour)
//! sees. DESIGN.md records this substitution.

pub mod generate;
pub mod registry;

pub use generate::{generate, generate_tuples, GeneratedTable};
pub use registry::{all_workloads, workload, DatasetClass, Workload};
