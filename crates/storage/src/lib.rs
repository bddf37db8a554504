//! RDBMS storage substrate for the DAnA reproduction.
//!
//! DAnA's defining feature is that its Striders "directly interface with the
//! buffer pool of the database" (§1) and pointer-chase *raw page bytes*
//! (Fig. 6). That only means something if there are real pages with a real
//! layout, so this crate implements a PostgreSQL-style storage engine:
//!
//! * [`schema`] — column types and table schemas;
//! * [`mod@tuple`] — tuple encoding (header + user data) and CPU-side deforming;
//! * [`page`] — byte-exact slotted heap pages (page header, line pointers,
//!   free space, special space) in 8/16/32 KB sizes;
//! * [`heap`] — heap files: ordered collections of pages on the simulated
//!   disk;
//! * [`disk`] — a sequential/seek disk timing model (SSD-class by default);
//! * [`shared_pool`] — the buffer pool: sharded clock-eviction frames
//!   behind interior mutability, with `Arc` page images instead of pin
//!   counts so many scans can read at once, warm / cold cache control and
//!   hit/miss statistics (the paper's default setup is an 8 GB pool of
//!   32 KB pages, §7);
//! * [`catalog`] — the RDBMS catalog that stores both table metadata and the
//!   accelerator artifacts DAnA deploys ("DAnA stores accelerator metadata
//!   (Strider and execution engine instruction schedules) in the RDBMS's
//!   catalog", §3).
//!
//! Everything is deterministic and simulation-timed: reads report the
//! simulated seconds they would cost, never wall-clock time.

pub mod batch;
#[cfg(test)]
mod bufferpool;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod schema;
pub mod shared_pool;
pub mod tuple;

pub use batch::{OneBatchSource, SourceError, TupleBatch, TupleSource};
pub use catalog::{AcceleratorEntry, Catalog, RuntimeCache, TableEntry};
pub use disk::DiskModel;
pub use error::{StorageError, StorageResult};
pub use heap::{HeapFile, HeapFileBuilder};
pub use page::{HeapPage, PageLayoutDesc, PageView, LINE_POINTER_BYTES, PAGE_HEADER_BYTES};
pub use schema::{ColumnType, Schema};
pub use shared_pool::{BufferPoolConfig, BufferPoolStats, SharedBufferPool};
pub use tuple::{Datum, Tuple, TUPLE_HEADER_BYTES};

/// Identifies a heap file (a table's storage) within a database.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct HeapId(pub u32);

impl HeapId {
    /// Bit marking a *shadow* heap id — the compressed-frame alias of a
    /// real heap. The scan tier caches compressed page images in the
    /// buffer pool under `heap.shadow()` so they never collide with the
    /// raw pages of the same table, while drop paths can still find and
    /// evict them. The catalog allocates ids sequentially from 1, so the
    /// high bit is never assigned to a real heap.
    pub const SHADOW_BIT: u32 = 1 << 31;

    /// The shadow (compressed-frame) alias of this heap id.
    pub fn shadow(self) -> HeapId {
        HeapId(self.0 | Self::SHADOW_BIT)
    }

    /// True if this id is a shadow alias.
    pub fn is_shadow(self) -> bool {
        self.0 & Self::SHADOW_BIT != 0
    }
}

/// Identifies a page: a heap file plus a page number within it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct PageId {
    pub heap: HeapId,
    pub page_no: u32,
}

impl PageId {
    pub fn new(heap: HeapId, page_no: u32) -> PageId {
        PageId { heap, page_no }
    }
}
