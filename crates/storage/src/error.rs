//! Error types for the storage substrate.

use std::fmt;

/// Errors raised by pages, heaps, the buffer pool, and the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The tuple does not fit in the page's remaining free space.
    PageFull { needed: usize, free: usize },
    /// A page byte-image failed validation (bad header fields).
    CorruptPage(String),
    /// Requested slot does not exist on the page.
    SlotOutOfRange { slot: u16, count: u16 },
    /// Requested page number is beyond the end of the heap file.
    PageOutOfRange { page_no: u32, pages: u32 },
    /// No such heap file.
    UnknownHeap(u32),
    /// No such table in the catalog.
    UnknownTable(String),
    /// No such accelerator (UDF) in the catalog.
    UnknownAccelerator(String),
    /// A name is already registered in the catalog.
    DuplicateName(String),
    /// Every frame of a buffer-pool shard is held by a reader; nothing can
    /// be evicted.
    BufferPoolExhausted,
    /// Tuple bytes disagree with the schema.
    SchemaMismatch(String),
    /// Unsupported page size (must be one of 8, 16, 32 KB).
    BadPageSize(usize),
    /// A materialized (prediction) table whose source table was dropped:
    /// its rows describe data that no longer exists, so queries refuse it.
    StaleDerivedTable {
        table: String,
        dropped_source: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageFull { needed, free } => {
                write!(f, "page full: need {needed} bytes, {free} free")
            }
            StorageError::CorruptPage(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::SlotOutOfRange { slot, count } => {
                write!(f, "slot {slot} out of range (page has {count} tuples)")
            }
            StorageError::PageOutOfRange { page_no, pages } => {
                write!(f, "page {page_no} out of range (heap has {pages} pages)")
            }
            StorageError::UnknownHeap(id) => write!(f, "unknown heap file {id}"),
            StorageError::UnknownTable(name) => write!(f, "unknown table '{name}'"),
            StorageError::UnknownAccelerator(name) => {
                write!(f, "unknown accelerator UDF '{name}'")
            }
            StorageError::DuplicateName(name) => {
                write!(f, "name '{name}' already registered in catalog")
            }
            StorageError::BufferPoolExhausted => {
                write!(f, "buffer pool exhausted: every frame of the shard is held")
            }
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::BadPageSize(sz) => {
                write!(f, "unsupported page size {sz} (expected 8, 16, or 32 KB)")
            }
            StorageError::StaleDerivedTable {
                table,
                dropped_source,
            } => {
                write!(
                    f,
                    "table '{table}' is stale: its source table '{dropped_source}' was dropped"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenient result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::PageFull {
            needed: 100,
            free: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
        let e = StorageError::UnknownTable("t".into());
        assert!(e.to_string().contains("'t'"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StorageError::BufferPoolExhausted);
    }
}
