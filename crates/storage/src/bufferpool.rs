//! The classic buffer-pool contract, held on a one-shard
//! [`SharedBufferPool`].
//!
//! With a single shard the pool is one clock over one frame array, the
//! textbook pin-count pool with `Arc` page images in place of pins. These
//! tests pin down that contract: a miss then a hit on the same image, held
//! pages surviving eviction, exhaustion when every frame is held, prewarm,
//! and per-heap eviction. The sharded behaviour is tested in
//! [`crate::shared_pool`].

mod tests {
    use std::sync::Arc;

    use crate::heap::HeapFileBuilder;
    use crate::page::TupleDirection;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::{
        BufferPoolConfig, DiskModel, HeapFile, HeapId, PageId, SharedBufferPool, StorageError,
    };

    fn small_heap(tuples: usize) -> HeapFile {
        let schema = Schema::training(10);
        let mut b = HeapFileBuilder::new(schema, 8 * 1024, TupleDirection::Ascending).unwrap();
        for k in 0..tuples {
            b.insert(&Tuple::training(&[k as f32; 10], k as f32))
                .unwrap();
        }
        b.finish()
    }

    fn pool(frames: usize) -> SharedBufferPool {
        SharedBufferPool::with_shards(
            BufferPoolConfig {
                pool_bytes: (frames * 8 * 1024) as u64,
                page_size: 8 * 1024,
            },
            1,
        )
    }

    #[test]
    fn miss_then_hit() {
        let heap = small_heap(500);
        let bp = pool(8);
        let disk = DiskModel::ssd();
        let pid = PageId::new(HeapId(1), 0);
        let (b1, io1) = bp.fetch(pid, &heap, &disk).unwrap();
        assert!(io1 > 0.0);
        let (b2, io2) = bp.fetch(pid, &heap, &disk).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(io2, 0.0);
        assert_eq!(bp.stats().hits, 1);
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let heap = small_heap(2000);
        let bp = pool(2);
        let disk = DiskModel::instant();
        let (held, _) = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        // Keep page 0 held; fetch two more pages through the other frame.
        drop(bp.fetch(PageId::new(HeapId(1), 1), &heap, &disk).unwrap());
        drop(bp.fetch(PageId::new(HeapId(1), 2), &heap, &disk).unwrap());
        assert!(bp.contains(PageId::new(HeapId(1), 0)), "held page evicted");
        assert!(
            !bp.contains(PageId::new(HeapId(1), 1)),
            "the unheld frame must be the victim"
        );
        assert!(bp.contains(PageId::new(HeapId(1), 2)));
        assert_eq!(bp.held_frames(), 1);
        drop(held);
        assert_eq!(bp.held_frames(), 0);
    }

    #[test]
    fn all_pinned_exhausts_pool() {
        let heap = small_heap(2000);
        let bp = pool(2);
        let disk = DiskModel::instant();
        let _b0 = bp.fetch(PageId::new(HeapId(1), 0), &heap, &disk).unwrap();
        let b1 = bp.fetch(PageId::new(HeapId(1), 1), &heap, &disk).unwrap();
        let err = bp.fetch(PageId::new(HeapId(1), 2), &heap, &disk);
        assert!(matches!(err, Err(StorageError::BufferPoolExhausted)));
        // Releasing one image frees its frame for the next fetch.
        drop(b1);
        assert!(bp.fetch(PageId::new(HeapId(1), 2), &heap, &disk).is_ok());
    }

    #[test]
    fn prewarm_makes_scans_free() {
        let heap = small_heap(1500);
        let bp = pool(heap.page_count() as usize + 1);
        let disk = DiskModel::ssd();
        bp.prewarm(HeapId(1), &heap).unwrap();
        bp.reset_stats();
        for page_no in 0..heap.page_count() {
            let (_, io) = bp
                .fetch(PageId::new(HeapId(1), page_no), &heap, &disk)
                .unwrap();
            assert_eq!(io, 0.0);
        }
        assert_eq!(bp.stats().misses, 0);
        assert_eq!(bp.stats().io_seconds, 0.0);
        assert!((bp.stats().hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evict_heap_removes_only_that_heap() {
        let heap = small_heap(500);
        let bp = pool(8);
        let disk = DiskModel::instant();
        bp.prewarm(HeapId(1), &heap).unwrap();
        drop(bp.fetch(PageId::new(HeapId(2), 0), &heap, &disk).unwrap());
        let resident_before = bp.resident_pages();
        let evicted = bp.evict_heap_force(HeapId(1));
        assert!(evicted > 0);
        assert_eq!(bp.resident_pages(), resident_before - evicted);
        assert!(!bp.contains(PageId::new(HeapId(1), 0)));
        assert!(bp.contains(PageId::new(HeapId(2), 0)));
        // Idempotent: nothing left to evict.
        assert_eq!(bp.evict_heap_force(HeapId(1)), 0);
    }

    #[test]
    fn frame_bytes_are_the_page_image() {
        let heap = small_heap(100);
        let bp = pool(4);
        let (bytes, _) = bp
            .fetch(PageId::new(HeapId(1), 0), &heap, &DiskModel::instant())
            .unwrap();
        assert_eq!(&*bytes, heap.page_bytes(0).unwrap());
    }
}
