//! Seeded inputs. Every table and key stream is a pure function of the
//! `--seed` argument; the program under test only ever sees the results.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dana_storage::page::TupleDirection;
use dana_storage::{HeapFile, HeapFileBuilder, Schema, Tuple, TupleBatch};

/// Page size for every table (the paper's 32 KiB PostgreSQL pages).
pub const PAGE: usize = 32 * 1024;

/// The paper's Remote Sensing LR dataset at `fraction` of its Table-3
/// size, from the repository's own seeded generator.
pub fn remote_sensing(fraction: f64, seed: u64) -> HeapFile {
    let w = dana_workloads::workload("Remote Sensing LR")
        .expect("Remote Sensing LR is a Table-3 workload")
        .scaled(fraction);
    dana_workloads::generate(&w, PAGE, seed)
        .expect("generated tuples fit a 32 KiB page")
        .heap
}

/// The Remote Sensing LR UDF (logistic regression, the paper's epochs).
pub fn remote_sensing_spec() -> dana_dsl::AlgoSpec {
    dana_workloads::workload("Remote Sensing LR")
        .expect("Remote Sensing LR is a Table-3 workload")
        .spec()
}

/// Linear-regression rows `(x, y)` with `d` features, flat (`d + 1`
/// floats per row), clustered on `x0`: row `k` has `x0` in the middle
/// of `[k/n, (k+1)/n)`, far enough from either end that f32 rounding
/// keeps it inside, so `x0 < 0.1` selects exactly the first tenth and
/// zone maps see one contiguous page range — the layout of a time- or
/// key-sorted fact table.
pub fn clustered_linear(n: usize, d: usize, seed: u64) -> TupleBatch {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA4_0001);
    let truth: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let mut rows = TupleBatch::with_capacity(d + 1, n);
    let mut row = vec![0f32; d + 1];
    for k in 0..n {
        // Features take 29 levels, as coded or bucketed fact columns do,
        // which is what lets the page codec pack them.
        for v in row.iter_mut().take(d) {
            *v = (rng.random_range(0u32..29) as f32 - 14.0) / 14.0;
        }
        let jitter: f64 = rng.random_range(0.25..0.75);
        row[0] = ((k as f64 + jitter) / n as f64) as f32;
        let y: f32 = row[..d].iter().zip(&truth).map(|(a, b)| a * b).sum();
        row[d] = y + rng.random_range(-0.02f32..0.02);
        rows.push_row(&row);
    }
    rows
}

/// Loads flat training rows (`features…, label`) into a heap file — the
/// client side of a bulk load.
pub fn heap_of<'a>(rows: impl Iterator<Item = &'a [f32]>, d: usize) -> HeapFile {
    let mut b = HeapFileBuilder::new(Schema::training(d), PAGE, TupleDirection::Ascending)
        .expect("training schema fits a 32 KiB page");
    for r in rows {
        b.insert(&Tuple::training(&r[..d], r[d]))
            .expect("training tuple fits a page");
    }
    b.finish()
}

/// A seeded draw of `k` distinct indices from `0..n` (Fisher–Yates
/// prefix).
pub fn distinct_sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= n, "cannot draw {k} distinct indices from {n}");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3E_0002);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Log-uniform (skewed) keys over `0..n`: key `k` is drawn with
/// probability `ln((k+2)/(k+1)) / ln(n+1)`, so small keys repeat often
/// and the tail is long — the shape of real point-lookup traffic.
pub struct SkewedKeys {
    rng: StdRng,
    n: usize,
}

impl SkewedKeys {
    pub fn new(n: usize, seed: u64) -> SkewedKeys {
        assert!(n > 0, "key space must be non-empty");
        SkewedKeys {
            rng: StdRng::seed_from_u64(seed ^ 0x6E75_0003),
            n,
        }
    }

    pub fn next_key(&mut self) -> usize {
        let u: f64 = self.rng.random_range(0.0..1.0);
        let k = ((self.n as f64 + 1.0).powf(u) - 1.0) as usize;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(heap: &HeapFile) -> Vec<Vec<u8>> {
        (0..heap.page_count())
            .map(|p| heap.page_bytes(p).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_keys() {
        let draw = |seed| {
            let mut k = SkewedKeys::new(8192, seed);
            (0..5_000).map(|_| k.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let keys = draw(7);
        assert!(keys.iter().all(|&k| k < 8192));
        // Skewed: the first 1% of keys take far more than 1% of draws.
        let head = keys.iter().filter(|&&k| k < 82).count();
        assert!(head > keys.len() / 3, "head share {head}/{}", keys.len());
        assert_eq!(distinct_sample(100, 10, 3), distinct_sample(100, 10, 3));
        assert_ne!(distinct_sample(100, 10, 3), distinct_sample(100, 10, 4));
    }

    #[test]
    fn same_seed_gives_the_same_tables() {
        let a = clustered_linear(5_000, 12, 11);
        let b = clustered_linear(5_000, 12, 11);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), clustered_linear(5_000, 12, 12).as_slice());
        assert_eq!(pages(&heap_of(a.rows(), 12)), pages(&heap_of(b.rows(), 12)));
        // Clustered: x0 ascends and `x0 < 0.1` is exactly the first tenth.
        assert!(a.rows().zip(a.rows().skip(1)).all(|(p, q)| p[0] <= q[0]));
        assert_eq!(a.rows().filter(|r| r[0] < 0.1).count(), 500);
        assert_eq!(
            pages(&remote_sensing(0.001, 5)),
            pages(&remote_sensing(0.001, 5))
        );
        assert_ne!(
            pages(&remote_sensing(0.001, 5)),
            pages(&remote_sensing(0.001, 6))
        );
    }
}
