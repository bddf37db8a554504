//! Churn classification: logistic regression *and* SVM deployed over the
//! same customer table, compared across MADlib-style, Greenplum-style, and
//! DAnA execution.
//!
//! ```sh
//! cargo run --release --example churn_classification
//! ```

use dana::prelude::*;
use dana_ml::{metrics, CpuModel, GreenplumExecutor, MadlibExecutor};
use dana_storage::HeapId;
use dana_workloads::{generate, workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut w = workload("Remote Sensing LR").unwrap().scaled(0.05); // ~29000 x 54
    w.epochs = 15;
    w.learning_rate = 0.5;
    w.merge_coef = 16;
    let table = generate(&w, 32 * 1024, 99)?;
    let data = table.heap.scan_batch()?;

    let mut db = Dana::default_system();
    db.create_table("customers", table.heap.clone())?;
    db.prewarm("customers")?;

    // Deploy BOTH classifiers against the same table.
    db.deploy(&w.spec(), "customers")?; // logisticR
    let mut svm_w = workload("Remote Sensing SVM").unwrap().scaled(0.02);
    svm_w.epochs = 15;
    svm_w.learning_rate = 0.2;
    svm_w.merge_coef = 16;
    // SVM needs ±1 labels: use its own generated table.
    let svm_table = generate(&svm_w, 32 * 1024, 99)?;
    db.create_table("customers_pm1", svm_table.heap)?;
    db.prewarm("customers_pm1")?;
    db.deploy(&svm_w.spec(), "customers_pm1")?;

    println!("deployed UDFs: {:?}", db.catalog().accelerator_names());

    let logistic = db.execute("SELECT * FROM dana.logisticR('customers');")?;
    let lm = dana_ml::DenseModel(logistic.report.dense_model().to_vec());
    println!(
        "\nlogistic regression: accuracy {:.1}%  ({} threads, {:.2} ms simulated)",
        100.0 * metrics::classification_accuracy(&lm, &data, false).unwrap(),
        logistic.report.num_threads,
        logistic.report.timing.total_seconds * 1e3
    );

    let svm = db.execute("SELECT * FROM dana.svm('customers_pm1');")?;
    println!(
        "svm:                 {} threads, {:.2} ms simulated",
        svm.report.num_threads,
        svm.report.timing.total_seconds * 1e3
    );

    // Software baselines on the logistic table.
    let cfg = TrainConfig {
        algorithm: Algorithm::Logistic,
        learning_rate: 0.5,
        batch: 1,
        epochs: w.epochs,
        ..Default::default()
    };
    let mk_pool = || {
        dana_storage::SharedBufferPool::new(BufferPoolConfig {
            pool_bytes: 1 << 30,
            page_size: 32 * 1024,
        })
    };
    let pool = mk_pool();
    pool.prewarm(HeapId(0), &table.heap)?;
    let madlib = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::ssd()).train(
        &pool,
        HeapId(0),
        &table.heap,
        &cfg,
    )?;
    let pool = mk_pool();
    pool.prewarm(HeapId(0), &table.heap)?;
    let gp = GreenplumExecutor::new(CpuModel::i7_6700(), DiskModel::ssd(), 8).train(
        &pool,
        HeapId(0),
        &table.heap,
        &cfg,
    )?;

    println!("\n--- simulated end-to-end comparison (logistic) ---");
    println!("  MADlib/PostgreSQL : {:>9.4} s", madlib.total_seconds);
    println!("  MADlib/Greenplum-8: {:>9.4} s", gp.total_seconds);
    println!(
        "  DAnA              : {:>9.4} s",
        logistic.report.timing.total_seconds
    );
    println!(
        "  DAnA speedup      : {:>8.1}x over PostgreSQL, {:.1}x over Greenplum",
        madlib.total_seconds / logistic.report.timing.total_seconds,
        gp.total_seconds / logistic.report.timing.total_seconds
    );
    Ok(())
}
