//! The paper's motivating Example 1: "A marketing firm ... forecasts the
//! hourly ad serving load by running a multi-regression model across a
//! hundred features available in their data."
//!
//! Without DAnA, the data scientist must export her table and hand-design
//! Verilog. Here she writes the update rule in the DSL, deploys, and the
//! comparison against in-database MADlib-style execution falls out.
//!
//! ```sh
//! cargo run --release --example ad_load_forecasting
//! ```

use dana::prelude::*;
use dana_ml::{metrics, CpuModel, MadlibExecutor};
use dana_storage::HeapId;
use dana_workloads::{generate, workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The firm's table: 100 features, tens of thousands of rows.
    let mut w = workload("Patient").unwrap();
    w.features = 100;
    w.tuples = 20_000;
    w.epochs = 40;
    w.learning_rate = 0.1;
    let table = generate(&w, 32 * 1024, 7)?;
    let data = table.heap.scan_batch()?;

    // --- DAnA path -----------------------------------------------------
    let mut db = Dana::default_system();
    db.create_table("ad_serving_history", table.heap.clone())?;
    db.prewarm("ad_serving_history")?;
    db.deploy(&w.spec(), "ad_serving_history")?;
    let out = db.execute("SELECT * FROM dana.linearR('ad_serving_history');")?;
    let dana_model = dana_ml::DenseModel(out.report.dense_model().to_vec());
    let dana_seconds = out.report.timing.total_seconds;

    // --- In-database software path (MADlib-class) -----------------------
    let exec = MadlibExecutor::new(CpuModel::i7_6700(), DiskModel::ssd());
    let pool = dana_storage::SharedBufferPool::new(BufferPoolConfig {
        pool_bytes: 1 << 30,
        page_size: 32 * 1024,
    });
    pool.prewarm(HeapId(0), &table.heap)?;
    pool.reset_stats();
    // Per-tuple SGD needs a gentler step than the batched accelerator run.
    let cfg = TrainConfig {
        algorithm: Algorithm::Linear,
        learning_rate: 0.005,
        batch: 1,
        epochs: w.epochs,
        ..Default::default()
    };
    let madlib = exec.train(&pool, HeapId(0), &table.heap, &cfg)?;

    // --- Report ----------------------------------------------------------
    println!(
        "ad-load forecasting, 100 features x {} rows, {} epochs",
        w.tuples, w.epochs
    );
    println!(
        "  DAnA accelerator : {:>9.3} s   (mse {:.5})",
        dana_seconds,
        metrics::mse(&dana_model, &data).unwrap()
    );
    println!(
        "  MADlib/PostgreSQL: {:>9.3} s   (mse {:.5})",
        madlib.total_seconds,
        metrics::mse(madlib.model.as_dense(), &data).unwrap()
    );
    println!(
        "  speedup          : {:>8.1}x",
        madlib.total_seconds / dana_seconds
    );
    Ok(())
}
