//! The three workloads. Each starts a server, loads and warms up what
//! its timed loop needs (the set-up), then drives the loop for a fixed
//! time from one process with at most two client threads.
//!
//! | workload | loop | layers that do the work |
//! |---|---|---|
//! | `train` | serial and 2-shard training on a resident table | strider, engine, parallel |
//! | `scan` | load → filtered/full EVALUATE → PREDICT → drop, pool smaller than the table | scan, storage, infer |
//! | `serve` | skewed point predictions beside 10/s retraining | serve, admission, accel |

use std::sync::Arc;
use std::time::{Duration, Instant};

use dana::DeployInfo;
use dana_dsl::zoo::{self, DenseParams};
use dana_fpga::FpgaSpec;
use dana_serve::ServeTier;
use dana_server::{
    AdmissionConfig, DanaServer, QueryReply, QueryRequest, ServerConfig, SystemCoreConfig,
};
use dana_storage::{BufferPoolConfig, DiskModel, HeapFile, TupleBatch};

use crate::client::{Client, OpLog};
use crate::data::{self, SkewedKeys, PAGE};
use crate::report::{median, quantile, tail_percentile, Metrics};
use crate::trace::Tracer;

/// What a timed phase observed.
pub struct Phase {
    pub log: OpLog,
    pub wall_s: f64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The operation types of the loop, each with the unit its latency
    /// is reported in (`ms` or `us`).
    const OPS: &'static [(&'static str, &'static str)];

    /// The operation types whose rows `rows_per_s` counts.
    const ROWS_OPS: &'static [&'static str];

    /// Starts a server and brings it to the state the loop starts from.
    fn setup(seed: u64) -> Result<Self, String>;

    fn server(&self) -> &DanaServer;

    fn deploy(&self) -> &DeployInfo;

    /// Wall time of the set-up's DEPLOY.
    fn deploy_ms(&self) -> f64;

    /// The heap the per-layer probes (sidecar build, Strider extraction)
    /// read: the table the loop's heaviest statements scan.
    fn probe_heap(&self) -> Arc<HeapFile>;

    /// Runs the loop until `dur` has passed.
    fn drive(&mut self, dur: Duration, tracer: &Tracer) -> OpLog;

    /// Adds the workload's own measured figures to the detail report.
    fn detail(phase: &Phase, m: &mut Metrics);
}

fn start_server(pool_bytes: u64) -> Arc<DanaServer> {
    Arc::new(DanaServer::start(ServerConfig {
        accelerators: 2,
        workers: 2,
        admission: AdmissionConfig::default(),
        default_timeout_ms: None,
        core: SystemCoreConfig {
            fpga: FpgaSpec::vu9p(),
            pool: BufferPoolConfig {
                pool_bytes,
                page_size: PAGE,
            },
            pool_shards: dana_storage::shared_pool::DEFAULT_SHARDS,
            disk: DiskModel::ssd(),
        },
    }))
}

/// Deploys `spec` against `table`, timed.
fn timed_deploy(
    srv: &DanaServer,
    spec: &dana_dsl::AlgoSpec,
    table: &str,
) -> Result<(DeployInfo, f64), String> {
    let t0 = Instant::now();
    let info = srv.deploy(spec, table).map_err(|e| e.to_string())?;
    Ok((info, t0.elapsed().as_secs_f64() * 1e3))
}

/// An untimed set-up statement.
fn setup_sql(srv: &DanaServer, sql: &str) -> Result<QueryReply, String> {
    let session = srv.open_session("setup");
    srv.call(session, QueryRequest::Sql(sql.to_string()))
        .map_err(|e| format!("{sql}: {e}"))
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn same_pages(a: &HeapFile, b: &HeapFile) -> bool {
    a.page_count() == b.page_count()
        && (0..a.page_count()).all(|p| a.page_bytes(p).ok() == b.page_bytes(p).ok())
}

/// Rows the operations `ops` processed per second they took in total.
fn rows_per_op_second(log: &OpLog, ops: &[&str]) -> f64 {
    let (rows, ms) = ops
        .iter()
        .filter_map(|op| log.ops.get(op))
        .fold((0u64, 0.0), |(r, t), o| {
            (r + o.rows, t + o.wall_ms.iter().sum::<f64>())
        });
    rows as f64 / (ms / 1e3).max(1e-9)
}

// ---- train ---------------------------------------------------------------

const RS_TRAIN: &str = "SELECT * FROM dana.logisticR('rs')";

/// In-database training on a resident table: Remote Sensing LR at 25%
/// (145,275 × 54, 1,069 pages) in a pool that holds all of it, a
/// logistic UDF for 2 epochs, one closed-loop client alternating serial
/// and 2-shard statements.
pub struct Train {
    srv: Arc<DanaServer>,
    deploy: DeployInfo,
    deploy_ms: f64,
    serial_model: Vec<Vec<f32>>,
    gang_model: Vec<Vec<f32>>,
}

impl Workload for Train {
    const OPS: &'static [(&'static str, &'static str)] = &[("train", "ms"), ("train_gang", "ms")];
    const ROWS_OPS: &'static [&'static str] = &["train", "train_gang"];

    fn setup(seed: u64) -> Result<Train, String> {
        let srv = start_server(64 << 20);
        srv.create_table("rs", data::remote_sensing(0.25, seed))
            .map_err(|e| e.to_string())?;
        let (deploy, deploy_ms) = timed_deploy(&srv, &data::remote_sensing_spec(), "rs")?;
        // Warm-up: fills the pool and caches the engine; the models are
        // the reference every timed statement must reproduce bit for bit.
        let serial_model = setup_sql(&srv, &format!("{RS_TRAIN};"))?
            .try_report()
            .map_err(|e| e.to_string())?
            .models
            .clone();
        let gang_model = setup_sql(&srv, &format!("{RS_TRAIN} WITH (shards = 2);"))?
            .try_report()
            .map_err(|e| e.to_string())?
            .models
            .clone();
        Ok(Train {
            srv,
            deploy,
            deploy_ms,
            serial_model,
            gang_model,
        })
    }

    fn server(&self) -> &DanaServer {
        &self.srv
    }

    fn deploy(&self) -> &DeployInfo {
        &self.deploy
    }

    fn deploy_ms(&self) -> f64 {
        self.deploy_ms
    }

    fn probe_heap(&self) -> Arc<HeapFile> {
        self.srv
            .core()
            .table_snapshot("rs")
            .expect("table rs is loaded")
    }

    fn drive(&mut self, dur: Duration, tracer: &Tracer) -> OpLog {
        let mut c = Client::new(&self.srv, "train", tracer);
        let end = Instant::now() + dur;
        while Instant::now() < end {
            for (op, opts, reference) in [
                ("train", &[][..], &self.serial_model),
                ("train_gang", &["shards = 2"][..], &self.gang_model),
            ] {
                if let Some(reply) = c.sql(op, RS_TRAIN, opts) {
                    let same = reply
                        .try_report()
                        .is_ok_and(|r| same_bits(&r.models, reference));
                    c.log.gate(same, || {
                        format!("{op}: model differs from the warm-up model")
                    });
                }
            }
        }
        c.log
    }

    fn detail(phase: &Phase, m: &mut Metrics) {
        let rows_per_s = rows_per_op_second(&phase.log, Self::ROWS_OPS);
        m.wall("train_rows_per_s", "rows/s", rows_per_s);
    }
}

// ---- scan ----------------------------------------------------------------

const SCAN_ROWS: usize = 400_000;
const SCAN_D: usize = 12;
const FILTERED: &str = "EVALUATE dana.linearR('facts') WHERE x0 < 0.1";

/// Batch scoring over freshly loaded data, larger than the buffer pool:
/// 400,000 × 12 rows clustered on `x0` (882 pages, 27.6 MiB raw, about
/// 7.3 MiB compressed) against a 16 MiB pool.
pub struct Scan {
    srv: Arc<DanaServer>,
    deploy: DeployInfo,
    deploy_ms: f64,
    rows: TupleBatch,
    /// EVALUATE over the pre-filtered 10% table: what the filtered
    /// statements must reproduce bit for bit.
    reference: (f64, u64),
}

impl Workload for Scan {
    const OPS: &'static [(&'static str, &'static str)] = &[
        ("load", "ms"),
        ("eval_first", "ms"),
        ("eval_filtered", "ms"),
        ("eval_full", "ms"),
        ("predict", "ms"),
        ("predict_gang", "ms"),
    ];
    const ROWS_OPS: &'static [&'static str] = &[
        "eval_first",
        "eval_filtered",
        "eval_full",
        "predict",
        "predict_gang",
    ];

    fn setup(seed: u64) -> Result<Scan, String> {
        let srv = start_server(16 << 20);
        let rows = data::clustered_linear(SCAN_ROWS, SCAN_D, seed);
        let train = data::clustered_linear(SCAN_ROWS / 10, SCAN_D, seed.wrapping_add(1));
        srv.create_table("scan_train", data::heap_of(train.rows(), SCAN_D))
            .map_err(|e| e.to_string())?;
        let kept = rows.rows().filter(|r| r[0] < 0.1);
        srv.create_table("scan_ref", data::heap_of(kept, SCAN_D))
            .map_err(|e| e.to_string())?;
        let spec = zoo::linear_regression(DenseParams {
            n_features: SCAN_D,
            learning_rate: 0.1,
            merge_coef: 8,
            epochs: 2,
        })
        .map_err(|e| e.to_string())?;
        let (deploy, deploy_ms) = timed_deploy(&srv, &spec, "scan_train")?;
        setup_sql(&srv, "SELECT * FROM dana.linearR('scan_train');")?;
        let reply = setup_sql(&srv, "EVALUATE dana.linearR('scan_ref');")?;
        let eval = reply.try_eval_report().map_err(|e| e.to_string())?;
        Ok(Scan {
            reference: (eval.value, eval.rows_scored),
            srv,
            deploy,
            deploy_ms,
            rows,
        })
    }

    fn server(&self) -> &DanaServer {
        &self.srv
    }

    fn deploy(&self) -> &DeployInfo {
        &self.deploy
    }

    fn deploy_ms(&self) -> f64 {
        self.deploy_ms
    }

    fn probe_heap(&self) -> Arc<HeapFile> {
        Arc::new(data::heap_of(self.rows.rows(), SCAN_D))
    }

    fn drive(&mut self, dur: Duration, tracer: &Tracer) -> OpLog {
        let srv = Arc::clone(&self.srv);
        let mut c = Client::new(&srv, "scan", tracer);
        let end = Instant::now() + dur;
        while Instant::now() < end {
            let rows = &self.rows;
            let loaded = c.call("load", "storage", || {
                srv.create_table("facts", data::heap_of(rows.rows(), SCAN_D))
            });
            if loaded.is_none() {
                continue;
            }
            for op in ["eval_first", "eval_filtered"] {
                if let Some(reply) = c.sql(op, FILTERED, &[]) {
                    let got = reply.try_eval_report().map(|e| (e.value, e.rows_scored));
                    let want = self.reference;
                    c.log.gate(
                        got.as_ref()
                            .is_ok_and(|g| g.0.to_bits() == want.0.to_bits() && g.1 == want.1),
                        || format!("{op}: {got:?} differs from the pre-filtered table's {want:?}"),
                    );
                }
            }
            c.sql("eval_full", "EVALUATE dana.linearR('facts')", &[]);
            let mut created = vec![];
            let base = "PREDICT dana.linearR('facts') INTO";
            for (op, into, opts) in [
                ("predict", "facts_p", &[][..]),
                ("predict_gang", "facts_g", &["shards = 2"][..]),
            ] {
                if c.sql(op, &format!("{base} '{into}'"), opts).is_some() {
                    created.push(into);
                }
            }
            if created.len() == 2 {
                let core = srv.core();
                let same = match (
                    core.table_snapshot("facts_p"),
                    core.table_snapshot("facts_g"),
                ) {
                    (Ok(p), Ok(g)) => same_pages(&p, &g),
                    _ => false,
                };
                c.log.gate(same, || {
                    "2-shard PREDICT pages differ from the serial PREDICT pages".to_string()
                });
            }
            created.push("facts");
            for table in created {
                c.call("drop", "storage", || srv.drop_table(table));
                let held = srv.core().held_frames();
                c.log.gate(held == 0, || {
                    format!("{held} frames held after dropping {table}")
                });
            }
        }
        c.log
    }

    fn detail(_: &Phase, _: &mut Metrics) {}
}

// ---- serve ---------------------------------------------------------------

const SERVE_KEYS: usize = 8_192;
const RETRAIN_EVERY: Duration = Duration::from_millis(100);
const RS_D: usize = 54;

/// Online point predictions beside retraining: Remote Sensing LR at 2%
/// (11,622 × 54) with a logistic model. A closed-loop reader calls
/// `ServeTier::predict_point` (default `ServeConfig`) on log-uniform keys
/// over 8,192 distinct rows; an open-loop writer retrains the UDF ten
/// times a second, each retrain invalidating the prediction cache.
pub struct Serve {
    srv: Arc<DanaServer>,
    tier: ServeTier,
    deploy: DeployInfo,
    deploy_ms: f64,
    keys: SkewedKeys,
    /// The distinct rows keys index, and their materialized predictions.
    rows: Vec<Vec<f32>>,
    expected: Vec<f32>,
    model: Vec<Vec<f32>>,
}

impl Workload for Serve {
    /// Cache hits and misses take different paths through the serving
    /// tier, so each is an operation type of its own.
    const OPS: &'static [(&'static str, &'static str)] =
        &[("point_hit", "us"), ("point_miss", "us"), ("retrain", "ms")];
    const ROWS_OPS: &'static [&'static str] = &["point_hit", "point_miss"];

    fn setup(seed: u64) -> Result<Serve, String> {
        let srv = start_server(64 << 20);
        srv.create_table("rs", data::remote_sensing(0.02, seed))
            .map_err(|e| e.to_string())?;
        let (deploy, deploy_ms) = timed_deploy(&srv, &data::remote_sensing_spec(), "rs")?;
        let model = setup_sql(&srv, &format!("{RS_TRAIN};"))?
            .try_report()
            .map_err(|e| e.to_string())?
            .models
            .clone();
        setup_sql(&srv, "PREDICT dana.logisticR('rs') INTO 'rs_scored';")?;
        let batch = |table: &str| {
            srv.core()
                .table_snapshot(table)
                .and_then(|h| Ok(h.scan_batch()?))
                .map_err(|e| e.to_string())
        };
        let (src, scored) = (batch("rs")?, batch("rs_scored")?);
        let pick = data::distinct_sample(src.len(), SERVE_KEYS, seed);
        let rows = pick.iter().map(|&i| src.row(i).to_vec()).collect();
        // The prediction column follows the source columns.
        let expected = pick.iter().map(|&i| scored.row(i)[RS_D + 1]).collect();
        Ok(Serve {
            tier: ServeTier::with_defaults(Arc::clone(&srv)),
            srv,
            deploy,
            deploy_ms,
            keys: SkewedKeys::new(SERVE_KEYS, seed),
            rows,
            expected,
            model,
        })
    }

    fn server(&self) -> &DanaServer {
        &self.srv
    }

    fn deploy(&self) -> &DeployInfo {
        &self.deploy
    }

    fn deploy_ms(&self) -> f64 {
        self.deploy_ms
    }

    fn probe_heap(&self) -> Arc<HeapFile> {
        self.srv
            .core()
            .table_snapshot("rs")
            .expect("table rs is loaded")
    }

    fn drive(&mut self, dur: Duration, tracer: &Tracer) -> OpLog {
        let start = Instant::now();
        let end = start + dur;
        let (srv, tier, rows, expected, model) = (
            &*self.srv,
            &self.tier,
            &self.rows,
            &self.expected,
            &self.model,
        );
        let keys = &mut self.keys;
        let (reader, writer) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut c = Client::new(srv, "reader", tracer);
                let mut n = 0u64;
                while Instant::now() < end {
                    let k = keys.next_key();
                    let t0 = Instant::now();
                    let result = tier.predict_point(c.session, "logisticR", &rows[k]);
                    let t1 = Instant::now();
                    let reply = match result {
                        Ok(reply) => reply,
                        Err(e) => {
                            eprintln!("point row {k} failed: {e}");
                            c.log.op("point_miss").failed += 1;
                            continue;
                        }
                    };
                    let op = if reply.cached {
                        "point_hit"
                    } else {
                        c.log.batch_rows.push(reply.batch_rows as f64);
                        "point_miss"
                    };
                    tracer.record(tracer.request(), None, op, "serve", t0, t1);
                    let samples = c.log.op(op);
                    samples.wall_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    samples.rows += 1;
                    // Every generation trains the same model (checked by
                    // the writer), so every sampled point must equal the
                    // materialized prediction for its row.
                    n += 1;
                    if n.is_multiple_of(16) {
                        let want = expected[k];
                        c.log
                            .gate(reply.prediction.to_bits() == want.to_bits(), || {
                                format!(
                                    "point row {k}: {} != materialized {want}",
                                    reply.prediction
                                )
                            });
                    }
                }
                c.log
            });
            let writer = s.spawn(|| {
                let mut c = Client::new(srv, "writer", tracer);
                for i in 0u32.. {
                    let due = start + RETRAIN_EVERY * i;
                    if due >= end {
                        break;
                    }
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    c.log
                        .late_ms
                        .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    if let Some(reply) = c.sql_from("retrain", Some(due), RS_TRAIN, &[]) {
                        let same = reply
                            .try_report()
                            .is_ok_and(|r| same_bits(&r.models, model));
                        c.log.gate(same, || {
                            "retrain: model differs from the set-up model".into()
                        });
                    }
                }
                c.log
            });
            (
                reader.join().expect("reader thread"),
                writer.join().expect("writer thread"),
            )
        });
        let mut log = reader;
        log.merge(writer);
        log
    }

    fn detail(phase: &Phase, m: &mut Metrics) {
        let log = &phase.log;
        let points: Vec<f64> = Self::ROWS_OPS
            .iter()
            .filter_map(|op| log.ops.get(op))
            .flat_map(|o| o.wall_ms.iter().map(|ms| ms * 1e3))
            .collect();
        m.wall("point_qps", "1/s", points.len() as f64 / phase.wall_s);
        if let Some(p50) = median(&points) {
            m.wall("point_us.p50", "us", p50);
        }
        if let Some(p) = tail_percentile(points.len()).filter(|&p| p > 50.0) {
            let v = quantile(&points, p / 100.0).unwrap_or(0.0);
            m.wall(&format!("point_us.p{p}"), "us", v);
        }
        if let Some(late) = log.late_ms.iter().copied().reduce(f64::max) {
            m.wall("writer_late_ms.max", "ms", late);
        }
    }
}
