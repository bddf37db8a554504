//! From samples to named metrics: the end-to-end set every workload
//! reports, the workload's own detail, and the per-layer set of a traced
//! run.

use std::hint::black_box;
use std::time::Instant;

use dana_fpga::{AxiLink, FpgaSpec};
use dana_scan::ScanSidecar;
use dana_strider::{AccessEngine, AccessEngineConfig};

use dana::{DanaTiming, StatsSnapshot};

use crate::client::OpLog;
use crate::report::{geomean, median, quantile, tail_percentile, Clock, Metrics};
use crate::trace::{self_time_by_layer, Span, Tracer};
use crate::workloads::{Phase, Workload};

/// The end-to-end metrics (`--trace 0`), the same on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    // Server start to first timed operation: data generation, load,
    // deploy and warm-up.
    ("setup_s", "s"),
    // Rows processed per second (rows × epochs trained, rows scored, or
    // point predictions served) with every operation at its type's median
    // latency: Σ rows / Σ count × median. Medians, so a stall on a shared
    // host moves it little; the measured rate is in the detail report.
    ("rows_per_s", "rows/s"),
    // Geometric mean over the loop's operation types of each type's
    // median latency, so every type weighs the same however long it is.
    ("op_ms.p50", "ms"),
];

/// The layers self time is reported for.
pub const LAYERS: &[&str] = &[
    "server",
    "query",
    "admission",
    "accel",
    "storage",
    "scan",
    "strider",
    "engine",
    "parallel",
    "infer",
    "serve",
];

/// The per-layer metrics (`--trace 1`), the same on every workload; a
/// count or share of a layer a workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str, Clock)] = &[
    ("scan.sidecar_build_ms", "ms", Clock::Wall),
    ("scan.compression_ratio", "ratio", Clock::Wall),
    ("scan.pages_skipped_frac", "frac", Clock::Wall),
    ("scan.rows_emitted_frac", "frac", Clock::Wall),
    ("scan.bytes_decompressed", "bytes", Clock::Wall),
    ("storage.hits", "count", Clock::Wall),
    ("storage.misses", "count", Clock::Wall),
    ("storage.evictions", "count", Clock::Wall),
    ("storage.hit_ratio", "frac", Clock::Wall),
    ("storage.resident_bytes", "bytes", Clock::Wall),
    ("strider.extract_ms", "ms", Clock::Wall),
    ("strider.tuples_extracted", "count", Clock::Wall),
    ("engine.exec_wall_ms.mean", "ms", Clock::Wall),
    ("engine.epochs_run", "count", Clock::Wall),
    ("engine.engines_built", "count", Clock::Wall),
    ("engine.cache_hits", "count", Clock::Wall),
    ("parallel.gang_ratio", "ratio", Clock::Wall),
    ("parallel.merge_count", "count", Clock::Wall),
    ("infer.rows_scored", "count", Clock::Wall),
    ("serve.hit_ratio", "frac", Clock::Wall),
    ("serve.batch_occupancy.mean", "rows", Clock::Wall),
    ("serve.coalesced_dispatches", "count", Clock::Wall),
    ("serve.invalidations", "count", Clock::Wall),
    ("admission.wait_ms.p50", "ms", Clock::Wall),
    ("admission.shed", "count", Clock::Wall),
    ("accel.lease_wait_ms.p50", "ms", Clock::Wall),
    ("accel.utilization", "frac", Clock::Wall),
    ("server.exec_ms.p50", "ms", Clock::Wall),
    ("server.unattributed_ms", "ms", Clock::Wall),
    ("query.parse_us.p50", "us", Clock::Wall),
    ("compiler.deploy_ms", "ms", Clock::Wall),
    ("obs.trace_overhead_frac", "frac", Clock::Wall),
    ("obs.unattributed_ms", "ms", Clock::Wall),
    ("obs.self_frac.server", "frac", Clock::Wall),
    ("obs.self_frac.query", "frac", Clock::Wall),
    ("obs.self_frac.admission", "frac", Clock::Wall),
    ("obs.self_frac.accel", "frac", Clock::Wall),
    ("obs.self_frac.storage", "frac", Clock::Wall),
    ("obs.self_frac.scan", "frac", Clock::Wall),
    ("obs.self_frac.strider", "frac", Clock::Wall),
    ("obs.self_frac.engine", "frac", Clock::Wall),
    ("obs.self_frac.parallel", "frac", Clock::Wall),
    ("obs.self_frac.infer", "frac", Clock::Wall),
    ("obs.self_frac.serve", "frac", Clock::Wall),
];

/// Per-layer figures that are printed and recorded but kept off the
/// result line, because they read the same on every run of a workload:
/// the deterministic cycle model's times, and times of layers that not
/// every workload uses (0 there).
pub const LAYER_DETAIL: &[(&str, &str, Clock)] = &[
    ("scan.decompress_sim_ms", "sim_ms", Clock::Sim),
    ("strider.sim_ms", "sim_ms", Clock::Sim),
    ("engine.sim_ms", "sim_ms", Clock::Sim),
    ("infer.materialize_ms.p50", "ms", Clock::Wall),
    ("serve.hit_us.p50", "us", Clock::Wall),
    ("serve.miss_us.p50", "us", Clock::Wall),
    ("serve.writer_late_ms.max", "ms", Clock::Wall),
];

/// Converts a latency in ms to an operation's reporting unit.
fn in_unit(ms: f64, unit: &str) -> f64 {
    if unit == "us" {
        ms * 1e3
    } else {
        ms
    }
}

/// One row per operation type: (op, unit, samples, failed, median,
/// highest supported tail as (percentile, value)), latencies in `unit`.
#[allow(clippy::type_complexity)]
pub fn op_medians<W: Workload>(
    log: &OpLog,
) -> Vec<(
    &'static str,
    &'static str,
    usize,
    u64,
    f64,
    Option<(f64, f64)>,
)> {
    W::OPS
        .iter()
        .map(|&(op, unit)| {
            let s = log.ops.get(op).cloned().unwrap_or_default();
            let p50 = in_unit(median(&s.wall_ms).unwrap_or(0.0), unit);
            let tail = tail_percentile(s.wall_ms.len())
                .filter(|&p| p > 50.0)
                .map(|p| {
                    let v = quantile(&s.wall_ms, p / 100.0).unwrap_or(0.0);
                    (p, in_unit(v, unit))
                });
            (op, unit, s.wall_ms.len(), s.failed, p50, tail)
        })
        .collect()
}

/// Geometric mean over operation types of each type's median, in ms.
fn op_ms_p50<W: Workload>(log: &OpLog) -> f64 {
    let medians: Vec<f64> = W::OPS
        .iter()
        .map(|(op, _)| {
            log.ops
                .get(op)
                .and_then(|s| median(&s.wall_ms))
                .unwrap_or(0.0)
        })
        .collect();
    geomean(&medians).unwrap_or(0.0)
}

/// Σ over statement types of the median of one `DanaTiming` field, in ms.
fn sim_sum(log: &OpLog, field: fn(&DanaTiming) -> f64) -> f64 {
    log.ops
        .values()
        .filter_map(|s| median(&s.timing.iter().map(field).collect::<Vec<_>>()))
        .sum::<f64>()
        * 1e3
}

/// Σ rows over Σ count × median latency of the operation types `ops`.
fn rows_at_median(log: &OpLog, ops: &[&str]) -> f64 {
    let (rows, ms) = ops
        .iter()
        .filter_map(|op| log.ops.get(op))
        .filter_map(|o| Some((o.rows, o.wall_ms.len() as f64 * median(&o.wall_ms)?)))
        .fold((0u64, 0.0), |(r, t), (rows, ms)| (r + rows, t + ms));
    ratio(rows as f64, ms / 1e3)
}

pub fn end_to_end<W: Workload>(p: &Phase, setup_s: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    m.wall("setup_s", "s", median(setup_s).unwrap_or(0.0));
    m.wall("rows_per_s", "rows/s", rows_at_median(&p.log, W::ROWS_OPS));
    m.wall("op_ms.p50", "ms", op_ms_p50::<W>(&p.log));
    debug_assert_eq!(m.iter().count(), END_TO_END.len());
    m
}

/// The workload's own metrics by operation, with sample counts' tails,
/// failures and the cycle model's view — informational, not gated.
pub fn workload_detail<W: Workload>(
    p: &Phase,
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
) -> Metrics {
    let mut m = Metrics::default();
    m.wall("setup_s", "s", median(setup_s).unwrap_or(0.0));
    m.wall(
        "failed_op_frac",
        "frac",
        failed as f64 / attempted.max(1) as f64,
    );
    m.sim("sim_ms", "sim_ms", sim_sum(&p.log, |t| t.total_seconds));
    W::detail(p, &mut m);
    for (op, unit, n, _, p50, tail) in op_medians::<W>(&p.log) {
        let base = format!("{op}_{unit}");
        m.wall(&format!("{base}.p50"), unit, p50);
        m.wall(&format!("{base}.n"), "count", n as f64);
        if let Some((pct, v)) = tail {
            m.wall(&format!("{base}.p{pct}"), unit, v);
        }
    }
    m
}

/// Layer timings measured by calling the layer's entry point directly
/// on the workload's main table, plus the set-up's DEPLOY.
pub struct Probes {
    pub sidecar_build_ms: f64,
    pub extract_ms: f64,
    /// Pages of the probed table.
    pub pages: f64,
    pub deploy_ms: f64,
}

impl Probes {
    const REPS: usize = 3;

    pub fn measure<W: Workload>(w: &W, tracer: &Tracer) -> Probes {
        let heap = w.probe_heap();
        let fpga = FpgaSpec::vu9p();
        let engine = AccessEngine::for_table(
            *heap.layout(),
            heap.schema().clone(),
            AccessEngineConfig::new(
                w.deploy().num_striders,
                fpga.clock,
                AxiLink::with_bandwidth(fpga.axi_bandwidth),
            ),
        );
        let time = |name: &str, layer: &'static str, f: &dyn Fn()| {
            let samples: Vec<f64> = (0..Self::REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    let t1 = Instant::now();
                    tracer.record(tracer.request(), None, name, layer, t0, t1);
                    (t1 - t0).as_secs_f64() * 1e3
                })
                .collect();
            median(&samples).unwrap_or(0.0)
        };
        Probes {
            sidecar_build_ms: time("ScanSidecar::build", "scan", &|| {
                black_box(ScanSidecar::build(black_box(&heap)).expect("heap pages are valid"));
            }),
            extract_ms: time("AccessEngine::extract_heap", "strider", &|| {
                black_box(
                    engine
                        .extract_heap(black_box(&heap))
                        .expect("heap pages are valid"),
                );
            }),
            pages: heap.page_count() as f64,
            deploy_ms: w.deploy_ms(),
        }
    }
}

/// Counter growth between two `SHOW STATS` snapshots.
fn delta(before: &StatsSnapshot, after: &StatsSnapshot, sub: &str, name: &str) -> f64 {
    after.get(sub, name).unwrap_or(0.0) - before.get(sub, name).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// The per-layer metrics of a traced run: `untraced` is the first half
/// (for the tracing overhead and gang ratios), `traced` the second,
/// bracketed by `SHOW STATS` snapshots, whose `spans` give self times.
/// Returns the result-line metrics and the [`LAYER_DETAIL`] ones.
pub fn per_layer<W: Workload>(
    untraced: &Phase,
    traced: &Phase,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    spans: &[Span],
    probes: &Probes,
) -> (Metrics, Metrics) {
    let log = &traced.log;
    let d = |sub: &str, name: &str| delta(before, after, sub, name);
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let (mut m, mut extra) = (Metrics::default(), Metrics::default());
    let mut put = |name: &str, value: f64| {
        let find = |list: &[(&str, &'static str, Clock)]| {
            list.iter()
                .find(|(n, ..)| *n == name)
                .map(|&(_, u, c)| (u, c))
        };
        match (find(PER_LAYER), find(LAYER_DETAIL)) {
            (Some((unit, clock)), _) => m.put(name, unit, clock, value),
            (None, Some((unit, clock))) => extra.put(name, unit, clock, value),
            (None, None) => panic!("per-layer metric {name} is not listed"),
        }
    };

    put("scan.sidecar_build_ms", probes.sidecar_build_ms);
    put(
        "scan.compression_ratio",
        ratio(d("scan", "raw_bytes"), d("scan", "compressed_bytes")),
    );
    put(
        "scan.pages_skipped_frac",
        ratio(
            d("scan", "pages_skipped"),
            d("scan", "queries") * probes.pages,
        ),
    );
    put(
        "scan.rows_emitted_frac",
        ratio(d("scan", "rows_emitted"), d("scan", "rows_considered")),
    );
    put("scan.bytes_decompressed", d("scan", "bytes_decompressed"));
    put(
        "scan.decompress_sim_ms",
        sim_sum(log, |t| t.decompress_seconds),
    );

    let (hits, misses) = (d("buffer", "hits"), d("buffer", "misses"));
    put("storage.hits", hits);
    put("storage.misses", misses);
    put("storage.evictions", d("buffer", "evictions"));
    put("storage.hit_ratio", ratio(hits, hits + misses));
    put("storage.resident_bytes", med(&log.resident_bytes));

    put("strider.extract_ms", probes.extract_ms);
    put("strider.tuples_extracted", log.tuples_extracted as f64);
    put("strider.sim_ms", sim_sum(log, |t| t.strider_seconds));

    put(
        "engine.exec_wall_ms.mean",
        after.get("engine", "exec_wall_mean_s").unwrap_or(0.0) * 1e3,
    );
    put("engine.epochs_run", d("engine", "epochs_run"));
    put(
        "engine.engines_built",
        after.get("engine", "engines_built").unwrap_or(0.0),
    );
    put("engine.cache_hits", d("engine", "engine_cache_hits"));
    put("engine.sim_ms", sim_sum(log, |t| t.engine_seconds));

    // Gang over serial, per pair of operation types the loop runs both
    // ways (from the untraced half, whose walls carry no tracing cost).
    let gang_ratios: Vec<f64> = W::OPS
        .iter()
        .filter_map(|(op, _)| {
            let serial = median(&untraced.log.ops.get(op)?.wall_ms)?;
            let gang_op = format!("{op}_gang");
            let gang = median(&untraced.log.ops.get(gang_op.as_str())?.wall_ms)?;
            Some(gang / serial)
        })
        .collect();
    put("parallel.gang_ratio", geomean(&gang_ratios).unwrap_or(0.0));
    put("parallel.merge_count", log.merges as f64);

    put("infer.materialize_ms.p50", med(&log.materialize_ms));
    put("infer.rows_scored", log.rows_scored as f64);

    let point = |op: &str| log.ops.get(op).map_or(&[][..], |o| &o.wall_ms[..]);
    let (hit_ms, miss_ms) = (point("point_hit"), point("point_miss"));
    let n_hit = hit_ms.len() as f64;
    put(
        "serve.hit_ratio",
        ratio(n_hit, n_hit + miss_ms.len() as f64),
    );
    put("serve.hit_us.p50", med(hit_ms) * 1e3);
    put("serve.miss_us.p50", med(miss_ms) * 1e3);
    put("serve.batch_occupancy.mean", mean(&log.batch_rows));
    put(
        "serve.coalesced_dispatches",
        d("serving", "coalesced_dispatches"),
    );
    put("serve.invalidations", d("serving", "cache_invalidations"));
    put(
        "serve.writer_late_ms.max",
        log.late_ms.iter().copied().fold(0.0, f64::max),
    );

    put("admission.wait_ms.p50", med(&log.queue_ms));
    put("admission.shed", d("admission", "shed"));
    put("accel.lease_wait_ms.p50", med(&log.lease_ms));
    put(
        "accel.utilization",
        after.get("pool", "utilization").unwrap_or(0.0),
    );

    put("server.exec_ms.p50", med(&log.exec_ms));
    put("server.unattributed_ms", med(&log.server_unattributed_ms));
    put("query.parse_us.p50", med(&log.parse_us));
    put("compiler.deploy_ms", probes.deploy_ms);

    let (untraced_ms, traced_ms) = (op_ms_p50::<W>(&untraced.log), op_ms_p50::<W>(log));
    put(
        "obs.trace_overhead_frac",
        ratio(traced_ms, untraced_ms) - 1.0,
    );
    put("obs.unattributed_ms", med(&log.trace_unattributed_ms));
    let (self_us, top_us) = self_time_by_layer(spans);
    for l in LAYERS {
        let us = self_us.get(l).copied().unwrap_or(0.0);
        put(&format!("obs.self_frac.{l}"), ratio(us, top_us));
    }

    assert_eq!(
        m.iter().count() + extra.iter().count(),
        PER_LAYER.len() + LAYER_DETAIL.len(),
        "a listed per-layer metric was not computed"
    );
    (m, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics and workloads the
    /// benchmark prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let metrics = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        for (name, unit) in metrics {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) is not declared");
        }
        for w in ["train", "scan", "serve"] {
            assert!(json.contains(&format!("{{\"name\":\"{w}\",\"why\"")), "{w}");
        }
        for (name, ..) in LAYER_DETAIL {
            assert!(!json.contains(&format!("\"{name}\"")), "{name} is declared");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
