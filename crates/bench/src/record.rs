//! The one writer every `BENCH_*.json` series goes through.
//!
//! Each timing bench appends one JSON line per full (non-smoke) run to a
//! repo-root `BENCH_<name>.json` file — the cross-PR trajectory the
//! baseline checker diffs. Before this module each bench hand-rolled its
//! own record struct and file append, so the files shared no schema and
//! nothing could compare them generically. Now every record carries the
//! same leading fields:
//!
//! - `bench` — the series name,
//! - `baseline_ms` — the reference implementation's time,
//! - `candidate_ms` — the optimized implementation's time,
//! - `speedup` — `baseline_ms / candidate_ms` (the acceptance number),
//! - `smoke` — whether the run used the reduced smoke workload,
//!
//! followed by bench-specific extras (workload shape, calibration data,
//! secondary timings). [`read_series`] loads a file back, and
//! [`common_fields`] also understands the pre-unification legacy key
//! names so committed history stays comparable.

use serde::json::{parse, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One appended line of a `BENCH_*.json` series.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    bench: String,
    baseline_ms: f64,
    candidate_ms: f64,
    smoke: bool,
    extra: Vec<(String, Value)>,
}

impl BenchRecord {
    /// A record for `bench` timing `candidate_ms` against `baseline_ms`
    /// (both milliseconds; the speedup is derived, never hand-set).
    pub fn new(bench: &str, baseline_ms: f64, candidate_ms: f64, smoke: bool) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            baseline_ms,
            candidate_ms,
            smoke,
            extra: Vec::new(),
        }
    }

    /// `baseline / candidate` — the dimensionless acceptance number.
    pub fn speedup(&self) -> f64 {
        if self.candidate_ms > 0.0 {
            self.baseline_ms / self.candidate_ms
        } else {
            0.0
        }
    }

    /// Attaches a bench-specific float field.
    pub fn num(mut self, key: &str, v: f64) -> BenchRecord {
        self.extra.push((key.to_string(), Value::Float(v)));
        self
    }

    /// Attaches a bench-specific integer field.
    pub fn int(mut self, key: &str, v: u64) -> BenchRecord {
        self.extra.push((key.to_string(), Value::Int(v as i64)));
        self
    }

    /// Attaches a bench-specific string field.
    pub fn str(mut self, key: &str, v: &str) -> BenchRecord {
        self.extra
            .push((key.to_string(), Value::Str(v.to_string())));
        self
    }

    /// The record as a JSON object: common schema first, extras after.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("baseline_ms".to_string(), Value::Float(self.baseline_ms)),
            ("candidate_ms".to_string(), Value::Float(self.candidate_ms)),
            ("speedup".to_string(), Value::Float(self.speedup())),
            ("smoke".to_string(), Value::Bool(self.smoke)),
        ];
        pairs.extend(self.extra.iter().cloned());
        Value::Obj(pairs)
    }

    /// Appends the record as one line to `path` — unless this is a smoke
    /// run, whose reduced-workload numbers must never become baselines.
    /// Prints what happened either way so bench logs stay self-reporting.
    pub fn append(&self, path: &Path) {
        if self.smoke {
            println!("smoke mode: not recording (reduced-workload numbers are not baselines)");
            return;
        }
        let mut line = self.to_value().to_string();
        line.push('\n');
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .unwrap_or_else(|e| panic!("appending {}: {e}", path.display()));
        println!("recorded -> {}", path.display());
    }
}

/// Workspace-root path of a bench series file, e.g.
/// `series_path("engine")` → `<root>/BENCH_engine.json`.
///
/// The root is resolved at run time as the `workspace_root` of the
/// working directory (`cargo bench` runs a bench from its package
/// directory, `cargo run` from where it was invoked), so a build copied
/// to another tree writes that tree's series, never the one it was
/// compiled in. Outside any workspace the working directory is used.
pub fn series_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root(&cwd)
        .unwrap_or(cwd)
        .join(format!("BENCH_{name}.json"))
}

/// The nearest of `start` and its ancestors that holds a `Cargo.lock`.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
}

/// Loads every record of a series file (one JSON object per line).
/// A missing file is an empty series, not an error.
pub fn read_series(path: &Path) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The common fields of one series record:
/// `(baseline_ms, candidate_ms, speedup, smoke)`.
///
/// Understands both the unified schema this module writes and the legacy
/// per-bench key names committed before unification, so the baseline
/// checker can diff new runs against pre-existing history.
pub fn common_fields(record: &Value) -> Option<(f64, f64, f64, bool)> {
    let smoke = matches!(record.get("smoke"), Some(Value::Bool(true)));
    if let (Some(b), Some(c), Some(s)) = (
        as_f64(record.get("baseline_ms")?),
        as_f64(record.get("candidate_ms")?),
        as_f64(record.get("speedup")?),
    ) {
        return Some((b, c, s, smoke));
    }
    None
}

/// [`common_fields`], falling back to the legacy key names each series
/// used before the schema was unified.
pub fn common_fields_compat(record: &Value) -> Option<(f64, f64, f64, bool)> {
    if let Some(c) = common_fields(record) {
        return Some(c);
    }
    let bench = match record.get("bench") {
        Some(Value::Str(s)) => s.as_str(),
        _ => return None,
    };
    // (baseline key, candidate key, speedup key, to-milliseconds factor)
    let (bk, ck, sk, scale) = match bench {
        "engine_hot_loop" => (
            "train_interpreter_ms",
            "train_lowered_ms",
            "speedup_lowered_vs_interpreter",
            1.0,
        ),
        "backend_race" => ("per_tuple_ms", "cpu_soa_ms", "soa_speedup", 1.0),
        "scoring_throughput" => (
            "per_tuple_ms",
            "batch_ms",
            "speedup_batch_vs_per_tuple",
            1.0,
        ),
        "parallel_scaling" => ("serial_sim_s", "shards4_sim_s", "speedup_4", 1e3),
        _ => return None,
    };
    let smoke = matches!(record.get("smoke"), Some(Value::Bool(true)));
    match (
        record.get(bk).and_then(as_f64),
        record.get(ck).and_then(as_f64),
        record.get(sk).and_then(as_f64),
    ) {
        (Some(b), Some(c), Some(s)) => Some((b * scale, c * scale, s, smoke)),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_common_schema_first_then_extras() {
        let r = BenchRecord::new("demo", 10.0, 4.0, false)
            .int("tuples", 100)
            .str("workload", "LR")
            .num("aux_ms", 1.5);
        let v = r.to_value();
        let s = v.to_string();
        assert!(
            s.starts_with(
                r#"{"bench":"demo","baseline_ms":10,"candidate_ms":4,"speedup":2.5,"smoke":false"#
            ),
            "{s}"
        );
        let (b, c, sp, smoke) = common_fields(&v).unwrap();
        assert_eq!((b, c, sp, smoke), (10.0, 4.0, 2.5, false));
        // The parsed line round-trips through the compat reader too.
        let back = parse(&s).unwrap();
        assert_eq!(common_fields_compat(&back), Some((10.0, 4.0, 2.5, false)));
    }

    #[test]
    fn compat_reader_understands_legacy_engine_records() {
        let legacy = parse(
            r#"{"bench":"engine_hot_loop","smoke":false,"train_interpreter_ms":5.0,"train_lowered_ms":2.0,"speedup_lowered_vs_interpreter":2.5}"#,
        )
        .unwrap();
        assert_eq!(common_fields(&legacy), None);
        assert_eq!(common_fields_compat(&legacy), Some((5.0, 2.0, 2.5, false)));
        // Legacy parallel records scale seconds into the common unit.
        let legacy = parse(
            r#"{"bench":"parallel_scaling","smoke":false,"serial_sim_s":0.4,"shards4_sim_s":0.1,"speedup_4":4.0}"#,
        )
        .unwrap();
        let (b, c, s, _) = common_fields_compat(&legacy).unwrap();
        assert!((b - 400.0).abs() < 1e-9 && (c - 100.0).abs() < 1e-9 && s == 4.0);
    }

    #[test]
    fn series_files_live_at_the_nearest_lockfile_ancestor() {
        let root = std::env::temp_dir().join("dana_bench_root_test");
        let _ = std::fs::remove_dir_all(&root);
        let deep = root.join("crates/bench");
        std::fs::create_dir_all(&deep).unwrap();
        std::fs::write(root.join("Cargo.lock"), "").unwrap();
        assert_eq!(workspace_root(&deep), Some(root.clone()));
        assert_eq!(workspace_root(&root), Some(root.clone()));
        // A nested workspace's own lockfile wins.
        std::fs::write(root.join("crates/Cargo.lock"), "").unwrap();
        assert_eq!(workspace_root(&deep), Some(root.join("crates")));
        let _ = std::fs::remove_dir_all(&root);

        // From inside this checkout the series are the repo-root files
        // the baseline checker has always read.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            series_path("serve")
                .parent()
                .unwrap()
                .canonicalize()
                .unwrap(),
            repo.canonicalize().unwrap()
        );
    }

    #[test]
    fn smoke_records_never_reach_disk() {
        let dir = std::env::temp_dir().join("dana_bench_record_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        BenchRecord::new("t", 2.0, 1.0, true).append(&path);
        assert!(read_series(&path).unwrap().is_empty());
        BenchRecord::new("t", 2.0, 1.0, false).append(&path);
        BenchRecord::new("t", 3.0, 1.0, false).append(&path);
        let series = read_series(&path).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(common_fields(&series[1]).unwrap().2, 3.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
