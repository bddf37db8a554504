//! Wall-clock end-to-end benchmark of the DAnA system through its SQL
//! front door.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train|scan|serve> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the run sets up several times (reporting the median
//! set-up time), drives the workload's loop for `--seconds` and prints
//! the end-to-end metrics. With `--trace 1` it sets up once, drives the
//! loop untraced for half the time and traced for the other half, and
//! prints the per-layer metrics. Both print a human-readable report and
//! end with one JSON line; both append a record carrying the host
//! fingerprint to `<out>/results.jsonl` (default `e2ebench-out`, resolved
//! against the working directory), and a traced run writes its spans
//! to `<out>/spans-<workload>-<seed>.jsonl`. A failed correctness gate
//! makes the run exit with code 1.

mod client;
mod data;
mod metrics;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::metrics::{end_to_end, op_medians, per_layer, workload_detail, Probes};
use crate::report::{host_fingerprint, json_str, metrics_json, result_line};
use crate::trace::Tracer;
use crate::workloads::{Phase, Scan, Serve, Train, Workload};

/// An untraced run sets up at least this many times, and until this
/// much time has passed; `setup_s` is the median. A short set-up is
/// repeated more, so its median spans the same stretch of host noise.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_TIME: Duration = Duration::from_secs(2);

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("e2ebench-out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "train" | "scan" | "serve") {
        return Err(format!(
            "--workload must be train, scan or serve, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "train" => bench::<Train>(&args),
        "scan" => bench::<Scan>(&args),
        _ => bench::<Serve>(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn phase<W: Workload>(w: &mut W, dur: Duration, tracer: &Tracer) -> Phase {
    let start = Instant::now();
    let log = w.drive(dur, tracer);
    Phase {
        log,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn bench<W: Workload>(args: &Args) -> Result<bool, String> {
    let dur = Duration::from_secs(args.seconds);
    println!(
        "e2ebench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host: {}", host_fingerprint());

    let mut setup_s = Vec::new();
    let setups_start = Instant::now();
    let mut w = loop {
        let t0 = Instant::now();
        let w = W::setup(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = setup_s.len() >= MIN_SETUPS && setups_start.elapsed() >= MIN_SETUP_TIME;
        if args.trace || enough {
            break w;
        }
    };

    let off = Tracer::new(false);
    let (measured, traced, tracer) = if args.trace {
        let untraced = phase(&mut w, dur / 2, &off);
        let tracer = Tracer::new(true);
        let before = w.server().stats_snapshot(None);
        let traced = phase(&mut w, dur / 2, &tracer);
        let after = w.server().stats_snapshot(None);
        (untraced, Some((traced, before, after)), Some(tracer))
    } else {
        (phase(&mut w, dur, &off), None, None)
    };

    let mut failures = measured.log.gate_failures.clone();
    let mut attempted = measured.log.attempted();
    let mut failed = measured.log.failed();
    if let Some((t, _, _)) = &traced {
        failures.extend(t.log.gate_failures.iter().cloned());
        attempted += t.log.attempted();
        failed += t.log.failed();
    }
    let held = w.server().core().held_frames();
    if held != 0 {
        failures.push(format!(
            "{held} buffer-pool frames held at the end of the run"
        ));
    }

    println!("\noperations ({:.1} s measured):", measured.wall_s);
    print!("{}", op_table::<W>(&measured));
    let mut detail = workload_detail::<W>(&measured, &setup_s, attempted, failed);
    println!("\nworkload metrics:");
    print!("{}", detail.render());

    let result = if let (Some((t, before, after)), Some(tracer)) = (&traced, &tracer) {
        // Self times cover the traced loop only, not the probes below.
        let spans = tracer.spans();
        let probes = Probes::measure(&w, tracer);
        let (layers, extra) = per_layer::<W>(&measured, t, before, after, &spans, &probes);
        println!("\nper-layer metrics (traced half):");
        print!("{}", layers.render());
        print!("{}", extra.render());
        detail.extend(extra);
        let gaps = tracer.stages_without_wall();
        println!("\nprogram stages without wall time:");
        for g in &gaps {
            println!("- [ ] {g}");
        }
        write_out(
            args,
            &format!("spans-{}-{}.jsonl", args.workload, args.seed),
            |p| tracer.write_jsonl(p),
        );
        layers
    } else {
        end_to_end::<W>(&measured, &setup_s)
    };

    let correct = failures.is_empty();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"gate_failures\": [{}], \"metrics\": {}, \"workload_metrics\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host_fingerprint(),
        failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&result, true),
        metrics_json(&detail, true),
    );
    write_out(args, "results.jsonl", |p| append(p, &record));
    if !correct {
        println!("\ncorrectness gates failed: {}", failures.len());
    }
    println!("{}", result_line(correct, attempted, failed, &result));
    Ok(correct)
}

/// Per-operation sample counts, medians and supported tails.
fn op_table<W: Workload>(p: &Phase) -> String {
    let mut out = String::new();
    for (op, unit, n, failed, p50, tail) in op_medians::<W>(&p.log) {
        let tail = tail.map_or("-".to_string(), |(pct, v)| format!("p{pct} {v:.3}"));
        out.push_str(&format!(
            "  {op:<14} n {n:>7}  failed {failed:>3}  p50 {p50:>10.3} {unit:<2}  {tail}\n"
        ));
    }
    out
}

fn append(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}

/// Writes an output file under `--out`; a failure is reported, not fatal,
/// since the result line on stdout is the run's answer.
fn write_out(args: &Args, name: &str, f: impl FnOnce(&std::path::Path) -> std::io::Result<()>) {
    let path = args.out.join(name);
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| f(&path)) {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let a = parse("--workload scan --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("scan", 7, 3, true)
        );
        assert_eq!(a.out, PathBuf::from("e2ebench-out"));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload train --trace 2").is_err());
        assert!(parse("--workload train --seconds 0").is_err());
        assert!(parse("--workload train --bogus 1").is_err());
        assert!(parse("--workload train --seed").is_err());
    }
}
