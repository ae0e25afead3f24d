//! orion-oodb benchmark: three seeded, oracle-checked workloads.
//!
//! ```text
//! orion-perfbench --workload <fleet_query|oltp_wire|navigate> --seed <n>
//!                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints
//! the end-to-end metrics; with `--trace 1` it runs the workload once
//! untraced and once traced (half the time each), records spans around
//! the benchmark's calls into each layer, and prints the per-layer
//! metrics. The last line of standard output is the JSON result. See
//! README.md next to this file for the workloads and the metric map.

mod fleet;
mod fleet_query;
mod navigate;
mod oltp_wire;
mod report;
mod rng;
mod stats;
mod trace;
mod watchdog;

use report::{flat_json, json_str, metrics_json, num, Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Trace;

/// Set-ups timed before the measurement (the last one is measured) and
/// after it. `setup_s` is the median of all of them: spreading them over
/// the run keeps a few seconds of host contention from setting it.
pub const SETUPS_BEFORE: usize = 4;
pub const SETUPS_AFTER: usize = 3;
/// Per-thread span budget of a traced phase (about 40 bytes each).
pub const SPAN_CAP: usize = 150_000;
/// No operation of any workload takes more than a few hundred
/// milliseconds on a healthy build; one that runs this long is stalled.
pub const OP_DEADLINE: Duration = Duration::from_secs(15);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle or durability rejections; a non-empty list fails the run.
    /// The first 20 are kept for the report.
    pub rejections: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload's own figures under the names the benchmark's
    /// README uses (refresh_p50_ms, txn_p99_ms, nav_hot_p50_us, ...).
    pub detail: Metrics,
    /// Shape-level counts; equal for every seed.
    pub shape: Vec<(&'static str, u64)>,
    pub setup_samples: Vec<f64>,
    pub traces: Vec<Trace>,
}

impl Outcome {
    pub fn reject(&mut self, why: String) {
        if self.rejections.len() < 20 {
            self.rejections.push(why);
        }
    }
}

/// Run `build` for each index in `range`, dropping each result before
/// the next build, and return the last result with every build's seconds.
fn timed_setups<T>(
    range: std::ops::Range<usize>,
    build: &impl Fn(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(range.len());
    let mut last = None;
    for i in range {
        drop(last.take());
        let t0 = Instant::now();
        let built = build(i)?;
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("a non-empty set-up range"), samples))
}

/// Set up `SETUPS_BEFORE` times, measure the last set-up, then time
/// `SETUPS_AFTER` more set-ups once the measured one is gone.
fn bench<T>(
    setup: impl Fn(usize) -> Result<T, String>,
    measure: impl FnOnce(T) -> Result<Outcome, String>,
) -> Result<Outcome, String> {
    let (state, mut samples) = timed_setups(0..SETUPS_BEFORE, &setup)?;
    let mut out = measure(state)?;
    let (_, after) = timed_setups(SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER, &setup)?;
    samples.extend(after);
    out.setup_samples = samples;
    Ok(out)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/results");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// Aggregate CPU jiffies from /proc/stat: (steal, total). Steal is time
/// the hypervisor ran someone else while this VM had work; a run with a
/// high share measured a host under contention.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn host_json(steal_pct: Option<f64>) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"cpus\": {cpus}, \"cpu_model\": {}, \"kernel\": {}, \"steal_pct_during_run\": {}}}",
        json_str(&model),
        json_str(&kernel),
        steal_pct.map_or("null".into(), num)
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let jiffies_before = cpu_jiffies();
    let (wd, wd_thread) = watchdog::Watchdog::spawn(2, OP_DEADLINE);
    let result = match args.workload.as_str() {
        "fleet_query" => bench(
            |_| fleet_query::setup(&args),
            |s| fleet_query::run(&args, &wd, s),
        ),
        "oltp_wire" => bench(
            |i| oltp_wire::setup(&args, &wd, i),
            |s| oltp_wire::run(&args, &wd, s),
        ),
        "navigate" => bench(|_| navigate::setup(&args), |s| navigate::run(&args, &wd, s)),
        other => Err(format!("unknown workload {other}")),
    };
    wd.stop();
    wd_thread.thread().unpark();
    let _ = wd_thread.join();
    let steal_pct = match (jiffies_before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Some((s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
        }
        _ => None,
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };

    let mut setup = out.setup_samples.clone();
    let setup_s = stats::median(&mut setup);
    let catalogue = if args.trace {
        PER_LAYER
    } else {
        out.metrics.set("setup_s", setup_s);
        out.metrics.set(
            "ok_ratio",
            1.0 - stats::ratio(out.failed as f64, out.attempted as f64),
        );
        END_TO_END
    };
    // Figures outside the catalogue (the per-layer metrics only the
    // ungated `oltp_wire` workload measures) go on the detail line.
    let outside: Vec<String> = out
        .metrics
        .0
        .keys()
        .filter(|k| !catalogue.iter().any(|(name, _)| name == k))
        .cloned()
        .collect();
    for name in outside {
        let value = out.metrics.0.remove(&name).unwrap_or_default();
        out.detail.set(&name, value);
    }
    out.detail.set("setup_s", setup_s);
    out.detail.set(
        "failed_ratio",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );
    let correct = out.rejections.is_empty() && out.attempted > 0;

    for r in &out.rejections {
        println!("REJECTED: {r}");
    }
    let shape: Vec<String> = out.shape.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("shape: {}", shape.join(" "));
    if let Some(steal) = steal_pct {
        println!("host: cpu steal {steal:.1}% during the run");
    }
    let detail: Vec<String> = out
        .detail
        .0
        .iter()
        .map(|(k, v)| format!("{k}={}", num(*v)))
        .collect();
    println!("{}: {}", args.workload, detail.join(" "));
    if args.trace {
        let not_exercised: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| out.metrics.get(n).is_none())
            .collect();
        if !not_exercised.is_empty() {
            println!(
                "not exercised on {} (reported as 0): {}",
                args.workload,
                not_exercised.join(" ")
            );
        }
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"setup_repeats\": {}, \"setup_samples_s\": [{}], \"shape\": {{{}}}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"detail\": {}}}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        host_json(steal_pct),
        out.setup_samples.len(),
        out.setup_samples
            .iter()
            .map(|v| num(*v))
            .collect::<Vec<_>>()
            .join(", "),
        out.shape
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", "),
        out.attempted,
        out.failed,
        flat_json(&out.metrics),
        flat_json(&out.detail),
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(args.out_dir.join(format!("run-{tag}.json")), record);
    if args.trace {
        let mut csv = String::from("phase,thread,op,id,parent,layer,name,start_ns,end_ns\n");
        for t in &out.traces {
            t.write_csv(&mut csv);
        }
        let path = args.out_dir.join(format!("spans-{}.csv", args.workload));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(catalogue, &out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
