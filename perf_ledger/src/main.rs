//! The repository benchmark: runs one workload for a fixed time, checks
//! its outputs, and prints the workload shape, any failed check, and —
//! as the last line — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` records spans around every call into the crates, reports
//! the per-layer metrics and writes the spans to
//! `perf_ledger/out/trace-<workload>-<seed>.json`. See README.md for
//! the workloads, the metrics, and which end-to-end metric each layer
//! metric should move.

mod alloc;
mod extract;
mod hostref;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every thread knob (`TftConfig::threads`, `RvfOptions::threads`,
/// `ServeConfig::workers`, the replay pool) is pinned to this. One, not
/// the two cores of the VM the benchmark was tuned on: contention hits
/// each vCPU of a shared host on its own, a two-worker tick waits on the
/// slower one, and no reference timed on one thread tracks that (see
/// `hostref`); single-threaded, the normalised times repeat within a
/// few percent.
pub const THREADS: usize = 1;
/// A traced run fails when layer spans cover less of the end-to-end
/// span than this.
pub const MIN_COVERAGE: f64 = 0.9;
/// Spans written to the trace file at most (all are kept for the
/// statistics).
const MAX_SPANS_WRITTEN: usize = 200_000;
/// Failed checks printed at most.
const MAX_PROBLEMS: usize = 20;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// exercise a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.parse_ms", "ms"),
    ("circuit.dc_ms", "ms"),
    ("circuit.transient_ms", "ms"),
    ("circuit.newton_iters", "count"),
    ("tft.sweep_ms", "ms"),
    ("tft.freq_points", "count"),
    ("core.freq_stage_ms", "ms"),
    ("core.freq_relocation_rounds", "count"),
    ("core.freq_poles", "count"),
    ("core.state_stage_ms", "ms"),
    ("core.state_poles", "count"),
    ("core.lower_us", "us"),
    ("extract.allocs_per_pass", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.tick_ms_p50", "ms"),
    ("core.advance_chunks_ms_p50", "ms"),
    ("core.simulate_into_ms_p50", "ms"),
    ("serve.overhead_frac", "frac"),
    ("core.lane_speedup", "x"),
    ("serve.requests_per_tick", "count"),
    ("serve.allocs_per_tick", "count"),
    ("serve.chunk_latency_us_p99", "us"),
    ("stimulus.repeat_frac", "frac"),
    ("replica.append_us", "us"),
    ("replica.records_per_round", "count"),
    ("replica.bytes_per_round", "B"),
    ("replica.tail_ms", "ms"),
    ("replica.lag_records_max", "count"),
    ("wire.snapshot_ms", "ms"),
    ("wire.snapshot_bytes", "B"),
    ("serve.state_digest_ms", "ms"),
    ("wire.restore_ms", "ms"),
    ("replica.promote_ms", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

const WORKLOADS: &[&str] =
    &["extract_zoo", "serve_pattern_c64", "serve_smooth_c4096", "serve_pattern_c64_standby"];

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `None` marks a metric the run could not measure.
    metrics: BTreeMap<&'static str, Option<f64>>,
    shape: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            }
        }
    }

    /// Records a metric (`None`: it could not be measured).
    pub fn metric(&mut self, name: &'static str, value: Option<f64>) {
        self.metrics.insert(name, value.filter(|v| v.is_finite()));
    }

    /// Records one workload-shape field.
    pub fn shape(&mut self, key: &'static str, value: String) {
        self.shape.push((key, value));
    }
}

/// Peak resident set size of this process so far, in MiB (Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut out, tracer) = match args.workload.as_str() {
        "extract_zoo" => extract::run(args.seed, args.seconds, args.trace),
        "serve_pattern_c64" => serve::run(&serve::PATTERN_C64, args.seed, args.seconds, args.trace),
        "serve_smooth_c4096" => {
            serve::run(&serve::SMOOTH_C4096, args.seed, args.seconds, args.trace)
        }
        _ => serve::run(&serve::PATTERN_C64_STANDBY, args.seed, args.seconds, args.trace),
    };

    // The reported set: every end-to-end metric untraced, every
    // per-layer metric traced. A metric the run could not measure (e.g.
    // a percentile without ten samples beyond it) fails the run; a layer
    // this workload never exercises reads 0.
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(Some(v)) => *v,
            Some(None) => {
                out.check(false, || format!("metric {name} could not be measured"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                out.check(false, || format!("end-to-end metric {name} not reported"));
                0.0
            }
        };
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }

    if let Some(tr) = &tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let header = [
            ("workload", format!("\"{}\"", args.workload)),
            ("seed", args.seed.to_string()),
            ("threads", THREADS.to_string()),
        ];
        match tr.write_json(&path, &header, MAX_SPANS_WRITTEN) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let shape: Vec<String> =
        out.shape.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v))).collect();
    println!("shape: {{\"workload\": \"{}\", {}}}", args.workload, shape.join(", "));
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("fail_frac: {fail_frac} ({} of {} checks)", out.failed, out.attempted);
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
