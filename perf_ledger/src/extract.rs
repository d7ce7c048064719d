//! `extract_zoo`: sequential passes, each taking every zoo family (14
//! netlist decks) plus the paper buffer from input to `CompiledSim`.
//!
//! The untraced path is the library's own `extract_model` + `compile`.
//! The traced path calls the same public stages one by one (parse, DC,
//! training transient, TFT sweep, frequency stage, state stage,
//! lowering) with a span around each; both must yield bit-identical
//! compiled tables, which the fingerprint gate checks.

use std::time::{Duration, Instant};

use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config};
use rvf_circuit::{dc_operating_point, parse_netlist, transient, Circuit, DcOptions, TranOptions};
use rvf_core::{build_hammerstein, extract_model, fit_frequency_stage, CompiledSim, RvfOptions};
use rvf_tft::{tft_from_snapshots, TftConfig};
use rvf_validate::{builtin_contracts, zoo, AccuracyContract, AccuracyReport, ZooFamily};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, hostref, Outcome, THREADS};

/// Zoo seeds the workload draws from (`--seed` modulo their count).
/// On most jitter seeds at least one clipper family stops with an
/// `hqr` non-convergence or misses its contract, so a benchmark seed
/// cannot be handed to `zoo` directly. Every seed here extracts all 14
/// families within contract and does the same frequency-stage work (72
/// poles and 208 relocation rounds per pass; state poles 756–782), so
/// runs on different seeds are comparable.
const ZOO_SEEDS: [u64; 16] =
    [rvf_validate::DEFAULT_SEED, 2, 3, 6, 8, 46, 48, 50, 51, 59, 64, 69, 75, 78, 85, 94];
/// Passes run even when `--seconds` has already elapsed.
const MIN_PASSES: usize = 4;
/// Spans that group layers rather than being a layer themselves.
const STRUCTURAL: &[&str] = &["model"];
/// Layer spans of the traced passes and the metric each one's per-pass
/// self time (ms) is reported as.
const LAYERS: &[(&str, &str)] = &[
    ("circuit.parse", "circuit.parse_ms"),
    ("circuit.dc", "circuit.dc_ms"),
    ("circuit.transient", "circuit.transient_ms"),
    ("tft.sweep", "tft.sweep_ms"),
    ("core.freq_stage", "core.freq_stage_ms"),
    ("core.state_stage", "core.state_stage_ms"),
];

/// One model to build: a zoo family's training deck, or the buffer.
struct Job {
    name: &'static str,
    family: Option<ZooFamily>,
    tft: TftConfig,
    rvf: RvfOptions,
}

/// What one build produced, plus the work it did.
struct Built {
    sim: CompiledSim,
    newton_iters: usize,
    freq_points: usize,
    freq_poles: usize,
    state_poles: usize,
    /// Only the stage-by-stage path sees the frequency stage's rounds.
    relocation_rounds: Option<usize>,
}

/// The workload's inputs: every zoo family of `seed` plus the paper
/// buffer, each with every thread knob pinned to [`THREADS`].
fn zoo_jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = zoo(seed)
        .into_iter()
        .map(|f| Job {
            name: f.name,
            tft: TftConfig { threads: THREADS, ..f.tft.clone() },
            rvf: RvfOptions { threads: THREADS, ..f.rvf.clone() },
            family: Some(f),
        })
        .collect();
    jobs.push(Job {
        name: "paper_buffer",
        family: None,
        tft: TftConfig { threads: THREADS, ..paper_tft_config() },
        rvf: RvfOptions { threads: THREADS, ..paper_rvf_options() },
    });
    jobs
}

fn circuit(job: &Job) -> Result<Circuit, String> {
    match &job.family {
        Some(f) => parse_netlist(&f.train_deck).map_err(|e| e.to_string()),
        None => Ok(buffer_circuit()),
    }
}

fn state_poles(d: &rvf_core::BuildDiagnostics) -> usize {
    d.state_pole_counts.iter().sum::<usize>() + d.static_pole_count
}

/// The library's one-call path: `extract_model`, then `compile`.
fn build_untraced(job: &Job) -> Result<Built, String> {
    let mut ckt = circuit(job)?;
    let (report, dataset, tran) =
        extract_model(&mut ckt, &job.tft, &job.rvf).map_err(|e| e.to_string())?;
    Ok(Built {
        sim: report.model.compile(),
        newton_iters: tran.newton_iterations,
        freq_points: dataset.n_states() * dataset.n_freqs(),
        freq_poles: report.diagnostics.n_freq_poles,
        state_poles: state_poles(&report.diagnostics),
        relocation_rounds: None,
    })
}

/// The same pipeline stage by stage, each public call inside a span.
fn build_traced(job: &Job, tr: &mut Tracer, id: u64) -> Result<Built, String> {
    let mut ckt = tr.span("circuit.parse", id, || circuit(job))?;
    let op = tr
        .span("circuit.dc", id, || dc_operating_point(&mut ckt, &DcOptions::default()))
        .map_err(|e| e.to_string())?;
    // The training transient exactly as `rvf_tft::extract_from_circuit`
    // sets it up.
    let cfg = &job.tft;
    let opts = TranOptions {
        dt: cfg.t_train / cfg.steps as f64,
        t_stop: cfg.t_train,
        snapshot_every: Some((cfg.steps / cfg.n_snapshots).max(1)),
        ..Default::default()
    };
    let tran = tr
        .span("circuit.transient", id, || transient(&mut ckt, &op, &opts))
        .map_err(|e| e.to_string())?;
    let b = ckt.input_column().map_err(|e| e.to_string())?;
    let d = ckt.output_row().map_err(|e| e.to_string())?;
    let dataset = tr
        .span("tft.sweep", id, || {
            tft_from_snapshots(
                &tran.snapshots,
                &b,
                &d,
                &cfg.freq_grid(),
                cfg.embed_depth,
                cfg.threads,
            )
        })
        .map_err(|e| e.to_string())?;
    let freq = tr
        .span("core.freq_stage", id, || {
            fit_frequency_stage(&dataset.s_grid(), &dataset.dynamic_responses(), &job.rvf)
        })
        .map_err(|e| e.to_string())?;
    let (model, diag) = tr
        .span("core.state_stage", id, || build_hammerstein(&dataset, &freq, &job.rvf))
        .map_err(|e| e.to_string())?;
    let sim = tr.span("core.lower", id, || model.compile());
    Ok(Built {
        sim,
        newton_iters: tran.newton_iterations,
        freq_points: dataset.n_states() * dataset.n_freqs(),
        freq_poles: freq.n_poles,
        state_poles: state_poles(&diag),
        relocation_rounds: Some(freq.relocation_rounds),
    })
}

/// One model's build time in seconds, raw and normalised to the
/// nominal host speed, and its result.
type Timed = (f64, f64, Result<Built, String>);

/// One pass over every job; returns the pass time and each model's
/// build time and result. The reference kernel runs before every model
/// (inside the pass time, outside the model's).
fn pass(jobs: &[Job], mut tracer: Option<&mut Tracer>, id: u64) -> (Duration, Vec<Timed>) {
    let start = Instant::now();
    let root = tracer.as_deref_mut().map(|tr| tr.open("pass", id));
    let mut results = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let ref_s = hostref::time_s();
        let t = Instant::now();
        let built = match tracer.as_deref_mut() {
            Some(tr) => {
                let m = tr.open("model", k as u64);
                let built = build_traced(job, tr, k as u64);
                tr.close(m);
                built
            }
            None => build_untraced(job),
        };
        let wall = t.elapsed().as_secs_f64();
        results.push((wall, hostref::normalise(wall, ref_s), built));
    }
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.close(root);
    }
    (start.elapsed(), results)
}

/// Accuracy of one compiled zoo model against its validation deck's
/// transient (the oracle), as `rvf_validate::run_family` scores it.
fn contract_violations(
    f: &ZooFamily,
    sim: &CompiledSim,
    contract: &AccuracyContract,
) -> Result<usize, String> {
    let mut valid = parse_netlist(&f.valid_deck).map_err(|e| e.to_string())?;
    let op = dc_operating_point(&mut valid, &DcOptions::default()).map_err(|e| e.to_string())?;
    let opts = TranOptions { dt: f.dt, t_stop: f.t_stop, ..Default::default() };
    let oracle = transient(&mut valid, &op, &opts).map_err(|e| e.to_string())?;
    let y = sim.simulate(f.dt, &oracle.inputs);
    let report = AccuracyReport::compare(&oracle.outputs, &y, f.settle_frac);
    Ok(contract.check(&report).len())
}

/// Per-pass work counts (identical on every pass of one seed).
#[derive(Default, Clone, Copy)]
struct PassWork {
    newton_iters: usize,
    freq_points: usize,
    freq_poles: usize,
    state_poles: usize,
    relocation_rounds: usize,
}

/// Runs the workload for `seconds`. With `trace`, passes alternate
/// untraced and traced, so the tracing overhead is measured in the run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let zoo_seed = ZOO_SEEDS[(seed % ZOO_SEEDS.len() as u64) as usize];

    // The set-up (build the zoo decks, parse the contract manifest) is
    // repeated and timed before every pass, with the CPU warm; `setup_s`
    // is the median.
    let set_up = || (zoo_jobs(zoo_seed), builtin_contracts());
    let (mut jobs, mut contracts) = set_up();
    let mut setup = Vec::new();
    let mut tracer = trace.then(Tracer::new);
    let mut reference: Vec<Option<CompiledSim>> = vec![None; jobs.len()];
    let mut buffer_ms = Vec::new();
    let mut wall_buffer_ms = Vec::new();
    // Per untraced pass: the sum of normalised model times, and the raw
    // pass time.
    let mut untraced_norm_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut allocs_per_pass = Vec::new();
    let mut work = PassWork::default();

    let check = |out: &mut Outcome,
                 reference: &mut [Option<CompiledSim>],
                 k: usize,
                 job: &Job,
                 built: Result<Built, String>|
     -> Option<Built> {
        match built {
            Ok(b) => {
                let fp = b.sim.fingerprint();
                let ok = match &reference[k] {
                    Some(r) => r.fingerprint() == fp,
                    None => {
                        reference[k] = Some(b.sim.clone());
                        true
                    }
                };
                out.check(ok, || {
                    format!("{}: fingerprint {fp:#018x} differs between passes", job.name)
                });
                Some(b)
            }
            Err(e) => {
                out.check(false, || format!("{}: extraction failed: {e}", job.name));
                None
            }
        }
    };

    let start = Instant::now();
    let mut n = 0u64;
    while n < MIN_PASSES as u64 || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && n % 2 == 1;
        let ref_s = hostref::time_s();
        let t = Instant::now();
        let made = set_up();
        setup.push(hostref::normalise(t.elapsed().as_secs_f64(), ref_s));
        (jobs, contracts) = made;
        let a0 = alloc::allocs();
        let (dur, results) = pass(&jobs, if traced { tracer.as_mut() } else { None }, n);
        let allocs = alloc::allocs() - a0;
        let mut w = PassWork::default();
        let mut norm_s = 0.0;
        for (k, (wall, norm, built)) in results.into_iter().enumerate() {
            norm_s += norm;
            let Some(b) = check(&mut out, &mut reference, k, &jobs[k], built) else { continue };
            w.newton_iters += b.newton_iters;
            w.freq_points += b.freq_points;
            w.freq_poles += b.freq_poles;
            w.state_poles += b.state_poles;
            w.relocation_rounds += b.relocation_rounds.unwrap_or(0);
            if !traced && jobs[k].family.is_none() {
                buffer_ms.push(norm * 1e3);
                wall_buffer_ms.push(wall * 1e3);
            }
        }
        if traced {
            traced_s.push(dur.as_secs_f64());
            work.relocation_rounds = w.relocation_rounds;
        } else {
            untraced_s.push(dur.as_secs_f64());
            untraced_norm_s.push(norm_s);
            allocs_per_pass.push(allocs as f64);
            work = PassWork { relocation_rounds: work.relocation_rounds, ..w };
        }
        n += 1;
    }
    let peak_rss_mb = crate::peak_rss_mb();

    // Gates, outside timing. The untraced run checks the stage-by-stage
    // path once here; the traced run already alternated both paths.
    if !trace {
        let mut scratch = Tracer::new();
        let (_, results) = pass(&jobs, Some(&mut scratch), n);
        for (k, (_, _, built)) in results.into_iter().enumerate() {
            if let Some(b) = check(&mut out, &mut reference, k, &jobs[k], built) {
                work.relocation_rounds += b.relocation_rounds.unwrap_or(0);
            }
        }
    }
    for (job, sim) in jobs.iter().zip(&reference) {
        let (Some(f), Some(sim)) = (&job.family, sim) else { continue };
        let Some(contract) = contracts.get(f.name) else {
            out.check(false, || format!("{}: no committed contract", f.name));
            continue;
        };
        match contract_violations(f, sim, contract) {
            Ok(v) => out.check(v == 0, || format!("{}: {v} contract violations", f.name)),
            Err(e) => out.check(false, || format!("{}: validation transient failed: {e}", f.name)),
        }
    }

    out.metric("setup_s", median(&setup));
    out.metric("peak_rss_mb", peak_rss_mb);
    // From the median pass, so a pass another process slowed does not
    // move it.
    out.metric("throughput_per_s", median(&untraced_norm_s).map(|s| jobs.len() as f64 / s));
    // The paper buffer's netlist → CompiledSim time: Table I "Build Time".
    out.metric("latency_ms_p50", median(&buffer_ms));

    out.metric("extract.allocs_per_pass", median(&allocs_per_pass));
    out.metric("circuit.newton_iters", Some(work.newton_iters as f64));
    out.metric("tft.freq_points", Some(work.freq_points as f64));
    out.metric("core.freq_poles", Some(work.freq_poles as f64));
    out.metric("core.state_poles", Some(work.state_poles as f64));
    out.metric("core.freq_relocation_rounds", Some(work.relocation_rounds as f64));
    if let Some(tr) = &tracer {
        for &(span, metric) in LAYERS {
            out.metric(metric, median(&tr.per_root_ms("pass", span)));
        }
        let lower_us: Vec<f64> =
            tr.per_root_ms("pass", "core.lower").iter().map(|ms| ms * 1e3).collect();
        out.metric("core.lower_us", median(&lower_us));
        let coverage = tr.coverage("pass", STRUCTURAL);
        out.check(coverage >= crate::MIN_COVERAGE, || {
            format!("traced passes: layer coverage {coverage:.3} below {}", crate::MIN_COVERAGE)
        });
        out.metric("trace.coverage_frac", Some(coverage));
        out.metric(
            "trace.overhead_frac",
            median(&traced_s).zip(median(&untraced_s)).map(|(t, u)| t / u - 1.0),
        );
    }

    out.shape("seed", seed.to_string());
    out.shape("zoo_seed", zoo_seed.to_string());
    out.shape("models_per_pass", jobs.len().to_string());
    out.shape("threads", format!("tft={THREADS} rvf={THREADS}"));
    out.shape("passes", format!("untraced={} traced={}", untraced_s.len(), traced_s.len()));
    out.shape("newton_iters_per_pass", work.newton_iters.to_string());
    out.shape("freq_points_per_pass", work.freq_points.to_string());
    out.shape("freq_poles_per_pass", work.freq_poles.to_string());
    out.shape("state_poles_per_pass", work.state_poles.to_string());
    out.shape("freq_relocation_rounds_per_pass", work.relocation_rounds.to_string());
    out.shape("latency_samples", buffer_ms.len().to_string());
    out.shape(
        "wall",
        format!(
            "throughput_per_s={:.4} latency_ms_p50={:.4}",
            median(&untraced_s).map_or(f64::NAN, |s| jobs.len() as f64 / s),
            median(&wall_buffer_ms).map_or(f64::NAN, |ms| ms)
        ),
    );
    (out, tracer)
}
