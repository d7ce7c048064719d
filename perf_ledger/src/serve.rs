//! The serving workloads: closed-loop clients driving one `Scheduler`.
//!
//! Every client submits one chunk per round and waits for that chunk's
//! output before submitting its next one (a session's stream is
//! strictly ordered), so a round is: every client submits, then one
//! `tick` serves every queued chunk. A pass opens a fresh scheduler and
//! runs [`Spec::rounds`] rounds; the same seeded streams are replayed in
//! every pass.
//!
//! The model is the paper buffer, loaded from the committed text export
//! so serving numbers do not move when extraction changes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rvf_bench::test_pattern;
use rvf_circuit::{prbs7, Waveform};
use rvf_core::{text, CompiledSim, SessionChunk, SimState};
use rvf_numerics::{SweepConfig, SweepPool};
use rvf_serve::{
    Event, Follower, ModelRegistry, ReplicationSink, Scheduler, ServeConfig, SessionHandle,
    SharedLog,
};

use crate::stats::{median, Histogram};
use crate::trace::Tracer;
use crate::{alloc, hostref, Outcome, THREADS};

/// The paper buffer model (regenerate with the `export_buffer_model`
/// binary).
const MODEL_TEXT: &str = include_str!("../models/buffer.rvf.txt");
/// Passes run even when `--seconds` has already elapsed.
const MIN_PASSES: u64 = 4;
/// Untraced request latencies a traced run collects even past
/// `--seconds`, so that the p99 has well over the ten samples beyond it
/// that `stats` requires (16 sessions give only 16 a round)...
const MIN_LATENCY_SAMPLES: u64 = 2000;
/// ...but never past this many seconds (a run whose requests all fail
/// collects none).
const MAX_RUN_S: f64 = 120.0;
/// Sessions per pass whose served stream is checked bit for bit against
/// a one-shot `simulate` of the same concatenated input.
const SAMPLED_SESSIONS: usize = 4;
/// Ticks a request may wait before its deadline (never reached in a
/// closed loop, which serves every chunk in the tick after its submit).
const DEADLINE_TICKS: u64 = 1 << 20;
/// Standby: a scheduler snapshot and a state digest every this many rounds.
const SNAPSHOT_EVERY: usize = 4;
/// Standby: the primary journals a digest record every this many deltas.
const DIGEST_EVERY: u64 = 1000;

/// The shape of one serving workload.
pub struct Spec {
    /// Concurrent closed-loop clients (one session each).
    pub clients: usize,
    /// Samples per submitted chunk.
    pub chunk: usize,
    /// Rounds per pass (each client submits one chunk per round).
    pub rounds: usize,
    /// Smooth multi-tone stimulus instead of PRBS-7 bit patterns.
    pub smooth: bool,
    /// Journal to a warm standby that tails the log every round.
    pub standby: bool,
}

/// 1000 clients × 64-sample chunks of per-client PRBS-7 bit patterns.
pub const PATTERN_C64: Spec =
    Spec { clients: 1000, chunk: 64, rounds: 16, smooth: false, standby: false };
/// 16 clients × 4096-sample chunks of distinct smooth multi-tone
/// stimuli.
pub const SMOOTH_C4096: Spec =
    Spec { clients: 16, chunk: 4096, rounds: 4, smooth: true, standby: false };
/// [`PATTERN_C64`] plus a warm standby.
pub const PATTERN_C64_STANDBY: Spec =
    Spec { clients: 1000, chunk: 64, rounds: 16, smooth: false, standby: true };

/// SplitMix64: the workload generator's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn client_rng(seed: u64, client: usize) -> u64 {
    seed ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Client `client`'s stream: the paper's Fig. 9 bit pattern (2.5 GS/s,
/// 60 ps edges, 0.5/1.3 V levels) with a per-client LFSR seed, start
/// offset in the PRBS-7 sequence and sub-bit phase.
fn pattern_stream(seed: u64, client: usize, n: usize, dt: f64) -> Vec<f64> {
    let (Waveform::BitPattern { v0, v1, rate_hz, rise, .. }, ..) = test_pattern() else {
        unreachable!("the paper test pattern is a bit pattern")
    };
    let mut s = client_rng(seed, client);
    let lfsr = 1 + (splitmix(&mut s) % 127) as u8;
    let skip = (splitmix(&mut s) % 127) as usize;
    let ui = 1.0 / rate_hz;
    let n_bits = (n as f64 * dt / ui).ceil() as usize + 2;
    let bits = prbs7(lfsr, skip + n_bits).split_off(skip);
    let wave = Waveform::BitPattern { v0, v1, bits, rate_hz, rise, delay: -unit(&mut s) * ui };
    (0..n).map(|i| wave.value(i as f64 * dt)).collect()
}

/// Client `client`'s stream: three tones between 0.1 and 1.5 GHz around
/// the buffer's 0.9 V operating point, inside the trained 0.4–1.4 V
/// range. No two consecutive samples are bit-equal.
fn smooth_stream(seed: u64, client: usize, n: usize, dt: f64) -> Vec<f64> {
    let mut s = client_rng(seed, client);
    let tones: Vec<(f64, f64, f64)> = [0.2, 0.15, 0.1]
        .iter()
        .map(|a| {
            let amp = a * (0.8 + 0.2 * unit(&mut s));
            let w = std::f64::consts::TAU * (0.1e9 + 1.4e9 * unit(&mut s));
            (amp, w, std::f64::consts::TAU * unit(&mut s))
        })
        .collect();
    (0..n)
        .map(|i| {
            let t = i as f64 * dt;
            0.9 + tones.iter().map(|(a, w, p)| a * (w * t + p).sin()).sum::<f64>()
        })
        .collect()
}

/// Share of samples bit-equal to their predecessor in the same stream:
/// the drive memo's opportunity.
fn repeat_frac(streams: &[Vec<f64>]) -> f64 {
    let (mut same, mut pairs) = (0usize, 0usize);
    for s in streams {
        pairs += s.len().saturating_sub(1);
        same += s.windows(2).filter(|w| w[0].to_bits() == w[1].to_bits()).count();
    }
    same as f64 / pairs.max(1) as f64
}

/// Counters kept by [`MeteredSink`], shared with the ledger.
#[derive(Default)]
struct SinkStats {
    records: AtomicU64,
    bytes: AtomicU64,
    timed: AtomicBool,
    append_ns: Mutex<Vec<u64>>,
}

/// The standby's log: a `SharedLog` behind a sink that counts records
/// and bytes and, in traced passes, times each append.
struct MeteredSink {
    log: SharedLog,
    stats: Arc<SinkStats>,
}

impl ReplicationSink for MeteredSink {
    fn append(&mut self, record: Bytes) {
        let len = record.len() as u64;
        let t = self.stats.timed.load(Ordering::Relaxed).then(Instant::now);
        self.log.append(record);
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.stats.append_ns.lock().expect("no append panics holding the lock").push(ns);
        }
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(len, Ordering::Relaxed);
    }
}

struct Standby {
    log: SharedLog,
    stats: Arc<SinkStats>,
    follower: Follower,
}

/// Everything one pass serves with, built by [`set_up`].
struct Served {
    sched: Scheduler,
    registry: ModelRegistry,
    handles: Vec<SessionHandle>,
    client_of: HashMap<u64, usize>,
    standby: Option<Standby>,
}

/// The timed set-up: decode and lower the model, start the scheduler
/// (and its pool), open every client's session and attach the standby.
fn set_up(spec: &Spec, dt: f64) -> Result<Served, String> {
    let model = text::decode(MODEL_TEXT).map_err(|e| e.to_string())?;
    let registry = ModelRegistry::build([("buffer".to_string(), model.compile())]);
    let id = registry.id("buffer").ok_or("registry lost the model")?;
    let cfg = ServeConfig {
        max_sessions: spec.clients,
        max_queued_requests: spec.clients,
        max_queued_samples: spec.clients * spec.chunk,
        max_chunk_samples: spec.chunk,
        workers: THREADS,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(registry.clone(), cfg);
    let standby = if spec.standby {
        let log = SharedLog::new();
        let stats = Arc::new(SinkStats::default());
        let sink = MeteredSink { log: log.clone(), stats: Arc::clone(&stats) };
        sched.attach_replica(Box::new(sink), DIGEST_EVERY).map_err(|e| e.to_string())?;
        Some(Standby { log, stats, follower: Follower::new(registry.clone()) })
    } else {
        None
    };
    let mut handles = Vec::with_capacity(spec.clients);
    let mut client_of = HashMap::with_capacity(spec.clients);
    for c in 0..spec.clients {
        let h = sched.open_session(id, dt, 0).map_err(|e| e.to_string())?;
        client_of.insert(h.raw(), c);
        handles.push(h);
    }
    Ok(Served { sched, registry, handles, client_of, standby })
}

/// Benchmark-owned copies of every session, advanced through each
/// tick's exact chunk set two ways: lockstep lanes (`advance_chunks`)
/// and one `simulate_into` per session, both over a pool of
/// [`THREADS`] workers.
struct Replay {
    pool: SweepPool,
    lanes: Vec<SimState>,
    lane_out: Vec<Vec<f64>>,
    single: Vec<Mutex<(SimState, Vec<f64>)>>,
}

impl Replay {
    fn new(sim: &CompiledSim, spec: &Spec) -> Self {
        let mut r = Self {
            pool: SweepPool::new(THREADS),
            lanes: Vec::new(),
            lane_out: vec![vec![0.0; spec.chunk]; spec.clients],
            single: Vec::new(),
        };
        r.reset(sim, spec);
        r
    }

    fn reset(&mut self, sim: &CompiledSim, spec: &Spec) {
        self.lanes = (0..spec.clients).map(|_| sim.new_state()).collect();
        self.single = (0..spec.clients)
            .map(|_| Mutex::new((sim.new_state(), vec![0.0; spec.chunk])))
            .collect();
    }
}

/// Measurements gathered over all passes. End-to-end times are
/// normalised to the nominal host speed (see [`hostref`]); the `wall_`
/// and `untraced_round_s` figures are raw.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    latency_us: Histogram,
    wall_latency_us: Histogram,
    untraced_round_s: Vec<f64>,
    untraced_round_norm_s: Vec<f64>,
    ref_s: Vec<f64>,
    traced_round_s: Vec<f64>,
    untraced_samples: u64,
    allocs_per_tick: Vec<f64>,
    requests_per_tick: Vec<f64>,
    advance_ms: Vec<f64>,
    simulate_into_ms: Vec<f64>,
    records_per_round: Vec<f64>,
    bytes_per_round: Vec<f64>,
    lag_records_max: u64,
    append_us: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    promote_ms: Vec<f64>,
    restore_ms: Vec<f64>,
}

/// Read-only inputs of every pass.
struct Inputs<'a> {
    spec: &'a Spec,
    dt: f64,
    streams: &'a [Vec<f64>],
    sim: &'a CompiledSim,
}

/// One pass: `spec.rounds` closed-loop rounds, then the gates.
#[allow(clippy::too_many_arguments)]
fn pass(
    inp: &Inputs<'_>,
    served: &mut Served,
    mut tracer: Option<&mut Tracer>,
    mut replay: Option<&mut Replay>,
    sampled: &[usize],
    round_base: u64,
    acc: &mut Acc,
    out: &mut Outcome,
) {
    let spec = inp.spec;
    let traced = tracer.is_some();
    if let Some(sb) = &served.standby {
        sb.stats.timed.store(traced, Ordering::Relaxed);
    }
    let mut submitted_at = vec![Instant::now(); spec.clients];
    let mut round_out: Vec<Option<Vec<f64>>> = vec![None; spec.clients];
    let mut kept: Vec<Vec<f64>> = vec![Vec::new(); sampled.len()];
    let mut tailed_records =
        served.standby.as_ref().map_or(0, |s| s.stats.records.load(Ordering::Relaxed));
    let mut request = round_base * spec.clients as u64;

    for r in 0..spec.rounds {
        let now = round_base + r as u64;
        let range = r * spec.chunk..(r + 1) * spec.chunk;
        let ref_s = hostref::time_s();
        acc.ref_s.push(ref_s);
        let round_start = Instant::now();
        let root = tracer.as_deref_mut().map(|tr| tr.open("round", now));
        let records_before =
            served.standby.as_ref().map_or(0, |s| s.stats.records.load(Ordering::Relaxed));
        let bytes_before =
            served.standby.as_ref().map_or(0, |s| s.stats.bytes.load(Ordering::Relaxed));

        for (c, h) in served.handles.iter().enumerate() {
            let input = &inp.streams[c][range.clone()];
            submitted_at[c] = Instant::now();
            let res = timed(&mut tracer, "serve.submit", request, || {
                served.sched.submit(*h, input, now, now + DEADLINE_TICKS)
            });
            request += 1;
            if let Err(e) = res {
                out.check(false, || format!("client {c}: submit refused: {e}"));
            }
        }

        let (events, allocs) = timed(&mut tracer, "serve.tick", now, || {
            let a0 = alloc::allocs();
            let events = served.sched.tick(now);
            (events, alloc::allocs() - a0)
        });
        let done = Instant::now();
        acc.allocs_per_tick.push(allocs as f64);
        acc.requests_per_tick.push(events.len() as f64);
        for ev in events {
            match ev {
                Event::Completed { session, output, .. } => {
                    let Some(&c) = served.client_of.get(&session.raw()) else {
                        out.check(false, || "completion for an unknown session".to_string());
                        continue;
                    };
                    if !traced {
                        let wall = (done - submitted_at[c]).as_secs_f64();
                        acc.wall_latency_us.record(wall * 1e6);
                        acc.latency_us.record(hostref::normalise(wall, ref_s) * 1e6);
                    }
                    out.check(output.len() == spec.chunk, || {
                        format!(
                            "client {c}: {} output samples for a {}-sample chunk",
                            output.len(),
                            spec.chunk
                        )
                    });
                    round_out[c] = Some(output);
                }
                Event::Failed { error, .. } => {
                    out.check(false, || format!("request failed: {error}"))
                }
                _ => out.check(false, || "unexpected scheduler event".to_string()),
            }
        }

        if let Some(sb) = served.standby.as_mut() {
            let res = timed(&mut tracer, "replica.tail", now, || sb.follower.tail(&sb.log.bytes()));
            if let Err(e) = res {
                out.check(false, || format!("follower refused the log: {e}"));
            }
            let records = sb.stats.records.load(Ordering::Relaxed);
            acc.lag_records_max = acc.lag_records_max.max(records - tailed_records);
            tailed_records = records;
            if (r + 1) % SNAPSHOT_EVERY == 0 {
                let snap = timed(&mut tracer, "wire.snapshot", now, || served.sched.snapshot());
                match snap {
                    Ok(bytes) => acc.snapshot_bytes.push(bytes.len() as f64),
                    Err(e) => out.check(false, || format!("snapshot failed: {e}")),
                }
                let digest =
                    timed(&mut tracer, "serve.state_digest", now, || served.sched.state_digest());
                if let Err(e) = digest {
                    out.check(false, || format!("state digest failed: {e}"));
                }
            }
            acc.records_per_round
                .push((sb.stats.records.load(Ordering::Relaxed) - records_before) as f64);
            acc.bytes_per_round
                .push((sb.stats.bytes.load(Ordering::Relaxed) - bytes_before) as f64);
        }

        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), root) {
            tr.close(s);
        }
        let round_s = round_start.elapsed().as_secs_f64();
        if traced {
            acc.traced_round_s.push(round_s);
        } else {
            acc.untraced_round_s.push(round_s);
            acc.untraced_round_norm_s.push(hostref::normalise(round_s, ref_s));
            acc.untraced_samples += (spec.clients * spec.chunk) as u64;
        }

        for (k, &c) in sampled.iter().enumerate() {
            match &round_out[c] {
                Some(o) => kept[k].extend_from_slice(o),
                None => out.check(false, || format!("client {c}: round {r} chunk never completed")),
            }
        }
        if let (Some(rp), Some(tr)) = (replay.as_deref_mut(), tracer.as_deref_mut()) {
            replay_round(inp, rp, tr, &round_out, range, now, acc, out);
        }
        round_out.iter_mut().for_each(|o| *o = None);
    }

    // Gate: the served stream of each sampled session equals a one-shot
    // simulation of its concatenated input, bit for bit.
    let n = spec.rounds * spec.chunk;
    for (k, &c) in sampled.iter().enumerate() {
        let want = inp.sim.simulate(inp.dt, &inp.streams[c][..n]);
        let same = want.len() == kept[k].len()
            && want.iter().zip(&kept[k]).all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || format!("client {c}: served stream differs from one-shot simulate"));
    }
}

/// Replays one tick's chunk set through `advance_chunks` and through
/// per-session `simulate_into`, timing each and checking both against
/// the served outputs.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    inp: &Inputs<'_>,
    rp: &mut Replay,
    tr: &mut Tracer,
    served: &[Option<Vec<f64>>],
    range: std::ops::Range<usize>,
    id: u64,
    acc: &mut Acc,
    out: &mut Outcome,
) {
    let (sim, dt) = (inp.sim, inp.dt);
    let mut chunks: Vec<SessionChunk<'_>> = rp
        .lanes
        .iter_mut()
        .zip(rp.lane_out.iter_mut())
        .zip(inp.streams)
        .map(|((state, output), s)| SessionChunk { state, input: &s[range.clone()], output })
        .collect();
    let span = tr.open("core.advance_chunks", id);
    let t = Instant::now();
    let lanes = sim.advance_chunks(dt, &mut chunks, Some(&rp.pool));
    let lanes_t = t.elapsed();
    tr.close(span);
    drop(chunks);

    let single = &rp.single;
    let span = tr.open("core.simulate_into", id);
    let t = Instant::now();
    let singles = rp.pool.run(single.len(), &SweepConfig::threads(THREADS), |c| {
        let mut cell = single[c].lock().expect("no replay task panics holding the lock");
        let (state, output) = &mut *cell;
        sim.simulate_into(dt, &inp.streams[c][range.clone()], state, output)
    });
    let single_t = t.elapsed();
    tr.close(span);

    out.check(lanes.is_ok(), || format!("advance_chunks replay failed: {lanes:?}"));
    out.check(singles.is_ok(), || "simulate_into replay failed".to_string());
    acc.advance_ms.push(ms(lanes_t));
    acc.simulate_into_ms.push(ms(single_t));
    let bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    let mut same = true;
    for (c, s) in served.iter().enumerate() {
        let Some(s) = s else { continue };
        let cell = single[c].lock().expect("no replay task panics holding the lock");
        same &= bits(s, &rp.lane_out[c]) && bits(s, &cell.1);
    }
    out.check(same, || format!("round {id}: replayed outputs differ from served outputs"));
}

/// Runs `f` inside a span named `name` when tracing, plainly otherwise.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_deref_mut() {
        Some(tr) => tr.span(name, id, f),
        None => f(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Standby gates at the end of a pass: the follower's digest equals the
/// primary's, and promoting it (or restoring the primary's snapshot)
/// gives a scheduler with that same digest.
fn standby_gates(served: &mut Served, acc: &mut Acc, out: &mut Outcome) {
    let Some(sb) = served.standby.take() else { return };
    let appends =
        std::mem::take(&mut *sb.stats.append_ns.lock().expect("no append panics holding the lock"));
    acc.append_us.extend(appends.iter().map(|&ns| ns as f64 * 1e-3));
    let primary = served.sched.state_digest();
    let follower = sb.follower.state_digest();
    let equal = matches!((&primary, &follower), (Ok(p), Ok(f)) if p == f);
    out.check(equal, || format!("follower digest {follower:?} != primary {primary:?}"));

    let t = Instant::now();
    let promoted = sb.follower.promote();
    acc.promote_ms.push(ms(t.elapsed()));
    let promoted_digest = promoted.as_ref().ok().map(Scheduler::state_digest);
    out.check(matches!((&primary, &promoted_digest), (Ok(p), Some(Ok(d))) if p == d), || {
        "promoted standby diverged from the primary".to_string()
    });
    drop(promoted);

    match served.sched.snapshot() {
        Ok(snap) => {
            let t = Instant::now();
            let restored = Scheduler::restore(&snap, &served.registry);
            acc.restore_ms.push(ms(t.elapsed()));
            let restored_digest = restored.as_ref().ok().map(Scheduler::state_digest);
            out.check(
                matches!((&primary, &restored_digest), (Ok(p), Some(Ok(d))) if p == d),
                || "restored snapshot diverged from the primary".to_string(),
            );
        }
        Err(e) => out.check(false, || format!("final snapshot failed: {e}")),
    }
}

/// Runs a serving workload for `seconds`. With `trace`, untraced and
/// traced passes share the time; traced passes also replay every tick.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let (_, dt, _) = test_pattern();
    let n = spec.rounds * spec.chunk;
    let streams: Vec<Vec<f64>> = (0..spec.clients)
        .map(|c| {
            if spec.smooth {
                smooth_stream(seed, c, n, dt)
            } else {
                pattern_stream(seed, c, n, dt)
            }
        })
        .collect();
    let sim = match text::decode(MODEL_TEXT) {
        Ok(model) => model.compile(),
        Err(e) => {
            out.check(false, || format!("committed model does not decode: {e}"));
            return (out, None);
        }
    };
    let inp = Inputs { spec, dt, streams: &streams, sim: &sim };
    let mut rng = seed ^ 0x5EED_5A3D_1E55_0A5E;
    let mut tracer = trace.then(Tracer::new);
    let mut replay = trace.then(|| Replay::new(&sim, spec));
    let mut acc = Acc::default();

    let start = Instant::now();
    let mut p = 0u64;
    // Wall time spent in untraced and in traced passes: a traced run
    // gives both kinds equal time (a traced pass also replays every tick,
    // so strict alternation would leave the untraced passes a quarter).
    let mut pass_s = [0.0f64; 2];
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let short = trace && acc.latency_us.len() < MIN_LATENCY_SAMPLES && elapsed < MAX_RUN_S;
        if p >= MIN_PASSES && elapsed >= seconds && !short {
            break;
        }
        let traced = trace && pass_s[1] < pass_s[0];
        let pass_start = Instant::now();
        let ref_s = hostref::time_s();
        let t = Instant::now();
        let served = set_up(spec, dt);
        acc.setup_s.push(hostref::normalise(t.elapsed().as_secs_f64(), ref_s));
        let mut served = match served {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                break;
            }
        };
        let sampled: Vec<usize> = (0..SAMPLED_SESSIONS.min(spec.clients))
            .map(|_| (splitmix(&mut rng) % spec.clients as u64) as usize)
            .collect();
        if let Some(rp) = replay.as_mut() {
            rp.reset(&sim, spec);
        }
        let (tr, rp) = if traced { (tracer.as_mut(), replay.as_mut()) } else { (None, None) };
        pass(&inp, &mut served, tr, rp, &sampled, p * spec.rounds as u64, &mut acc, &mut out);
        standby_gates(&mut served, &mut acc, &mut out);
        pass_s[usize::from(traced)] += pass_start.elapsed().as_secs_f64();
        p += 1;
    }
    let peak_rss_mb = crate::peak_rss_mb();

    let per_round = (spec.clients * spec.chunk) as f64;
    out.metric("setup_s", median(&acc.setup_s));
    out.metric("peak_rss_mb", peak_rss_mb);
    // From the median round, so a round another process slowed does not
    // move it.
    out.metric("throughput_per_s", median(&acc.untraced_round_norm_s).map(|s| per_round / s));
    out.metric("latency_ms_p50", acc.latency_us.percentile(0.5).map(|us| us * 1e-3));

    out.metric("serve.chunk_latency_us_p99", acc.latency_us.percentile(0.99));
    out.metric("serve.requests_per_tick", median(&acc.requests_per_tick));
    out.metric("serve.allocs_per_tick", median(&acc.allocs_per_tick));
    out.metric("stimulus.repeat_frac", Some(repeat_frac(&streams)));
    if let Some(tr) = &tracer {
        let tick = median(&tr.durations_ms("serve.tick"));
        let advance = median(&acc.advance_ms);
        let single = median(&acc.simulate_into_ms);
        let submit_us: Vec<f64> = tr.durations_ms("serve.submit").iter().map(|v| v * 1e3).collect();
        out.metric("serve.submit_us_p50", median(&submit_us));
        out.metric("serve.tick_ms_p50", tick);
        out.metric("core.advance_chunks_ms_p50", advance);
        out.metric("core.simulate_into_ms_p50", single);
        out.metric("serve.overhead_frac", advance.zip(tick).map(|(a, t)| 1.0 - a / t));
        out.metric("core.lane_speedup", single.zip(advance).map(|(s, a)| s / a));
        let coverage = tr.coverage("round", &[]);
        out.check(coverage >= crate::MIN_COVERAGE, || {
            format!("traced rounds: layer coverage {coverage:.3} below {}", crate::MIN_COVERAGE)
        });
        out.metric("trace.coverage_frac", Some(coverage));
        out.metric(
            "trace.overhead_frac",
            median(&acc.traced_round_s)
                .zip(median(&acc.untraced_round_s))
                .map(|(t, u)| t / u - 1.0),
        );
        if spec.standby {
            out.metric("replica.tail_ms", median(&tr.durations_ms("replica.tail")));
            out.metric("wire.snapshot_ms", median(&tr.durations_ms("wire.snapshot")));
            out.metric("serve.state_digest_ms", median(&tr.durations_ms("serve.state_digest")));
        }
    }
    if spec.standby {
        // Appends are timed only in traced passes.
        out.metric("replica.append_us", median(&acc.append_us));
        out.metric("replica.records_per_round", median(&acc.records_per_round));
        out.metric("replica.bytes_per_round", median(&acc.bytes_per_round));
        out.metric("replica.lag_records_max", Some(acc.lag_records_max as f64));
        out.metric("wire.snapshot_bytes", median(&acc.snapshot_bytes));
        out.metric("replica.promote_ms", median(&acc.promote_ms));
        out.metric("wire.restore_ms", median(&acc.restore_ms));
    }

    out.shape("seed", seed.to_string());
    out.shape("threads", format!("workers={THREADS}"));
    out.shape("sessions", spec.clients.to_string());
    out.shape("chunk_samples", spec.chunk.to_string());
    out.shape("rounds_per_pass", spec.rounds.to_string());
    out.shape(
        "passes",
        format!(
            "untraced={} traced={}",
            acc.untraced_round_s.len() / spec.rounds,
            acc.traced_round_s.len() / spec.rounds
        ),
    );
    out.shape("samples_timed", acc.untraced_samples.to_string());
    out.shape("latency_samples", acc.latency_us.len().to_string());
    out.shape("ticks_timed", acc.untraced_round_s.len().to_string());
    out.shape(
        "model_poles",
        format!("blocks={} features={}", sim.n_blocks(), sim.n_pole_features()),
    );
    out.shape("repeat_frac", format!("{:.4}", repeat_frac(&streams)));
    out.shape("standby", spec.standby.to_string());
    out.shape(
        "wall",
        format!(
            "throughput_per_s={:.6e} latency_ms_p50={:.4} reference_ms_p50={:.4}",
            median(&acc.untraced_round_s).map_or(f64::NAN, |s| per_round / s),
            acc.wall_latency_us.percentile(0.5).map_or(f64::NAN, |us| us * 1e-3),
            median(&acc.ref_s).map_or(f64::NAN, |s| s * 1e3)
        ),
    );
    (out, tracer)
}
