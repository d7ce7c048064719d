//! Serving-tier throughput under injected faults: 1000 simulated
//! clients streaming chunks through one `rvf_serve::Scheduler` while a
//! seeded chaos injector perturbs a fraction of the traffic.
//!
//! Rows (tracked by `bench_diff` against the committed baselines):
//!
//! * `serving_faults_sustained_f000` — clean traffic (0% faults): the
//!   ceiling the faulted rows are measured against;
//! * `serving_faults_sustained_f010` — 1% of submissions faulted;
//! * `serving_faults_sustained_f100` — 10% of submissions faulted;
//! * `serving_faults_chunk_p99_f000` / `_f010` / `_f100` — the
//!   nearest-rank p99 of the per-chunk service latency over a 3-round
//!   pass (computed inside the routine and recorded via
//!   `Bencher::iter_custom`), so the *tail* cost of fault handling is
//!   regression-tracked, not just the sustained median;
//! * `serving_faults_replicated_f010` — the 1% faulted round with a
//!   warm standby attached: the primary journals every committed
//!   mutation into a [`SharedLog`] and a [`Follower`] tails it to a
//!   verified digest inside the timed region, so the delta against
//!   `serving_faults_sustained_f010` is the full cost of pairing
//!   (delta encode + append + follower apply + digest checks);
//! * `wire_checksum_log_835kb` — `checksum64` over 835,080 bytes, the
//!   log a `serve_pattern_c64_standby` round journals: every journaled
//!   byte is hashed once when framed and once when the standby decodes
//!   it, so this row is the per-round checksum floor;
//! * `state_digest_1000_sessions` — one `state_digest` of a scheduler
//!   holding 1000 sessions after a served round: the canonical-state
//!   digest the primary journals and the standby recomputes;
//! * `state_digest_1000_sessions_queued` — the same digest with a
//!   round's 1000 64-sample chunks still queued: the first digest of a
//!   standby round lands after the 1000th admission and hashes every
//!   queued sample, so this is the digest that costs the most.
//!
//! A fault budget of `p` permille is split 40% worker panics (the
//! whole round retries with backoff), 30% NaN/∞ stimulus (rejected at
//! admission, clean resubmit), 20% oversized chunks (shed with
//! `ChunkTooLarge`, clean resubmit), 10% mid-stream closes (session
//! closed and reopened). Every iteration therefore serves the same
//! 64,000 accepted samples regardless of fault rate — the measured
//! delta is pure fault-handling overhead.
//!
//! Before the criterion rows run, one instrumented pass per rate
//! prints sustained Msamples/s and the p99 per-chunk service latency
//! (submit → completion, wall clock) so the tail cost of retries is
//! visible alongside the tracked medians.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config};
use rvf_core::fit_tft;
use rvf_serve::{
    chaos::{self, ChaosConfig, ChaosInjector, Fault},
    wire::checksum64,
    Event, Follower, ModelRegistry, Scheduler, ServeConfig, SessionHandle, SharedLog,
};
use rvf_tft::extract_from_circuit;

const CLIENTS: usize = 1000;
const CHUNK: usize = 64;
const DEADLINE_SLACK: u64 = 10_000;
/// Log bytes one `serve_pattern_c64_standby` round journals
/// (`replica.bytes_per_round`).
const STANDBY_ROUND_LOG_BYTES: usize = 835_080;

fn chaos_config(permille: u16) -> ChaosConfig {
    ChaosConfig {
        seed: 0xFA_17_2013,
        worker_panic_permille: permille * 4 / 10,
        bad_stimulus_permille: permille * 3 / 10,
        oversized_chunk_permille: permille / 5,
        close_session_permille: permille / 10,
        // Kill–restore cycles and primary failovers measure the
        // durability/replication layers, not steady traffic; the chaos
        // and replica test suites own those fault classes.
        crash_kill_permille: 0,
        primary_kill_permille: 0,
        primary_kill_max_lag: 0,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_sessions: 2048,
        max_queued_requests: 2048,
        max_queued_samples: 1 << 20,
        max_chunk_samples: CHUNK,
        retry_backoff_base: 1,
        max_retries: 6,
        rebuild_after_panics: 64,
        ..Default::default()
    }
}

struct Harness {
    sched: Scheduler,
    clients: Vec<SessionHandle>,
    inj: ChaosInjector,
    now: u64,
    dt: f64,
    phase: u64,
}

impl Harness {
    fn new(permille: u16, sim: rvf_core::CompiledSim, dt: f64) -> Self {
        let registry = ModelRegistry::build([("buffer".to_string(), sim)]);
        let mut sched = Scheduler::new(registry, serve_config());
        let model = sched.registry().id("buffer").expect("registered");
        let clients =
            (0..CLIENTS).map(|_| sched.open_session(model, dt, 0).expect("open")).collect();
        Self {
            sched,
            clients,
            inj: ChaosInjector::new(chaos_config(permille)),
            now: 0,
            dt,
            phase: 0,
        }
    }

    fn chunk(&mut self) -> Vec<f64> {
        self.phase += 1;
        let p = self.phase as f64;
        (0..CHUNK).map(|i| 0.9 + 0.4 * ((i as f64 + p) * 0.11).sin()).collect()
    }

    /// Submits one chunk per client (applying any drawn fault, then the
    /// clean chunk so the accepted workload is identical across rates).
    fn submit_round(&mut self) {
        let model = self.sched.registry().id("buffer").expect("registered");
        for c in 0..CLIENTS {
            let chunk = self.chunk();
            match self.inj.sample() {
                Some(Fault::WorkerPanic) => chaos::arm_worker_panic(&self.sched),
                Some(Fault::BadStimulus) => {
                    let mut bad = chunk.clone();
                    self.inj.corrupt(&mut bad);
                    let rejected = self.sched.submit(self.clients[c], &bad, self.now, self.now + 1);
                    assert!(rejected.is_err(), "corrupted chunk must be shed");
                }
                Some(Fault::OversizedChunk) => {
                    let oversized = vec![1.0; CHUNK + 1];
                    let rejected =
                        self.sched.submit(self.clients[c], &oversized, self.now, self.now + 1);
                    assert!(rejected.is_err(), "oversized chunk must be shed");
                }
                Some(Fault::CloseSession) => {
                    self.sched.close_session(self.clients[c]).expect("close");
                    self.clients[c] =
                        self.sched.open_session(model, self.dt, self.now).expect("reopen");
                }
                None | Some(_) => {}
            }
            self.sched
                .submit(self.clients[c], &chunk, self.now, self.now + DEADLINE_SLACK)
                .expect("clean submit");
        }
    }

    /// Ticks until the queue drains, returning served samples and, per
    /// completion, the instant the tick that emitted it returned.
    fn drain(&mut self) -> (usize, Vec<Instant>) {
        let mut samples = 0;
        let mut done = Vec::new();
        for _ in 0..10_000 {
            if self.sched.queued_requests() == 0 {
                break;
            }
            self.now += 1;
            let events = self.sched.tick(self.now);
            let tick_end = Instant::now();
            for event in events {
                match event {
                    Event::Completed { output, .. } => {
                        samples += output.len();
                        done.push(tick_end);
                    }
                    Event::Failed { error, .. } => panic!("request failed: {error}"),
                    _ => {}
                }
            }
        }
        assert_eq!(self.sched.queued_requests(), 0, "scheduler wedged");
        (samples, done)
    }
}

/// Runs `rounds` rounds of 1000 clients with wall clocks around each
/// round and returns `(served samples, elapsed seconds, p99 per-chunk
/// service latency)`. A retried chunk spans every tick of its panicked
/// rounds, so the p99 is where fault cost shows up. Every request of a
/// round shares a submit instant (submits are microseconds; service is
/// the millisecond part), so each completion's latency runs from its
/// round's start to the end of the tick that emitted it; the p99 is
/// the nearest-rank one over every completion of the pass.
fn measured_rounds(harness: &mut Harness, rounds: usize) -> (usize, f64, Duration) {
    let mut latencies: Vec<Duration> = Vec::with_capacity(rounds * CLIENTS);
    let mut total_samples = 0usize;
    let started = Instant::now();
    for _ in 0..rounds {
        let submitted_at = Instant::now();
        harness.submit_round();
        let (samples, done) = harness.drain();
        total_samples += samples;
        latencies.extend(done.iter().map(|t| t.duration_since(submitted_at)));
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    // Nearest rank: the smallest latency with at least 99% of the
    // completions at or below it.
    let rank = (latencies.len() * 99).div_ceil(100);
    let p99 = latencies.get(rank.saturating_sub(1)).copied().unwrap_or_default();
    (total_samples, elapsed, p99)
}

/// One instrumented pass printing sustained throughput and the p99
/// chunk latency (the same statistic the `serving_faults_chunk_p99_*`
/// rows track, here with the throughput context alongside).
fn instrumented_pass(harness: &mut Harness, rounds: usize, label: &str) {
    let (total_samples, elapsed, p99) = measured_rounds(harness, rounds);
    eprintln!(
        "serving_under_faults {label}: {:.2} Msamples/s sustained, p99 chunk latency {:.1} µs \
         ({CLIENTS} clients, {rounds} rounds, {total_samples} samples)",
        total_samples as f64 / elapsed / 1.0e6,
        p99.as_nanos() as f64 / 1.0e3,
    );
}

/// Injected worker panics are contained by the pool, but the default
/// panic hook would still print a backtrace per injection — stderr IO
/// that would bill fault *logging*, not fault *handling*, to the
/// faulted rows. Silence exactly the injected payload.
fn install_quiet_poison_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected sweep pool panic"))
            .or_else(|| {
                payload.downcast_ref::<String>().map(|s| s.contains("injected sweep pool panic"))
            })
            .unwrap_or(false);
        if !injected {
            default(info);
        }
    }));
}

fn bench_serving_under_faults(c: &mut Criterion) {
    install_quiet_poison_hook();
    // One extracted buffer model shared by every rate.
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config()).unwrap();
    let model = fit_tft(&dataset, &paper_rvf_options()).unwrap().model;
    let dt = 2.0e-12;

    for (permille, label) in [(0u16, "f000"), (10, "f010"), (100, "f100")] {
        let mut harness = Harness::new(permille, model.compile(), dt);
        instrumented_pass(&mut harness, 3, label);
        let id = format!("serving_faults_sustained_{label}");
        c.bench_function(&id, |b| {
            b.iter(|| {
                harness.submit_round();
                let (samples, _) = harness.drain();
                assert_eq!(samples, CLIENTS * CHUNK, "every accepted chunk must be served");
                samples
            })
        });
        // Tail-latency row: each recorded "duration" is the p99
        // per-chunk service latency over a 3-round pass, measured inside
        // the routine — `iter_custom` records it verbatim, so bench_diff
        // tracks the tail like any other timing.
        let id = format!("serving_faults_chunk_p99_{label}");
        c.bench_function(&id, |b| {
            b.iter_custom(|_iters| {
                let (samples, _, p99) = measured_rounds(&mut harness, 3);
                assert_eq!(samples, 3 * CLIENTS * CHUNK, "every accepted chunk must be served");
                p99
            })
        });
    }

    // Replicated-pair row: the 1% faulted load with a warm standby.
    // The primary journals every committed mutation (a round is ~2k
    // deltas: one admit + one completion per client, plus fault
    // handling) and the follower tails the shared log to a verified
    // digest inside the timed region. Compare against
    // `serving_faults_sustained_f010` for the pairing overhead.
    let mut harness = Harness::new(10, model.compile(), dt);
    let log = SharedLog::new();
    harness.sched.attach_replica(Box::new(log.clone()), 512).expect("attach standby");
    let mut follower = Follower::new(harness.sched.registry().as_ref().clone());
    c.bench_function("serving_faults_replicated_f010", |b| {
        b.iter(|| {
            harness.submit_round();
            let (samples, _) = harness.drain();
            assert_eq!(samples, CLIENTS * CHUNK, "every accepted chunk must be served");
            follower.tail(&log.bytes()).expect("standby applies the round's deltas");
            samples
        })
    });
    // The pair must not have drifted over the whole run: the standby's
    // reconstructed state hashes identically to the primary's.
    let primary = harness.sched.state_digest().expect("primary digest");
    let standby = follower.state_digest().expect("standby digest");
    assert_eq!(primary, standby, "standby diverged from primary after the bench run");

    // Hash-rate rows: the record checksum over a standby round's log,
    // and one canonical-state digest of 1000 served sessions.
    let log_bytes: Vec<u8> = (0..STANDBY_ROUND_LOG_BYTES as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    c.bench_function("wire_checksum_log_835kb", |b| b.iter(|| checksum64(&log_bytes)));
    let mut harness = Harness::new(0, model.compile(), dt);
    harness.submit_round();
    harness.drain();
    c.bench_function("state_digest_1000_sessions", |b| {
        b.iter(|| harness.sched.state_digest().expect("digest"))
    });
    harness.submit_round();
    c.bench_function("state_digest_1000_sessions_queued", |b| {
        b.iter(|| harness.sched.state_digest().expect("digest"))
    });
}

criterion_group! {
    name = benches;
    // Small sample counts: each iteration already serves 64k samples
    // across 1000 sessions (plus fault-retry rounds at f010/f100).
    config = Criterion::default().sample_size(10).quick_sample_size(5);
    targets = bench_serving_under_faults
}
criterion_main!(benches);
