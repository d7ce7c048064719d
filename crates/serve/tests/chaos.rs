//! Deterministic chaos suite for the serving tier.
//!
//! Every test here drives a [`Scheduler`] through seeded injected
//! faults (worker panics, NaN/∞ stimulus, oversized chunks, mid-stream
//! closes, whole-process kill–restores) and asserts the tier's
//! robustness contract:
//!
//! 1. no panic escapes the public API,
//! 2. a rejected or failed request commits no session state,
//! 3. a pre-fault checkpoint replays **bit-identically** (`f64` `==`)
//!    after recovery,
//! 4. the registry and scheduler keep serving new admissions after
//!    every injected failure,
//! 5. backpressure is load shedding, not deadlock,
//! 6. the degraded serial path produces the same bits as the pooled
//!    path.
//!
//! The worker-panic seam ([`chaos::arm_worker_panic`]) arms the pool
//! of one named scheduler and is consumed by that scheduler's next
//! batch round, so the tests run in parallel and never race for it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rvf_core::{CompiledSim, ServingError, SimBuilder};
use rvf_serve::{
    chaos::{self, ChaosConfig, ChaosInjector, Fault},
    Event, ModelRegistry, Scheduler, ServeConfig, ServeError, SessionHandle,
};

/// A nonlinear Hammerstein-shaped model: polynomial drives into one
/// real and one complex-pair block plus a static path.
fn model(k: f64) -> CompiledSim {
    let mut b = SimBuilder::new();
    let stat = b.drive_poly(&[0.0, 0.8, 0.05 * k]);
    let d1 = b.drive_poly(&[0.0, 1.0, 0.1]);
    let d2 = b.drive_poly(&[0.1, -0.4]);
    b.set_static_drive(stat);
    b.block_real(-1.0e9 * k, d1);
    b.block_pair(-0.5e9, 2.0e9, d1, d2);
    b.try_build().expect("valid wiring")
}

fn registry() -> ModelRegistry {
    ModelRegistry::build([("a".to_string(), model(1.0)), ("b".to_string(), model(1.7))])
}

const DT: f64 = 1.0e-10;

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: bit mismatch at sample {i}: {g} vs {w}");
    }
}

/// Ticks until the queue drains (bounded), folding completions into
/// `outputs` keyed by session; any `Failed` event is fatal here.
fn drain(sched: &mut Scheduler, now: &mut u64, outputs: &mut BTreeMap<SessionHandle, Vec<f64>>) {
    for _ in 0..64 {
        if sched.queued_requests() == 0 {
            break;
        }
        *now += 1;
        for event in sched.tick(*now) {
            match event {
                Event::Completed { session, output, .. } => {
                    outputs.entry(session).or_default().extend(output)
                }
                Event::Failed { error, request, .. } => {
                    panic!("request {request:?} failed under drain: {error}")
                }
                other => panic!("unexpected event under drain: {other:?}"),
            }
        }
    }
    assert_eq!(sched.queued_requests(), 0, "scheduler wedged: queue did not drain");
    assert_eq!(sched.queued_samples(), 0, "queued-sample accounting leaked");
}

struct Client {
    session: SessionHandle,
    model: &'static str,
    accepted: Vec<f64>,
}

/// One full chaos storm at a given seed: three concurrent clients over
/// two models, ~48 operations with every fault class live at 12% each
/// — including whole-process kill–restore through the durability layer.
fn storm(seed: u64) {
    let cfg = ServeConfig {
        max_chunk_samples: 16,
        max_queued_requests: 64,
        retry_backoff_base: 1,
        max_retries: 4,
        rebuild_after_panics: 1,
        degrade_after_rebuilds: 2,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let mut inj = ChaosInjector::new(ChaosConfig::uniform(seed, 120));
    let mut now = 0u64;
    let mut outputs: BTreeMap<SessionHandle, Vec<f64>> = BTreeMap::new();
    let mut clients: Vec<Client> = Vec::new();

    let open = |sched: &mut Scheduler, inj: &mut ChaosInjector, now: u64| {
        let name = if inj.pick(2) == 0 { "a" } else { "b" };
        let id = sched.registry().id(name).expect("registered");
        let session = sched.open_session(id, DT, now).expect("open session");
        Client { session, model: name, accepted: Vec::new() }
    };
    for _ in 0..3 {
        let c = open(&mut sched, &mut inj, now);
        clients.push(c);
    }

    for _ in 0..48 {
        let who = inj.pick(clients.len());
        let n = 1 + inj.pick(12);
        let mut chunk: Vec<f64> =
            (0..n).map(|_| (inj.pick(2001) as f64 - 1000.0) / 1000.0).collect();
        let before = sched.samples(clients[who].session).expect("live session");

        match inj.sample() {
            Some(Fault::WorkerPanic) => {
                // Checkpoint *before* the fault; the panicked round must
                // retry to completion and the checkpoint must replay to
                // the same bits afterwards (invariant 3).
                let cp = sched.checkpoint(clients[who].session).expect("checkpoint");
                chaos::arm_worker_panic(&sched);
                sched
                    .submit(clients[who].session, &chunk, now, now + 200)
                    .expect("submit under armed panic");
                drain(&mut sched, &mut now, &mut outputs);
                clients[who].accepted.extend(&chunk);

                let model_id = sched.registry().id(clients[who].model).expect("registered");
                let replay = sched
                    .open_session_from(model_id, DT, cp, now)
                    .expect("reopen from pre-fault checkpoint");
                sched.submit(replay, &chunk, now, now + 200).expect("replay submit");
                drain(&mut sched, &mut now, &mut outputs);
                let replayed = outputs.remove(&replay).expect("replay output");
                let original = &outputs[&clients[who].session];
                assert_bits_eq(
                    &replayed,
                    &original[original.len() - chunk.len()..],
                    "pre-fault checkpoint replay",
                );
                sched.close_session(replay).expect("close replay session");
            }
            Some(Fault::BadStimulus) => {
                let idx = inj.corrupt(&mut chunk).expect("non-empty chunk");
                match sched.submit(clients[who].session, &chunk, now, now + 200) {
                    Err(ServeError::Serving(ServingError::BadStimulus { index, .. })) => {
                        assert!(index <= idx, "first non-finite sample wins")
                    }
                    other => panic!("corrupted chunk admitted: {other:?}"),
                }
                // Rejected work commits nothing (invariant 2).
                assert_eq!(sched.samples(clients[who].session).expect("live"), before);
                assert_eq!(sched.queued_requests(), 0);
            }
            Some(Fault::OversizedChunk) => {
                let oversized = vec![0.25; 17];
                assert!(matches!(
                    sched.submit(clients[who].session, &oversized, now, now + 200),
                    Err(ServeError::ChunkTooLarge { len: 17, limit: 16 })
                ));
                assert_eq!(sched.samples(clients[who].session).expect("live"), before);
            }
            Some(Fault::CloseSession) => {
                let gone = clients.swap_remove(who);
                let state = sched.close_session(gone.session).expect("close");
                assert_eq!(state.samples(), gone.accepted.len() as u64);
                let sim = sched
                    .registry()
                    .get(sched.registry().id(gone.model).expect("registered"))
                    .expect("model")
                    .clone();
                assert_bits_eq(
                    outputs.remove(&gone.session).as_deref().unwrap_or(&[]),
                    &sim.simulate(DT, &gone.accepted),
                    "closed session history",
                );
                // The tier keeps admitting after the fault (invariant 4).
                let c = open(&mut sched, &mut inj, now);
                clients.push(c);
            }
            Some(Fault::CrashKill) => {
                // Power-cut at a random point: snapshot, then a submit
                // whose response is lost with the process, then restore
                // from the snapshot bytes and resubmit the lost chunk.
                let snap = sched.snapshot().expect("snapshot");
                sched
                    .submit(clients[who].session, &chunk, now, now + 200)
                    .expect("submit before kill");
                now += 1;
                let _lost_with_the_process = sched.tick(now);
                drop(sched);
                sched = Scheduler::restore(&snap, &registry()).expect("restore");
                assert_eq!(
                    sched.snapshot().expect("re-snapshot"),
                    snap,
                    "restore ∘ snapshot must be the identity on the wire image"
                );
                assert_eq!(
                    sched.samples(clients[who].session).expect("restored session"),
                    before,
                    "the restored session sits exactly at the pre-crash sample"
                );
                sched
                    .submit(clients[who].session, &chunk, now, now + 200)
                    .expect("resubmit after restore");
                drain(&mut sched, &mut now, &mut outputs);
                clients[who].accepted.extend(&chunk);
            }
            None | Some(_) => {
                sched.submit(clients[who].session, &chunk, now, now + 200).expect("clean submit");
                drain(&mut sched, &mut now, &mut outputs);
                clients[who].accepted.extend(&chunk);
            }
        }
        now += 1;
    }

    // Final audit: every surviving session's streamed output equals a
    // one-shot simulation of everything it accepted, bit for bit —
    // through every panic, retry, pool rebuild, and degradation the
    // storm produced.
    for client in clients {
        assert_eq!(sched.samples(client.session).expect("live"), client.accepted.len() as u64);
        let sim = sched
            .registry()
            .get(sched.registry().id(client.model).expect("registered"))
            .expect("model")
            .clone();
        assert_bits_eq(
            outputs.get(&client.session).map(Vec::as_slice).unwrap_or(&[]),
            &sim.simulate(DT, &client.accepted),
            "surviving session history",
        );
        sched.close_session(client.session).expect("final close");
    }
    assert_eq!(sched.live_sessions(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariants 1–4 under a randomized fault storm (seeded, so every
    /// failure reproduces exactly).
    #[test]
    fn chaos_storm_preserves_all_invariants(seed in 1u64..(1u64 << 48)) {
        storm(seed);
    }
}

/// Pinned-seed storms so CI failures name a reproducible case even if
/// the proptest shim's seeding changes.
#[test]
fn chaos_storm_pinned_seeds() {
    for seed in [0xDA7E_2013, 0x5EED_0001, 0xB16_B00B5] {
        storm(seed);
    }
}

/// Invariant 5: a saturated admission queue sheds new load with
/// `Overloaded` immediately while every admitted request completes
/// within its deadline. Nothing blocks, nothing deadlocks.
#[test]
fn backpressure_sheds_load_and_serves_admitted() {
    let cfg = ServeConfig { max_queued_requests: 4, ..Default::default() };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("a").expect("registered");
    let sessions: Vec<_> =
        (0..4).map(|_| sched.open_session(model, DT, 0).expect("open")).collect();
    let deadline = 10;
    let admitted: Vec<_> = sessions
        .iter()
        .map(|&s| sched.submit(s, &[0.1, 0.2, 0.3], 0, deadline).expect("admit"))
        .collect();
    // The queue is full: further submits shed immediately, with state.
    for &s in &sessions {
        match sched.submit(s, &[0.9], 0, deadline) {
            Err(ServeError::Overloaded { queued_requests: 4, queued_samples: 12 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    // One tick inside the deadline serves all four admitted requests.
    let events = sched.tick(1);
    assert_eq!(events.len(), 4);
    let mut done = Vec::new();
    for event in events {
        match event {
            Event::Completed { request, .. } => done.push(request),
            other => panic!("admitted request did not complete: {other:?}"),
        }
    }
    done.sort();
    let mut want = admitted.clone();
    want.sort();
    assert_eq!(done, want);
    assert_eq!(sched.queued_requests(), 0);
    // Shedding left the scheduler fully usable.
    sched.submit(sessions[0], &[0.4], 2, 20).expect("post-shed admit");
    assert!(matches!(sched.tick(3)[0], Event::Completed { .. }));
}

/// The worker-panic seam is per scheduler: with two schedulers over one
/// registry and only A armed, B's round is clean even when it runs
/// first, and A's next round is the one that panics and retries.
#[test]
fn armed_panic_hits_only_the_named_scheduler() {
    let shared = registry();
    let cfg = ServeConfig { retry_backoff_base: 1, rebuild_after_panics: 10, ..Default::default() };
    let mut a = Scheduler::new(shared.clone(), cfg.clone());
    let mut b = Scheduler::new(shared, cfg);
    let model = a.registry().id("a").expect("registered");
    let sim = a.registry().get(model).expect("model").clone();
    let (sa, sb) = (
        a.open_session(model, DT, 0).expect("open on A"),
        b.open_session(model, DT, 0).expect("open on B"),
    );
    let u = [0.4, -0.3, 0.8, 0.1];
    a.submit(sa, &u, 0, 100).expect("submit to A");
    b.submit(sb, &u, 0, 100).expect("submit to B");

    chaos::arm_worker_panic(&a);
    let served = b.tick(1);
    assert!(
        matches!(&served[..], [Event::Completed { session, .. }] if *session == sb),
        "B's round must not consume A's fault: {served:?}"
    );
    assert!(a.tick(1).is_empty(), "A's round takes the panic");
    assert_eq!(a.queued_requests(), 1, "A's chunk waits in retry backoff");
    assert_eq!(a.samples(sa).expect("live"), 0, "the panicked round committed nothing");

    let mut now = 1u64;
    let mut outputs = BTreeMap::new();
    drain(&mut a, &mut now, &mut outputs);
    assert_bits_eq(&outputs[&sa], &sim.simulate(DT, &u), "A's retried chunk");
}

/// Invariant 6 plus the rebuild→degrade ladder: repeated panicked
/// rounds first rebuild the pool, then degrade to the serial path, and
/// the session's total output stays bit-identical to a clean one-shot
/// simulation across both transitions.
#[test]
fn rebuild_then_degrade_keeps_bits_identical() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 5,
        rebuild_after_panics: 1,
        degrade_after_rebuilds: 1,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("b").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    let u: Vec<f64> = (0..60).map(|i| (i as f64 * 0.21).cos() * 0.8).collect();
    let mut now = 0u64;
    let mut outputs = BTreeMap::new();
    for (round, chunk) in u.chunks(10).enumerate() {
        if round < 2 {
            // Rounds 0 and 1 panic: the first costs a rebuild, the
            // second exhausts the rebuild budget and degrades.
            chaos::arm_worker_panic(&sched);
        }
        sched.submit(session, chunk, now, now + 100).expect("submit");
        drain(&mut sched, &mut now, &mut outputs);
        now += 1;
    }
    assert_eq!(sched.pool_rebuilds(), 1, "one rebuild before degradation");
    assert!(sched.is_degraded(), "second strike degrades to serial");
    assert_bits_eq(&outputs[&session], &sim.simulate(DT, &u), "pooled→degraded stream");
    // Degraded mode still contains panics and still retries.
    chaos::arm_worker_panic(&sched);
    sched.submit(session, &[0.5; 5], now, now + 100).expect("submit degraded");
    drain(&mut sched, &mut now, &mut outputs);
    assert_eq!(sched.samples(session).expect("live"), 65);
}

/// A request that keeps landing in panicked rounds fails typed after
/// its retry budget — and its session state is exactly where it was.
#[test]
fn retries_exhausted_is_typed_and_commits_nothing() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 0,
        rebuild_after_panics: 10,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("a").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    // A clean prefix establishes non-trivial state.
    let prefix = [0.2, -0.4, 0.6, 0.1];
    sched.submit(session, &prefix, 0, 50).expect("prefix");
    let mut now = 0u64;
    let mut outputs = BTreeMap::new();
    drain(&mut sched, &mut now, &mut outputs);

    chaos::arm_worker_panic(&sched);
    let doomed = sched.submit(session, &[0.3; 6], now, now + 50).expect("doomed submit");
    now += 1;
    let events = sched.tick(now);
    assert_eq!(events.len(), 1);
    match &events[0] {
        Event::Failed {
            request, error: ServeError::RetriesExhausted { attempts: 1, .. }, ..
        } => assert_eq!(*request, doomed),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(sched.samples(session).expect("live"), 4, "failed round committed nothing");
    assert_eq!(sched.queued_requests(), 0);

    // The session continues from the pre-fault state, bit-identically.
    let tail = [0.7, -0.2];
    sched.submit(session, &tail, now, now + 50).expect("post-fault submit");
    drain(&mut sched, &mut now, &mut outputs);
    let mut all = prefix.to_vec();
    all.extend(tail);
    assert_bits_eq(&outputs[&session], &sim.simulate(DT, &all), "post-RetriesExhausted stream");
}

/// Per-session FIFO survives retry backoff: while chunk N sits in
/// backoff after a panicked round, chunk N+1 of the same session must
/// wait with it — never be served first. (Regression: pick_eligible
/// used to skip a backed-off request without blocking its session,
/// serving chunk N+1 before chunk N and corrupting the stream.)
#[test]
fn retry_backoff_never_reorders_chunks_within_a_session() {
    let cfg = ServeConfig {
        retry_backoff_base: 4,
        max_retries: 4,
        rebuild_after_panics: 10,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("a").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    let (c0, c1) = ([0.3, -0.1, 0.7, 0.2], [0.5, 0.4, -0.6, 0.9]);
    let r0 = sched.submit(session, &c0, 0, 100).expect("submit r0");
    let r1 = sched.submit(session, &c1, 0, 100).expect("submit r1");
    chaos::arm_worker_panic(&sched);
    assert!(sched.tick(1).is_empty(), "panicked round completes nothing");
    // r0 is in backoff until tick 1 + (4 << 0) = 5. Until then the
    // whole session must wait — r1 may not jump ahead.
    let mut completions = Vec::new();
    let mut output = Vec::new();
    for now in 2..=8 {
        for event in sched.tick(now) {
            match event {
                Event::Completed { request, output: out, .. } => {
                    completions.push((now, request));
                    output.extend(out);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
    assert_eq!(
        completions.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
        vec![r0, r1],
        "chunks must complete in submission order"
    );
    assert!(completions[0].0 >= 5, "r0 served no earlier than its backoff expiry");
    let mut u = c0.to_vec();
    u.extend(c1);
    assert_bits_eq(&output, &sim.simulate(DT, &u), "stream across retry backoff");
    assert_eq!(sched.samples(session).expect("live"), 8);
}

/// When a request exhausts its retries, the session's later queued
/// chunks are cancelled (`PredecessorFailed`) instead of being served
/// across the gap, and the session stays usable at the last completed
/// sample.
#[test]
fn retries_exhausted_cancels_later_chunks_of_same_session() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 0,
        rebuild_after_panics: 10,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("a").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    let prefix = [0.2, -0.4, 0.6];
    sched.submit(session, &prefix, 0, 50).expect("prefix");
    let mut now = 0u64;
    let mut outputs = BTreeMap::new();
    drain(&mut sched, &mut now, &mut outputs);

    chaos::arm_worker_panic(&sched);
    let doomed = sched.submit(session, &[0.3; 4], now, now + 50).expect("doomed");
    let tail_request = sched.submit(session, &[0.8; 4], now, now + 50).expect("tail");
    now += 1;
    let events = sched.tick(now);
    assert_eq!(events.len(), 2);
    assert!(matches!(
        &events[0],
        Event::Failed { request, error: ServeError::RetriesExhausted { .. }, .. }
            if *request == doomed
    ));
    assert!(matches!(
        &events[1],
        Event::Failed { request, error: ServeError::PredecessorFailed { failed }, .. }
            if *request == tail_request && *failed == doomed
    ));
    assert_eq!(sched.samples(session).expect("live"), 3, "nothing served across the gap");
    assert_eq!(sched.queued_requests(), 0);
    assert_eq!(sched.queued_samples(), 0);

    // The stream resumes contiguously from the failure point.
    let tail = [0.7, -0.2];
    sched.submit(session, &tail, now, now + 50).expect("resubmit");
    drain(&mut sched, &mut now, &mut outputs);
    let mut all = prefix.to_vec();
    all.extend(tail);
    assert_bits_eq(&outputs[&session], &sim.simulate(DT, &all), "post-cancel stream");
}

/// The degraded serial path and the pooled path produce identical bits
/// for identical submissions (invariant 6, direct A/B form).
#[test]
fn degraded_serial_output_matches_pooled_bit_for_bit() {
    let pooled_cfg = ServeConfig::default();
    // Degrade immediately: zero tolerated rebuilds, one panic trips it.
    let serial_cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 3,
        rebuild_after_panics: 1,
        degrade_after_rebuilds: 0,
        ..Default::default()
    };
    let mut pooled = Scheduler::new(registry(), pooled_cfg);
    let mut serial = Scheduler::new(registry(), serial_cfg);
    let u: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();

    let mut results = Vec::new();
    for (sched, degrade_first) in [(&mut pooled, false), (&mut serial, true)] {
        let model = sched.registry().id("a").expect("registered");
        let session = sched.open_session(model, DT, 0).expect("open");
        let mut now = 0u64;
        let mut outputs = BTreeMap::new();
        if degrade_first {
            chaos::arm_worker_panic(sched);
        }
        for chunk in u.chunks(9) {
            sched.submit(session, chunk, now, now + 100).expect("submit");
            drain(sched, &mut now, &mut outputs);
            now += 1;
        }
        results.push(outputs.remove(&session).expect("stream output"));
    }
    assert!(serial.is_degraded() && !pooled.is_degraded());
    assert_bits_eq(&results[1], &results[0], "serial vs pooled");
}

/// One kill–restore pass: the same two-session workload is run twice —
/// uninterrupted, and killed at a seeded random round with admitted
/// work still queued, restored from the snapshot bytes, and drained.
/// Both runs must produce bit-identical per-session streams, and a
/// restore against a mismatched registry must fail typed, committing
/// nothing.
fn kill_restore_at_seed(seed: u64) {
    let cfg = ServeConfig { max_chunk_samples: 16, ..Default::default() };
    let mut inj = ChaosInjector::new(ChaosConfig { seed, ..ChaosConfig::default() });

    // Seeded workload: 8 rounds, each submitting one chunk per session.
    let rounds: Vec<Vec<Vec<f64>>> = (0..8)
        .map(|_| {
            (0..2)
                .map(|_| {
                    let n = 1 + inj.pick(12);
                    (0..n).map(|_| (inj.pick(2001) as f64 - 1000.0) / 1000.0).collect()
                })
                .collect()
        })
        .collect();
    let kill_round = inj.pick(rounds.len() - 1);

    let run = |kill_at: Option<usize>| -> Vec<Vec<f64>> {
        let mut sched = Scheduler::new(registry(), cfg.clone());
        let ids = ["a", "b"].map(|name| sched.registry().id(name).expect("registered"));
        let sessions = ids.map(|id| sched.open_session(id, DT, 0).expect("open"));
        let mut now = 1u64;
        let mut outputs: BTreeMap<SessionHandle, Vec<f64>> = BTreeMap::new();
        let mut round = 0;
        while round < rounds.len() {
            if kill_at == Some(round) {
                // Admit this round's and the next round's chunks, then
                // kill with all of them still queued: the snapshot must
                // carry the non-empty admission queue across the crash.
                for r in [round, round + 1] {
                    for (s, chunk) in sessions.iter().zip(&rounds[r]) {
                        sched.submit(*s, chunk, now, now + 200).expect("submit before kill");
                    }
                }
                let snap = sched.snapshot().expect("snapshot");
                drop(sched);

                // A mismatched registry is refused typed; the snapshot
                // bytes are untouched and restore against the right
                // registry still works (nothing was committed).
                let wrong = ModelRegistry::build([
                    ("a".to_string(), model(1.0)),
                    ("b".to_string(), model(9.9)),
                ]);
                assert!(matches!(
                    Scheduler::restore(&snap, &wrong),
                    Err(ServeError::RegistryMismatch { index: 1, .. })
                ));

                sched = Scheduler::restore(&snap, &registry()).expect("restore");
                assert_eq!(sched.queued_requests(), 4, "queued work survives the crash");
                drain(&mut sched, &mut now, &mut outputs);
                round += 2;
            } else {
                for (s, chunk) in sessions.iter().zip(&rounds[round]) {
                    sched.submit(*s, chunk, now, now + 200).expect("submit");
                }
                drain(&mut sched, &mut now, &mut outputs);
                round += 1;
            }
            now += 1;
        }
        sessions.iter().map(|s| outputs.remove(s).expect("session produced output")).collect()
    };

    let uninterrupted = run(None);
    let killed = run(Some(kill_round));
    for (i, (k, u)) in killed.iter().zip(&uninterrupted).enumerate() {
        assert_bits_eq(k, u, &format!("session {i}: killed+restored vs uninterrupted"));
    }
}

/// The kill–restore chaos class in its strongest form: scheduler killed
/// at a seeded random round with a non-empty admission queue, restored
/// from snapshot bytes, remaining work replayed — streams bit-identical
/// to never having crashed (pinned seeds, release-mode CI).
#[test]
fn kill_restore_replays_bit_identically() {
    for seed in [0x0C1A_0515, 0xFEED_5EED, 0xDA7E_2013] {
        kill_restore_at_seed(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized kill–restore: any seed must replay bit-identically.
    #[test]
    fn kill_restore_bit_identity_holds_for_random_seeds(seed in 1u64..(1u64 << 48)) {
        kill_restore_at_seed(seed);
    }
}

/// Killing a *degraded* scheduler must not quietly un-degrade it: the
/// restored scheduler keeps `rebuilds`, stays on the serial path, serves
/// the queued work that crossed the crash, and still contains panics
/// and retries afterwards — all bit-identical to one clean simulation.
#[test]
fn kill_restore_while_degraded_preserves_ladder_position() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 5,
        rebuild_after_panics: 1,
        degrade_after_rebuilds: 1,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("b").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    let u: Vec<f64> = (0..50).map(|i| (i as f64 * 0.17).sin() * 0.9).collect();
    let mut now = 0u64;
    let mut outputs = BTreeMap::new();
    // Two panicked rounds walk the ladder to its last rung.
    for chunk in u[..20].chunks(10) {
        chaos::arm_worker_panic(&sched);
        sched.submit(session, chunk, now, now + 100).expect("submit");
        drain(&mut sched, &mut now, &mut outputs);
        now += 1;
    }
    assert_eq!(sched.pool_rebuilds(), 1);
    assert!(sched.is_degraded());

    // Kill the degraded scheduler with a chunk still queued.
    sched.submit(session, &u[20..30], now, now + 100).expect("submit before kill");
    let snap = sched.snapshot().expect("snapshot while degraded");
    drop(sched);
    let mut sched = Scheduler::restore(&snap, &registry()).expect("restore");
    assert_eq!(sched.pool_rebuilds(), 1, "rebuild count survives the crash");
    assert!(sched.is_degraded(), "a degraded scheduler restores degraded, not pooled");
    assert_eq!(sched.queued_requests(), 1, "queued work survives the crash");
    drain(&mut sched, &mut now, &mut outputs);

    // Still on the last rung: a post-restore panic is contained and
    // retried on the serial path, never escalated into a pool respawn.
    chaos::arm_worker_panic(&sched);
    sched.submit(session, &u[30..40], now, now + 100).expect("submit degraded");
    drain(&mut sched, &mut now, &mut outputs);
    assert!(sched.is_degraded() && sched.pool_rebuilds() == 1);
    sched.submit(session, &u[40..], now, now + 100).expect("submit");
    drain(&mut sched, &mut now, &mut outputs);
    assert_bits_eq(&outputs[&session], &sim.simulate(DT, &u), "degraded kill–restore stream");
}

/// Killing a scheduler *mid-rebuild-threshold* — panics absorbed but
/// below `rebuild_after_panics` — restores with a fresh pool whose
/// absorbed-panic count starts over (the count lives in the pool that
/// died, and `pool_panic_base` restores to zero with it), while the
/// rebuild count persists. The ladder must then keep escalating:
/// rebuild on a full fresh-pool threshold, degrade past the budget.
#[test]
fn kill_restore_mid_rebuild_restarts_panic_count_but_keeps_escalating() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 5,
        rebuild_after_panics: 2,
        degrade_after_rebuilds: 1,
        ..Default::default()
    };
    let mut sched = Scheduler::new(registry(), cfg);
    let model = sched.registry().id("a").expect("registered");
    let session = sched.open_session(model, DT, 0).expect("open");
    let sim = sched.registry().get(model).expect("model").clone();
    let u: Vec<f64> = (0..60).map(|i| (i as f64 * 0.29).cos() * 0.7).collect();
    let mut now = 0u64;
    let mut outputs = BTreeMap::new();

    // One absorbed panic: below the threshold of two, no rebuild yet.
    chaos::arm_worker_panic(&sched);
    sched.submit(session, &u[..10], now, now + 100).expect("submit");
    drain(&mut sched, &mut now, &mut outputs);
    assert_eq!(sched.pool_rebuilds(), 0);
    assert!(!sched.is_degraded());

    let snap = sched.snapshot().expect("snapshot mid-threshold");
    drop(sched);
    let mut sched = Scheduler::restore(&snap, &registry()).expect("restore");
    assert_eq!(sched.pool_rebuilds(), 0);
    assert!(!sched.is_degraded());

    // The half-spent threshold died with the old pool: the next panic
    // is strike one against the fresh pool, not strike two.
    chaos::arm_worker_panic(&sched);
    sched.submit(session, &u[10..20], now, now + 100).expect("submit");
    drain(&mut sched, &mut now, &mut outputs);
    assert_eq!(sched.pool_rebuilds(), 0, "a fresh pool restarts the panic count");

    // Strike two on the fresh pool completes the threshold: rebuild.
    chaos::arm_worker_panic(&sched);
    sched.submit(session, &u[20..30], now, now + 100).expect("submit");
    drain(&mut sched, &mut now, &mut outputs);
    assert_eq!(sched.pool_rebuilds(), 1, "the ladder keeps escalating after restore");
    assert!(!sched.is_degraded());

    // Two more strikes exhaust the rebuild budget: degrade.
    for chunk in u[30..50].chunks(10) {
        chaos::arm_worker_panic(&sched);
        sched.submit(session, chunk, now, now + 100).expect("submit");
        drain(&mut sched, &mut now, &mut outputs);
    }
    assert_eq!(sched.pool_rebuilds(), 1);
    assert!(sched.is_degraded(), "past the budget the restored scheduler still degrades");

    sched.submit(session, &u[50..], now, now + 100).expect("submit");
    drain(&mut sched, &mut now, &mut outputs);
    assert_bits_eq(&outputs[&session], &sim.simulate(DT, &u), "mid-rebuild kill–restore stream");
}
