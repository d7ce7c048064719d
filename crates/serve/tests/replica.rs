//! Warm-standby replication suite: deterministic primary-kill failover.
//!
//! Every test drives a replicated pair — a primary [`Scheduler`]
//! journaling deltas into an in-memory log, a [`Follower`] tailing it —
//! and asserts the replication contract:
//!
//! 1. the follower's reconstructed state digest equals the primary's at
//!    every quiescent point (byte equality of canonical state),
//! 2. killing the primary with the follower 0..n deltas behind,
//!    promoting, and resubmitting unacknowledged chunks yields client
//!    streams `f64`-bit-identical to an uninterrupted run — duplicate
//!    completions included,
//! 3. a follower that cannot prove byte-identity — retuned models,
//!    corrupted deltas, permuted or gapped sequences — refuses with a
//!    typed [`ReplicaError`] and commits nothing,
//! 4. the rebuild→degrade ladder (retries, pool rebuilds, degradation)
//!    replicates exactly and survives promotion.
//!
//! The worker-panic seam arms one scheduler's pool, so the tests run in
//! parallel like any others.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;
use rvf_core::{CompiledSim, SimBuilder, StateCheckpoint};
use rvf_serve::{
    chaos::{self, ChaosConfig, ChaosInjector, Fault},
    replica::{Follower, ReplicaError, ReplicationSink, SharedLog},
    wire::{
        checksum64, DeltaOp, DeltaRecord, DigestRecord, WireError, WireRecord, WireView,
        HEADER_LEN, KIND_DIGEST, MAGIC,
    },
    Event, ModelRegistry, Scheduler, ServeConfig, ServeError, SessionHandle,
};

/// Same nonlinear Hammerstein-shaped model family as the chaos suite.
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

/// A record-granular replication sink: keeps each framed record
/// separate so tests can truncate the log at exact delta boundaries
/// (simulating a follower that died `lag` deltas behind the tip) or
/// splice in corrupted records.
#[derive(Debug, Clone, Default)]
struct RecordLog(Arc<Mutex<Vec<Bytes>>>);

impl ReplicationSink for RecordLog {
    fn append(&mut self, record: Bytes) {
        self.0.lock().unwrap().push(record);
    }
}

impl RecordLog {
    fn records(&self) -> Vec<Bytes> {
        self.0.lock().unwrap().clone()
    }

    fn all_bytes(&self) -> Bytes {
        concat(&self.records())
    }

    /// The log as a lagging follower saw it: everything up to (but not
    /// including) the `lag`-th delta from the tip. `lag == 0` is the
    /// full log; digests past the cut die with the deltas they cover.
    fn lagged_bytes(&self, lag: usize) -> Bytes {
        let records = self.records();
        let delta_at: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(WireRecord::decode(r), Ok(WireView::Delta(_))))
            .map(|(i, _)| i)
            .collect();
        let lag = lag.min(delta_at.len());
        let cut = if lag == 0 { records.len() } else { delta_at[delta_at.len() - lag] };
        concat(&records[..cut])
    }
}

fn concat(records: &[Bytes]) -> Bytes {
    let mut buf = Vec::new();
    for record in records {
        buf.extend_from_slice(record.as_ref());
    }
    Bytes::from(buf)
}

/// One client of the replicated tier. `stream` is the authoritative
/// client-side record of every output sample, indexed by stream
/// offset; `pos` is where the next completion's output lands. After a
/// failover `pos` rewinds to the promoted scheduler's sample count, so
/// re-served chunks are verified **bit-for-bit** against what the dead
/// primary already delivered instead of blindly appended.
struct Client {
    session: SessionHandle,
    model: &'static str,
    chunks: Vec<Vec<f64>>,
    stream: Vec<f64>,
    pos: usize,
}

fn fold(clients: &mut [Client], session: SessionHandle, output: &[f64]) {
    let c = clients
        .iter_mut()
        .find(|c| c.session == session)
        .expect("completion for an unknown session");
    for (i, &v) in output.iter().enumerate() {
        let at = c.pos + i;
        if at < c.stream.len() {
            assert_eq!(
                v.to_bits(),
                c.stream[at].to_bits(),
                "re-served chunk diverged from the dead primary's output at sample {at}"
            );
        } else {
            assert_eq!(at, c.stream.len(), "completion left a gap in the stream");
            c.stream.push(v);
        }
    }
    c.pos += output.len();
}

/// Ticks until the queue drains, folding completions into the clients'
/// streams; any `Failed` event is fatal here.
fn drain_into(sched: &mut Scheduler, now: &mut u64, clients: &mut [Client]) {
    for _ in 0..64 {
        if sched.queued_requests() == 0 {
            break;
        }
        *now += 1;
        for event in sched.tick(*now) {
            match event {
                Event::Completed { session, output, .. } => fold(clients, session, &output),
                Event::Failed { error, request, .. } => {
                    panic!("request {request:?} failed under drain: {error}")
                }
                other => panic!("unexpected event under drain: {other:?}"),
            }
        }
    }
    assert_eq!(sched.queued_requests(), 0, "scheduler wedged: queue did not drain");
}

/// Kills `primary` with the follower `lag` deltas behind the log tip,
/// promotes a fresh follower from the surviving prefix, drains whatever
/// the promoted scheduler still has queued (re-serving anything whose
/// completion delta died with the primary), and resubmits every
/// accepted chunk past the promoted scheduler's sample count. Sessions
/// whose very `SessionOpened` delta was lost are reopened and replayed
/// from sample zero.
fn failover(
    primary: Scheduler,
    log: &RecordLog,
    lag: usize,
    clients: &mut [Client],
    now: &mut u64,
) -> Scheduler {
    let surviving = log.lagged_bytes(lag);
    let mut follower = Follower::new(registry());
    follower.tail(&surviving).expect("follower tails the surviving log prefix");
    let follower_digest = follower.state_digest().expect("follower digest");
    drop(primary); // the kill: everything not yet replicated is gone
    let mut sched = follower.promote().expect("promote the warm standby");
    assert_eq!(
        sched.state_digest().expect("promoted digest"),
        follower_digest,
        "promotion must preserve canonical state byte-for-byte"
    );

    for c in clients.iter_mut() {
        match sched.samples(c.session) {
            Ok(n) => c.pos = n as usize,
            Err(_) => {
                // The open delta died with the primary: start the
                // session over and replay its whole history.
                let id = sched.registry().id(c.model).expect("registered");
                c.session = sched.open_session(id, DT, *now).expect("reopen lost session");
                c.pos = 0;
            }
        }
    }
    // Serve whatever admissions survived in the replicated queue first…
    drain_into(&mut sched, now, clients);
    // …then resubmit the chunks whose admissions died with the primary.
    for c in clients.iter() {
        let have = sched.samples(c.session).expect("live session") as usize;
        let mut cum = 0usize;
        let mut on_boundary = have == 0;
        for chunk in &c.chunks {
            if cum >= have {
                sched.submit(c.session, chunk, *now, *now + 200).expect("resubmit lost chunk");
            }
            cum += chunk.len();
            on_boundary |= cum == have;
        }
        assert!(on_boundary, "promoted sample count must sit on a chunk boundary");
    }
    drain_into(&mut sched, now, clients);
    sched
}

/// The same workload served by a never-killed scheduler: the reference
/// streams every failover run must reproduce bit-for-bit.
fn uninterrupted_run(rounds: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    let cfg = ServeConfig { max_chunk_samples: 16, ..Default::default() };
    let mut sched = Scheduler::new(registry(), cfg);
    let mut clients: Vec<Client> = ["a", "b"]
        .iter()
        .map(|name| {
            let id = sched.registry().id(name).expect("registered");
            Client {
                session: sched.open_session(id, DT, 0).expect("open"),
                model: name,
                chunks: Vec::new(),
                stream: Vec::new(),
                pos: 0,
            }
        })
        .collect();
    let mut now = 1u64;
    for round in rounds {
        for (c, chunk) in clients.iter_mut().zip(round) {
            sched.submit(c.session, chunk, now, now + 200).expect("submit");
            c.chunks.push(chunk.clone());
        }
        drain_into(&mut sched, &mut now, &mut clients);
        now += 1;
    }
    clients.into_iter().map(|c| c.stream).collect()
}

/// One pinned failover pass at follower lag `lag`: eight two-session
/// rounds; between rounds 4 and 5 the primary dies with round 4 served
/// (responses delivered, completion deltas at the log tip) and round 5
/// admitted but unserved. The lag cut therefore spans completion *and*
/// admission deltas, exercising both duplicate re-serving and true
/// resubmission.
fn failover_at_lag(lag: usize) {
    let mut inj = ChaosInjector::new(ChaosConfig { seed: 0xFA11_07E4, ..ChaosConfig::default() });
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
    let reference = uninterrupted_run(&rounds);

    let cfg = ServeConfig { max_chunk_samples: 16, ..Default::default() };
    let log = RecordLog::default();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let mut clients: Vec<Client> = ["a", "b"]
        .iter()
        .map(|name| {
            let id = sched.registry().id(name).expect("registered");
            Client {
                session: sched.open_session(id, DT, 0).expect("open"),
                model: name,
                chunks: Vec::new(),
                stream: Vec::new(),
                pos: 0,
            }
        })
        .collect();
    let mut now = 1u64;
    for round in &rounds[..4] {
        for (c, chunk) in clients.iter_mut().zip(round) {
            sched.submit(c.session, chunk, now, now + 200).expect("submit");
            c.chunks.push(chunk.clone());
        }
        drain_into(&mut sched, &mut now, &mut clients);
        now += 1;
    }
    // Round 4 is admitted and served (the clients hold its outputs)…
    for (c, chunk) in clients.iter_mut().zip(&rounds[4]) {
        sched.submit(c.session, chunk, now, now + 200).expect("submit");
        c.chunks.push(chunk.clone());
    }
    now += 1;
    for event in sched.tick(now) {
        match event {
            Event::Completed { session, output, .. } => fold(&mut clients, session, &output),
            other => panic!("unexpected event before the kill: {other:?}"),
        }
    }
    // …round 5 is admitted but unserved — and the primary dies.
    for (c, chunk) in clients.iter_mut().zip(&rounds[5]) {
        sched.submit(c.session, chunk, now, now + 200).expect("submit");
        c.chunks.push(chunk.clone());
    }
    let mut sched = failover(sched, &log, lag, &mut clients, &mut now);

    for round in &rounds[6..] {
        for (c, chunk) in clients.iter_mut().zip(round) {
            sched.submit(c.session, chunk, now, now + 200).expect("submit");
            c.chunks.push(chunk.clone());
        }
        drain_into(&mut sched, &mut now, &mut clients);
        now += 1;
    }

    for (i, c) in clients.iter().enumerate() {
        let total: usize = c.chunks.iter().map(Vec::len).sum();
        assert_eq!(
            sched.samples(c.session).expect("live") as usize,
            total,
            "lag {lag}, session {i}: promoted tier lost samples"
        );
        assert_bits_eq(
            &c.stream,
            &reference[i],
            &format!("lag {lag}, session {i}: failover stream vs uninterrupted run"),
        );
    }
}

/// The acceptance pin: primary killed with the follower lagging
/// k ∈ {0, 1, 4} deltas — every client's completed output stream is
/// `f64`-bit-identical to the uninterrupted run.
#[test]
fn failover_streams_bit_identical_at_lag_0_1_4() {
    for lag in [0, 1, 4] {
        failover_at_lag(lag);
    }
}

/// A follower holding retuned model tables refuses at the earliest
/// possible point — the baseline — with the typed registry mismatch,
/// and stays refusing at promotion.
#[test]
fn retuned_model_refuses_baseline_and_promotion() {
    let log = RecordLog::default();
    let mut primary = Scheduler::new(registry(), ServeConfig::default());
    primary.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let id = primary.registry().id("a").expect("registered");
    let session = primary.open_session(id, DT, 0).expect("open");
    primary.submit(session, &[0.1, 0.2], 0, 100).expect("submit");
    primary.tick(1);

    let retuned =
        ModelRegistry::build([("a".to_string(), model(1.0)), ("b".to_string(), model(9.9))]);
    let mut follower = Follower::new(retuned);
    let err = follower.tail(&log.all_bytes()).expect_err("retuned tables must refuse");
    assert!(
        matches!(err, ReplicaError::Serve(ServeError::RegistryMismatch { index: 1, .. })),
        "expected a typed registry mismatch, got {err}"
    );
    assert!(!follower.has_baseline(), "a refused baseline commits nothing");
    assert!(matches!(
        follower.promote(),
        Err(ReplicaError::Serve(ServeError::RegistryMismatch { .. }))
    ));
}

/// A corrupted delta whose frame still checksums (a lying primary, not
/// a torn write) is caught by the next digest: the follower reports
/// `Diverged` with both digests and refuses promotion.
#[test]
fn corrupted_delta_is_caught_by_the_next_digest() {
    let log = RecordLog::default();
    let mut primary = Scheduler::new(registry(), ServeConfig::default());
    primary.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let id = primary.registry().id("a").expect("registered");
    let session = primary.open_session(id, DT, 0).expect("open");
    primary.submit(session, &[0.25, 0.5], 0, 100).expect("submit");
    primary.tick(1);

    let mut records = log.records();
    let target = records
        .iter()
        .position(|r| {
            matches!(
                WireRecord::decode(r),
                Ok(WireView::Delta(DeltaRecord { op: DeltaOp::Admitted { .. }, .. }))
            )
        })
        .expect("an admission was journaled");
    let Ok(WireView::Delta(DeltaRecord {
        seq,
        op: DeltaOp::Admitted { request, session, deadline, not_before, input },
    })) = WireRecord::decode(&records[target])
    else {
        unreachable!("target was just matched as an Admitted delta");
    };
    let mut input = input.to_vec();
    input[0] = -input[0];
    records[target] = WireRecord::Delta(DeltaRecord {
        seq,
        op: DeltaOp::Admitted { request, session, deadline, not_before, input },
    })
    .encode();

    let mut follower = Follower::new(registry());
    let err = follower.tail(&concat(&records)).expect_err("corrupted delta accepted");
    assert!(matches!(err, ReplicaError::Diverged { .. }), "expected digest divergence, got {err}");
    assert!(matches!(follower.promote(), Err(ReplicaError::Diverged { .. })));
}

/// The panic→retry→rebuild→degrade ladder replicates delta-for-delta:
/// the follower's digest matches the primary after every drained round,
/// and a follower promoted *from a degraded primary's log* keeps the
/// rebuild count, the degraded flag, and bit-identical serving.
#[test]
fn ladder_deltas_keep_follower_in_lockstep_and_survive_promotion() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 5,
        rebuild_after_panics: 1,
        degrade_after_rebuilds: 1,
        ..Default::default()
    };
    let log = RecordLog::default();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let id = sched.registry().id("b").expect("registered");
    let session = sched.open_session(id, DT, 0).expect("open");
    let sim = sched.registry().get(id).expect("model").clone();
    let u: Vec<f64> = (0..60).map(|i| (i as f64 * 0.21).cos() * 0.8).collect();
    let mut clients =
        vec![Client { session, model: "b", chunks: Vec::new(), stream: Vec::new(), pos: 0 }];
    let mut verifier = Follower::new(registry());
    let mut now = 0u64;
    for (round, chunk) in u.chunks(10).enumerate() {
        if round < 2 {
            // Round 0 costs the rebuild, round 1 exhausts the budget
            // and degrades — every rung journaled as it happens.
            chaos::arm_worker_panic(&sched);
        }
        sched.submit(session, chunk, now, now + 100).expect("submit");
        clients[0].chunks.push(chunk.to_vec());
        drain_into(&mut sched, &mut now, &mut clients);
        verifier.tail(&log.all_bytes()).expect("verifier tails");
        assert_eq!(
            verifier.state_digest().expect("follower digest"),
            sched.state_digest().expect("primary digest"),
            "follower out of lockstep after round {round}"
        );
        now += 1;
    }
    assert_eq!(sched.pool_rebuilds(), 1);
    assert!(sched.is_degraded());
    assert_bits_eq(&clients[0].stream, &sim.simulate(DT, &u), "stream across the ladder");

    drop(sched); // kill the degraded primary
    let mut promoted = verifier.promote().expect("promote from a degraded primary's log");
    assert_eq!(promoted.pool_rebuilds(), 1, "rebuild count survives promotion");
    assert!(promoted.is_degraded(), "degradation survives promotion");
    // The promoted degraded tier still serves, continuing bit-exactly.
    let tail = [0.5; 5];
    promoted.submit(session, &tail, now, now + 100).expect("submit to promoted");
    clients[0].chunks.push(tail.to_vec());
    drain_into(&mut promoted, &mut now, &mut clients);
    let mut all = u.clone();
    all.extend(tail);
    assert_bits_eq(&clients[0].stream, &sim.simulate(DT, &all), "post-promotion stream");
}

/// Terminal failures replicate too: a request that exhausts retries
/// fails on the primary (cancelling its session's queue), and the
/// follower — applying only `RequestFailed` deltas — lands on the same
/// bytes and promotes into a scheduler sitting exactly at the pre-fault
/// sample.
#[test]
fn terminal_failure_deltas_replicate_cancelled_queues() {
    let cfg = ServeConfig {
        retry_backoff_base: 1,
        max_retries: 0,
        rebuild_after_panics: 10,
        ..Default::default()
    };
    let log = RecordLog::default();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let id = sched.registry().id("a").expect("registered");
    let session = sched.open_session(id, DT, 0).expect("open");
    let sim = sched.registry().get(id).expect("model").clone();
    let prefix = [0.2, -0.4, 0.6];
    let mut clients = vec![Client {
        session,
        model: "a",
        chunks: vec![prefix.to_vec()],
        stream: Vec::new(),
        pos: 0,
    }];
    sched.submit(session, &prefix, 0, 50).expect("prefix");
    let mut now = 0u64;
    drain_into(&mut sched, &mut now, &mut clients);

    chaos::arm_worker_panic(&sched);
    sched.submit(session, &[0.3; 4], now, now + 50).expect("doomed");
    sched.submit(session, &[0.8; 4], now, now + 50).expect("cancelled tail");
    now += 1;
    let events = sched.tick(now);
    assert_eq!(events.len(), 2, "RetriesExhausted plus PredecessorFailed");
    assert!(events.iter().all(|e| matches!(e, Event::Failed { .. })));

    let mut follower = Follower::new(registry());
    follower.tail(&log.all_bytes()).expect("tail");
    assert_eq!(
        follower.state_digest().expect("follower digest"),
        sched.state_digest().expect("primary digest"),
        "failure deltas must keep the follower in lockstep"
    );
    drop(sched);
    let mut promoted = follower.promote().expect("promote");
    assert_eq!(promoted.samples(session).expect("live"), 3, "failed rounds committed nothing");
    // The stream resumes contiguously on the promoted tier.
    let tail = [0.7, -0.2];
    promoted.submit(session, &tail, now, now + 50).expect("resume");
    clients[0].chunks.push(tail.to_vec());
    drain_into(&mut promoted, &mut now, &mut clients);
    let mut all = prefix.to_vec();
    all.extend(tail);
    assert_bits_eq(&clients[0].stream, &sim.simulate(DT, &all), "post-failure stream");
}

/// A short replicated workload whose log ends in a digest (cadence 1),
/// used as tamper fodder by the proptests below.
fn canonical_log() -> Vec<Bytes> {
    let cfg = ServeConfig { max_chunk_samples: 16, ..Default::default() };
    let log = RecordLog::default();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let ids = ["a", "b"].map(|name| sched.registry().id(name).expect("registered"));
    let sessions = ids.map(|id| sched.open_session(id, DT, 0).expect("open"));
    let mut now = 1u64;
    for round in 0..3u64 {
        for (i, s) in sessions.iter().enumerate() {
            let v = 0.1 + 0.2 * (round as f64) + 0.05 * (i as f64);
            sched.submit(*s, &[v, -v, v * 0.5], now, now + 100).expect("submit");
        }
        now += 1;
        for event in sched.tick(now) {
            assert!(matches!(event, Event::Completed { .. }));
        }
    }
    sched.close_session(sessions[1]).expect("close");
    let records = log.records();
    assert!(
        matches!(
            WireRecord::decode(records.last().expect("non-empty log")),
            Ok(WireView::Digest(_))
        ),
        "cadence-1 log must end with a digest, or a dropped tail delta would go unnoticed"
    );
    records
}

fn delta_positions(records: &[Bytes]) -> Vec<usize> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(WireRecord::decode(r), Ok(WireView::Delta(_))))
        .map(|(i, _)| i)
        .collect()
}

/// Feeds the tampered log to a fresh follower and asserts the typed
/// refusal: the clean prefix (exactly `prefix_deltas` deltas) applies,
/// nothing after it commits, and promotion is refused with the same
/// stored error.
fn assert_refused(records: &[Bytes], prefix_deltas: u64, want_gap: bool) {
    let mut follower = Follower::new(registry());
    let err = follower.tail(&concat(records)).expect_err("tampered log accepted");
    match (&err, want_gap) {
        (ReplicaError::SequenceGap { .. }, true) => {}
        (ReplicaError::Diverged { .. }, false) => {}
        _ => panic!("wrong refusal for tampered log: {err}"),
    }
    assert_eq!(follower.applied_seq(), prefix_deltas, "only the clean prefix may commit");
    match follower.promote() {
        Err(stored) => assert_eq!(stored, err, "promotion must return the stored poison error"),
        Ok(_) => panic!("poisoned follower promoted"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation or gap in the delta sequence — and any content
    /// tamper that survives framing — is refused typed
    /// (`SequenceGap`/`Diverged`), commits nothing past the clean
    /// prefix, and blocks promotion.
    #[test]
    fn tampered_delta_logs_always_refuse_and_commit_nothing(
        pick_a in 0usize..4096,
        pick_b in 0usize..4096,
        mode in 0u8..3,
    ) {
        let mut records = canonical_log();
        let deltas = delta_positions(&records);
        prop_assume!(deltas.len() >= 2);
        match mode {
            0 => {
                // Gap: drop one delta; the next delta or digest exposes it.
                let k = pick_a % deltas.len();
                records.remove(deltas[k]);
                assert_refused(&records, k as u64, true);
            }
            1 => {
                // Permutation: swap two deltas; the earlier position now
                // carries a future sequence number.
                let i = pick_a % deltas.len();
                let j = pick_b % deltas.len();
                prop_assume!(i != j);
                let (lo, hi) = (i.min(j), i.max(j));
                records.swap(deltas[lo], deltas[hi]);
                assert_refused(&records, lo as u64, true);
            }
            _ => {
                // Content tamper: flip one admitted sample's sign. The
                // frame still checksums; the digest right after the
                // admission catches the byte divergence.
                let admits: Vec<usize> = records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| matches!(
                        WireRecord::decode(r),
                        Ok(WireView::Delta(DeltaRecord { op: DeltaOp::Admitted { .. }, .. }))
                    ))
                    .map(|(i, _)| i)
                    .collect();
                let target = admits[pick_a % admits.len()];
                let Ok(WireView::Delta(DeltaRecord {
                    seq,
                    op: DeltaOp::Admitted { request, session, deadline, not_before, input },
                })) = WireRecord::decode(&records[target])
                else {
                    unreachable!("target was just matched as an Admitted delta");
                };
                let mut input = input.to_vec();
                input[0] = -input[0];
                records[target] = WireRecord::Delta(DeltaRecord {
                    seq,
                    op: DeltaOp::Admitted { request, session, deadline, not_before, input },
                })
                .encode();
                // The tampered delta itself applies (it is structurally
                // valid); the digest refuses one record later.
                assert_refused(&records, seq, false);
            }
        }
    }

    /// Randomized replicated storms: clean traffic interleaved with
    /// primary kills at random lags must keep every client stream
    /// bit-identical to a clean one-shot simulation.
    #[test]
    fn replicated_storm_survives_random_seeds(seed in 1u64..(1u64 << 48)) {
        replicated_storm(seed);
    }
}

/// A replicated pair under storm traffic with `PrimaryKillLagged` live:
/// every operation ends with a verifying follower tailing the full log
/// and matching the primary's digest; each kill promotes from a lagged
/// prefix, re-serves and resubmits, then re-attaches a fresh log for
/// the next kill. The final audit checks every stream against a clean
/// one-shot simulation, bit for bit.
fn replicated_storm(seed: u64) {
    let cfg = ServeConfig { max_chunk_samples: 16, max_queued_requests: 64, ..Default::default() };
    let chaos_cfg = ChaosConfig { seed, ..ChaosConfig::default() }.with_primary_kill(220, 4);
    let mut inj = ChaosInjector::new(chaos_cfg);
    let mut log = RecordLog::default();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 2).expect("attach");
    let mut verifier = Follower::new(registry());
    let mut now = 1u64;
    let mut clients: Vec<Client> = Vec::new();
    for _ in 0..2 {
        let name = if inj.pick(2) == 0 { "a" } else { "b" };
        let id = sched.registry().id(name).expect("registered");
        clients.push(Client {
            session: sched.open_session(id, DT, now).expect("open"),
            model: name,
            chunks: Vec::new(),
            stream: Vec::new(),
            pos: 0,
        });
    }

    for _ in 0..32 {
        let who = inj.pick(clients.len());
        let n = 1 + inj.pick(12);
        let chunk: Vec<f64> = (0..n).map(|_| (inj.pick(2001) as f64 - 1000.0) / 1000.0).collect();
        match inj.sample() {
            Some(Fault::PrimaryKillLagged { lag }) => {
                // Die with work in flight: this chunk admitted, served
                // once (its completion delta sits at the log tip), so
                // small lags lose completions and larger ones lose the
                // admission too.
                sched.submit(clients[who].session, &chunk, now, now + 200).expect("submit");
                clients[who].chunks.push(chunk);
                now += 1;
                for event in sched.tick(now) {
                    match event {
                        Event::Completed { session, output, .. } => {
                            fold(&mut clients, session, &output)
                        }
                        other => panic!("unexpected event before a kill: {other:?}"),
                    }
                }
                sched = failover(sched, &log, lag as usize, &mut clients, &mut now);
                log = RecordLog::default();
                sched.attach_replica(Box::new(log.clone()), 2).expect("re-attach");
                verifier = Follower::new(registry());
            }
            _ => {
                sched.submit(clients[who].session, &chunk, now, now + 200).expect("submit");
                clients[who].chunks.push(chunk);
                drain_into(&mut sched, &mut now, &mut clients);
            }
        }
        verifier.tail(&log.all_bytes()).expect("verifier tails");
        assert_eq!(
            verifier.state_digest().expect("follower digest"),
            sched.state_digest().expect("primary digest"),
            "verifying follower out of lockstep (seed {seed:#x})"
        );
        now += 1;
    }

    for client in clients {
        let accepted: Vec<f64> = client.chunks.iter().flatten().copied().collect();
        assert_eq!(
            sched.samples(client.session).expect("live") as usize,
            accepted.len(),
            "promoted tier lost samples (seed {seed:#x})"
        );
        let sim = sched
            .registry()
            .get(sched.registry().id(client.model).expect("registered"))
            .expect("model")
            .clone();
        assert_bits_eq(
            &client.stream,
            &sim.simulate(DT, &accepted),
            &format!("storm stream, seed {seed:#x}"),
        );
        sched.close_session(client.session).expect("final close");
    }
    assert_eq!(sched.live_sessions(), 0);
}

/// Pinned replicated storms so CI failures name a reproducible case.
#[test]
fn replicated_storm_pinned_seeds() {
    for seed in [0xD15_7EAD, 0x5EED_0010, 0xFA11_BACC] {
        replicated_storm(seed);
    }
}

/// The wire image is a compatibility contract: a fixed scripted
/// scenario — two sessions opened, chunks submitted and served, one
/// panicked round retried (and the pool rebuilt), a session closed —
/// must produce a final snapshot and a replication log whose bytes hash
/// to constants recorded from the reference implementation. Any change
/// to the encoding, the op order, the digest cadence or the checksum
/// moves them. The payload image pins the same records with the
/// checksum left out, so a change of checksum alone can be told from a
/// change of payload.
#[test]
fn wire_image_of_a_scripted_scenario_is_pinned() {
    let cfg = ServeConfig {
        workers: 2,
        retry_backoff_base: 2,
        rebuild_after_panics: 1,
        max_chunk_samples: 16,
        ..Default::default()
    };
    let log = SharedLog::new();
    let mut sched = Scheduler::new(registry(), cfg);
    sched.attach_replica(Box::new(log.clone()), 3).expect("attach");
    let [a, b] = ["a", "b"].map(|name| {
        let id = sched.registry().id(name).expect("registered");
        sched.open_session(id, DT, 0).expect("open")
    });
    sched.submit(a, &[0.1, -0.2, 0.3, 0.4, -0.5], 0, 100).expect("submit");
    sched.submit(b, &[0.25, 0.5, -0.75], 0, 100).expect("submit");
    sched.submit(a, &[0.6, 0.7], 0, 100).expect("submit");
    let served = sched.tick(1);
    assert_eq!(served.len(), 2);
    assert!(served.iter().all(|e| matches!(e, Event::Completed { .. })));

    // Model "a" batches first, so its group takes the panic; "b" serves.
    chaos::arm_worker_panic(&sched);
    sched.submit(b, &[-0.125, 0.0625], 1, 100).expect("submit");
    let panicked = sched.tick(2);
    assert_eq!(panicked.len(), 1, "only b's chunk serves in the panicked tick");
    assert!(matches!(&panicked[0], Event::Completed { session, .. } if *session == b));
    assert_eq!(sched.queued_requests(), 1, "a's chunk waits in retry backoff");
    assert!(sched.tick(3).is_empty(), "the retry is still backing off");
    let retried = sched.tick(4);
    assert!(matches!(&retried[..], [Event::Completed { session, .. }] if *session == a));

    sched.submit(b, &[0.875; 3], 5, 100).expect("submit");
    sched.close_session(a).expect("close");
    let snapshot = sched.snapshot().expect("snapshot");

    assert_eq!(sched.pool_rebuilds(), 1);
    let mut follower = Follower::new(registry());
    follower.tail(&log.bytes()).expect("the follower verifies the scenario's log");
    assert!(follower.digests_verified() >= 1, "the scenario journals no verified digest");
    let image = payload_image(payload_image(FNV_OFFSET, snapshot.as_ref()), log.bytes().as_ref());
    assert_eq!(image, PINNED_PAYLOAD_IMAGE, "payload bytes moved");
    assert_eq!(checksum64(snapshot.as_ref()), PINNED_SNAPSHOT, "snapshot bytes moved");
    assert_eq!(checksum64(log.bytes().as_ref()), PINNED_LOG, "replication log bytes moved");
}

/// `checksum64` of the scenario's final snapshot record.
const PINNED_SNAPSHOT: u64 = 0xf38b_35d3_ab7b_7a8b;
/// `checksum64` of the scenario's whole replication log.
const PINNED_LOG: u64 = 0xa821_2c95_14bb_3970;
/// [`payload_image`] of the scenario's final snapshot, then its log,
/// first recorded with wire version 1 (FNV-1a trailers and digests).
/// All three pins were re-recorded when the drive head lost its
/// always-zero third value: the registry models' fingerprints changed,
/// and no other payload byte did.
const PINNED_PAYLOAD_IMAGE: u64 = 0xe369_02da_3dd0_2ef8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Byte-serial FNV-1a/64 continuing from `h`: the wire checksum of
/// version 1, kept here as an oracle that shares no code with the
/// crate's hash.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a from `h` over the payload image of concatenated framed
/// records: each record's kind byte, length field and payload, in
/// order. The version field and the trailer are left out, and so is a
/// digest record's digest value — the bytes a change of checksum moves.
fn payload_image(mut h: u64, mut records: &[u8]) -> u64 {
    while !records.is_empty() {
        let plen = u64::from_le_bytes(records[8..HEADER_LEN].try_into().expect("8 bytes"));
        let (kind, end) = (records[6], HEADER_LEN + plen as usize);
        let payload = &records[HEADER_LEN..end];
        h = fnv1a(h, &[kind]);
        h = fnv1a(h, &records[8..HEADER_LEN]);
        h = fnv1a(h, if kind == KIND_DIGEST { &payload[..8] } else { payload });
        records = &records[end + 8..];
    }
    h
}

/// A version-1 record — FNV-1a trailer, valid for its own bytes — is
/// refused at the version field, before the checksum is consulted: an
/// old log fails loudly as an old log, not as corruption.
#[test]
fn a_version_1_record_is_refused_by_version_not_checksum() {
    let record = WireRecord::Digest(DigestRecord { seq: 3, digest: 0x0123_4567_89ab_cdef });
    let mut raw = record.encode().as_ref().to_vec();
    let plen = raw.len() - HEADER_LEN - 8;
    raw[4..6].copy_from_slice(&1u16.to_le_bytes());
    let sum = fnv1a(FNV_OFFSET, &raw[..HEADER_LEN + plen]);
    raw[HEADER_LEN + plen..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")), MAGIC);
    assert_eq!(
        WireRecord::decode(&Bytes::from(raw)),
        Err(WireError::UnsupportedVersion { found: 1 })
    );
}

/// A primary with three sessions (`a`, `b` on model "a"/"b", `c` on
/// "a"), one queued request each on `a` and `c`, and `b` closed — so
/// slot 1 sits on the free stack at generation 1. With `refill`, a
/// fourth session reopens slot 1 and the free stack is empty again.
struct Fixture {
    log: RecordLog,
    primary: Scheduler,
    a: SessionHandle,
    b: SessionHandle,
    c: SessionHandle,
}

fn fixture(refill: bool) -> Fixture {
    let log = RecordLog::default();
    let mut primary = Scheduler::new(registry(), ServeConfig::default());
    primary.attach_replica(Box::new(log.clone()), 1).expect("attach");
    let [a, b, c] = ["a", "b", "a"].map(|name| {
        let id = primary.registry().id(name).expect("registered");
        primary.open_session(id, DT, 0).expect("open")
    });
    primary.submit(a, &[0.1, 0.2], 0, 100).expect("submit");
    primary.submit(c, &[0.3], 0, 100).expect("submit");
    primary.close_session(b).expect("close");
    if refill {
        let id = primary.registry().id("b").expect("registered");
        primary.open_session(id, DT, 1).expect("reopen");
    }
    Fixture { log, primary, a, b, c }
}

/// Asserts `err` is the follower's stored poison error, that nothing
/// was committed past `seq`, and that promotion returns the same error.
fn assert_poisoned(follower: Follower, err: &ReplicaError, seq: u64, case: &str) {
    assert_eq!(follower.error(), Some(err), "{case}: error not stored");
    assert_eq!(follower.applied_seq(), seq, "{case}: a refused record committed");
    match follower.promote() {
        Err(stored) => assert_eq!(&stored, err, "{case}: promotion must return the stored error"),
        Ok(_) => panic!("{case}: poisoned follower promoted"),
    }
}

/// Regression: a baseline whose free list names a live slot is refused
/// when the follower applies it — the validation restore runs — rather
/// than at promotion, the moment of failover.
#[test]
fn baseline_whose_free_list_names_a_live_slot_is_refused_at_apply() {
    let fx = fixture(false);
    let Ok(WireView::Snapshot(mut snap)) =
        WireRecord::decode(&fx.primary.snapshot().expect("snapshot"))
    else {
        panic!("snapshot bytes decode to a snapshot record");
    };
    snap.free = vec![0];
    let mut follower = Follower::new(registry());
    let err = follower.apply(WireView::Snapshot(snap)).expect_err("inconsistent baseline");
    assert!(
        matches!(err, ReplicaError::Serve(ServeError::SnapshotInvalid { .. })),
        "expected a typed invalid-snapshot refusal, got {err}"
    );
    assert!(!follower.has_baseline(), "a refused baseline commits nothing");
    assert_poisoned(follower, &err, 0, "live slot on the free list");
}

/// Every structural refusal, table-driven: each way a snapshot can be
/// inconsistent is refused identically by `Scheduler::restore` and by a
/// follower's baseline, and each way a record can contradict the
/// follower's state is refused typed, commits nothing, and blocks
/// promotion with the stored error.
#[test]
fn every_structural_refusal_is_typed_and_commits_nothing() {
    let fx = fixture(false);
    let Ok(WireView::Snapshot(base)) =
        WireRecord::decode(&fx.primary.snapshot().expect("snapshot"))
    else {
        panic!("snapshot bytes decode to a snapshot record");
    };
    type Mutation = fn(&mut rvf_serve::wire::SchedulerSnapshot, u64);
    let restore_cases: [(&str, Mutation); 10] = [
        ("a session references a model outside the snapshot registry", |s, _| {
            s.slots[0].session.as_mut().expect("live").model = 7;
        }),
        ("a session's dt is not a positive finite number", |s, _| {
            s.slots[0].session.as_mut().expect("live").dt_bits = (-1.0f64).to_bits();
        }),
        ("a free-list entry does not name a distinct empty slot", |s, _| s.free = vec![0]),
        ("a free-list entry does not name a distinct empty slot", |s, _| s.free = vec![1, 1]),
        ("the free list does not cover every empty slot", |s, _| s.free.clear()),
        ("a queued request references a dead session", |s, b| s.queue[0].session = b),
        ("a queued request id is newer than the id counter", |s, _| {
            s.queue[0].id = s.next_request;
        }),
        ("a queued stimulus holds a non-finite sample", |s, _| s.queue[0].input[0] = f64::NAN),
        // Refused before any pool exists: restoring either would first
        // try to spawn that many worker threads.
        ("the worker count exceeds the most a restore may spawn", |s, _| s.cfg.workers = 1025),
        ("the worker count exceeds the most a restore may spawn", |s, _| {
            s.cfg.workers = usize::MAX;
        }),
    ];
    for (want, mutate) in restore_cases {
        let mut snap = base.clone();
        mutate(&mut snap, fx.b.raw());
        let bytes = WireRecord::Snapshot(snap.clone()).encode();
        let typed = ServeError::SnapshotInvalid { what: want };
        assert_eq!(Scheduler::restore(&bytes, &registry()).err(), Some(typed.clone()), "{want}");
        let mut follower = Follower::new(registry());
        let err = follower.apply(WireView::Snapshot(snap)).expect_err(want);
        assert_eq!(err, ReplicaError::Serve(typed), "{want}: follower baseline");
        assert!(!follower.has_baseline(), "{want}: refused baseline committed");
        assert_poisoned(follower, &err, 0, want);
    }

    // Registries that do not carry the snapshot's models, garbage, and
    // records of the wrong kind are refused typed too; a registry with
    // extra models appended is accepted.
    let bytes = WireRecord::Snapshot(base.clone()).encode();
    let retuned =
        ModelRegistry::build([("a".to_string(), model(1.0)), ("b".to_string(), model(9.9))]);
    let renamed =
        ModelRegistry::build([("a".to_string(), model(1.0)), ("x".to_string(), model(1.7))]);
    for (index, bad) in [(1, retuned), (1, renamed), (0, ModelRegistry::build([]))] {
        let refused = Scheduler::restore(&bytes, &bad).err();
        assert!(
            matches!(refused, Some(ServeError::RegistryMismatch { index: i, .. }) if i == index)
        );
        let mut follower = Follower::new(bad);
        let err = follower.apply(WireView::Snapshot(base.clone())).expect_err("mismatch");
        assert_eq!(Some(err.clone()), refused.map(ReplicaError::Serve));
        assert_poisoned(follower, &err, 0, "registry mismatch");
    }
    let garbage = Bytes::from(vec![0u8; 40]);
    assert!(matches!(Scheduler::restore(&garbage, &registry()).err(), Some(ServeError::Wire(_))));
    let digest = WireRecord::Digest(DigestRecord { seq: 0, digest: 0 });
    let not_a_snapshot =
        ServeError::SnapshotInvalid { what: "the record is not a scheduler snapshot" };
    assert_eq!(Scheduler::restore(&digest.encode(), &registry()).err(), Some(not_a_snapshot));
    let superset = ModelRegistry::build([
        ("a".to_string(), model(1.0)),
        ("b".to_string(), model(1.7)),
        ("extra".to_string(), model(2.3)),
    ]);
    assert!(Scheduler::restore(&bytes, &superset).is_ok());

    // Records the follower's state contradicts, each applied to a
    // follower tailed to the fixture's log tip (slot 1 on the free stack,
    // or refilled where the case needs an empty one).
    let checkpoint = fx.primary.checkpoint(fx.a).expect("live").export();
    let open = |session: u64, model: u32, dt: f64| {
        let state = checkpoint.clone();
        DeltaOp::SessionOpened { session, model, dt_bits: dt.to_bits(), last_activity: 2, state }
    };
    let admit = |request: u64, session: u64, sample: f64| DeltaOp::Admitted {
        request,
        session,
        deadline: 100,
        not_before: 2,
        input: vec![sample],
    };
    let complete = |request: u64, session: u64| {
        let state = checkpoint.clone();
        DeltaOp::ChunkCompleted { request, session, last_activity: 2, state }
    };
    let misfit = {
        let state = StateCheckpoint { shape: [9; 4], ..checkpoint.clone() };
        DeltaOp::ChunkCompleted { request: 0, session: fx.a.raw(), last_activity: 2, state }
    };
    let (next, a, b, c) = (base.next_request, fx.a.raw(), fx.b.raw(), fx.c.raw());
    let retry = DeltaOp::RequestRetried { request: 99, attempts: 1, not_before: 3 };
    let delta_cases: Vec<(&str, bool, WireRecord)> = vec![
        ("opened session names a model outside the registry", false, delta(open(1, 9, DT))),
        ("opened session carries a non-positive dt", false, delta(open(1, 0, 0.0))),
        ("the opened slot is not the top of the free stack", false, delta(open(2, 0, DT))),
        ("the opened slot's generation does not match the handle", false, delta(open(1, 0, DT))),
        ("an appended slot must start at generation 0", true, delta(open((7 << 32) | 3, 0, DT))),
        (
            "the admitted request id is not the next request id",
            false,
            delta(admit(next + 1, a, 0.5)),
        ),
        ("an admitted stimulus holds a non-finite sample", false, delta(admit(next, a, f64::NAN))),
        ("admission names a dead session", false, delta(admit(next, b, 0.5))),
        ("completion names a request that is not queued", false, delta(complete(99, a))),
        ("completion names the wrong session for its request", false, delta(complete(0, c))),
        ("completion carries a state that does not fit the session", false, delta(misfit)),
        (
            "failure names a request that is not queued",
            false,
            delta(DeltaOp::RequestFailed { request: 99 }),
        ),
        ("retry names a request that is not queued", false, delta(retry)),
        ("close names a dead session", false, delta(DeltaOp::SessionClosed { session: b })),
        ("a second baseline snapshot arrived mid-log", false, WireRecord::Snapshot(base.clone())),
    ];
    let refilled = fixture(true);
    for (want, refill, record) in delta_cases {
        let log = if refill { &refilled.log } else { &fx.log };
        let mut follower = Follower::new(registry());
        follower.tail(&log.all_bytes()).expect("clean log");
        let seq = follower.applied_seq();
        // A delta is refused at its own sequence number; any other
        // record at the last applied one.
        let (record, bad_seq) = match record {
            WireRecord::Delta(DeltaRecord { op, .. }) => (delta_at(seq + 1, op), seq + 1),
            other => (other, seq),
        };
        let err = follower.apply(view(&record.encode())).expect_err(want);
        assert_eq!(err, ReplicaError::BadDelta { seq: bad_seq, what: want }, "{want}");
        assert_poisoned(follower, &err, seq, want);
    }

    // Sequencing: a record before the baseline, and a delta from the
    // future.
    let mut follower = Follower::new(registry());
    let err =
        follower.apply(view(&delta_at(1, DeltaOp::PoolRebuilt).encode())).expect_err("no baseline");
    assert_eq!(err, ReplicaError::NoBaseline);
    assert_poisoned(follower, &err, 0, "record before the baseline");
    assert!(matches!(Follower::new(registry()).promote(), Err(ReplicaError::NoBaseline)));
    let mut follower = Follower::new(registry());
    follower.tail(&fx.log.all_bytes()).expect("clean log");
    let seq = follower.applied_seq();
    let err =
        follower.apply(view(&delta_at(seq + 5, DeltaOp::PoolRebuilt).encode())).expect_err("gap");
    assert_eq!(err, ReplicaError::SequenceGap { expected: seq + 1, found: seq + 5 });
    assert!(matches!(follower.tail(&fx.log.all_bytes()), Err(ReplicaError::SequenceGap { .. })));
    assert_poisoned(follower, &err, seq, "sequence gap");
}

/// Kinds 1–3 (the retired standalone stimulus, response and checkpoint
/// records) are unknown at the header: restore refuses such a frame as
/// a wire error, and a follower tailing a log that holds one applies
/// the records before it, then poisons itself and applies nothing after.
#[test]
fn a_retired_record_kind_fails_at_the_header_and_poisons_the_follower() {
    let fx = fixture(false);
    for kind in 1..=3 {
        // A checksum-valid frame: only its kind byte is wrong.
        let mut raw = delta_at(1, DeltaOp::PoolRebuilt).encode().as_ref().to_vec();
        raw[6] = kind;
        let body = raw.len() - 8;
        let sum = checksum64(&raw[..body]);
        raw[body..].copy_from_slice(&sum.to_le_bytes());
        let retired = Bytes::from(raw);
        let unknown = WireError::UnknownRecord { kind };
        let refused = Scheduler::restore(&retired, &registry()).err();
        assert_eq!(refused, Some(ServeError::Wire(unknown.clone())), "kind {kind}");

        let mut records = fx.log.records();
        let at = records.len() / 2;
        let seq = records[..at]
            .iter()
            .filter(|r| matches!(WireRecord::decode(r), Ok(WireView::Delta(_))))
            .count() as u64;
        records.insert(at, retired);
        let mut follower = Follower::new(registry());
        let err = follower.tail(&concat(&records)).expect_err("a retired kind is refused");
        assert_eq!(err, ReplicaError::Wire(unknown), "kind {kind}");
        assert_poisoned(follower, &err, seq, "retired record kind");
    }
}

fn delta(op: DeltaOp) -> WireRecord {
    delta_at(0, op)
}

fn delta_at(seq: u64, op: DeltaOp) -> WireRecord {
    WireRecord::Delta(DeltaRecord { seq, op })
}

/// The view a follower applies of an encoded record.
fn view(bytes: &Bytes) -> WireView<'_> {
    WireRecord::decode(bytes).expect("a valid record")
}
