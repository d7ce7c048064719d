//! Pins the allocation contract of the replication path: a state
//! digest streams the canonical encoding from the borrowed scheduler
//! state, so its allocation count does not depend on how many sessions
//! (and queued chunks) there are; journaling a tick costs a small
//! fixed number of allocations per record (the record's one buffer and
//! its shared handle), not a per-field clone of the session state; and
//! a follower tailing a round of completions and a digest decodes each
//! record in place and copies each state into the session's own
//! checkpoint, allocating nothing at all.
//!
//! Lives in its own test binary because it installs a counting global
//! allocator — the count is process-wide, so the measured regions must
//! not race other tests (this file has exactly one `#[test]`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rvf_core::SimBuilder;
use rvf_serve::{
    Follower, ModelRegistry, ReplicationSink, Scheduler, ServeConfig, SessionHandle, SharedLog,
};

/// System allocator wrapper that counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `f` makes.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

/// A sink that only counts the records it is handed, so the measured
/// allocations are the journal's own.
struct Counting(Arc<AtomicUsize>);

impl ReplicationSink for Counting {
    fn append(&mut self, _record: Bytes) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

const CHUNK: usize = 64;

fn registry() -> ModelRegistry {
    let mut b = SimBuilder::new();
    let s = b.drive_poly(&[0.0, 1.0, 0.1]);
    b.set_static_drive(s);
    b.block_real(-1.0e9, s);
    b.block_pair(-0.5e9, 2.0e9, s, s);
    ModelRegistry::build([("m".to_string(), b.try_build().expect("wiring"))])
}

/// A one-worker scheduler with `sessions` open sessions, each with one
/// queued `CHUNK`-sample chunk, and the sessions' handles; journaling
/// into `sink` when one is given, with a digest every `digest_every`
/// deltas.
fn loaded(
    sessions: usize,
    sink: Option<(Box<dyn ReplicationSink>, u64)>,
) -> (Scheduler, Vec<SessionHandle>) {
    let registry = registry();
    let model = registry.id("m").expect("model");
    let cfg = ServeConfig {
        max_sessions: sessions,
        max_queued_requests: sessions,
        max_queued_samples: sessions * CHUNK,
        max_chunk_samples: CHUNK,
        workers: 1,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(registry, cfg);
    if let Some((sink, digest_every)) = sink {
        sched.attach_replica(sink, digest_every).expect("attach");
    }
    let mut handles = Vec::with_capacity(sessions);
    for c in 0..sessions {
        let h = sched.open_session(model, 1.0e-10, 0).expect("open");
        let chunk: Vec<f64> = (0..CHUNK).map(|i| ((i + c) as f64 * 0.37).sin()).collect();
        sched.submit(h, &chunk, 0, 100).expect("submit");
        handles.push(h);
    }
    (sched, handles)
}

#[test]
fn digests_and_journaling_allocate_per_record_not_per_session() {
    // A digest costs the same at 10 and at 1000 sessions with queued
    // chunks: nothing is cloned per session or per queued request.
    let (small, _) = loaded(10, None);
    let (large, _) = loaded(1000, None);
    let (d_small, a_small) = allocs(|| small.state_digest().expect("digest"));
    let (d_large, a_large) = allocs(|| large.state_digest().expect("digest"));
    assert_ne!(d_small, d_large);
    assert_eq!(
        a_small, a_large,
        "state_digest allocations grew with the session count ({a_small} at 10, {a_large} at 1000)"
    );

    // A tick serving 1000 chunks, journaled against the same tick
    // without a sink: the difference is what journaling allocates.
    let records = Arc::new(AtomicUsize::new(0));
    let (mut plain, _) = loaded(1000, None);
    let counting = Box::new(Counting(Arc::clone(&records)));
    let (mut journaled, _) = loaded(1000, Some((counting, u64::MAX)));
    let (events, base) = allocs(|| plain.tick(1));
    assert_eq!(events.len(), 1000);
    let before = records.load(Ordering::SeqCst);
    let (events, with_sink) = allocs(|| journaled.tick(1));
    assert_eq!(events.len(), 1000);
    let journaled_records = (records.load(Ordering::SeqCst) - before) as u64;
    assert_eq!(journaled_records, 1000, "one completion delta per served chunk");
    let per_record = with_sink.saturating_sub(base) as f64 / journaled_records as f64;
    assert!(
        with_sink <= base + 2 * journaled_records,
        "journaling allocated {per_record:.2} times per record (tick: {with_sink} with a sink, \
         {base} without), more than the record's buffer and handle"
    );

    // A follower past the baseline tails a round of `n` completion
    // deltas and the digest that closes it without allocating: the
    // records are decoded in place, and each state is copied into the
    // session's own checkpoint. A round of `n` admissions then costs
    // exactly the `n` queued inputs.
    let tail_rounds = |n: usize| {
        let log = SharedLog::new();
        let (mut primary, handles) = loaded(n, Some((Box::new(log.clone()), n as u64)));
        let mut follower = Follower::new(registry());
        follower.tail(&log.bytes()).expect("the baseline and the admissions apply");
        let verified = follower.digests_verified();
        assert_eq!(primary.tick(1).len(), n);
        let round = log.bytes();
        let (applied, completions) = allocs(|| follower.tail(&round).expect("the round applies"));
        assert_eq!(applied, n + 1, "{n} completions and one digest");
        assert_eq!(follower.digests_verified(), verified + 1);
        assert_eq!(follower.state_digest().ok(), primary.state_digest().ok());
        for &h in &handles {
            primary.submit(h, &[0.25; CHUNK], 2, 100).expect("submit");
        }
        let round = log.bytes();
        let (applied, admissions) = allocs(|| follower.tail(&round).expect("the round applies"));
        assert_eq!(applied, n + 1, "{n} admissions and one digest");
        assert_eq!(follower.state_digest().ok(), primary.state_digest().ok());
        (completions, admissions)
    };
    for n in [10, 1000] {
        let (completions, admissions) = tail_rounds(n);
        assert_eq!(completions, 0, "tailing {n} completions allocated {completions} times");
        assert_eq!(admissions, n as u64, "tailing {n} admissions allocated {admissions} times");
    }
}
