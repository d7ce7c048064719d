//! Admission-controlled batching scheduler with deadlines, retry, and
//! graceful degradation.
//!
//! The [`Scheduler`] is the service loop's core: clients open sessions
//! against registry models, [`submit`](Scheduler::submit) stimulus
//! chunks with a deadline, and the serving loop calls
//! [`tick`](Scheduler::tick) to coalesce eligible requests into one
//! [`CompiledSim::advance_chunks`] round per model — one pool task per
//! request — over one shared [`SweepPool`].
//!
//! The scheduler is a runtime shell (registry, pool, replication sink)
//! around the plain-data committed state of the `machine` module: the
//! shell decides what happens, calls the state's transition for it, and
//! journals the matching [`DeltaOp`] when a sink is attached.
//!
//! Time is an injected `u64` tick counter: every API that needs time
//! takes `now` explicitly, so schedulers are fully deterministic under
//! test — no wall clock anywhere. A production loop passes a monotonic
//! millisecond counter; the chaos harness passes whatever it likes.
//!
//! Robustness contract:
//!
//! * **Bounded admission** — the queue caps both request count and
//!   total queued samples; past either cap a submit is rejected with
//!   [`ServeError::Overloaded`] *immediately* (load shedding, never
//!   blocking), while admitted work keeps flowing.
//! * **Transactional advances** — batch rounds go through
//!   [`CompiledSim::advance_chunks`], which commits nothing on any
//!   failure; a rejected or failed request leaves its session's state
//!   bit-for-bit where it was.
//! * **Retry with backoff** — a request caught in a panicked round is
//!   requeued with exponentially growing `not_before` ticks, up to a
//!   retry budget ([`ServeError::RetriesExhausted`] after that). While
//!   the retry sits in backoff its whole session waits with it: later
//!   chunks of the same session are never served ahead of an earlier
//!   one (strict per-session FIFO).
//! * **No silent stream gaps** — when a request fails terminally
//!   (deadline, exhausted retries, a serving error), the session's
//!   remaining queued requests are cancelled with
//!   [`ServeError::PredecessorFailed`] instead of being served across
//!   the gap. The session state stays at the last completed sample and
//!   the session remains usable — resubmit from the failed chunk.
//! * **Pool rebuild and degradation** — contained worker panics are
//!   counted per pool ([`SweepPool::contained_panics`]); past a
//!   threshold the pool is torn down and rebuilt, and past a rebuild
//!   budget the scheduler degrades to a one-worker pool (serial, no
//!   thread) whose output is bit-identical to the pooled path.
//!
//! [`CompiledSim::advance_chunks`]: rvf_core::CompiledSim::advance_chunks

use std::sync::Arc;

use bytes::Bytes;
use rvf_core::serving::SessionChunk;
use rvf_core::{ServingError, SimState};
use rvf_numerics::SweepPool;

use crate::error::ServeError;
use crate::machine::SchedulerCore;
use crate::registry::{ModelId, ModelRegistry};
use crate::replica::ReplicationSink;
use crate::wire::{frame, DeltaOp, DeltaRecord, DigestRecord, WireRecord, WireView, KIND_DELTA};

/// Replication bookkeeping: the attached sink, the delta sequence
/// counter, and the digest cadence. Digests are *deferred*: a journaled
/// mutation marks one due, and it is emitted at the next point where
/// the scheduler's canonical state is snapshot-consistent (end of
/// `tick`, or immediately for out-of-tick mutations).
struct Replication {
    sink: Box<dyn ReplicationSink>,
    seq: u64,
    digest_every: u64,
    digest_due: bool,
}

impl Replication {
    /// Appends the committed mutation `op`, written from borrowed
    /// parts, under the next sequence number.
    fn journal(&mut self, op: DeltaOp<&[f64]>) {
        self.seq += 1;
        self.sink.append(frame(KIND_DELTA, &DeltaRecord { seq: self.seq, op }));
        // The sequence restarts at each baseline.
        self.digest_due |= self.seq.is_multiple_of(self.digest_every);
    }
}

/// Stable handle to a live session. Handles are generation-tagged: a
/// handle to a closed session stays invalid forever, even if its slot
/// is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionHandle(u64);

impl SessionHandle {
    pub(crate) fn new(index: usize, generation: u32) -> Self {
        Self(((generation as u64) << 32) | index as u64)
    }

    pub(crate) fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    pub(crate) fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw handle value (diagnostics only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Stable id of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Scheduler tuning knobs. Every limit is a robustness boundary — the
/// defaults are deliberately small enough that tests exercise them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum live sessions ([`ServeError::SessionLimit`] past it).
    pub max_sessions: usize,
    /// Maximum queued requests ([`ServeError::Overloaded`] past it).
    pub max_queued_requests: usize,
    /// Maximum total queued samples ([`ServeError::Overloaded`]).
    pub max_queued_samples: usize,
    /// Maximum samples per request ([`ServeError::ChunkTooLarge`]).
    pub max_chunk_samples: usize,
    /// Ticks of inactivity after which an idle session (no queued work)
    /// is closed and surfaced as [`Event::SessionExpired`] with its
    /// checkpoint. `0` disables idle expiry.
    pub idle_timeout: u64,
    /// Base of the retry backoff: attempt `k` (1-based) of a panicked
    /// request becomes eligible again `retry_backoff_base · 2^(k-1)`
    /// ticks after the failure (the exponent capped at 16, the product
    /// saturating at `u64::MAX`).
    pub retry_backoff_base: u64,
    /// Retry budget per request (initial attempt not counted): after
    /// this many *re*-tries land in panicked rounds the request fails
    /// with [`ServeError::RetriesExhausted`].
    pub max_retries: u32,
    /// Contained worker panics a pool may absorb before it is torn down
    /// and rebuilt.
    pub rebuild_after_panics: u64,
    /// Pool rebuilds tolerated before the scheduler degrades to the
    /// serial path (a one-worker pool; bit-identical output).
    pub degrade_after_rebuilds: u64,
    /// Worker threads of the shared pool (`0` = one per core).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_sessions: 1024,
            max_queued_requests: 256,
            max_queued_samples: 1 << 20,
            max_chunk_samples: 1 << 16,
            idle_timeout: 0,
            retry_backoff_base: 1,
            max_retries: 3,
            rebuild_after_panics: 2,
            degrade_after_rebuilds: 2,
            workers: 0,
        }
    }
}

/// One completion surfaced by [`Scheduler::tick`].
// Events are moved, not stored in bulk; boxing the large variant would
// change the public type of its field.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
#[non_exhaustive]
pub enum Event {
    /// A request was served; `output` holds one sample per input
    /// sample, bit-identical to advancing the session's state alone
    /// through [`CompiledSim::simulate_into`](rvf_core::CompiledSim::simulate_into).
    Completed {
        /// The served request.
        request: RequestId,
        /// Its session.
        session: SessionHandle,
        /// The output samples.
        output: Vec<f64>,
    },
    /// A request failed; its session's state was not touched.
    Failed {
        /// The failed request.
        request: RequestId,
        /// Its session.
        session: SessionHandle,
        /// Why it failed.
        error: ServeError,
    },
    /// An idle session hit its timeout and was closed; `checkpoint`
    /// resumes it later via [`Scheduler::open_session_from`].
    SessionExpired {
        /// The expired session.
        session: SessionHandle,
        /// Its final state.
        checkpoint: SimState,
    },
}

/// A request picked for this tick's batch round. It stays queued in
/// the core until its round completes, fails, or requeues it.
#[derive(Clone, Copy)]
struct Picked {
    request: RequestId,
    session: SessionHandle,
    attempts: u32,
}

/// The admission/batching scheduler. See the module docs for the
/// robustness contract.
///
/// # Examples
///
/// ```
/// use rvf_core::SimBuilder;
/// use rvf_serve::{Event, ModelRegistry, Scheduler, ServeConfig};
///
/// let mut b = SimBuilder::new();
/// let s = b.drive_poly(&[0.0, 1.0]);
/// b.set_static_drive(s);
/// b.block_real(-1.0e9, s);
/// let registry = ModelRegistry::build([("m".to_string(), b.try_build().unwrap())]);
/// let model = registry.id("m").unwrap();
///
/// let mut sched = Scheduler::new(registry, ServeConfig::default());
/// let session = sched.open_session(model, 1.0e-10, 0).unwrap();
/// sched.submit(session, &[0.1, 0.2, 0.3], 0, 100).unwrap();
/// let events = sched.tick(1);
/// assert!(matches!(events[0], Event::Completed { .. }));
/// ```
pub struct Scheduler {
    registry: Arc<ModelRegistry>,
    core: SchedulerCore<SimState>,
    /// Runs every batch round; a one-worker pool once degraded.
    pool: SweepPool,
    replica: Option<Replication>,
    /// Per-slot scratch for the tick's queue passes — runtime only,
    /// never encoded: the stamp of the pass that last saw the slot's
    /// session, and the request that failed it in that pass.
    marks: Vec<(u64, RequestId)>,
    /// Stamp of the latest queue pass.
    pass: u64,
}

impl Scheduler {
    /// Builds a scheduler over `registry` with the given limits. The
    /// shared pool is spawned here, once.
    pub fn new(registry: ModelRegistry, cfg: ServeConfig) -> Self {
        let core = SchedulerCore::new(cfg, registry.snapshot_models());
        Self::from_core(Arc::new(registry), core)
    }

    /// Wraps committed state in a runtime: a fresh pool (one worker if
    /// the state is degraded), no replication sink.
    pub(crate) fn from_core(registry: Arc<ModelRegistry>, core: SchedulerCore<SimState>) -> Self {
        let workers = if core.is_degraded() { 1 } else { core.cfg().workers };
        let pool = SweepPool::new(workers);
        Self { registry, core, pool, replica: None, marks: Vec::new(), pass: 0 }
    }

    /// The pool the next batch round runs on (the chaos seam arms it).
    pub(crate) fn pool(&self) -> &SweepPool {
        &self.pool
    }

    /// The shared model registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.core.live()
    }

    /// Requests currently queued.
    pub fn queued_requests(&self) -> usize {
        self.core.queue().len()
    }

    /// Samples currently queued across all requests.
    pub fn queued_samples(&self) -> usize {
        self.core.queued_samples()
    }

    /// Whether the scheduler has degraded to the serial path (output
    /// stays bit-identical; throughput drops).
    pub fn is_degraded(&self) -> bool {
        self.core.is_degraded()
    }

    /// Pool rebuilds performed so far.
    pub fn pool_rebuilds(&self) -> u64 {
        self.core.rebuilds()
    }

    /// Attaches a replication sink, turning this scheduler into a
    /// journaling **primary**: a baseline [`WireRecord::Snapshot`] is
    /// appended immediately, then every committed mutation is appended
    /// as a sequence-numbered [`WireRecord::Delta`], and every
    /// `digest_every` deltas (clamped to at least 1) a
    /// [`WireRecord::Digest`] of the canonical state lets a follower
    /// prove its reconstruction byte-identical. Re-attaching replaces
    /// the previous sink and restarts the log with a fresh baseline and
    /// sequence 1.
    ///
    /// # Errors
    ///
    /// None: encoding the committed state cannot fail. The `Result`
    /// keeps the signature callers compile against.
    pub fn attach_replica(
        &mut self,
        mut sink: Box<dyn ReplicationSink>,
        digest_every: u64,
    ) -> Result<(), ServeError> {
        sink.append(self.core.encode());
        let digest_every = digest_every.max(1);
        self.replica = Some(Replication { sink, seq: 0, digest_every, digest_due: false });
        Ok(())
    }

    /// XXH64 over the scheduler's encoded canonical state — the
    /// value a [`WireRecord::Digest`] carries. Two schedulers with
    /// equal digests have byte-identical snapshots.
    ///
    /// # Errors
    ///
    /// None: encoding the committed state cannot fail. The `Result`
    /// keeps the signature callers compile against.
    pub fn state_digest(&self) -> Result<u64, ServeError> {
        Ok(self.core.digest())
    }

    /// Appends the committed mutation `op` to the log if a sink is
    /// attached. Infallible: journaling never blocks or poisons the
    /// serving path.
    fn journal(&mut self, op: DeltaOp<&[f64]>) {
        if let Some(rep) = self.replica.as_mut() {
            rep.journal(op);
        }
    }

    /// Emits a due digest. Only called at snapshot-consistent points
    /// (between mutations, never between a round and its commits).
    fn flush_digest(&mut self) {
        if let Some(rep) = self.replica.as_mut().filter(|rep| rep.digest_due) {
            rep.digest_due = false;
            let digest = self.core.digest();
            rep.sink.append(WireRecord::Digest(DigestRecord { seq: rep.seq, digest }).encode());
        }
    }

    /// Opens a session on `model` with a fresh state.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`], [`ServeError::UnknownModel`], or a
    /// wrapped [`ServingError::BadDt`].
    pub fn open_session(
        &mut self,
        model: ModelId,
        dt: f64,
        now: u64,
    ) -> Result<SessionHandle, ServeError> {
        let state = self.registry.get(model)?.new_state();
        self.open_session_from(model, dt, state, now)
    }

    /// Opens a session resuming from a checkpointed `state` (see
    /// [`Scheduler::checkpoint`] / [`Event::SessionExpired`]).
    ///
    /// # Errors
    ///
    /// Like [`open_session`](Scheduler::open_session), plus a wrapped
    /// [`ServingError::StateMismatch`] when the checkpoint belongs to a
    /// different model shape.
    pub fn open_session_from(
        &mut self,
        model: ModelId,
        dt: f64,
        mut state: SimState,
        now: u64,
    ) -> Result<SessionHandle, ServeError> {
        // The kernel's own check, on an empty chunk that touches nothing.
        self.registry.get(model)?.simulate_into(dt, &[], &mut state, &mut [])?;
        let limit = self.core.cfg().max_sessions;
        if self.core.live() >= limit {
            return Err(ServeError::SessionLimit { live: self.core.live(), limit });
        }
        // Journaled from the borrowed state, before it moves into the slab.
        self.journal(DeltaOp::SessionOpened {
            session: self.core.next_handle().raw(),
            model: model.index() as u32,
            dt_bits: dt.to_bits(),
            last_activity: now,
            state: (&state).into(),
        });
        let handle = self.core.open(model, dt, now, state);
        self.flush_digest();
        Ok(handle)
    }

    fn live_state(&self, handle: SessionHandle) -> Result<&SimState, ServeError> {
        let session = self.core.session(handle);
        session.map(|s| &s.state).ok_or(ServeError::UnknownSession { id: handle.raw() })
    }

    /// A resumable snapshot of the session's current state.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a closed or stale handle.
    pub fn checkpoint(&self, handle: SessionHandle) -> Result<SimState, ServeError> {
        self.live_state(handle).cloned()
    }

    /// Samples the session has absorbed so far.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a closed or stale handle.
    pub fn samples(&self, handle: SessionHandle) -> Result<u64, ServeError> {
        self.live_state(handle).map(SimState::samples)
    }

    /// Closes a session, returning its final state. Queued requests of
    /// the session are dropped without being served (and without
    /// touching any state — they were never applied).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for a closed or stale handle.
    pub fn close_session(&mut self, handle: SessionHandle) -> Result<SimState, ServeError> {
        let session =
            self.core.close(handle).ok_or(ServeError::UnknownSession { id: handle.raw() })?;
        self.journal(DeltaOp::SessionClosed { session: handle.raw() });
        self.flush_digest();
        Ok(session.state)
    }

    /// Submits one stimulus chunk for the session, to be served by a
    /// later [`tick`](Scheduler::tick) no later than `deadline`
    /// (absolute ticks). Admission control happens here, synchronously:
    /// a rejected submit queues nothing and touches no state.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], [`ServeError::ChunkTooLarge`], a
    /// wrapped [`ServingError::BadStimulus`] for NaN/∞ samples, or
    /// [`ServeError::Overloaded`] when either queue bound is hit.
    pub fn submit(
        &mut self,
        handle: SessionHandle,
        chunk: &[f64],
        now: u64,
        deadline: u64,
    ) -> Result<RequestId, ServeError> {
        self.live_state(handle)?;
        let cfg = self.core.cfg();
        if chunk.len() > cfg.max_chunk_samples {
            return Err(ServeError::ChunkTooLarge {
                len: chunk.len(),
                limit: cfg.max_chunk_samples,
            });
        }
        // Malformed stimulus is an admission failure, not a batch-time
        // surprise: reject before anything is queued.
        for (i, &v) in chunk.iter().enumerate() {
            if !v.is_finite() {
                return Err(ServeError::Serving(ServingError::BadStimulus { index: i, value: v }));
            }
        }
        let (queued_requests, queued_samples) =
            (self.core.queue().len(), self.core.queued_samples());
        if queued_requests >= cfg.max_queued_requests
            || queued_samples + chunk.len() > cfg.max_queued_samples
        {
            return Err(ServeError::Overloaded { queued_requests, queued_samples });
        }
        let id = self.core.admit(handle, chunk.to_vec(), deadline, now);
        let (request, session, not_before) = (id.0, handle.raw(), now);
        self.journal(DeltaOp::Admitted { request, session, deadline, not_before, input: chunk });
        self.flush_digest();
        Ok(id)
    }

    /// Serializes the whole scheduler — configuration, registry model
    /// fingerprints, generation-tagged session slab, free list,
    /// admission queue, retry/backoff state, and counters — into one
    /// checksummed [`wire`](crate::wire) record. Everything lives on
    /// the injected `u64` clock, so the snapshot is deterministic:
    /// identical schedulers produce byte-identical snapshots, and
    /// [`restore`](Scheduler::restore) + replay of the remaining work
    /// is `f64`-bit-identical to never having crashed.
    ///
    /// # Errors
    ///
    /// None: encoding the committed state cannot fail. The `Result`
    /// keeps the signature callers compile against.
    pub fn snapshot(&self) -> Result<Bytes, ServeError> {
        Ok(self.core.encode())
    }

    /// Rebuilds a scheduler from [`snapshot`](Scheduler::snapshot)
    /// bytes against `registry`, which must carry — at the same indices
    /// — the same models (by name *and* compiled-table fingerprint) the
    /// snapshot was taken against; extra models appended past the
    /// snapshot's are allowed. Session handles, request ids, queue
    /// order, retry/backoff state, and every session's kernel state are
    /// restored exactly, so resubmitting the in-flight work and ticking
    /// on produces `f64`-bit-identical streams to an uninterrupted run.
    ///
    /// Restore is a constructor: on any error **nothing is committed**
    /// (there is no scheduler to corrupt). A fresh pool is spawned; a
    /// degraded scheduler is restored degraded, on a one-worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] when the bytes are not a valid wire record,
    /// [`ServeError::RegistryMismatch`] when a registry entry differs
    /// from the snapshot's, [`ServeError::SnapshotInvalid`] when the
    /// decoded snapshot is internally inconsistent, and a wrapped
    /// [`ServingError`] when a session checkpoint does not fit its
    /// model.
    pub fn restore(bytes: &Bytes, registry: &ModelRegistry) -> Result<Self, ServeError> {
        let WireView::Snapshot(snap) = WireRecord::decode(bytes)? else {
            return Err(ServeError::SnapshotInvalid {
                what: "the record is not a scheduler snapshot",
            });
        };
        let core = SchedulerCore::from_snapshot(snap, registry)?.import(registry)?;
        Ok(Self::from_core(Arc::new(registry.clone()), core))
    }

    /// Runs one scheduling round at tick `now`: expires idle sessions
    /// and overdue requests, coalesces the first eligible request of
    /// each session into per-model batches, advances them
    /// (pooled, or serial when degraded — identical bits either way),
    /// and returns every completion produced. Call repeatedly to drain;
    /// a tick with nothing eligible returns an empty vector.
    pub fn tick(&mut self, now: u64) -> Vec<Event> {
        let mut events = Vec::new();
        self.expire_idle(now, &mut events);
        self.expire_deadlines(now, &mut events);
        for (model, dt, members) in self.pick_eligible(now) {
            self.run_model_batch(model, dt, members, now, &mut events);
        }
        self.flush_digest();
        events
    }

    fn expire_idle(&mut self, now: u64, events: &mut Vec<Event>) {
        let timeout = self.core.cfg().idle_timeout;
        if timeout == 0 {
            return;
        }
        let mut expired = Vec::new();
        for (index, slot) in self.core.slots().iter().enumerate() {
            if let Some(session) = &slot.session {
                if session.queued == 0 && now.saturating_sub(session.last_activity) >= timeout {
                    expired.push(SessionHandle::new(index, slot.generation));
                }
            }
        }
        for handle in expired {
            if let Ok(checkpoint) = self.close_session(handle) {
                events.push(Event::SessionExpired { session: handle, checkpoint });
            }
        }
    }

    /// Starts one pass over the queue: a fresh stamp, and one mark per
    /// slot for it.
    fn begin_pass(&mut self) -> u64 {
        self.pass += 1;
        self.marks.resize(self.core.slots().len(), (0, RequestId(0)));
        self.pass
    }

    fn expire_deadlines(&mut self, now: u64, events: &mut Vec<Event>) {
        // One pass in FIFO order. A session whose request expires loses
        // its later queued requests too ([`ServeError::PredecessorFailed`]):
        // serving them would advance the session across a gap in its
        // stimulus stream.
        let stamp = self.begin_pass();
        let mut failed = Vec::new();
        for request in self.core.queue() {
            let (id, session) = (RequestId(request.id), SessionHandle::from_raw(request.session));
            let mark = &mut self.marks[session.index()];
            let error = if mark.0 == stamp {
                ServeError::PredecessorFailed { failed: mark.1 }
            } else if now > request.deadline {
                *mark = (stamp, id);
                ServeError::DeadlineExceeded { deadline: request.deadline, now }
            } else {
                continue;
            };
            failed.push((id, session, error));
        }
        for (request, session, error) in failed {
            self.fail(request, session, error, events);
        }
    }

    /// Fails `request` terminally: it leaves the queue, the journal
    /// records it, and the client hears `error`.
    fn fail(
        &mut self,
        request: RequestId,
        session: SessionHandle,
        error: ServeError,
        events: &mut Vec<Event>,
    ) {
        self.core.fail(request);
        self.journal(DeltaOp::RequestFailed { request: request.0 });
        events.push(Event::Failed { request, session, error });
    }

    /// Picks the first eligible request of each distinct session (FIFO
    /// order otherwise preserved) and groups the picks by model and
    /// sample step in first-seen order — a batch round advances one
    /// model at one `dt`. Sessions advance at most one chunk per tick,
    /// which is what makes per-session output ordering trivial.
    ///
    /// A session is blocked for the whole tick the moment one of its
    /// requests is seen — whether it was picked or its FIFO-head request
    /// is parked in retry backoff (`not_before > now`). Skipping past a
    /// backed-off head would serve chunk N+1 before chunk N and
    /// silently corrupt the session's output stream.
    fn pick_eligible(&mut self, now: u64) -> Vec<(ModelId, f64, Vec<Picked>)> {
        let stamp = self.begin_pass();
        let mut groups: Vec<(ModelId, f64, Vec<Picked>)> = Vec::new();
        for request in self.core.queue() {
            let handle = SessionHandle::from_raw(request.session);
            let mark = &mut self.marks[handle.index()];
            let eligible = request.not_before <= now && mark.0 != stamp;
            mark.0 = stamp;
            if !eligible {
                continue;
            }
            let Some(session) = self.core.session(handle) else {
                continue;
            };
            let picked = Picked {
                request: RequestId(request.id),
                session: handle,
                attempts: request.attempts,
            };
            let key = (session.model, session.dt.to_bits());
            match groups.iter_mut().find(|(m, dt, _)| (*m, dt.to_bits()) == key) {
                Some((_, _, members)) => members.push(picked),
                None => groups.push((session.model, session.dt, vec![picked])),
            }
        }
        groups
    }

    fn run_model_batch(
        &mut self,
        model: ModelId,
        dt: f64,
        members: Vec<Picked>,
        now: u64,
        events: &mut Vec<Event>,
    ) {
        // Queued requests name live sessions of registry models, so
        // neither lookup below fails; if one did, its requests would stay
        // queued and expire at their deadlines.
        let Ok(sim) = self.registry.get(model).map(Arc::clone) else {
            return;
        };
        // Each member's state advances where it lives in the core's
        // slab; advance_chunks is transactional, so a failed round
        // leaves every state untouched.
        let riders = self.core.round_parts(&members, |m| (m.session, m.request));
        let mut outputs: Vec<(Picked, Vec<f64>)> =
            riders.iter().map(|(m, _, input)| (*m, vec![0.0; input.len()])).collect();
        let mut chunks: Vec<SessionChunk<'_>> = riders
            .into_iter()
            .zip(outputs.iter_mut())
            .map(|((_, state, input), (_, output))| SessionChunk { state, input, output })
            .collect();
        match sim.advance_chunks(dt, &mut chunks, Some(&self.pool)) {
            Ok(()) => {
                for (m, output) in outputs {
                    let (request, session, last_activity) = (m.request.0, m.session.raw(), now);
                    // Journaled from the advanced state, borrowed in place.
                    if let (Some(rep), Some(s)) =
                        (self.replica.as_mut(), self.core.session(m.session))
                    {
                        let state = (&s.state).into();
                        rep.journal(DeltaOp::ChunkCompleted {
                            request,
                            session,
                            last_activity,
                            state,
                        });
                    }
                    let pos = self.core.position(m.request);
                    self.core.complete(pos, m.session, now, |_| {});
                    events.push(Event::Completed {
                        request: m.request,
                        session: m.session,
                        output,
                    });
                }
            }
            Err(ServingError::WorkerPanicked { worker }) => {
                // Nothing was committed: retry or give up per request.
                let ServeConfig { max_retries, retry_backoff_base, .. } = *self.core.cfg();
                let mut requeue = Vec::new();
                for (m, _) in outputs {
                    let attempts = m.attempts + 1;
                    if attempts > max_retries {
                        let error = ServeError::RetriesExhausted { attempts, worker };
                        self.fail(m.request, m.session, error, events);
                        self.cancel_session_queue(m.session, m.request, events);
                    } else {
                        let backoff =
                            retry_backoff_base.saturating_mul(1 << (attempts - 1).min(16));
                        requeue.push((m.request, attempts, now.saturating_add(backoff)));
                    }
                }
                // Retries go back to the *front*, preserving their FIFO
                // priority over younger requests. Requeued (and
                // journaled) in reverse, so the oldest ends up first.
                for (id, attempts, not_before) in requeue.into_iter().rev() {
                    self.core.retry(id, attempts, not_before);
                    let request = id.0;
                    self.journal(DeltaOp::RequestRetried { request, attempts, not_before });
                }
                self.check_pool_health();
            }
            Err(error) => {
                // Validation failures cannot normally reach this point
                // (open and submit check everything advance_chunks
                // checks), but stay typed and transactional regardless.
                for (m, _) in outputs {
                    self.fail(m.request, m.session, ServeError::Serving(error.clone()), events);
                    self.cancel_session_queue(m.session, m.request, events);
                }
            }
        }
    }

    /// Fails every still-queued request of `handle` with
    /// [`ServeError::PredecessorFailed`] after request `failed` of the
    /// same session failed terminally. Serving them would advance the
    /// session across a gap in its stimulus stream; the session's state
    /// itself is untouched (it sits at the last completed sample), so
    /// the client resubmits from the failed chunk onward.
    fn cancel_session_queue(
        &mut self,
        handle: SessionHandle,
        failed: RequestId,
        events: &mut Vec<Event>,
    ) {
        let queue = self.core.queue().iter().filter(|r| r.session == handle.raw());
        let doomed: Vec<RequestId> = queue.map(|r| RequestId(r.id)).collect();
        for request in doomed {
            self.fail(request, handle, ServeError::PredecessorFailed { failed }, events);
        }
    }

    /// Thresholds [`SweepPool::contained_panics`]: past
    /// `rebuild_after_panics` the pool is torn down and respawned; past
    /// `degrade_after_rebuilds` rebuilds the scheduler gives up on
    /// pooling and serves on a one-worker pool (bit-identical, just
    /// slower). The degraded rung is final.
    fn check_pool_health(&mut self) {
        let cfg = self.core.cfg();
        if self.core.is_degraded() || self.pool.contained_panics() < cfg.rebuild_after_panics {
            return;
        }
        if self.core.rebuilds() >= cfg.degrade_after_rebuilds {
            self.pool = SweepPool::new(1);
            self.core.degrade();
            self.journal(DeltaOp::Degraded);
        } else {
            self.pool = SweepPool::new(cfg.workers);
            self.core.pool_rebuilt();
            self.journal(DeltaOp::PoolRebuilt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scheduler {
        /// The committed state, for the crate's differential tests.
        pub(crate) fn core_for_test(&self) -> &SchedulerCore<SimState> {
            &self.core
        }
    }
    use rvf_core::{CompiledSim, SimBuilder};

    fn tiny_model(a: f64) -> CompiledSim {
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(a, s);
        b.try_build().unwrap()
    }

    fn one_model_scheduler(cfg: ServeConfig) -> (Scheduler, ModelId) {
        let registry = ModelRegistry::build([("m".to_string(), tiny_model(-1.0e9))]);
        let sched = Scheduler::new(registry, cfg);
        let model = sched.registry().id("m").unwrap_or(ModelId(0));
        (sched, model)
    }

    #[test]
    fn serves_chunks_bit_identical_to_lone_session() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let dt = 1.0e-10;
        let session = sched.open_session(model, dt, 0).unwrap();
        let u: Vec<f64> = (0..50).map(|i| (i as f64 * 0.13).sin()).collect();
        let sim = Arc::clone(sched.registry().get(model).unwrap());
        let want = sim.simulate(dt, &u);
        let mut got = Vec::new();
        let mut now = 0;
        for chunk in u.chunks(7) {
            sched.submit(session, chunk, now, now + 10).unwrap();
            now += 1;
            for event in sched.tick(now) {
                match event {
                    Event::Completed { output, .. } => got.extend(output),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(sched.samples(session).unwrap(), 50);
    }

    #[test]
    fn admission_control_rejects_typed() {
        let cfg = ServeConfig {
            max_sessions: 2,
            max_queued_requests: 2,
            max_queued_samples: 100,
            max_chunk_samples: 8,
            ..Default::default()
        };
        let (mut sched, model) = one_model_scheduler(cfg);
        let a = sched.open_session(model, 1e-10, 0).unwrap();
        let _b = sched.open_session(model, 1e-10, 0).unwrap();
        assert!(matches!(
            sched.open_session(model, 1e-10, 0),
            Err(ServeError::SessionLimit { live: 2, limit: 2 })
        ));
        assert!(matches!(
            sched.submit(a, &[0.0; 9], 0, 10),
            Err(ServeError::ChunkTooLarge { len: 9, limit: 8 })
        ));
        assert!(matches!(
            sched.submit(a, &[0.1, f64::NAN], 0, 10),
            Err(ServeError::Serving(ServingError::BadStimulus { index: 1, .. }))
        ));
        sched.submit(a, &[0.1; 4], 0, 10).unwrap();
        sched.submit(a, &[0.2; 4], 0, 10).unwrap();
        assert!(matches!(
            sched.submit(a, &[0.3; 4], 0, 10),
            Err(ServeError::Overloaded { queued_requests: 2, .. })
        ));
        // Rejections queued nothing and committed nothing.
        assert_eq!(sched.queued_requests(), 2);
        assert_eq!(sched.queued_samples(), 8);
        assert_eq!(sched.samples(a).unwrap(), 0);
        // Bad dt and unknown model are typed too.
        assert!(matches!(
            sched.open_session(model, f64::NAN, 0),
            Err(ServeError::Serving(ServingError::BadDt { .. }))
        ));
        assert!(matches!(
            sched.open_session(ModelId(7), 1e-10, 0),
            Err(ServeError::UnknownModel { id: 7 })
        ));
    }

    #[test]
    fn deadlines_expire_without_touching_state() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let session = sched.open_session(model, 1e-10, 0).unwrap();
        let r = sched.submit(session, &[0.5; 4], 0, 3).unwrap();
        // Tick past the deadline without serving.
        let events = sched.tick(4);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            Event::Failed { request, error: ServeError::DeadlineExceeded { deadline: 3, now: 4 }, .. }
                if *request == r
        ));
        assert_eq!(sched.samples(session).unwrap(), 0, "expired request committed nothing");
        assert_eq!(sched.queued_requests(), 0);
        assert_eq!(sched.queued_samples(), 0);
        // The session still serves.
        sched.submit(session, &[0.5; 4], 5, 10).unwrap();
        assert!(matches!(sched.tick(6)[0], Event::Completed { .. }));
    }

    #[test]
    fn deadline_failure_cancels_later_chunks_of_same_session() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let dt = 1e-10;
        let victim = sched.open_session(model, dt, 0).unwrap();
        let bystander = sched.open_session(model, dt, 0).unwrap();
        // victim's first chunk expires; its second is still in deadline
        // but must be cancelled rather than served across the gap.
        let r0 = sched.submit(victim, &[0.1; 3], 0, 3).unwrap();
        let r1 = sched.submit(victim, &[0.2; 3], 0, 100).unwrap();
        let r2 = sched.submit(bystander, &[0.3; 3], 0, 100).unwrap();
        let events = sched.tick(4);
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            Event::Failed { request, error: ServeError::DeadlineExceeded { .. }, .. }
                if *request == r0
        ));
        assert!(matches!(
            &events[1],
            Event::Failed { request, error: ServeError::PredecessorFailed { failed }, .. }
                if *request == r1 && *failed == r0
        ));
        assert!(matches!(&events[2], Event::Completed { request, .. } if *request == r2));
        assert_eq!(sched.samples(victim).unwrap(), 0, "no chunk was served across the gap");
        assert_eq!(sched.queued_requests(), 0);
        assert_eq!(sched.queued_samples(), 0);
        // The session sits at the last completed sample; resubmitting
        // the whole stream from there serves bit-identically.
        let sim = Arc::clone(sched.registry().get(model).unwrap());
        let u: Vec<f64> = (0..6).map(|i| 0.1 * (i + 1) as f64).collect();
        let mut got = Vec::new();
        let mut now = 5;
        for chunk in u.chunks(3) {
            sched.submit(victim, chunk, now, now + 10).unwrap();
            now += 1;
            for event in sched.tick(now) {
                match event {
                    Event::Completed { output, .. } => got.extend(output),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        let want = sim.simulate(dt, &u);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn idle_sessions_expire_with_checkpoint() {
        let cfg = ServeConfig { idle_timeout: 10, ..Default::default() };
        let (mut sched, model) = one_model_scheduler(cfg);
        let session = sched.open_session(model, 1e-10, 0).unwrap();
        sched.submit(session, &[0.5; 4], 0, 5).unwrap();
        assert!(matches!(sched.tick(1)[0], Event::Completed { .. }));
        // Nothing queued, clock runs past the idle window.
        let events = sched.tick(11);
        assert_eq!(events.len(), 1);
        let Event::SessionExpired { session: expired, checkpoint } = &events[0] else {
            panic!("want SessionExpired, got {:?}", events[0]);
        };
        assert_eq!(*expired, session);
        assert_eq!(checkpoint.samples(), 4);
        assert_eq!(sched.live_sessions(), 0);
        assert!(matches!(
            sched.submit(session, &[1.0], 12, 20),
            Err(ServeError::UnknownSession { .. })
        ));
        // The checkpoint reopens and continues where it stood.
        let resumed = sched.open_session_from(model, 1e-10, checkpoint.clone(), 12).unwrap();
        assert_eq!(sched.samples(resumed).unwrap(), 4);
    }

    #[test]
    fn open_from_a_foreign_checkpoint_opens_and_journals_nothing() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let log = crate::replica::SharedLog::new();
        sched.attach_replica(Box::new(log.clone()), 1).unwrap();
        let logged = log.bytes().len();
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        b.block_real(-2.0e9, s);
        let foreign = b.try_build().unwrap().new_state();
        assert!(matches!(
            sched.open_session_from(model, 1e-10, foreign, 0),
            Err(ServeError::Serving(ServingError::StateMismatch))
        ));
        assert_eq!(sched.live_sessions(), 0);
        assert_eq!(log.bytes().len(), logged, "a refused open journals nothing");
        // No slot was consumed: the next open takes the first one.
        let opened = sched.open_session(model, 1e-10, 0).unwrap();
        assert_eq!(opened, SessionHandle::new(0, 0));
    }

    #[test]
    fn retry_backoff_saturates_instead_of_wrapping() {
        let cfg = ServeConfig { retry_backoff_base: 1 << 62, workers: 1, ..Default::default() };
        let (mut sched, model) = one_model_scheduler(cfg);
        let session = sched.open_session(model, 1e-10, 0).unwrap();
        let r = sched.submit(session, &[0.5; 4], 0, u64::MAX).unwrap();
        // Backoffs 2^62 and 2^63 fit; the third, 2^64, saturates.
        for now in [0, 1 << 62, 3 << 62] {
            crate::chaos::arm_worker_panic(&sched);
            assert!(sched.tick(now).is_empty(), "tick {now}: a panicked round serves nothing");
        }
        let queued = &sched.core.queue()[0];
        // The third retry waits out the saturated backoff.
        assert_eq!((queued.id, queued.attempts, queued.not_before), (r.0, 3, u64::MAX));
        assert!(sched.tick(3 << 62).is_empty());
        assert!(sched.tick(u64::MAX - 1).is_empty());
        assert!(
            matches!(sched.tick(u64::MAX)[0], Event::Completed { request, .. } if request == r)
        );
    }

    #[test]
    fn stale_handles_stay_invalid_after_slot_reuse() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let first = sched.open_session(model, 1e-10, 0).unwrap();
        sched.close_session(first).unwrap();
        let second = sched.open_session(model, 1e-10, 0).unwrap();
        assert_eq!(first.index(), second.index(), "slot is reused");
        assert_ne!(first, second);
        assert!(matches!(sched.checkpoint(first), Err(ServeError::UnknownSession { .. })));
        assert!(sched.checkpoint(second).is_ok());
    }

    #[test]
    fn close_purges_queued_work() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let a = sched.open_session(model, 1e-10, 0).unwrap();
        let b = sched.open_session(model, 1e-10, 0).unwrap();
        sched.submit(a, &[0.1; 4], 0, 10).unwrap();
        sched.submit(a, &[0.2; 4], 0, 10).unwrap();
        sched.submit(b, &[0.3; 4], 0, 10).unwrap();
        sched.close_session(a).unwrap();
        assert_eq!(sched.queued_requests(), 1);
        assert_eq!(sched.queued_samples(), 4);
        let events = sched.tick(1);
        assert_eq!(events.len(), 1, "only b's request is served");
        assert!(matches!(&events[0], Event::Completed { session, .. } if *session == b));
    }

    #[test]
    fn one_chunk_per_session_per_tick_keeps_fifo_order() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let session = sched.open_session(model, 1e-10, 0).unwrap();
        let r0 = sched.submit(session, &[0.1; 3], 0, 100).unwrap();
        let r1 = sched.submit(session, &[0.2; 3], 0, 100).unwrap();
        let first = sched.tick(1);
        assert_eq!(first.len(), 1);
        assert!(matches!(&first[0], Event::Completed { request, .. } if *request == r0));
        let second = sched.tick(2);
        assert!(matches!(&second[0], Event::Completed { request, .. } if *request == r1));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identical_with_queue_and_handles() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let dt = 1e-10;
        let sim = Arc::clone(sched.registry().get(model).unwrap());
        let u: Vec<f64> = (0..40).map(|i| (i as f64 * 0.17).sin()).collect();
        let want = sim.simulate(dt, &u);

        // Serve the first half, leave the second half queued, then cut
        // power (drop the scheduler) with work in flight.
        let session = sched.open_session(model, dt, 0).unwrap();
        let mut got_head = Vec::new();
        for chunk in u[..20].chunks(5) {
            sched.submit(session, chunk, 1, 100).unwrap();
            for event in sched.tick(2) {
                match event {
                    Event::Completed { output, .. } => got_head.extend(output),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        sched.submit(session, &u[20..30], 3, 100).unwrap();
        sched.submit(session, &u[30..], 3, 100).unwrap();
        let bytes = sched.snapshot().unwrap();
        drop(sched);

        // Restore against a *recompiled* registry (same tables, new
        // allocation) and drain the queued work.
        let registry = ModelRegistry::build([("m".to_string(), tiny_model(-1.0e9))]);
        let mut restored = Scheduler::restore(&bytes, &registry).unwrap();
        assert_eq!(restored.live_sessions(), 1);
        assert_eq!(restored.queued_requests(), 2);
        assert_eq!(restored.queued_samples(), 20);
        assert_eq!(restored.samples(session).unwrap(), 20, "old handles survive the restore");
        let mut got_tail = Vec::new();
        for now in 4..8 {
            for event in restored.tick(now) {
                match event {
                    Event::Completed { output, .. } => got_tail.extend(output),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(got_head.len() + got_tail.len(), want.len());
        for (i, (g, w)) in got_head.iter().chain(&got_tail).zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i}");
        }
        // Request ids keep counting past the snapshot's — no collisions.
        let r = restored.submit(session, &[0.5], 9, 100).unwrap();
        assert!(r.0 >= 6);
    }

    #[test]
    fn snapshot_is_deterministic_and_restore_is_lossless() {
        let cfg = ServeConfig { idle_timeout: 50, ..Default::default() };
        let (mut sched, model) = one_model_scheduler(cfg);
        let a = sched.open_session(model, 1e-10, 0).unwrap();
        let b = sched.open_session(model, 2e-10, 0).unwrap();
        sched.submit(a, &[0.1; 4], 0, 30).unwrap();
        sched.tick(1);
        sched.close_session(b).unwrap();
        sched.submit(a, &[0.2; 4], 2, 30).unwrap();
        let bytes = sched.snapshot().unwrap();
        assert_eq!(bytes, sched.snapshot().unwrap(), "snapshotting is read-only + deterministic");
        // restore ∘ snapshot is the identity on the wire image.
        let restored = Scheduler::restore(&bytes, sched.registry()).unwrap();
        assert_eq!(restored.snapshot().unwrap(), bytes);
        assert_eq!(restored.live_sessions(), 1);
        assert_eq!(restored.pool_rebuilds(), 0);
        assert!(!restored.is_degraded());
        // The closed session's slot stays closed: its stale handle is
        // refused by the restored scheduler too.
        assert!(matches!(restored.checkpoint(b), Err(ServeError::UnknownSession { .. })));
    }

    #[test]
    fn restore_rejects_mismatched_registry_and_garbage_typed() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let session = sched.open_session(model, 1e-10, 0).unwrap();
        sched.submit(session, &[0.4; 3], 0, 50).unwrap();
        let bytes = sched.snapshot().unwrap();

        // Same name, different compiled tables -> fingerprint mismatch.
        let retuned = ModelRegistry::build([("m".to_string(), tiny_model(-3.0e9))]);
        assert!(matches!(
            Scheduler::restore(&bytes, &retuned),
            Err(ServeError::RegistryMismatch { index: 0, .. })
        ));
        // Same tables, different name.
        let renamed = ModelRegistry::build([("other".to_string(), tiny_model(-1.0e9))]);
        assert!(matches!(
            Scheduler::restore(&bytes, &renamed),
            Err(ServeError::RegistryMismatch { index: 0, .. })
        ));
        // Empty registry.
        assert!(matches!(
            Scheduler::restore(&bytes, &ModelRegistry::build([])),
            Err(ServeError::RegistryMismatch { index: 0, .. })
        ));
        // Garbage bytes fail at the wire layer, typed.
        assert!(matches!(
            Scheduler::restore(&Bytes::from(vec![0u8; 40]), sched.registry()),
            Err(ServeError::Wire(_))
        ));
        // A non-snapshot record is refused.
        let wrong = WireRecord::Digest(crate::wire::DigestRecord { seq: 0, digest: 0 }).encode();
        assert!(matches!(
            Scheduler::restore(&wrong, sched.registry()),
            Err(ServeError::SnapshotInvalid { .. })
        ));
        // A registry with extra models appended past the snapshot's is
        // accepted — the snapshot's prefix is what must match.
        let superset = ModelRegistry::build([
            ("m".to_string(), tiny_model(-1.0e9)),
            ("extra".to_string(), tiny_model(-2.0e9)),
        ]);
        assert!(Scheduler::restore(&bytes, &superset).is_ok());
    }

    #[test]
    fn mixed_dt_sessions_of_one_model_batch_separately_and_correctly() {
        let (mut sched, model) = one_model_scheduler(ServeConfig::default());
        let sim = Arc::clone(sched.registry().get(model).unwrap());
        let fast = sched.open_session(model, 1e-10, 0).unwrap();
        let slow = sched.open_session(model, 2e-10, 0).unwrap();
        let u = [0.3, 0.7, 0.4];
        sched.submit(fast, &u, 0, 10).unwrap();
        sched.submit(slow, &u, 0, 10).unwrap();
        let events = sched.tick(1);
        assert_eq!(events.len(), 2);
        for event in events {
            let Event::Completed { session, output, .. } = event else {
                panic!("unexpected {event:?}");
            };
            let dt = if session == fast { 1e-10 } else { 2e-10 };
            let want = sim.simulate(dt, &u);
            for (g, w) in output.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
