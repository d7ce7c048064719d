//! The committed-state machine behind the primary, restore, and the
//! follower.
//!
//! [`SchedulerCore`] holds exactly what a [`SchedulerSnapshot`] encodes,
//! plus the counters derived from it on decode, and is the only code
//! that mutates committed state: one transition method per [`DeltaOp`]
//! variant. The primary calls them directly; the follower replays a
//! journaled op through [`apply`](SchedulerCore::apply), which checks
//! everything first and then calls the same method. Restore and the
//! follower's baseline share [`from_snapshot`](SchedulerCore::from_snapshot);
//! snapshots and every digest stream one encoding from the borrowed
//! core ([`encode`](SchedulerCore::encode), [`digest`](SchedulerCore::digest)).
//!
//! The core is generic over the per-session state: the primary holds
//! live [`SimState`]s, the follower [`StateCheckpoint`]s, which
//! [`import`](SchedulerCore::import) turns live once, at restore or
//! promotion.

use std::collections::VecDeque;

use bytes::Bytes;
use rvf_core::{CheckpointView, SimState, StateCheckpoint};

use crate::error::ServeError;
use crate::registry::{ModelId, ModelRegistry};
use crate::scheduler::{RequestId, ServeConfig, SessionHandle};
use crate::wire::{
    frame, framed_checksum, DeltaOp, F64s, Put, SchedulerSnapshot, Sink, SnapshotModel,
    SnapshotRequest, SnapshotSession, SnapshotSlot, KIND_SNAPSHOT,
};

/// The most pool workers a snapshot may name. Restore and promotion
/// spawn `workers − 1` threads from this field before serving anything,
/// and a spawn the OS refuses panics, so a corrupt count must be refused
/// as data first. A thousand workers is far past any core count the
/// tier is built for.
const MAX_SNAPSHOT_WORKERS: usize = 1024;

/// One live session.
pub(crate) struct Session<S> {
    pub(crate) model: ModelId,
    pub(crate) dt: f64,
    /// The kernel state: on the primary, advanced in place by a batch
    /// round.
    pub(crate) state: S,
    pub(crate) last_activity: u64,
    /// Requests of this session currently queued.
    pub(crate) queued: usize,
}

/// One slot of the generation-tagged session slab.
pub(crate) struct Slot<S> {
    pub(crate) generation: u32,
    pub(crate) session: Option<Session<S>>,
}

/// The scheduler's committed state. The queue holds requests in their
/// wire form; a request stays queued until a transition takes it out,
/// including while it rides a batch round.
pub(crate) struct SchedulerCore<S> {
    cfg: ServeConfig,
    models: Vec<SnapshotModel>,
    next_request: u64,
    rebuilds: u64,
    degraded: bool,
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    queue: VecDeque<SnapshotRequest>,
    live: usize,
    queued_samples: usize,
}

impl<S> SchedulerCore<S> {
    /// An empty state serving `models`.
    pub(crate) fn new(cfg: ServeConfig, models: Vec<SnapshotModel>) -> Self {
        Self {
            cfg,
            models,
            next_request: 0,
            rebuilds: 0,
            degraded: false,
            slots: Vec::new(),
            free: Vec::new(),
            queue: VecDeque::new(),
            live: 0,
            queued_samples: 0,
        }
    }

    pub(crate) fn cfg(&self) -> &ServeConfig {
        &self.cfg
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn queued_samples(&self) -> usize {
        self.queued_samples
    }

    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    pub(crate) fn queue(&self) -> &VecDeque<SnapshotRequest> {
        &self.queue
    }

    pub(crate) fn slots(&self) -> &[Slot<S>] {
        &self.slots
    }

    /// The live session behind `handle`; `None` for a closed or stale
    /// handle.
    pub(crate) fn session(&self, handle: SessionHandle) -> Option<&Session<S>> {
        let slot = self.slots.get(handle.index()).filter(|s| s.generation == handle.generation());
        slot?.session.as_ref()
    }

    fn session_mut(&mut self, handle: SessionHandle) -> Option<&mut Session<S>> {
        let generation = handle.generation();
        let slot = self.slots.get_mut(handle.index()).filter(|s| s.generation == generation);
        slot?.session.as_mut()
    }

    /// A queued request's position in the queue.
    pub(crate) fn position(&self, request: RequestId) -> Option<usize> {
        self.queue.iter().position(|r| r.id == request.0)
    }

    /// Removes the request at queue position `pos`, keeping the derived
    /// counters in step.
    fn dequeue(&mut self, pos: usize) -> Option<SnapshotRequest> {
        let r = self.queue.remove(pos)?;
        self.queued_samples -= r.input.len();
        if let Some(s) = self.session_mut(SessionHandle::from_raw(r.session)) {
            s.queued = s.queued.saturating_sub(1);
        }
        Some(r)
    }

    /// What a batch round needs of each member — a request picked from
    /// the queue, at most one per session, in queue order: its
    /// session's state, borrowed mutably where it lives, and its queued
    /// input. A member whose session or request is gone is left out.
    /// Not a transition: the round advances the states in place, and
    /// [`complete`](Self::complete) then commits the rest of each chunk.
    pub(crate) fn round_parts<T: Copy>(
        &mut self,
        members: &[T],
        key: impl Fn(T) -> (SessionHandle, RequestId),
    ) -> Vec<(T, &mut S, &[f64])> {
        let mut by_slot: Vec<Option<(u32, &mut S)>> = (self.slots.iter_mut())
            .map(|slot| Some((slot.generation, &mut slot.session.as_mut()?.state)))
            .collect();
        // Members are a subsequence of the queue, so one forward walk
        // finds every input.
        let mut queued = self.queue.iter();
        let parts = members.iter().filter_map(|&m| {
            let (handle, request) = key(m);
            let input = queued.find(|r| r.id == request.0)?.input.as_slice();
            let (generation, state) = by_slot.get_mut(handle.index())?.take()?;
            (generation == handle.generation()).then_some((m, state, input))
        });
        parts.collect()
    }

    /// The handle [`open`](Self::open) assigns next: the top of the
    /// free stack, or a fresh slot appended at generation 0.
    pub(crate) fn next_handle(&self) -> SessionHandle {
        match self.free.last().map(|&i| i as usize) {
            Some(i) => SessionHandle::new(i, self.slots.get(i).map_or(0, |s| s.generation)),
            None => SessionHandle::new(self.slots.len(), 0),
        }
    }

    /// Opens a session (op 1) under [`next_handle`](Self::next_handle).
    pub(crate) fn open(&mut self, model: ModelId, dt: f64, now: u64, state: S) -> SessionHandle {
        let handle = self.next_handle();
        let session = Some(Session { model, dt, state, last_activity: now, queued: 0 });
        match self.free.pop() {
            Some(i) => self.slots[i as usize].session = session,
            None => self.slots.push(Slot { generation: 0, session }),
        }
        self.live += 1;
        handle
    }

    /// Admits a chunk at the queue tail (op 2); the admission tick is
    /// both the earliest serving tick and the session's new activity.
    pub(crate) fn admit(
        &mut self,
        session: SessionHandle,
        input: Vec<f64>,
        deadline: u64,
        now: u64,
    ) -> RequestId {
        let id = self.next_request;
        self.next_request += 1;
        self.queued_samples += input.len();
        if let Some(s) = self.session_mut(session) {
            s.queued += 1;
            s.last_activity = now;
        }
        let session = session.raw();
        self.queue.push_back(SnapshotRequest {
            id,
            session,
            deadline,
            attempts: 0,
            not_before: now,
            input,
        });
        RequestId(id)
    }

    /// A chunk completed (op 3): the request at queue position `pos`
    /// (from one [`position`](Self::position) lookup) leaves the queue,
    /// and `advance` moves the session's state to its post-chunk state
    /// (a no-op for a state the round already advanced in place).
    pub(crate) fn complete(
        &mut self,
        pos: Option<usize>,
        session: SessionHandle,
        now: u64,
        advance: impl FnOnce(&mut S),
    ) {
        pos.and_then(|pos| self.dequeue(pos));
        if let Some(s) = self.session_mut(session) {
            advance(&mut s.state);
            s.last_activity = now;
        }
    }

    /// A request failed terminally and leaves the queue (op 4). `false`
    /// (and no change) if it is not queued.
    pub(crate) fn fail(&mut self, request: RequestId) -> bool {
        self.position(request).and_then(|pos| self.dequeue(pos)).is_some()
    }

    /// Closes a session (op 5): queued work purged, slot generation
    /// bumped, slot pushed on the free stack. `None` (and no change)
    /// for a closed or stale handle.
    pub(crate) fn close(&mut self, handle: SessionHandle) -> Option<Session<S>> {
        self.session(handle)?;
        let slot = &mut self.slots[handle.index()];
        let closed = slot.session.take();
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index() as u32);
        self.live -= 1;
        let purged = self.queue.iter().filter(|r| r.session == handle.raw());
        self.queued_samples -= purged.map(|r| r.input.len()).sum::<usize>();
        self.queue.retain(|r| r.session != handle.raw());
        closed
    }

    /// Requeues a panicked request at the queue front (op 6) with its
    /// retry accounting. `false` (and no change) if it is not queued.
    pub(crate) fn retry(&mut self, request: RequestId, attempts: u32, not_before: u64) -> bool {
        let Some(mut r) = self.position(request).and_then(|pos| self.queue.remove(pos)) else {
            return false;
        };
        r.attempts = attempts;
        r.not_before = not_before;
        self.queue.push_front(r);
        true
    }

    /// The worker pool was rebuilt (op 7).
    pub(crate) fn pool_rebuilt(&mut self) {
        self.rebuilds += 1;
    }

    /// The scheduler degraded to the serial path (op 8).
    pub(crate) fn degrade(&mut self) {
        self.degraded = true;
    }
}

/// The snapshot layout of a slot, from the borrowed session state.
impl<S> Put for Slot<S>
where
    for<'s> &'s S: Into<CheckpointView<'s>>,
{
    fn put<W: Sink>(&self, w: &mut W) {
        let session = self.session.as_ref().map(|s| {
            let (model, dt_bits) = (s.model.index() as u32, s.dt.to_bits());
            let state = (&s.state).into();
            SnapshotSession { model, dt_bits, last_activity: s.last_activity, state }
        });
        SnapshotSlot { generation: self.generation, session }.put(w);
    }
}

impl<S> SchedulerCore<S>
where
    for<'s> &'s S: Into<CheckpointView<'s>>,
{
    /// The state as a [`SchedulerSnapshot`] borrowing every session
    /// state and queued stimulus.
    fn snapshot(&self) -> impl Put + '_ {
        let (models, slots, free, queue) = (&self.models, &self.slots, &self.free, &self.queue);
        let (next_request, rebuilds, degraded) = (self.next_request, self.rebuilds, self.degraded);
        let cfg = self.cfg.clone();
        SchedulerSnapshot { cfg, next_request, rebuilds, degraded, models, slots, free, queue }
    }

    /// The state as one framed snapshot record.
    pub(crate) fn encode(&self) -> Bytes {
        frame(KIND_SNAPSHOT, &self.snapshot())
    }

    /// XXH64 over [`encode`](Self::encode) — the value a digest record
    /// carries — in one pass, building nothing.
    pub(crate) fn digest(&self) -> u64 {
        framed_checksum(KIND_SNAPSHOT, &self.snapshot())
    }
}

impl SchedulerCore<StateCheckpoint> {
    /// Validates a decoded snapshot against `registry` and adopts it:
    /// the registry must carry every snapshot model at the same index,
    /// by name *and* table fingerprint, the slab, free stack and queue
    /// must be mutually consistent, and the pool may ask for at most
    /// `MAX_SNAPSHOT_WORKERS` workers.
    ///
    /// # Errors
    ///
    /// [`ServeError::RegistryMismatch`] or [`ServeError::SnapshotInvalid`].
    pub(crate) fn from_snapshot(
        snap: SchedulerSnapshot,
        registry: &ModelRegistry,
    ) -> Result<Self, ServeError> {
        for (i, m) in snap.models.iter().enumerate() {
            let id = ModelId(i);
            let matches = registry.name(id) == Some(m.name.as_str())
                && matches!(registry.get(id), Ok(sim) if sim.fingerprint() == m.fingerprint);
            if !matches {
                let (name, fingerprint) = (m.name.clone(), m.fingerprint);
                return Err(ServeError::RegistryMismatch { index: i, name, fingerprint });
            }
        }
        let invalid = |what| Err(ServeError::SnapshotInvalid { what });
        if snap.cfg.workers > MAX_SNAPSHOT_WORKERS {
            return invalid("the worker count exceeds the most a restore may spawn");
        }
        let mut core = Self::new(snap.cfg, snap.models);
        core.next_request = snap.next_request;
        core.rebuilds = snap.rebuilds;
        core.degraded = snap.degraded;
        for SnapshotSlot { generation, session } in snap.slots {
            let session = match session {
                None => None,
                Some(s) if s.model as usize >= core.models.len() => {
                    return invalid("a session references a model outside the snapshot registry");
                }
                Some(s) => {
                    let dt = f64::from_bits(s.dt_bits);
                    if !(dt.is_finite() && dt > 0.0) {
                        return invalid("a session's dt is not a positive finite number");
                    }
                    core.live += 1;
                    let (model, state) = (ModelId(s.model as usize), s.state);
                    Some(Session { model, dt, state, last_activity: s.last_activity, queued: 0 })
                }
            };
            core.slots.push(Slot { generation, session });
        }
        let mut in_free = vec![false; core.slots.len()];
        for &i in &snap.free {
            let at = i as usize;
            if core.slots.get(at).is_none_or(|slot| slot.session.is_some()) || in_free[at] {
                return invalid("a free-list entry does not name a distinct empty slot");
            }
            in_free[at] = true;
            core.free.push(i);
        }
        if core.free.len() + core.live != core.slots.len() {
            return invalid("the free list does not cover every empty slot");
        }
        for r in snap.queue {
            let Some(s) = core.session_mut(SessionHandle::from_raw(r.session)) else {
                return invalid("a queued request references a dead session");
            };
            s.queued += 1;
            if r.id >= core.next_request {
                return invalid("a queued request id is newer than the id counter");
            }
            if r.input.iter().any(|v| !v.is_finite()) {
                return invalid("a queued stimulus holds a non-finite sample");
            }
            core.queued_samples += r.input.len();
            core.queue.push_back(r);
        }
        // A repeated id would let one request's completion dequeue
        // another's.
        let mut ids: Vec<u64> = core.queue.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return invalid("two queued requests share one id");
        }
        Ok(core)
    }

    /// Imports every checkpoint into a live kernel state of its model,
    /// adopting `registry`'s full model list.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] or a wrapped
    /// [`ServingError`](rvf_core::ServingError) when a checkpoint does
    /// not fit its model.
    pub(crate) fn import(
        self,
        registry: &ModelRegistry,
    ) -> Result<SchedulerCore<SimState>, ServeError> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for Slot { generation, session } in self.slots {
            let session = match session {
                None => None,
                Some(Session { model, dt, state, last_activity, queued }) => {
                    let state = registry.get(model)?.import_state(&state)?;
                    Some(Session { model, dt, state, last_activity, queued })
                }
            };
            slots.push(Slot { generation, session });
        }
        Ok(SchedulerCore {
            cfg: self.cfg,
            models: registry.snapshot_models(),
            next_request: self.next_request,
            rebuilds: self.rebuilds,
            degraded: self.degraded,
            slots,
            free: self.free,
            queue: self.queue,
            live: self.live,
            queued_samples: self.queued_samples,
        })
    }

    /// Replays one journaled op, decoded in place: every consistency
    /// check runs before anything mutates, then the op's transition
    /// method — the one the primary called — runs. A completion copies
    /// its state into the session's own checkpoint and an admission
    /// allocates only the queued input, so a steady-state replay
    /// allocates nothing else.
    ///
    /// # Errors
    ///
    /// Which check failed; nothing is committed.
    pub(crate) fn apply(&mut self, op: DeltaOp<F64s<'_>>) -> Result<(), &'static str> {
        match op {
            DeltaOp::SessionOpened { session, model, dt_bits, last_activity, state } => {
                let (handle, next) = (SessionHandle::from_raw(session), self.next_handle());
                let dt = f64::from_bits(dt_bits);
                if model as usize >= self.models.len() {
                    return Err("opened session names a model outside the registry");
                }
                if !(dt.is_finite() && dt > 0.0) {
                    return Err("opened session carries a non-positive dt");
                }
                if handle.index() != next.index() {
                    return Err("the opened slot is not the top of the free stack");
                }
                if handle.generation() != next.generation() && self.free.is_empty() {
                    return Err("an appended slot must start at generation 0");
                }
                if handle.generation() != next.generation() {
                    return Err("the opened slot's generation does not match the handle");
                }
                let [v0, sre, sim] = [state.v0, state.sre, state.sim].map(|v| v.to_vec());
                let StateCheckpoint { shape, uprev, started, samples, coef_dt, .. } = state;
                let state =
                    StateCheckpoint { shape, v0, sre, sim, uprev, started, samples, coef_dt };
                self.open(ModelId(model as usize), dt, last_activity, state);
            }
            DeltaOp::Admitted { request, session, deadline, not_before, input } => {
                let handle = SessionHandle::from_raw(session);
                if request != self.next_request {
                    return Err("the admitted request id is not the next request id");
                }
                if input.iter().any(|v| !v.is_finite()) {
                    return Err("an admitted stimulus holds a non-finite sample");
                }
                if self.session(handle).is_none() {
                    return Err("admission names a dead session");
                }
                self.admit(handle, input.to_vec(), deadline, not_before);
            }
            DeltaOp::ChunkCompleted { request, session, last_activity, state } => {
                let Some(pos) = self.position(RequestId(request)) else {
                    return Err("completion names a request that is not queued");
                };
                if self.queue.get(pos).is_none_or(|queued| queued.session != session) {
                    return Err("completion names the wrong session for its request");
                }
                let handle = SessionHandle::from_raw(session);
                let Some(live) = self.session(handle) else {
                    return Err("completion names a dead session");
                };
                let lens = [state.v0, state.sre, state.sim].map(|v| v.iter().len());
                let fits = |c: &StateCheckpoint| {
                    c.shape == state.shape && [c.v0.len(), c.sre.len(), c.sim.len()] == lens
                };
                if !fits(&live.state) {
                    return Err("completion carries a state that does not fit the session");
                }
                self.complete(Some(pos), handle, last_activity, |c| {
                    for (to, from) in
                        [(&mut c.v0, state.v0), (&mut c.sre, state.sre), (&mut c.sim, state.sim)]
                    {
                        to.iter_mut().zip(from.iter()).for_each(|(to, v)| *to = v);
                    }
                    (c.uprev, c.started, c.samples) = (state.uprev, state.started, state.samples);
                    c.coef_dt = state.coef_dt;
                });
            }
            DeltaOp::RequestFailed { request } => {
                if !self.fail(RequestId(request)) {
                    return Err("failure names a request that is not queued");
                }
            }
            DeltaOp::SessionClosed { session } => {
                if self.close(SessionHandle::from_raw(session)).is_none() {
                    return Err("close names a dead session");
                }
            }
            DeltaOp::RequestRetried { request, attempts, not_before } => {
                if !self.retry(RequestId(request), attempts, not_before) {
                    return Err("retry names a request that is not queued");
                }
            }
            DeltaOp::PoolRebuilt => self.pool_rebuilt(),
            DeltaOp::Degraded => self.degrade(),
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::replica::{Follower, ReplicaError};
    use crate::wire::{checksum64, SnapshotSession, WireRecord};
    use crate::Scheduler;
    use rvf_core::SimBuilder;

    /// The state as an owned [`SchedulerSnapshot`], cloning every
    /// session state and queued stimulus — the pre-streaming encoding
    /// path, kept as the digest oracle.
    fn to_snapshot<S>(core: &SchedulerCore<S>) -> SchedulerSnapshot
    where
        for<'s> &'s S: Into<CheckpointView<'s>>,
    {
        let slots = core.slots.iter().map(|slot| SnapshotSlot {
            generation: slot.generation,
            session: slot.session.as_ref().map(|s| SnapshotSession {
                model: s.model.index() as u32,
                dt_bits: s.dt.to_bits(),
                last_activity: s.last_activity,
                state: Into::<CheckpointView<'_>>::into(&s.state).to_checkpoint(),
            }),
        });
        SchedulerSnapshot {
            cfg: core.cfg.clone(),
            next_request: core.next_request,
            rebuilds: core.rebuilds,
            degraded: core.degraded,
            models: core.models.clone(),
            slots: slots.collect(),
            free: core.free.clone(),
            queue: core.queue.iter().cloned().collect(),
        }
    }

    /// The digest as it was computed before streaming: clone the state
    /// into a snapshot, encode it, hash the record.
    pub(crate) fn oracle_digest<S>(core: &SchedulerCore<S>) -> u64
    where
        for<'s> &'s S: Into<CheckpointView<'s>>,
    {
        checksum64(WireRecord::Snapshot(to_snapshot(core)).encode().as_ref())
    }

    /// A checksum-valid snapshot whose queue names one request id twice
    /// is refused by restore and by a follower's baseline alike: served,
    /// the later request's input would go to the earlier one's session.
    #[test]
    fn a_snapshot_repeating_a_queued_request_id_is_refused() {
        let registry = || {
            let mut b = SimBuilder::new();
            let s = b.drive_poly(&[0.0, 1.0]);
            b.set_static_drive(s);
            b.block_real(-1.0e9, s);
            ModelRegistry::build([("m".to_string(), b.try_build().unwrap())])
        };
        let mut sched = Scheduler::new(registry(), ServeConfig::default());
        let model = ModelId(0);
        let a = sched.open_session(model, 1e-10, 0).unwrap();
        let b = sched.open_session(model, 1e-10, 0).unwrap();
        sched.submit(a, &[0.1; 4], 0, 100).unwrap();
        sched.submit(b, &[0.2; 4], 0, 100).unwrap();
        let mut snap = to_snapshot(sched.core_for_test());
        // The clean image restores; only the repeated id is at fault.
        let clean = WireRecord::Snapshot(snap.clone()).encode();
        assert!(Scheduler::restore(&clean, &registry()).is_ok());

        snap.queue[1].id = snap.queue[0].id;
        let bytes = WireRecord::Snapshot(snap).encode();
        let refused = ServeError::SnapshotInvalid { what: "two queued requests share one id" };
        assert_eq!(Scheduler::restore(&bytes, &registry()).err(), Some(refused.clone()));
        let mut follower = Follower::new(registry());
        let record = WireRecord::decode(&bytes).unwrap();
        assert_eq!(follower.apply(record), Err(ReplicaError::Serve(refused)));
        assert!(!follower.has_baseline());
    }
}
