//! Warm-standby replication: delta log, follower, and failover.
//!
//! A primary [`Scheduler`] with an attached [`ReplicationSink`]
//! journals every committed mutation as a sequence-numbered
//! [`Delta`](crate::wire::Record::Delta) record — session opened, chunk
//! admitted / completed / failed / retried, session closed, pool
//! rebuilt, degraded — each carrying the post-state of any mutated
//! session. Every `digest_every` deltas it also appends a
//! [`Digest`](crate::wire::Record::Digest) record: XXH64 over its
//! encoded canonical state.
//!
//! A [`Follower`] consumes that log — record by record via
//! [`apply`](Follower::apply), or byte-stream style via
//! [`tail`](Follower::tail) on top of [`decode_stream`] — into the same
//! committed-state machine the primary runs (the crate-private
//! `SchedulerCore`), holding session checkpoints instead of live kernel
//! states: plain data, no pool, no threads. The baseline snapshot
//! passes the validation [`Scheduler::restore`] runs (registry names
//! and fingerprints, slab, free stack, queue), and every delta replays
//! through the transition method the primary called. The replication
//! contract is strict by construction:
//!
//! * **Strict sequencing** — deltas must arrive with consecutive
//!   sequence numbers; anything else is [`ReplicaError::SequenceGap`]
//!   and the follower poisons itself (every later call returns the
//!   stored error, nothing is committed).
//! * **Digest verification** — each digest is recomputed over the
//!   follower's own state with the primary's encoding; a mismatch is
//!   [`ReplicaError::Diverged`]. Digest equality is *byte* equality of
//!   canonical state.
//! * **Structural validation** — a delta is checked against the state
//!   before anything mutates ([`ReplicaError::BadDelta`] commits
//!   nothing); a baseline that restore would refuse is refused on
//!   arrival ([`ReplicaError::Serve`]), not at promotion. A frame of
//!   any kind but snapshot, delta or digest fails at its header
//!   ([`ReplicaError::Wire`]).
//!
//! [`promote`](Follower::promote) imports each checkpoint into a live
//! kernel state — the import restore runs — and wraps the state in a
//! fresh [`Scheduler`], with no encode/decode round trip.
//!
//! # Example
//!
//! ```
//! use rvf_core::SimBuilder;
//! use rvf_serve::replica::{Follower, SharedLog};
//! use rvf_serve::{ModelRegistry, Scheduler, ServeConfig};
//!
//! let mut b = SimBuilder::new();
//! let s = b.drive_poly(&[0.0, 1.0]);
//! b.set_static_drive(s);
//! b.block_real(-1.0e9, s);
//! let registry = ModelRegistry::build([("m".to_string(), b.try_build().unwrap())]);
//! let model = registry.id("m").unwrap();
//!
//! // Primary journals to a shared in-memory log.
//! let log = SharedLog::new();
//! let mut primary = Scheduler::new(registry.clone(), ServeConfig::default());
//! primary.attach_replica(Box::new(log.clone()), 1).unwrap();
//! let session = primary.open_session(model, 1.0e-10, 0).unwrap();
//! primary.submit(session, &[0.1, 0.2], 0, 100).unwrap();
//! primary.tick(1);
//!
//! // The follower tails the log and proves itself byte-identical.
//! let mut follower = Follower::new(registry);
//! follower.tail(&log.bytes()).unwrap();
//! assert_eq!(follower.state_digest().unwrap(), primary.state_digest().unwrap());
//!
//! // Primary dies; the follower takes over with identical state.
//! drop(primary);
//! let promoted = follower.promote().unwrap();
//! assert_eq!(promoted.samples(session).unwrap(), 2);
//! ```

use core::fmt;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use rvf_core::StateCheckpoint;

use crate::error::ServeError;
use crate::machine::SchedulerCore;
use crate::registry::ModelRegistry;
use crate::scheduler::Scheduler;
use crate::wire::{decode_stream, WireError, WireView};

/// Where a journaling primary appends its replication records. Each
/// `append` receives one fully framed, checksummed wire record
/// (baseline snapshot, delta, or digest) in log order.
///
/// `append` is infallible by contract: a sink that can lose or defer
/// writes must buffer internally — the serving path never blocks on
/// replication.
pub trait ReplicationSink: Send {
    /// Appends one framed wire record to the log.
    fn append(&mut self, record: Bytes);
}

/// A clonable, shared, in-memory replication log: the primary appends
/// through one clone while followers [`tail`](Follower::tail) the
/// concatenated bytes through another — the in-process stand-in for a
/// replicated log service or a shared append-only file.
///
/// Copy-on-write: [`bytes`](SharedLog::bytes) copies nothing, and an
/// append copies the buffer only while a view of it is alive.
#[derive(Debug, Clone, Default)]
pub struct SharedLog {
    inner: Arc<Mutex<Arc<Vec<u8>>>>,
}

/// The owner of a [`SharedLog::bytes`] view: one version of the buffer.
struct LogVersion(Arc<Vec<u8>>);

impl AsRef<[u8]> for LogVersion {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl SharedLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignores poisoning: the buffer only grows by whole `append`s.
    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<Vec<u8>>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The log's current bytes, without copying them. The view keeps
    /// them: appends while it is alive go to a copy of the buffer.
    pub fn bytes(&self) -> Bytes {
        Bytes::from_owner(LogVersion(Arc::clone(&self.lock())))
    }
}

impl ReplicationSink for SharedLog {
    fn append(&mut self, record: Bytes) {
        Arc::make_mut(&mut self.lock()).extend_from_slice(record.as_ref());
    }
}

/// Typed replication failure. Any error **poisons** the follower: it
/// commits nothing for the failing record, and every later call
/// (including [`promote`](Follower::promote)) returns the stored
/// error — a diverged standby must never be promoted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReplicaError {
    /// A delta or digest arrived out of sequence — the follower missed
    /// records (or saw them twice) and its reconstruction can no longer
    /// be trusted.
    SequenceGap {
        /// The sequence number the follower required.
        expected: u64,
        /// The sequence number the record carried.
        found: u64,
    },
    /// A digest did not match the follower's reconstructed state: the
    /// follower and the primary disagree byte-for-byte.
    Diverged {
        /// The sequence the digest covers.
        seq: u64,
        /// The digest the primary journaled.
        expected: u64,
        /// The digest the follower computed over its own state.
        computed: u64,
    },
    /// A delta is structurally inconsistent with the reconstruction
    /// (an unknown request id, a dead session, a slot that is not the
    /// top of the free stack, …). Nothing was committed.
    BadDelta {
        /// Sequence number of the offending delta.
        seq: u64,
        /// Which consistency check failed.
        what: &'static str,
    },
    /// A delta or digest arrived before the baseline snapshot.
    NoBaseline,
    /// The log itself failed to decode (truncated mid-frame corruption,
    /// bad checksum, …).
    Wire(WireError),
    /// A serving-layer failure — a baseline that restore would refuse
    /// ([`ServeError::RegistryMismatch`] when the follower's registry
    /// does not carry the primary's models, [`ServeError::SnapshotInvalid`]
    /// when the baseline is inconsistent), or a checkpoint that does not
    /// fit its model at promotion.
    Serve(ServeError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SequenceGap { expected, found } => {
                write!(f, "replica: sequence gap (expected {expected}, found {found})")
            }
            Self::Diverged { seq, expected, computed } => write!(
                f,
                "replica: diverged at seq {seq} (primary digest {expected:#018x}, \
                 follower digest {computed:#018x})"
            ),
            Self::BadDelta { seq, what } => {
                write!(f, "replica: inconsistent delta at seq {seq}: {what}")
            }
            Self::NoBaseline => {
                write!(f, "replica: record arrived before the baseline snapshot")
            }
            Self::Wire(e) => write!(f, "replica: {e}"),
            Self::Serve(e) => write!(f, "replica: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ReplicaError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<ServeError> for ReplicaError {
    fn from(e: ServeError) -> Self {
        Self::Serve(e)
    }
}

/// A warm standby: applies a primary's replication log against its own
/// registry and holds a canonical-state reconstruction that is — and
/// continuously *proves* itself — byte-identical to the primary's
/// snapshot at the last applied sequence. See the [module
/// docs](self) for the contract.
pub struct Follower {
    registry: ModelRegistry,
    core: Option<SchedulerCore<StateCheckpoint>>,
    seq: u64,
    offset: usize,
    verified: u64,
    failed: Option<ReplicaError>,
}

impl Follower {
    /// A follower serving `registry`, which must carry the primary's
    /// models at the same indices (checked by name *and* compiled-table
    /// fingerprint when the baseline arrives).
    pub fn new(registry: ModelRegistry) -> Self {
        Self { registry, core: None, seq: 0, offset: 0, verified: 0, failed: None }
    }

    /// Sequence number of the last applied delta (0 before any).
    pub fn applied_seq(&self) -> u64 {
        self.seq
    }

    /// Journaled digests this follower recomputed and matched so far.
    pub fn digests_verified(&self) -> u64 {
        self.verified
    }

    /// Whether the baseline snapshot has been applied.
    pub fn has_baseline(&self) -> bool {
        self.core.is_some()
    }

    /// The stored poison error, if the follower has failed.
    pub fn error(&self) -> Option<&ReplicaError> {
        self.failed.as_ref()
    }

    /// XXH64 over the follower's encoded reconstruction — directly
    /// comparable to [`Scheduler::state_digest`] and to the digests the
    /// primary journals.
    ///
    /// # Errors
    ///
    /// The stored poison error, or [`ReplicaError::NoBaseline`] before
    /// the baseline snapshot arrived.
    pub fn state_digest(&self) -> Result<u64, ReplicaError> {
        self.healthy()?;
        let core = self.core.as_ref().ok_or(ReplicaError::NoBaseline)?;
        Ok(core.digest())
    }

    /// Applies one decoded replication record: the baseline snapshot, a
    /// sequence-checked delta, or a digest to verify against.
    ///
    /// # Errors
    ///
    /// Any [`ReplicaError`]; on error nothing is committed and the
    /// follower is poisoned (every later call returns the same error).
    pub fn apply(&mut self, record: WireView<'_>) -> Result<(), ReplicaError> {
        self.healthy()?;
        self.apply_inner(record).map_err(|e| self.poison(e))
    }

    /// The stored poison error, if the follower has failed.
    fn healthy(&self) -> Result<(), ReplicaError> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Stores `e` as the poison error and returns it.
    fn poison(&mut self, e: ReplicaError) -> ReplicaError {
        self.failed = Some(e.clone());
        e
    }

    fn apply_inner(&mut self, record: WireView<'_>) -> Result<(), ReplicaError> {
        match record {
            WireView::Snapshot(snap) => {
                if self.core.is_some() {
                    return Err(ReplicaError::BadDelta {
                        seq: self.seq,
                        what: "a second baseline snapshot arrived mid-log",
                    });
                }
                // The baseline passes restore's whole validation: a
                // mismatched registry or an inconsistent slab is refused
                // here, not at promotion.
                self.core = Some(SchedulerCore::from_snapshot(snap, &self.registry)?);
                self.seq = 0;
            }
            WireView::Delta(delta) => {
                let core = self.core.as_mut().ok_or(ReplicaError::NoBaseline)?;
                let expected = self.seq + 1;
                if delta.seq != expected {
                    return Err(ReplicaError::SequenceGap { expected, found: delta.seq });
                }
                core.apply(delta.op)
                    .map_err(|what| ReplicaError::BadDelta { seq: delta.seq, what })?;
                self.seq = delta.seq;
            }
            WireView::Digest(digest) => {
                let core = self.core.as_ref().ok_or(ReplicaError::NoBaseline)?;
                if digest.seq != self.seq {
                    return Err(ReplicaError::SequenceGap {
                        expected: self.seq,
                        found: digest.seq,
                    });
                }
                let computed = core.digest();
                if computed != digest.digest {
                    return Err(ReplicaError::Diverged {
                        seq: digest.seq,
                        expected: digest.digest,
                        computed,
                    });
                }
                self.verified += 1;
            }
        }
        Ok(())
    }

    /// Tails a replication log: applies every complete record past the
    /// follower's resume offset, leaving a trailing partial record (a
    /// log caught mid-append) for the next call, which resumes at the
    /// stream's [`consumed`](crate::wire::RecordStream::consumed)
    /// offset. Returns the number of records applied.
    ///
    /// `log` must be the *whole* log from its first byte — the follower
    /// tracks its own offset, so repeatedly passing the zero-copy
    /// [`SharedLog::bytes`] view tails incrementally.
    ///
    /// # Errors
    ///
    /// Any [`ReplicaError`]; the offending record and everything after
    /// it are not consumed, and the follower is poisoned.
    pub fn tail(&mut self, log: &Bytes) -> Result<usize, ReplicaError> {
        self.healthy()?;
        if log.len() < self.offset {
            let what = "the replication log shrank below the consumed offset";
            return Err(self.poison(ReplicaError::BadDelta { seq: self.seq, what }));
        }
        let start = self.offset;
        let rest = log.slice(start..log.len());
        let mut stream = decode_stream(&rest);
        let mut applied = 0usize;
        while let Some(record) = stream.next() {
            let record = record.map_err(|e| self.poison(ReplicaError::Wire(e)))?;
            self.apply(record)?;
            self.offset = start + stream.consumed();
            applied += 1;
        }
        Ok(applied)
    }

    /// Promotes the reconstruction into a live [`Scheduler`] equal to
    /// the primary at the last applied sequence: each session
    /// checkpoint is imported into a live kernel state — the same
    /// import [`Scheduler::restore`] runs after its validation, which
    /// the baseline already passed — and the state is wrapped in a
    /// fresh runtime. The promoted scheduler has no replication sink
    /// attached; attach one to chain standbys.
    ///
    /// # Errors
    ///
    /// The stored poison error, [`ReplicaError::NoBaseline`], or a
    /// wrapped [`ServeError`] when a checkpoint does not fit its model.
    pub fn promote(mut self) -> Result<Scheduler, ReplicaError> {
        self.healthy()?;
        let core = self.core.take().ok_or(ReplicaError::NoBaseline)?.import(&self.registry)?;
        Ok(Scheduler::from_core(Arc::new(self.registry), core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos;
    use crate::scheduler::ServeConfig;
    use crate::wire::{DeltaOp, DeltaRecord};
    use rvf_core::SimBuilder;

    fn registry() -> ModelRegistry {
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        ModelRegistry::build([("m".to_string(), b.try_build().unwrap())])
    }

    fn replicated_pair() -> (Scheduler, SharedLog, Follower) {
        let log = SharedLog::new();
        let mut primary = Scheduler::new(registry(), ServeConfig::default());
        primary.attach_replica(Box::new(log.clone()), 1).expect("attach");
        (primary, log, Follower::new(registry()))
    }

    #[test]
    fn shared_log_accumulates_appends() {
        let log = SharedLog::new();
        assert!(log.bytes().is_empty());
        let mut writer = log.clone();
        writer.append(Bytes::from(vec![1, 2, 3]));
        writer.append(Bytes::from(vec![4]));
        assert_eq!(log.bytes().len(), 4);
        assert_eq!(log.bytes().as_ref(), &[1, 2, 3, 4]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The streamed one-pass digest equals the clone-encode-hash
        /// oracle on both sides of the log, after every op of a random
        /// open / submit / tick / close / panicked-tick sequence — so
        /// digests are taken with queued work, retries in backoff, and
        /// freed slots.
        #[test]
        fn streamed_digest_matches_the_clone_and_encode_oracle(
            ops in proptest::collection::vec((0u8..5, 0u64..1000), 1..40)
        ) {
            use crate::machine::tests::oracle_digest;
            let log = SharedLog::new();
            let cfg = ServeConfig {
                workers: 2,
                max_retries: 1,
                retry_backoff_base: 1,
                rebuild_after_panics: 2,
                ..ServeConfig::default()
            };
            let mut primary = Scheduler::new(registry(), cfg);
            primary.attach_replica(Box::new(log.clone()), 3).expect("attach");
            let mut follower = Follower::new(registry());
            let model = primary.registry().id("m").expect("model");
            let (mut sessions, mut now) = (Vec::new(), 0u64);
            for (op, x) in ops {
                let pick = |n: usize| x as usize % n.max(1);
                match op {
                    0 => sessions.push(primary.open_session(model, 1e-10, now).expect("open")),
                    1 if !sessions.is_empty() => {
                        let chunk: Vec<f64> =
                            (0..1 + x % 5).map(|i| (i + x) as f64 * 1e-3).collect();
                        let session = sessions[pick(sessions.len())];
                        let _ = primary.submit(session, &chunk, now, now + x % 4);
                    }
                    3 if !sessions.is_empty() => {
                        let _ = primary.close_session(sessions.swap_remove(pick(sessions.len())));
                    }
                    4 => chaos::arm_worker_panic(&primary),
                    _ => {
                        primary.tick(now);
                        now += 1;
                    }
                }
                let digest = primary.state_digest();
                proptest::prop_assert_eq!(&digest, &Ok(oracle_digest(primary.core_for_test())));
                follower.tail(&log.bytes()).expect("the follower verifies every journaled digest");
                let core = follower.core.as_ref().expect("baseline");
                proptest::prop_assert_eq!(follower.state_digest().ok(), Some(oracle_digest(core)));
                proptest::prop_assert_eq!(follower.state_digest().ok(), digest.ok());
            }
        }
    }

    #[test]
    fn a_view_keeps_its_bytes_across_later_appends() {
        let mut log = SharedLog::new();
        log.append(Bytes::from(vec![1, 2]));
        let view = log.bytes();
        log.append(Bytes::from(vec![3]));
        assert_eq!(view.as_ref(), &[1, 2], "the old view is unchanged");
        assert_eq!(log.bytes().as_ref(), &[1, 2, 3], "the append landed");
        assert_eq!(log.bytes().len(), 3);
    }

    #[test]
    fn views_without_an_append_between_share_one_buffer() {
        let mut log = SharedLog::new();
        log.append(Bytes::from(vec![7, 8, 9]));
        let (a, b) = (log.bytes(), log.bytes());
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr(), "bytes() copied the log");
        drop((a, b));
        // With no view alive an append extends the buffer in place; the
        // next view still reads the same bytes from the front.
        log.append(Bytes::from(vec![10]));
        assert_eq!(log.bytes().as_ref(), &[7, 8, 9, 10]);
    }

    #[test]
    fn follower_tracks_primary_digest_every_step() {
        let (mut primary, log, mut follower) = replicated_pair();
        let model = primary.registry().id("m").expect("model");
        let session = primary.open_session(model, 1e-10, 0).expect("open");
        primary.submit(session, &[0.1, 0.2, 0.3], 0, 100).expect("submit");
        primary.tick(1);
        primary.submit(session, &[0.4], 2, 100).expect("submit");
        primary.close_session(session).expect("close");
        follower.tail(&log.bytes()).expect("tail applies cleanly");
        assert!(follower.has_baseline());
        assert_eq!(
            follower.state_digest().expect("digest"),
            primary.state_digest().expect("digest")
        );
        assert!(follower.digests_verified() >= 1, "no journaled digest was verified");
    }

    #[test]
    fn sequence_gap_poisons_and_commits_nothing() {
        let (mut primary, log, mut follower) = replicated_pair();
        let model = primary.registry().id("m").expect("model");
        primary.open_session(model, 1e-10, 0).expect("open");
        follower.tail(&log.bytes()).expect("tail");
        let seq_before = follower.applied_seq();
        let digest_before = follower.state_digest().expect("digest");
        // A delta from the future: gap.
        let bogus = WireView::Delta(DeltaRecord { seq: seq_before + 5, op: DeltaOp::PoolRebuilt });
        assert!(matches!(
            follower.apply(bogus),
            Err(ReplicaError::SequenceGap { found, .. }) if found == seq_before + 5
        ));
        // Poisoned: same error again, state untouched, promote refused.
        assert!(matches!(follower.error(), Some(ReplicaError::SequenceGap { .. })));
        assert_eq!(follower.applied_seq(), seq_before);
        assert!(matches!(follower.tail(&log.bytes()), Err(ReplicaError::SequenceGap { .. })));
        assert!(matches!(follower.promote(), Err(ReplicaError::SequenceGap { .. })));
        let _ = digest_before;
    }

    #[test]
    fn records_before_baseline_are_refused() {
        let mut follower = Follower::new(registry());
        let delta = WireView::Delta(DeltaRecord { seq: 1, op: DeltaOp::PoolRebuilt });
        assert!(matches!(follower.apply(delta), Err(ReplicaError::NoBaseline)));
        assert!(matches!(Follower::new(registry()).promote(), Err(ReplicaError::NoBaseline)));
    }

    #[test]
    fn error_display_and_source_round_trip() {
        use std::error::Error;
        let gap = ReplicaError::SequenceGap { expected: 4, found: 9 };
        assert!(gap.to_string().contains("expected 4"));
        assert!(gap.to_string().contains("found 9"));
        assert!(gap.source().is_none());
        let div = ReplicaError::Diverged { seq: 7, expected: 1, computed: 2 };
        assert!(div.to_string().contains("seq 7"));
        assert!(div.source().is_none());
        let bad = ReplicaError::BadDelta { seq: 3, what: "close names a dead session" };
        assert!(bad.to_string().contains("seq 3"));
        assert!(bad.to_string().contains("dead session"));
        assert!(ReplicaError::NoBaseline.to_string().contains("baseline"));
        let wire = ReplicaError::from(WireError::BadMagic { found: 0 });
        assert!(wire.to_string().contains("magic"));
        assert!(wire.source().is_some(), "wire errors keep their source");
        let serve = ReplicaError::from(ServeError::UnknownModel { id: 3 });
        assert!(serve.to_string().contains("model"));
        assert!(serve.source().is_some(), "serve errors keep their source");
        assert_eq!(gap.clone(), gap);
    }
}
