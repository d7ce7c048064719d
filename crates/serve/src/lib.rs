//! Fault-tolerant model-serving tier over the compiled serving runtime.
//!
//! `rvf-serve` turns the single-process serving primitives of
//! [`rvf_core::serving`] into a service-shaped tier built for partial
//! failure:
//!
//! * [`ModelRegistry`] — an immutable set of named, `Arc`-shared
//!   [`CompiledSim`](rvf_core::CompiledSim)s; compile once, serve from
//!   every session without copies, and no fault can corrupt a model.
//! * [`Scheduler`] — admission control (bounded queues with typed
//!   [`ServeError::Overloaded`] load shedding), per-request deadlines
//!   and per-session idle timeouts on a deterministic injected clock,
//!   per-model batching over one shared
//!   [`SweepPool`](rvf_numerics::SweepPool), retry with exponential
//!   backoff on contained worker panics, pool rebuild past a panic
//!   threshold, and graceful degradation to a bit-identical serial path
//!   past a rebuild budget.
//! * [`replica`] — warm-standby replication: the scheduler journals
//!   every committed mutation as sequence-numbered deltas (with
//!   periodic state digests) through a pluggable
//!   [`ReplicationSink`]; a
//!   [`Follower`] tails the log, proves itself
//!   byte-identical via the digests, and promotes into a live
//!   scheduler after primary death — with bit-identical client
//!   streams.
//! * [`chaos`] — a deterministic, seeded fault-injection seam (worker
//!   panics, NaN/∞ stimulus, oversized chunks, mid-stream closes) that
//!   the proptest suite uses to prove the robustness contract: no
//!   public API panics, rejected work commits no state, pre-fault
//!   checkpoints replay bit-identically after recovery, and the tier
//!   keeps serving new admissions after every injected failure.
//!
//! # Example
//!
//! ```
//! use rvf_core::SimBuilder;
//! use rvf_serve::{Event, ModelRegistry, Scheduler, ServeConfig, ServeError};
//!
//! // Compile a model and register it.
//! let mut b = SimBuilder::new();
//! let s = b.drive_poly(&[0.0, 1.0]);
//! b.set_static_drive(s);
//! b.block_real(-1.0e9, s);
//! let registry = ModelRegistry::build([("lowpass".to_string(), b.try_build().unwrap())]);
//! let model = registry.id("lowpass").unwrap();
//!
//! // Serve it with a small admission queue.
//! let cfg = ServeConfig { max_queued_requests: 1, ..Default::default() };
//! let mut sched = Scheduler::new(registry, cfg);
//! let session = sched.open_session(model, 1.0e-10, 0).unwrap();
//!
//! // First submit is admitted; the second is shed with a typed error.
//! sched.submit(session, &[0.1, 0.2], 0, 100).unwrap();
//! assert!(matches!(
//!     sched.submit(session, &[0.3], 0, 100),
//!     Err(ServeError::Overloaded { .. })
//! ));
//!
//! // One tick serves the admitted chunk.
//! let events = sched.tick(1);
//! assert!(matches!(events[0], Event::Completed { .. }));
//! ```

#![warn(missing_docs)]

pub mod chaos;
mod error;
mod machine;
mod registry;
pub mod replica;
mod scheduler;
pub mod wire;

pub use error::ServeError;
pub use registry::{ModelId, ModelRegistry};
pub use replica::{Follower, ReplicaError, ReplicationSink, SharedLog};
pub use scheduler::{Event, RequestId, Scheduler, ServeConfig, SessionHandle};
