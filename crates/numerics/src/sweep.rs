//! Work-stealing sweep runtime: a persistent pool of parked workers.
//!
//! The TFT stage evaluates one transfer function per Jacobian snapshot;
//! snapshots are independent but *not* uniformly priced: one near a
//! singular operating point (slow pivoting, retries upstream) or with a
//! larger MNA dimension can cost many times its neighbours. A fixed
//! `chunks_mut` partition then leaves every other worker idle while one
//! chunk drags. The executor here instead drains an atomic-index task
//! queue: each worker claims the next unclaimed index with a
//! `fetch_add`, so load balances itself at task granularity with no
//! channels, no external dependency beyond `std`.
//!
//! [`SweepPool`] is the one entry point. The recursive-VF hot loop runs
//! *many* small parallel regions (one per relocation round, per pole
//! count, per pipeline stage), and a serving tier runs one per batch;
//! paying a spawn/join cycle per region made thread management the
//! dominant fixed cost. A pool is constructed once per fit, extraction
//! or serving runtime, and every region becomes a
//! [`run_with`](SweepPool::run_with) *round*: an epoch handoff to
//! already-running parked workers, O(µs) instead of O(spawn). A
//! one-worker pool spawns no thread at all and runs every round inline
//! on the caller, with the same semantics.
//!
//! Failure semantics:
//!
//! * the first task error aborts the sweep — remaining queued tasks are
//!   dropped, in-flight tasks finish their current item — and is
//!   returned as [`SweepError::Task`] with the index that failed;
//! * a panicking task is caught at the call site, aborts the sweep the
//!   same way, and surfaces as [`SweepError::WorkerPanicked`] instead
//!   of tearing down the caller — on the inline single-worker path too,
//!   and without poisoning the pool (it stays usable).
//!
//! # Examples
//!
//! ```
//! use rvf_numerics::{SweepConfig, SweepPool};
//!
//! // Square 0..8 on 3 workers; results come back in task order.
//! let pool = SweepPool::new(3);
//! let squares = pool.run(8, &SweepConfig::threads(3), |i| Ok::<_, ()>(i * i)).unwrap();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! Reuse one pool across many rounds — the relocation-loop pattern:
//!
//! ```
//! use rvf_numerics::SweepPool;
//!
//! let pool = SweepPool::new(3);
//! let mut scratch = vec![0u64; pool.workers()];
//! for round in 1..=4u64 {
//!     let out = pool
//!         .run_with(6, &mut scratch, |ws, i| {
//!             *ws += 1; // per-worker state survives across rounds
//!             Ok::<_, ()>(round * i as u64)
//!         })
//!         .unwrap();
//!     assert_eq!(out[5], round * 5);
//! }
//! assert_eq!(pool.sweeps(), 4);
//! ```

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// The width request of a [`SweepPool::run`] round.
///
/// `threads` follows the [`resolve_threads`] convention (`0` = one
/// worker per available core) and is the number of unit workspaces
/// `run` builds, so it caps that round below the pool's capacity.
/// [`SweepPool::run_with`] takes no config: its round is as wide as the
/// pool, the task count and the workspace list allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepConfig {
    /// Worker threads (`0` = available parallelism).
    pub(crate) threads: usize,
}

impl SweepConfig {
    /// A config with the given worker count.
    pub fn threads(threads: usize) -> Self {
        Self { threads }
    }
}

/// A result slot written by exactly one worker.
///
/// SAFETY: `Sync` is sound because the claim counter hands every index
/// to exactly one worker (no two threads ever touch the same slot) and
/// the dispatching call waits for every worker to finish its round
/// before any slot is read.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: see the type-level invariant above.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Error produced by a sweep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError<E> {
    /// A task returned an error; the sweep was aborted.
    Task {
        /// Index of the failing task.
        index: usize,
        /// The task's error.
        error: E,
    },
    /// A worker thread panicked while running a task.
    WorkerPanicked {
        /// Index of the worker whose task panicked.
        worker: usize,
    },
}

impl<E: core::fmt::Display> core::fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Task { index, error } => write!(f, "sweep task {index} failed: {error}"),
            Self::WorkerPanicked { worker } => write!(f, "sweep worker {worker} panicked"),
        }
    }
}

impl<E: core::fmt::Debug + core::fmt::Display> std::error::Error for SweepError<E> {}

/// Process-wide count of [`SweepPool`] constructions (every
/// `SweepPool::new`, including single-worker pools that spawn no OS
/// thread).
///
/// This is the observable behind the runtime's O(1)-spawn contract: a
/// fit with R relocation rounds must advance this counter by exactly
/// one, however many rounds it dispatches. Tests snapshot it before and
/// after the code under test; note that parallel tests in one process
/// share the counter, so precise-delta assertions belong in their own
/// test binary.
pub fn pool_constructions() -> u64 {
    POOL_CONSTRUCTIONS.load(Ordering::Relaxed)
}

static POOL_CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Type-erased per-round worker body; the argument is the worker slot.
type RoundBody = dyn Fn(usize) + Sync;

/// Raw pointer to the current round's body, valid only while the round
/// is in flight (the dispatcher does not return until every participant
/// has finished, so the pointee outlives every dereference).
struct BodyPtr(*const RoundBody);

// SAFETY: the pointer is only dereferenced between the epoch bump that
// publishes it and the `remaining == 0` handshake that retires it, a
// window during which the dispatcher keeps the pointee alive.
unsafe impl Send for BodyPtr {}

/// Shared pool state behind the mutex.
struct PoolState {
    /// Round generation; bumped once per dispatched round.
    epoch: u64,
    /// The current round's erased body (present while a round runs).
    body: Option<BodyPtr>,
    /// Pool workers that should take part in the current round
    /// (slots `1..=participants`).
    participants: usize,
    /// Participants that have not yet finished the current round.
    remaining: usize,
    /// Slot of a worker whose round body escaped panic containment.
    poisoned: Option<usize>,
    /// Tells parked workers to exit.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between rounds.
    work: Condvar,
    /// The dispatcher parks here until `remaining == 0`.
    done: Condvar,
}

/// Locks a mutex, shrugging off poisoning: pool invariants are
/// maintained under the lock only, and round bodies run outside it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A persistent work-stealing worker pool.
///
/// `SweepPool::new(threads)` resolves `threads` ([`resolve_threads`])
/// to a *capacity* — the maximum workers a round can use, **including
/// the calling thread** — and parks `capacity − 1` long-lived OS
/// threads. Every [`SweepPool::run_with`] call is then a *round*: the
/// task closure is type-erased and handed to the parked workers through
/// an epoch bump, the caller joins in as worker 0, and the call returns
/// once every participant has drained the shared atomic-index queue.
/// No thread is spawned or joined per round, which collapses the
/// O(rounds × stages) spawn cost of a recursive fit to O(1).
///
/// A pool is freely shared (`run_with` takes `&self`); concurrent
/// dispatches from several threads are serialized, not interleaved.
/// Worker panics are contained per round ([`SweepError::WorkerPanicked`])
/// and leave the pool reusable. Dropping the pool parks out and joins
/// its workers.
///
/// Determinism: results land in write-once slots addressed by task
/// index, so for any task that is a pure function of
/// `(workspace-as-scratch, index)` the output is bit-identical for
/// every capacity, worker count, and claim interleaving — the property
/// the parallel vector-fitting layer builds on.
pub struct SweepPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    capacity: usize,
    /// Serializes rounds from concurrent dispatchers.
    dispatch: Mutex<()>,
    sweeps: AtomicU64,
    rounds: AtomicU64,
    panics: AtomicU64,
    /// Armed by [`SweepPool::inject_panic`]; consumed by the next round.
    fault: AtomicBool,
}

impl core::fmt::Debug for SweepPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SweepPool")
            .field("capacity", &self.capacity)
            .field("sweeps", &self.sweeps())
            .field("rounds", &self.rounds())
            .finish()
    }
}

impl SweepPool {
    /// Builds a pool with `threads` worker capacity (`0` = one per
    /// available core; the capacity counts the calling thread, so
    /// `capacity − 1` OS threads are spawned and parked).
    pub fn new(threads: usize) -> Self {
        POOL_CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        let capacity = resolve_threads(threads).max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                body: None,
                participants: 0,
                remaining: 0,
                poisoned: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..capacity)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, w))
            })
            .collect();
        Self {
            shared,
            handles,
            capacity,
            dispatch: Mutex::new(()),
            sweeps: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            fault: AtomicBool::new(false),
        }
    }

    /// Worker capacity of the pool (calling thread included).
    #[inline]
    pub fn workers(&self) -> usize {
        self.capacity
    }

    /// Number of sweeps this pool has executed (inline ones included).
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Number of *parallel* rounds dispatched to the parked workers
    /// (sweeps that resolved to the inline path are not counted).
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Number of sweeps on this pool that ended in a contained worker
    /// panic ([`SweepError::WorkerPanicked`]), inline-path sweeps
    /// included. The pool stays usable after every one of them — this
    /// counter is the *health signal* a supervising runtime (e.g. a
    /// serving scheduler) thresholds to decide when a pool has absorbed
    /// enough faults that it should be torn down and rebuilt, or traffic
    /// degraded to a serial path.
    pub fn contained_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Records one contained worker panic on this pool.
    fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Fault-injection seam for test and chaos harnesses: the next task
    /// this pool runs panics inside the pool's own containment, so its
    /// round returns [`SweepError::WorkerPanicked`] and
    /// [`contained_panics`](SweepPool::contained_panics) counts it.
    /// Fires exactly once, on the pooled and the inline path alike;
    /// arming an armed pool changes nothing, and other pools never see
    /// it.
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        self.fault.store(true, Ordering::Relaxed);
    }

    /// Runs `n_tasks` workspace-free tasks on the pool, on at most
    /// `cfg.threads` workers (resolved by [`resolve_threads`]).
    ///
    /// # Errors
    ///
    /// Same failure semantics as [`SweepPool::run_with`].
    pub fn run<T, E, F>(
        &self,
        n_tasks: usize,
        cfg: &SweepConfig,
        task: F,
    ) -> Result<Vec<T>, SweepError<E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let mut units = vec![(); resolve_threads(cfg.threads).min(self.capacity)];
        self.run_with(n_tasks, &mut units, |(), i| task(i))
    }

    /// Runs one sweep round on the pool: `task(ws, i)` is called exactly
    /// once for every `i` in `0..n_tasks` (unless an earlier task
    /// fails), with worker `w` exclusively borrowing `workspaces[w]`
    /// for the round — keep the workspace pool alive across rounds and
    /// its buffers are paid for once. Results come back in task order.
    ///
    /// The round runs `min(capacity, n_tasks, workspaces.len())`
    /// workers, each claiming one task index per queue pop; with one
    /// worker it runs inline on the calling thread (no handoff, same
    /// semantics).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Task`] wrapping the first task error
    /// observed (by claim order; ties across workers are raced) and
    /// [`SweepError::WorkerPanicked`] if a task panicked. In both cases
    /// the queue is drained early: tasks not yet claimed when the
    /// failure is flagged are never started, and a workspace a
    /// panicking task ran on is left in an unspecified (but valid)
    /// state. The pool itself survives either failure and can run
    /// further sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks > 0` and `workspaces` is empty.
    pub fn run_with<W, T, E, F>(
        &self,
        n_tasks: usize,
        workspaces: &mut [W],
        task: F,
    ) -> Result<Vec<T>, SweepError<E>>
    where
        W: Send,
        T: Send,
        E: Send,
        F: Fn(&mut W, usize) -> Result<T, E> + Sync,
    {
        if n_tasks == 0 {
            return Ok(Vec::new());
        }
        assert!(!workspaces.is_empty(), "sweep needs at least one workspace");
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        // An armed pool faults task 0 of this round, which exactly one
        // worker claims; an unarmed round pays one load, no swap.
        let faulted =
            if self.fault.load(Ordering::Relaxed) && self.fault.swap(false, Ordering::Relaxed) {
                0
            } else {
                n_tasks
            };
        let workers = self.capacity.min(n_tasks).min(workspaces.len());
        if workers <= 1 {
            let out = run_inline(n_tasks, &mut workspaces[0], &task, faulted);
            if matches!(out, Err(SweepError::WorkerPanicked { .. })) {
                self.note_panic();
            }
            return out;
        }
        self.rounds.fetch_add(1, Ordering::Relaxed);

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // One write-once slot per task: workers deposit results directly
        // at their claimed index, so nothing is collected per item and
        // no reordering pass is needed at the end of the round.
        let slots: Vec<Slot<T>> = (0..n_tasks).map(|_| Slot(UnsafeCell::new(None))).collect();
        let first_err: Mutex<Option<SweepError<E>>> = Mutex::new(None);
        let ws_base = WsPtr(workspaces.as_mut_ptr(), PhantomData);
        let (slots_ref, task_ref, ws_ref) = (slots.as_slice(), &task, &ws_base);

        let body = |w: usize| {
            // SAFETY: slot `w` is handed to exactly one thread per round
            // (worker w), so this &mut aliases nothing.
            let ws: &mut W = unsafe { &mut *ws_ref.0.add(w) };
            loop {
                if abort.load(Ordering::Acquire) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots_ref.get(i) else {
                    return;
                };
                match catch_task(task_ref, ws, i, i == faulted) {
                    // SAFETY: the fetch_add hands every index to exactly
                    // one worker, so this slot is written by this thread
                    // only, and the round handshake happens before the
                    // slots are read.
                    Ok(v) => unsafe { *slot.0.get() = Some(v) },
                    Err(e) => {
                        // The first failure (error or contained panic)
                        // wins and flags the other workers down before
                        // they claim more work.
                        abort.store(true, Ordering::Release);
                        lock(&first_err).get_or_insert(e.into_error(w));
                        return;
                    }
                }
            }
        };
        let poisoned = self.dispatch_round(&body, workers);

        if let Some(e) = lock(&first_err).take() {
            if matches!(e, SweepError::WorkerPanicked { .. }) {
                self.note_panic();
            }
            return Err(e);
        }
        if let Some(worker) = poisoned {
            // Backstop: a panic escaping catch_task (e.g. from a
            // panicking Drop) still stays contained at the handshake.
            self.note_panic();
            return Err(SweepError::WorkerPanicked { worker });
        }
        // Every participant exited cleanly and no error was flagged, so
        // every index was claimed and filled exactly once.
        Ok(slots.into_iter().map(|s| s.0.into_inner().expect("sweep slot filled")).collect())
    }

    /// Publishes `body` to `workers − 1` parked pool threads, runs the
    /// caller's share as worker 0, and blocks until every participant
    /// has finished. Returns the slot of a worker whose body escaped
    /// panic containment, if any.
    fn dispatch_round(&self, body: &(dyn Fn(usize) + Sync), workers: usize) -> Option<usize> {
        let _round = lock(&self.dispatch);
        {
            let mut st = lock(&self.shared.state);
            // SAFETY (lifetime erasure): workers dereference this
            // pointer only between the epoch bump below and the
            // `remaining == 0` handshake we wait for before returning,
            // and `body` outlives this call.
            st.body = Some(BodyPtr(unsafe {
                core::mem::transmute::<*const (dyn Fn(usize) + Sync), *const RoundBody>(body)
            }));
            st.participants = workers - 1;
            st.remaining = workers - 1;
            st.poisoned = None;
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(0)));
        let poisoned = {
            let mut st = lock(&self.shared.state);
            while st.remaining > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.body = None;
            let mut poisoned = st.poisoned.take();
            if caller.is_err() {
                poisoned.get_or_insert(0);
            }
            poisoned
        };
        poisoned
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The parked-worker loop: wait for an epoch that includes this slot,
/// run the round body, report completion, park again.
fn worker_loop(shared: &PoolShared, w: usize) {
    let mut seen = 0u64;
    loop {
        let body = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if w <= st.participants {
                        let ptr = st.body.as_ref().expect("round body published").0;
                        break BodyPtr(ptr);
                    }
                    // Not part of this round; park until the next epoch.
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the dispatcher keeps the body alive until every
        // participant (us included) has decremented `remaining`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (*body.0)(w);
        }));
        let mut st = lock(&shared.state);
        if outcome.is_err() {
            st.poisoned.get_or_insert(w);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Raw base pointer into the workspace slice, shared with the round
/// body.
///
/// SAFETY invariant: worker `w` (and only worker `w`) derives
/// `&mut *ptr.add(w)`, and the dispatching call keeps the slice
/// exclusively borrowed until the round completes.
struct WsPtr<W>(*mut W, PhantomData<W>);

// SAFETY: see the type-level invariant above.
unsafe impl<W: Send> Sync for WsPtr<W> {}

/// The no-handoff path of a one-worker round: run all tasks on the
/// calling thread with full failure-semantics parity (including panic
/// containment and the injected fault at index `faulted`), so a
/// single-worker sweep pays no dispatch.
fn run_inline<W, T, E, F>(
    n_tasks: usize,
    ws: &mut W,
    task: &F,
    faulted: usize,
) -> Result<Vec<T>, SweepError<E>>
where
    F: Fn(&mut W, usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(n_tasks);
    for i in 0..n_tasks {
        match catch_task(task, ws, i, i == faulted) {
            Ok(v) => out.push(v),
            Err(e) => return Err(e.into_error(0)),
        }
    }
    Ok(out)
}

/// Outcome of one guarded task invocation.
enum TaskFailure<E> {
    Error { index: usize, error: E },
    Panicked,
}

impl<E> TaskFailure<E> {
    fn into_error(self, worker: usize) -> SweepError<E> {
        match self {
            Self::Error { index, error } => SweepError::Task { index, error },
            Self::Panicked => SweepError::WorkerPanicked { worker },
        }
    }
}

/// Runs `task(ws, i)` with panics caught at the call site, so a
/// poisoned task flags the sweep down immediately instead of surfacing
/// only when its worker is joined. With `inject` set the task panics
/// before it starts ([`SweepPool::inject_panic`]). `AssertUnwindSafe`
/// is sound here: on panic the whole sweep is aborted, every partial
/// result is discarded, and the workspace is documented as unspecified
/// after a panic.
fn catch_task<W, T, E, F>(task: &F, ws: &mut W, i: usize, inject: bool) -> Result<T, TaskFailure<E>>
where
    F: Fn(&mut W, usize) -> Result<T, E> + Sync,
{
    let guarded = || {
        if inject {
            panic!("injected sweep pool panic");
        }
        task(ws, i)
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(guarded)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(error)) => Err(TaskFailure::Error { index: i, error }),
        Err(_payload) => Err(TaskFailure::Panicked),
    }
}

/// Resolves a requested thread count: `0` means "use every available
/// core" via [`std::thread::available_parallelism`] (falling back to 1
/// if the parallelism cannot be queried).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let pool = SweepPool::new(threads);
            let out =
                pool.run(17, &SweepConfig::threads(threads), |i| Ok::<_, ()>(2 * i + 1)).unwrap();
            assert_eq!(out, (0..17).map(|i| 2 * i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let pool = SweepPool::new(4);
        let out = pool.run(0, &SweepConfig::threads(4), |_| Ok::<usize, ()>(0)).unwrap();
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(pool.sweeps(), 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = SweepPool::new(7)
            .run(100, &SweepConfig::threads(7), |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(i)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_task_cost_still_completes() {
        // One deliberately slow task must not starve the rest.
        let out = SweepPool::new(4)
            .run(32, &SweepConfig::threads(4), |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Ok::<_, ()>(i * i)
            })
            .unwrap();
        assert_eq!(out[31], 31 * 31);
    }

    #[test]
    fn task_error_aborts_and_reports_index() {
        let err = SweepPool::new(3)
            .run(64, &SweepConfig::threads(3), |i| if i == 5 { Err("boom") } else { Ok(i) })
            .unwrap_err();
        match err {
            SweepError::Task { index, error } => {
                assert_eq!(index, 5);
                assert_eq!(error, "boom");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_skips_unclaimed_tasks() {
        // With one worker the queue is strictly sequential: nothing
        // after the failing index may run.
        let calls = AtomicUsize::new(0);
        let err = SweepPool::new(1)
            .run(100, &SweepConfig::threads(1), |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err(())
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::Task { index: 3, .. }));
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_task_is_contained() {
        let err = SweepPool::new(4)
            .run(16, &SweepConfig::threads(4), |i| {
                if i == 7 {
                    panic!("poisoned")
                } else {
                    Ok::<_, ()>(i)
                }
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { .. }), "got {err:?}");
    }

    #[test]
    fn panicking_task_is_contained_on_inline_path() {
        // A single worker (or single task) runs inline on the calling
        // thread; the panic must still become WorkerPanicked there.
        let err = SweepPool::new(1)
            .run(4, &SweepConfig::threads(1), |i| {
                if i == 2 {
                    panic!("inline")
                } else {
                    Ok::<_, ()>(i)
                }
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { worker: 0 }), "got {err:?}");
        let err = SweepPool::new(2)
            .run(1, &SweepConfig::threads(2), |_| -> Result<usize, ()> { panic!("single task") })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { worker: 0 }), "got {err:?}");
    }

    #[test]
    fn panic_aborts_unclaimed_tasks() {
        // Sequential single worker: nothing after the panicking index
        // may run, mirroring error_skips_unclaimed_tasks.
        let calls = AtomicUsize::new(0);
        let err = SweepPool::new(1)
            .run(100, &SweepConfig::threads(1), |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("stop here");
                }
                Ok::<_, ()>(i)
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { .. }));
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // And the pool accepts it.
        let pool = SweepPool::new(0);
        assert_eq!(pool.workers(), resolve_threads(0));
        let out = pool.run(9, &SweepConfig::threads(0), Ok::<_, ()>).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn workspaces_are_per_worker_and_reused() {
        // Each worker owns one workspace exclusively: the per-workspace
        // tallies must sum to the task count, and a workspace pool kept
        // across sweeps accumulates (i.e. is genuinely reused).
        let pool = SweepPool::new(3);
        let mut tallies = vec![0usize; 3];
        for _round in 0..2 {
            pool.run_with(30, &mut tallies, |tally, i| {
                *tally += 1;
                Ok::<_, ()>(i)
            })
            .unwrap();
        }
        assert_eq!(tallies.iter().sum::<usize>(), 60);
    }

    #[test]
    fn worker_count_clamped_to_workspace_pool() {
        // A 4-capacity pool but 2 workspaces: only 2 workers run, and
        // the inline path handles a single workspace.
        let pool = SweepPool::new(4);
        let mut tallies = vec![0usize; 2];
        let out = pool
            .run_with(10, &mut tallies, |t, i| {
                *t += 1;
                Ok::<_, ()>(i)
            })
            .unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(tallies.iter().sum::<usize>(), 10);
        let mut one = vec![0usize];
        pool.run_with(5, &mut one, |t, i| {
            *t += 1;
            Ok::<_, ()>(i)
        })
        .unwrap();
        assert_eq!(one[0], 5);
        assert_eq!(pool.rounds(), 1, "the single-workspace sweep ran inline");
    }

    #[test]
    fn workspace_sweep_contains_panics() {
        let mut units = vec![(); 4];
        let err = SweepPool::new(4)
            .run_with(16, &mut units, |(), i| {
                if i == 7 {
                    panic!("poisoned");
                }
                Ok::<_, ()>(i)
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { .. }), "got {err:?}");
    }

    #[test]
    fn display_formats() {
        let e: SweepError<&str> = SweepError::Task { index: 2, error: "bad" };
        assert!(e.to_string().contains("task 2"));
        let e: SweepError<&str> = SweepError::WorkerPanicked { worker: 1 };
        assert!(e.to_string().contains("panicked"));
    }

    // ---- persistent pool ----

    #[test]
    fn pool_results_in_task_order_across_rounds() {
        let pool = SweepPool::new(3);
        let mut units = vec![(); pool.workers()];
        for round in 0..5usize {
            let out = pool.run_with(17, &mut units, |(), i| Ok::<_, ()>(round * 100 + i)).unwrap();
            assert_eq!(out, (0..17).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
        assert_eq!(pool.sweeps(), 5);
        assert_eq!(pool.rounds(), 5);
    }

    #[test]
    fn pool_reuses_workspaces_across_many_rounds() {
        let pool = SweepPool::new(4);
        let mut tallies = vec![0usize; 4];
        for _ in 0..50 {
            pool.run_with(40, &mut tallies, |t, i| {
                *t += 1;
                Ok::<_, ()>(i)
            })
            .unwrap();
        }
        assert_eq!(tallies.iter().sum::<usize>(), 50 * 40);
        assert_eq!(pool.rounds(), 50);
    }

    #[test]
    fn pool_inline_path_skips_round_dispatch() {
        let pool = SweepPool::new(4);
        let mut units = vec![(); 4];
        // One task (and separately one workspace) stays inline.
        pool.run_with(1, &mut units, |(), i| Ok::<_, ()>(i)).unwrap();
        pool.run_with(9, &mut units[..1], |(), i| Ok::<_, ()>(i)).unwrap();
        assert_eq!(pool.sweeps(), 2);
        assert_eq!(pool.rounds(), 0);
    }

    #[test]
    fn pool_clamps_workers_to_capacity_and_workspaces() {
        let pool = SweepPool::new(2);
        assert_eq!(pool.workers(), 2);
        // 8 workspaces on a 2-capacity pool: only the first 2 are used.
        let mut tallies = vec![0usize; 8];
        let out = pool
            .run_with(20, &mut tallies, |t, i| {
                *t += 1;
                Ok::<_, ()>(i)
            })
            .unwrap();
        assert_eq!(out.len(), 20);
        assert_eq!(tallies[..2].iter().sum::<usize>(), 20);
    }

    #[test]
    fn pool_error_aborts_and_reports_index() {
        let pool = SweepPool::new(3);
        let mut units = vec![(); 3];
        let err = pool
            .run_with(64, &mut units, |(), i| if i == 5 { Err("boom") } else { Ok(i) })
            .unwrap_err();
        assert!(matches!(err, SweepError::Task { index: 5, error: "boom" }), "got {err:?}");
    }

    #[test]
    fn pool_contains_panics_and_stays_usable() {
        let pool = SweepPool::new(3);
        let mut units = vec![(); 3];
        let err = pool
            .run_with(16, &mut units, |(), i| {
                if i == 7 {
                    panic!("poisoned");
                }
                Ok::<_, ()>(i)
            })
            .unwrap_err();
        assert!(matches!(err, SweepError::WorkerPanicked { .. }), "got {err:?}");
        // The pool survives the contained panic and runs a clean round.
        let out = pool.run_with(16, &mut units, |(), i| Ok::<_, ()>(i * 2));
        assert_eq!(out.unwrap()[15], 30);
    }

    #[test]
    fn contained_panics_counts_failed_sweeps_on_both_paths() {
        let pool = SweepPool::new(3);
        assert_eq!(pool.contained_panics(), 0);
        let mut units = vec![(); 3];
        // Pooled round with a panicking task.
        let _ = pool
            .run_with(16, &mut units, |(), i| {
                if i == 4 {
                    panic!("chaos");
                }
                Ok::<_, ()>(i)
            })
            .unwrap_err();
        assert_eq!(pool.contained_panics(), 1);
        // Inline (single-worker) sweep with a panicking task.
        let _ = pool
            .run_with(4, &mut units[..1], |(), _| -> Result<usize, ()> { panic!("inline chaos") })
            .unwrap_err();
        assert_eq!(pool.contained_panics(), 2);
        // Task *errors* are not panics and must not move the counter.
        let _ = pool
            .run_with(8, &mut units, |(), i| if i == 2 { Err("boom") } else { Ok(i) })
            .unwrap_err();
        assert_eq!(pool.contained_panics(), 2);
        // A clean sweep leaves it untouched and the pool stays healthy.
        pool.run_with(8, &mut units, |(), i| Ok::<_, ()>(i)).unwrap();
        assert_eq!(pool.contained_panics(), 2);
    }

    #[test]
    fn pool_shared_across_threads_serializes_rounds() {
        // run_with takes &self: two dispatching threads must both
        // complete correctly (rounds are serialized internally).
        let pool = SweepPool::new(2);
        let totals: Vec<usize> = thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let mut units = vec![(); 2];
                        let mut total = 0usize;
                        for _ in 0..10 {
                            let out = pool.run_with(8, &mut units, |(), i| Ok::<_, ()>(i)).unwrap();
                            total += out.iter().sum::<usize>();
                        }
                        total
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(totals, vec![280, 280]);
    }

    #[test]
    fn pool_construction_counter_is_monotonic() {
        // Other tests in this process construct pools concurrently, so
        // only a lower bound is asserted here; the exact O(1)-per-fit
        // delta is pinned in its own integration-test binary.
        let before = pool_constructions();
        let _pool = SweepPool::new(2);
        let _inline = SweepPool::new(1);
        assert!(pool_constructions() >= before + 2);
    }

    #[test]
    fn pool_run_without_workspaces() {
        let pool = SweepPool::new(3);
        let out = pool.run(9, &SweepConfig::threads(3), |i| Ok::<_, ()>(i + 1));
        assert_eq!(out.unwrap(), (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn run_width_caps_worker_slots_and_keeps_results() {
        // `run` builds `threads` unit workspaces, so a round on a
        // 4-capacity pool runs exactly that many workers (one OS thread
        // per worker slot), and the results do not depend on the width.
        // Tasks 0..cap meet at a barrier, so each is held by a distinct
        // worker until all `cap` workers have joined the round.
        let pool = SweepPool::new(4);
        let task = |i: usize| (i as f64 + 0.5).sqrt().sin().to_bits();
        let mut reference = None;
        for cap in 1..=4 {
            let (barrier, slots) = (std::sync::Barrier::new(cap), Mutex::new(Vec::new()));
            let out = pool
                .run(64, &SweepConfig::threads(cap), |i| {
                    if i < cap {
                        barrier.wait();
                    }
                    let id = thread::current().id();
                    let mut seen = lock(&slots);
                    if !seen.contains(&id) {
                        seen.push(id);
                    }
                    Ok::<_, ()>(task(i))
                })
                .unwrap();
            assert_eq!(slots.into_inner().unwrap().len(), cap, "cap {cap}: worker slots used");
            assert_eq!(out, *reference.get_or_insert_with(|| out.clone()), "cap {cap}");
        }
        assert_eq!(reference.unwrap(), (0..64).map(task).collect::<Vec<_>>());
    }

    #[test]
    fn injected_panic_fires_once_on_the_armed_pool_only() {
        let cfg = SweepConfig::threads;
        for workers in [3, 1] {
            let armed = SweepPool::new(workers);
            let bystander = SweepPool::new(workers);
            // Arming is idempotent and an empty round does not consume it.
            armed.inject_panic();
            armed.inject_panic();
            assert!(armed.run(0, &cfg(workers), Ok::<_, ()>).unwrap().is_empty());
            let calls = AtomicUsize::new(0);
            let (faulted, clean) = thread::scope(|scope| {
                let side = scope.spawn(|| {
                    (0..20)
                        .map(|_| bystander.run(16, &cfg(workers), Ok::<_, ()>))
                        .collect::<Vec<_>>()
                });
                let faulted = armed.run(16, &cfg(workers), |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, ()>(i)
                });
                (faulted, side.join().unwrap())
            });
            assert!(
                matches!(faulted, Err(SweepError::WorkerPanicked { .. })),
                "{workers} workers: got {faulted:?}"
            );
            assert_eq!(armed.contained_panics(), 1, "{workers} workers");
            if workers == 1 {
                assert_eq!(calls.load(Ordering::Relaxed), 0, "the faulted task runs first");
            }
            // A concurrently running pool never sees the fault.
            assert!(clean.iter().all(|r| r.as_ref().is_ok_and(|v| v.len() == 16)));
            assert_eq!(bystander.contained_panics(), 0);
            // The fault was consumed: the armed pool's next round is clean.
            let out = armed.run(16, &cfg(workers), |i| Ok::<_, ()>(i + 1)).unwrap();
            assert_eq!(out[15], 16);
            assert_eq!(armed.contained_panics(), 1, "{workers} workers");
        }
    }
}
