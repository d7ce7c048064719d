//! Deterministic, seeded fault injection for the serving tier.
//!
//! The chaos harness is a *test seam*, compiled unconditionally so the
//! bench suite can drive faulted load in release mode. It produces
//! faults from a seeded xorshift generator — same seed, same fault
//! sequence, every run, every machine — which is what lets the chaos
//! proptests assert **bit-identical** recovery (`f64` `==`, not
//! tolerances) after every injected failure.
//!
//! Five fault classes mirror the failure modes the scheduler must
//! absorb:
//!
//! * [`Fault::WorkerPanic`] — the next batch round of one scheduler
//!   panics inside a worker ([`arm_worker_panic`] arms the one-shot
//!   fault seam of that scheduler's pool).
//! * [`Fault::BadStimulus`] — a NaN/∞ sample is written into the chunk
//!   ([`ChaosInjector::corrupt`]), exercising admission-time rejection.
//! * [`Fault::OversizedChunk`] — the chunk is inflated past the
//!   configured cap, exercising `ChunkTooLarge` shedding.
//! * [`Fault::CloseSession`] — the client disappears mid-stream,
//!   exercising queue purging and slot reuse.
//! * [`Fault::CrashKill`] — the whole scheduler process dies (the
//!   harness drops it, losing responses in flight) and is rebuilt from
//!   its last [`snapshot`](crate::Scheduler::snapshot), exercising the
//!   durability layer's restore-then-replay bit-identity guarantee.
//! * [`Fault::PrimaryKillLagged`] — the primary of a replicated pair
//!   dies with the standby `lag` deltas behind the tip of the
//!   replication log; the harness promotes the
//!   [`Follower`](crate::replica::Follower) from the truncated log,
//!   resubmits unacknowledged work, and asserts the client-visible
//!   streams stay bit-identical to an uninterrupted run.

use crate::Scheduler;

/// One injected fault, drawn by [`ChaosInjector::sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic a worker during the next batch round.
    WorkerPanic,
    /// Corrupt a stimulus sample to NaN or ±∞ before submitting.
    BadStimulus,
    /// Inflate the chunk past the per-request sample cap.
    OversizedChunk,
    /// Close the session mid-stream, abandoning its queued work.
    CloseSession,
    /// Kill the scheduler (process crash) and restore it from its last
    /// snapshot, resubmitting whatever was in flight.
    CrashKill,
    /// Kill the primary of a replicated pair with the follower `lag`
    /// deltas behind the log tip, then promote the follower and
    /// resubmit unacknowledged work.
    PrimaryKillLagged {
        /// How many committed deltas the follower is missing when the
        /// primary dies (0 = fully caught up).
        lag: u32,
    },
}

/// Fault rates in permille (0–1000), checked in declaration order; the
/// first one that fires wins for that draw.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed of the deterministic generator.
    pub seed: u64,
    /// Permille chance of [`Fault::WorkerPanic`] per draw.
    pub worker_panic_permille: u16,
    /// Permille chance of [`Fault::BadStimulus`] per draw.
    pub bad_stimulus_permille: u16,
    /// Permille chance of [`Fault::OversizedChunk`] per draw.
    pub oversized_chunk_permille: u16,
    /// Permille chance of [`Fault::CloseSession`] per draw.
    pub close_session_permille: u16,
    /// Permille chance of [`Fault::CrashKill`] per draw.
    pub crash_kill_permille: u16,
    /// Permille chance of [`Fault::PrimaryKillLagged`] per draw.
    pub primary_kill_permille: u16,
    /// Upper bound (inclusive) on the follower lag drawn for each
    /// [`Fault::PrimaryKillLagged`].
    pub primary_kill_max_lag: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_f17e,
            worker_panic_permille: 0,
            bad_stimulus_permille: 0,
            oversized_chunk_permille: 0,
            close_session_permille: 0,
            crash_kill_permille: 0,
            primary_kill_permille: 0,
            primary_kill_max_lag: 0,
        }
    }
}

impl ChaosConfig {
    /// A config injecting every single-process fault class at
    /// `permille` each. [`Fault::PrimaryKillLagged`] stays off — it
    /// only makes sense for harnesses driving a replicated pair; opt
    /// in with [`with_primary_kill`](Self::with_primary_kill).
    pub fn uniform(seed: u64, permille: u16) -> Self {
        Self {
            seed,
            worker_panic_permille: permille,
            bad_stimulus_permille: permille,
            oversized_chunk_permille: permille,
            close_session_permille: permille,
            crash_kill_permille: permille,
            primary_kill_permille: 0,
            primary_kill_max_lag: 0,
        }
    }

    /// Enables [`Fault::PrimaryKillLagged`] at `permille` per draw with
    /// follower lags drawn uniformly from `0..=max_lag`.
    pub fn with_primary_kill(mut self, permille: u16, max_lag: u32) -> Self {
        self.primary_kill_permille = permille;
        self.primary_kill_max_lag = max_lag;
        self
    }
}

/// Deterministic fault source (xorshift64*). Two injectors built from
/// the same [`ChaosConfig`] produce identical fault sequences.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    x: u64,
    cfg: ChaosConfig,
}

impl ChaosInjector {
    /// Builds an injector from `cfg` (the zero seed is remapped so the
    /// generator never sticks).
    pub fn new(cfg: ChaosConfig) -> Self {
        Self { x: if cfg.seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { cfg.seed }, cfg }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.x;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.x = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn roll(&mut self, permille: u16) -> bool {
        permille > 0 && self.next() % 1000 < permille as u64
    }

    /// Draws at most one fault for the next operation, in the fixed
    /// order panic → stimulus → oversize → close → crash → primary
    /// kill.
    pub fn sample(&mut self) -> Option<Fault> {
        if self.roll(self.cfg.worker_panic_permille) {
            Some(Fault::WorkerPanic)
        } else if self.roll(self.cfg.bad_stimulus_permille) {
            Some(Fault::BadStimulus)
        } else if self.roll(self.cfg.oversized_chunk_permille) {
            Some(Fault::OversizedChunk)
        } else if self.roll(self.cfg.close_session_permille) {
            Some(Fault::CloseSession)
        } else if self.roll(self.cfg.crash_kill_permille) {
            Some(Fault::CrashKill)
        } else if self.roll(self.cfg.primary_kill_permille) {
            let lag = self.pick(self.cfg.primary_kill_max_lag as usize + 1) as u32;
            Some(Fault::PrimaryKillLagged { lag })
        } else {
            None
        }
    }

    /// A deterministic index in `0..n` (`0` when `n == 0`).
    pub fn pick(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }

    /// Overwrites one sample of `chunk` with NaN, `+∞`, or `-∞`,
    /// returning the corrupted index (`None` for an empty chunk).
    pub fn corrupt(&mut self, chunk: &mut [f64]) -> Option<usize> {
        if chunk.is_empty() {
            return None;
        }
        let index = self.pick(chunk.len());
        chunk[index] = match self.next() % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        Some(index)
    }
}

/// Arms the one-shot fault seam of `sched`'s current pool: the next
/// batch round `sched` runs (pooled or degraded) panics inside a
/// worker, exactly once. Other schedulers are unaffected, so harnesses
/// driving several schedulers need no serialization.
pub fn arm_worker_panic(sched: &Scheduler) {
    sched.pool().inject_panic();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let cfg = ChaosConfig::uniform(42, 250);
        let mut a = ChaosInjector::new(cfg);
        let mut b = ChaosInjector::new(cfg);
        let sa: Vec<_> = (0..256).map(|_| a.sample()).collect();
        let sb: Vec<_> = (0..256).map(|_| b.sample()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|f| f.is_some()), "25% per class must fire in 256 draws");
        assert!(sa.iter().any(|f| f.is_none()));
    }

    #[test]
    fn primary_kill_is_opt_in_and_bounds_its_lag() {
        // uniform() keeps the replicated-pair fault off.
        let mut inj = ChaosInjector::new(ChaosConfig::uniform(11, 400));
        assert!((0..512)
            .filter_map(|_| inj.sample())
            .all(|f| !matches!(f, Fault::PrimaryKillLagged { .. })));
        // with_primary_kill draws lags in 0..=max_lag, hitting both ends.
        let cfg = ChaosConfig::default().with_primary_kill(1000, 4);
        let mut inj = ChaosInjector::new(ChaosConfig { seed: 3, ..cfg });
        let lags: Vec<u32> = (0..256)
            .filter_map(|_| match inj.sample() {
                Some(Fault::PrimaryKillLagged { lag }) => Some(lag),
                _ => None,
            })
            .collect();
        assert_eq!(lags.len(), 256, "permille 1000 fires every draw");
        assert!(lags.iter().all(|&lag| lag <= 4));
        assert!(lags.contains(&0) && lags.contains(&4));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = ChaosInjector::new(ChaosConfig::default());
        assert!((0..1000).all(|_| inj.sample().is_none()));
    }

    #[test]
    fn corrupt_places_one_non_finite_sample() {
        let mut inj = ChaosInjector::new(ChaosConfig::uniform(7, 0));
        let mut chunk = vec![0.5; 32];
        let idx = inj.corrupt(&mut chunk).unwrap();
        assert!(!chunk[idx].is_finite());
        assert_eq!(chunk.iter().filter(|v| !v.is_finite()).count(), 1);
        assert_eq!(inj.corrupt(&mut []), None);
        assert_eq!(inj.pick(0), 0);
        assert!(inj.pick(5) < 5);
    }
}
