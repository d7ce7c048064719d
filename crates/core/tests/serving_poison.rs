//! Regression test for the serving worker-panic path: a panic inside a
//! pooled batch/advance round must surface as
//! `Err(ServingError::WorkerPanicked)` from the checked APIs — not
//! propagate — and the pool must stay usable for the next round.
//!
//! Lives in its own test binary: the poison switch
//! (`poison_next_group`) is process-global, so every test here
//! serializes through [`lock`] to keep armed windows from racing.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rvf_core::serving::{poison_next_group, SessionChunk};
use rvf_core::{CompiledSim, IntegratedStateFn, ServingError, SimBuilder, SimState};
use rvf_numerics::{pool_constructions, SweepPool};

static POISON_GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    POISON_GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn nonlinear_sim() -> CompiledSim {
    let mut b = SimBuilder::new();
    let zero = b.drive_poly(&[0.0]);
    b.set_static_drive(zero);
    let f = b.drive_rational(&IntegratedStateFn {
        terms: vec![],
        linear: 1.5,
        quadratic: 0.2,
        constant: 0.0,
    });
    b.block_real(-1.0e9, f);
    b.build()
}

/// One pooled [`CompiledSim::advance_chunks`] round: `states[i]`
/// absorbs `inputs[i]`, its output lands in `outs[i]`.
fn advance_round(
    sim: &CompiledSim,
    dt: f64,
    states: &mut [SimState],
    inputs: &[&[f64]],
    outs: &mut [Vec<f64>],
    pool: &SweepPool,
) -> Result<(), ServingError> {
    let mut chunks: Vec<SessionChunk<'_>> = states
        .iter_mut()
        .zip(inputs)
        .zip(outs.iter_mut())
        .map(|((state, input), out)| SessionChunk { state, input, output: out })
        .collect();
    sim.advance_chunks(dt, &mut chunks, Some(pool))
}

#[test]
fn worker_panic_surfaces_as_typed_error_and_pool_survives() {
    let _g = lock();
    let mut b = SimBuilder::new();
    let zero = b.drive_poly(&[0.0]);
    b.set_static_drive(zero);
    let f = b.drive_rational(&IntegratedStateFn {
        terms: vec![],
        linear: 1.5,
        quadratic: 0.0,
        constant: 0.0,
    });
    b.block_real(-1.0e9, f);
    let sim = b.build();

    let dt = 1.0e-10;
    let stims: Vec<Vec<f64>> = (0..12).map(|k| vec![0.05 * k as f64; 64]).collect();
    let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
    let want = sim.try_simulate_batch(dt, &refs).unwrap();

    let pool = SweepPool::new(2);

    // --- batch path ---
    poison_next_group();
    let err = sim.try_simulate_batch_in(&pool, dt, &refs).unwrap_err();
    assert!(matches!(err, ServingError::WorkerPanicked { .. }), "got {err:?}");
    // The panic was contained to that round: the same pool serves the
    // retry, and the output is the full, correct batch.
    let retry = sim.try_simulate_batch_in(&pool, dt, &refs).unwrap();
    assert_eq!(retry, want);

    // --- many-session path ---
    let mut states: Vec<SimState> = (0..12).map(|_| sim.new_state()).collect();
    let mut outs: Vec<Vec<f64>> = refs.iter().map(|u| vec![0.0; u.len()]).collect();
    poison_next_group();
    let err = advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap_err();
    assert!(matches!(err, ServingError::WorkerPanicked { .. }), "got {err:?}");
    // Transactional: nothing was applied — every session still has zero
    // absorbed samples.
    for state in &states {
        assert_eq!(state.samples(), 0);
        assert!(!state.is_started());
    }
    // Retrying on the same pool succeeds and matches the solo bits.
    advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap();
    for (i, (out, w)) in outs.iter().zip(&want).enumerate() {
        assert_eq!(out, w, "session {i}");
    }
    for (state, u) in states.iter().zip(&refs) {
        assert_eq!(state.samples(), u.len() as u64);
    }
}

/// The `advance_chunks` seam under poison, pooled and serial: a
/// panicked round commits nothing, the retry on the same pool (or the
/// same serial path) matches the one-shot simulation bit for bit, and
/// `contained_panics` counts what the pool absorbed.
#[test]
fn advance_chunks_contains_panics_on_both_paths() {
    let _g = lock();
    let sim = nonlinear_sim();
    let dt = 1.0e-10;
    let stims: Vec<Vec<f64>> = (0..5).map(|k| vec![0.07 * (k + 1) as f64; 24]).collect();
    let want: Vec<Vec<f64>> = stims.iter().map(|u| sim.simulate(dt, u)).collect();
    let pool = SweepPool::new(2);

    for pool_arg in [Some(&pool), None] {
        let mut states: Vec<SimState> =
            (0..5).map(|_| sim.session(dt).unwrap().into_state()).collect();
        let mut outs: Vec<Vec<f64>> = stims.iter().map(|u| vec![0.0; u.len()]).collect();
        let panics_before = pool.contained_panics();

        poison_next_group();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(&stims)
            .zip(outs.iter_mut())
            .map(|((state, u), out)| SessionChunk { state, input: u, output: out })
            .collect();
        let err = sim.advance_chunks(dt, &mut chunks, pool_arg).unwrap_err();
        assert!(matches!(err, ServingError::WorkerPanicked { .. }), "got {err:?}");
        drop(chunks);
        // Transactional: no state advanced.
        for state in &states {
            assert_eq!(state.samples(), 0, "panicked round committed state");
        }
        if pool_arg.is_some() {
            assert_eq!(pool.contained_panics(), panics_before + 1);
        }

        // The retry on the very same path matches the one-shot bits.
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(&stims)
            .zip(outs.iter_mut())
            .map(|((state, u), out)| SessionChunk { state, input: u, output: out })
            .collect();
        sim.advance_chunks(dt, &mut chunks, pool_arg).unwrap();
        drop(chunks);
        for ((out, w), state) in outs.iter().zip(&want).zip(&states) {
            assert_eq!(out, w);
            assert_eq!(state.samples(), 24);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Loop-until-dry chaos: keep hammering one pool with randomly
    /// poisoned `advance_chunks` rounds until three consecutive rounds stay
    /// clean (with at least eight injected panics along the way). The
    /// pool must absorb every panic without a single hidden rebuild
    /// (`pool_constructions()` stays flat) and the surviving clean
    /// rounds must stay bit-identical to the reference batch.
    #[test]
    fn repeated_poison_rounds_until_dry_keep_pool_and_bits(seed in 1u64..(1u64 << 32)) {
        let _g = lock();
        let sim = nonlinear_sim();
        let dt = 1.0e-10;
        let stims: Vec<Vec<f64>> = (0..12).map(|k| vec![0.05 * k as f64; 32]).collect();
        let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        let want = sim.try_simulate_batch(dt, &refs).unwrap();

        let pool = SweepPool::new(2);
        let constructions_before = pool_constructions();
        let mut x = seed;
        let mut injected = 0u32;
        let mut dry_streak = 0u32;
        let mut rounds = 0u32;
        while (dry_streak < 3 || injected < 8) && rounds < 200 {
            rounds += 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let poisoned = injected < 8 && x % 2 == 0;
            let mut states: Vec<SimState> = (0..12).map(|_| sim.new_state()).collect();
            let mut outs: Vec<Vec<f64>> = refs.iter().map(|u| vec![0.0; u.len()]).collect();
            if poisoned {
                injected += 1;
                dry_streak = 0;
                poison_next_group();
                let err = advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap_err();
                let is_panic = matches!(err, ServingError::WorkerPanicked { .. });
                prop_assert!(is_panic, "expected WorkerPanicked, got {:?}", err);
                // Nothing committed; an immediate retry on the same
                // pool recovers the full round.
                for state in &states {
                    prop_assert_eq!(state.samples(), 0);
                }
            } else {
                dry_streak += 1;
            }
            advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap();
            for (out, w) in outs.iter().zip(&want) {
                for (a, b) in out.iter().zip(w) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        prop_assert!(injected >= 8, "storm never got its panic quota ({injected})");
        prop_assert!(dry_streak >= 3, "storm never went dry (rounds {rounds})");
        prop_assert_eq!(
            pool_constructions(),
            constructions_before,
            "panic containment must not rebuild pools behind the caller's back"
        );
        prop_assert_eq!(pool.contained_panics(), injected as u64);
    }
}
