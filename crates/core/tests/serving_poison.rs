//! Regression test for the serving worker-panic path: a panic inside a
//! pooled `advance_chunks` round must surface as
//! `Err(ServingError::WorkerPanicked)` from the checked APIs — not
//! propagate — and the pool must stay usable for the next round.
//!
//! Panics are injected through the pool's own fault seam
//! ([`SweepPool::inject_panic`]), which arms one pool and nothing else,
//! so these tests run in parallel. The loop-until-dry storm, which pins
//! the process-global `pool_constructions()` counter, lives in its own
//! binary (`serving_poison_pool_count.rs`).

use rvf_core::serving::SessionChunk;
use rvf_core::{CompiledSim, ServingError, SimBuilder, SimState, StateFn};
use rvf_numerics::SweepPool;

fn nonlinear_sim() -> CompiledSim {
    let mut b = SimBuilder::new();
    let zero = b.drive_poly(&[0.0]);
    b.set_static_drive(zero);
    let f = b.drive_poly(&[0.0, 1.5, 0.1]);
    b.block_real(-1.0e9, f);
    b.try_build().expect("valid wiring")
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
    let mut b = SimBuilder::new();
    let zero = b.drive_poly(&[0.0]);
    b.set_static_drive(zero);
    let f = b.drive_rational(&StateFn { terms: vec![], linear: 1.5, constant: 0.0 });
    b.block_real(-1.0e9, f);
    let sim = b.try_build().expect("valid wiring");

    let dt = 1.0e-10;
    let stims: Vec<Vec<f64>> = (0..12).map(|k| vec![0.05 * k as f64; 64]).collect();
    let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
    let want: Vec<Vec<f64>> = refs.iter().map(|u| sim.simulate(dt, u)).collect();

    let pool = SweepPool::new(2);
    let mut states: Vec<SimState> = (0..12).map(|_| sim.new_state()).collect();
    let mut outs: Vec<Vec<f64>> = refs.iter().map(|u| vec![0.0; u.len()]).collect();
    pool.inject_panic();
    let err = advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap_err();
    assert!(matches!(err, ServingError::WorkerPanicked { .. }), "got {err:?}");
    // Transactional: nothing was applied — every session still has zero
    // absorbed samples.
    for state in &states {
        assert_eq!(state.samples(), 0);
        assert!(!state.is_started());
    }
    // The panic was contained to that round: the same pool serves the
    // retry, and the output matches the solo bits.
    advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap();
    for (i, (out, w)) in outs.iter().zip(&want).enumerate() {
        assert_eq!(out, w, "session {i}");
    }
    for (state, u) in states.iter().zip(&refs) {
        assert_eq!(state.samples(), u.len() as u64);
    }
}

/// The `advance_chunks` seam under poison, pooled and serial (a
/// one-worker pool): a panicked round commits nothing, the retry on the
/// same pool matches the one-shot simulation bit for bit, and
/// `contained_panics` counts what the pool absorbed.
#[test]
fn advance_chunks_contains_panics_on_both_paths() {
    let sim = nonlinear_sim();
    let dt = 1.0e-10;
    let stims: Vec<Vec<f64>> = (0..5).map(|k| vec![0.07 * (k + 1) as f64; 24]).collect();
    let want: Vec<Vec<f64>> = stims.iter().map(|u| sim.simulate(dt, u)).collect();
    let pooled = SweepPool::new(2);
    let serial = SweepPool::new(1);

    for pool in [&pooled, &serial] {
        let mut states: Vec<SimState> = (0..5).map(|_| sim.new_state()).collect();
        let mut outs: Vec<Vec<f64>> = stims.iter().map(|u| vec![0.0; u.len()]).collect();
        let panics_before = pool.contained_panics();

        pool.inject_panic();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(&stims)
            .zip(outs.iter_mut())
            .map(|((state, u), out)| SessionChunk { state, input: u, output: out })
            .collect();
        let err = sim.advance_chunks(dt, &mut chunks, Some(pool)).unwrap_err();
        assert!(matches!(err, ServingError::WorkerPanicked { .. }), "got {err:?}");
        drop(chunks);
        // Transactional: no state advanced.
        for state in &states {
            assert_eq!(state.samples(), 0, "panicked round committed state");
        }
        assert_eq!(pool.contained_panics(), panics_before + 1);

        // The retry on the very same path matches the one-shot bits.
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(&stims)
            .zip(outs.iter_mut())
            .map(|((state, u), out)| SessionChunk { state, input: u, output: out })
            .collect();
        sim.advance_chunks(dt, &mut chunks, Some(pool)).unwrap();
        drop(chunks);
        for ((out, w), state) in outs.iter().zip(&want).zip(&states) {
            assert_eq!(out, w);
            assert_eq!(state.samples(), 24);
        }
    }
}
