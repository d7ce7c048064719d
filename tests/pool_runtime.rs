//! Pins the behaviour of the persistent sweep-pool runtime at the
//! fitting layer: one borrowed pool serves fits of every round width
//! bit-identically to the serial fit on a real diode-clipper TFT
//! dataset, one pool serves consecutive fits without re-spawning, and a
//! panicking worker is contained without poisoning the pool.

mod common;

use common::{assert_fits_bit_identical, assert_models_bit_identical, clipper_dataset, state_axis};
use rvf::numerics::{SweepError, SweepPool};
use rvf::vecfit::{fit, fit_in, VfOptions};

#[test]
fn pooled_fit_is_bitwise_equal_to_serial_for_every_worker_count() {
    let ds = clipper_dataset();
    let s_grid = ds.s_grid();
    let responses = ds.dynamic_responses();
    assert!(responses.len() >= 16, "want a real many-response workload");
    let opts = VfOptions::frequency(6).with_iterations(6);
    // One borrowed 4-capacity pool serves every fit. A round runs
    // min(capacity, K) workers, so K = 1..4 runs 1..4 workers and the
    // full dataset runs the whole pool.
    let pool = SweepPool::new(4);
    for k in [1, 2, 3, 4, responses.len()] {
        let data = &responses[..k];
        let serial = fit(&s_grid, data, &opts).unwrap();
        let pooled = fit_in(&pool, &s_grid, data, &opts, None).unwrap();
        assert_fits_bit_identical(&serial, &pooled, &format!("shared pool, K = {k}"));
    }
}

#[test]
fn one_pool_serves_consecutive_fits_on_both_axes() {
    let ds = clipper_dataset();
    let pool = SweepPool::new(2);
    let sweeps_start = pool.sweeps();

    // Fit 1: frequency axis, parallel.
    let s_grid = ds.s_grid();
    let responses = ds.dynamic_responses();
    let opts_f = VfOptions::frequency(6).with_iterations(4);
    let f1 = fit_in(&pool, &s_grid, &responses, &opts_f, None).unwrap();
    let f1_fresh = fit(&s_grid, &responses, &opts_f).unwrap();
    assert_models_bit_identical(&f1.model, &f1_fresh.model, "fit 1 vs fresh-pool fit");

    // Fit 2 on the same pool: real axis (state trajectories).
    let (xs, data) = state_axis(&ds);
    let opts_s = VfOptions::state(6).with_iterations(4);
    let f2 = fit_in(&pool, &xs, &data, &opts_s, None).unwrap();
    let f2_fresh = fit(&xs, &data, &opts_s).unwrap();
    assert_models_bit_identical(&f2.model, &f2_fresh.model, "fit 2 vs fresh-pool fit");

    // Both fits actually ran their sweeps on this pool: one sweep per
    // relocation round plus one for residue identification, per fit.
    let expected = (f1.iterations_run + 1 + f2.iterations_run + 1) as u64;
    assert_eq!(pool.sweeps() - sweeps_start, expected);
}

#[test]
fn worker_panic_is_contained_and_pool_survives() {
    let pool = SweepPool::new(3);
    let mut units = vec![(); 3];
    let err = pool
        .run_with(24, &mut units, |(), i| {
            if i == 11 {
                panic!("poisoned task");
            }
            Ok::<_, ()>(i)
        })
        .unwrap_err();
    assert!(matches!(err, SweepError::WorkerPanicked { .. }), "got {err:?}");
    // The contained panic must not wedge or poison the pool: the next
    // round completes normally on the same workers.
    let out = pool.run_with(24, &mut units, |(), i| Ok::<_, ()>(i * i)).unwrap();
    assert_eq!(out[23], 23 * 23);
}
