//! Pins the O(1)-spawn contract of the sweep-pool runtime: a fit with R
//! relocation rounds performs exactly one pool construction, and a
//! stage growth loop over several pole counts still performs exactly
//! one.
//!
//! `rvf::numerics::pool_constructions()` is a process-global counter,
//! so these assertions live in their own test binary and in a single
//! `#[test]` — parallel tests constructing pools elsewhere in the same
//! process would race the deltas.

use rvf::model::{fit_state_stage, RvfOptions};
use rvf::numerics::{c, jw_grid, logspace, pool_constructions, Complex};
use rvf::vecfit::{fit, VfOptions};

/// Synthetic multi-response frequency data (16 responses), rich
/// enough to keep relocation busy.
fn synth_frequency_data() -> (Vec<Complex>, Vec<Vec<Complex>>) {
    let samples = jw_grid(&logspace(0.0, 6.0, 60));
    let poles = [c(-10.0, 2.0e3), c(-10.0, -2.0e3), c(-3.0e3, 4.0e5), c(-3.0e3, -4.0e5)];
    let data = (0..16)
        .map(|k| {
            let x = k as f64 / 15.0;
            samples
                .iter()
                .map(|&s| {
                    poles
                        .iter()
                        .enumerate()
                        .map(|(i, &a)| {
                            let r = c(1.0e3 * (1.0 + x), 2.0e2 * x * (i as f64 + 1.0));
                            let r = if a.im < 0.0 { r.conj() } else { r };
                            r * (s - a).inv()
                        })
                        .sum()
                })
                .collect()
        })
        .collect();
    (samples, data)
}

#[test]
fn fits_and_stage_loops_construct_exactly_one_pool() {
    let (samples, data) = synth_frequency_data();

    // A single fit with R relocation rounds: exactly one construction
    // (a one-worker pool whose rounds run inline), however many rounds
    // run.
    let opts = VfOptions::frequency(4).with_iterations(6);
    let before = pool_constructions();
    let f = fit(&samples, &data, &opts).unwrap();
    assert!(f.iterations_run >= 2, "want a multi-round fit, got {}", f.iterations_run);
    assert_eq!(
        pool_constructions() - before,
        1,
        "a fit must construct exactly one sweep pool (R = {} rounds)",
        f.iterations_run
    );

    // A whole stage growth loop (several pole counts, each a full fit
    // with several rounds): still exactly one construction.
    let states: Vec<f64> = (0..60).map(|i| i as f64 / 59.0).collect();
    let t1: Vec<f64> = states.iter().map(|&x| 1.0 / (1.0 + 16.0 * (x - 0.5) * (x - 0.5))).collect();
    let t2: Vec<f64> =
        states.iter().map(|&x| (x - 0.5) / (1.0 + 16.0 * (x - 0.5) * (x - 0.5))).collect();
    let stage_opts = RvfOptions { epsilon: 1e-6, threads: 2, ..Default::default() };
    let before = pool_constructions();
    let stage = fit_state_stage(&states, &[t1, t2], 1.0, &stage_opts).unwrap();
    assert!(stage.relocation_rounds >= 2, "want a multi-round stage");
    assert_eq!(
        pool_constructions() - before,
        1,
        "a stage growth loop must construct exactly one sweep pool ({} rounds, {} poles)",
        stage.relocation_rounds,
        stage.n_poles
    );
}
