//! Pins the determinism guarantee of the parallel fitting layer: a
//! vector fit is **bit-identical** for every pool width, one worker,
//! explicit multi-worker, and auto (`0`, one worker per core), on both
//! fitting axes of the pipeline — verified on a real diode-clipper
//! transfer-function-trajectory dataset, not synthetic data.

mod common;

use common::{assert_fits_bit_identical, clipper_dataset, state_axis};
use rvf::numerics::{Complex, SweepPool};
use rvf::vecfit::{fit, fit_in, VfOptions};

/// Fits `data` through `fit_in` on a fresh pool of each width and
/// compares every fit bit for bit with `fit`, which runs one worker.
fn assert_width_independent(
    axis: &str,
    samples: &[Complex],
    data: &[Vec<Complex>],
    opts: &VfOptions,
) {
    let serial = fit(samples, data, opts).unwrap();
    for width in [1, 2, 3, 4, 0] {
        let pooled = fit_in(&SweepPool::new(width), samples, data, opts, None).unwrap();
        assert_fits_bit_identical(&serial, &pooled, &format!("{axis} axis, width {width}"));
    }
}

#[test]
fn parallel_frequency_fit_is_bitwise_equal_to_serial() {
    let ds = clipper_dataset();
    let responses = ds.dynamic_responses();
    assert!(responses.len() >= 16, "want a real many-response workload");
    let opts = VfOptions::frequency(6).with_iterations(6);
    assert_width_independent("frequency", &ds.s_grid(), &responses, &opts);
}

#[test]
fn parallel_state_fit_is_bitwise_equal_to_serial() {
    let ds = clipper_dataset();
    let (xs, data) = state_axis(&ds);
    assert_width_independent("state", &xs, &data, &VfOptions::state(6).with_iterations(6));
}
