//! Pins the tentpole determinism guarantee of the parallel fitting
//! layer: a vector fit is **bit-identical** for every worker count,
//! serial (`threads = 1`), explicit multi-worker, and auto (`threads =
//! 0`), on both fitting axes of the pipeline — verified on a real
//! diode-clipper transfer-function-trajectory dataset, not synthetic
//! data.

use rvf::circuit::{diode_clipper, Waveform};
use rvf::numerics::Complex;
use rvf::tft::{extract_from_circuit, TftConfig, TftDataset};
use rvf::vecfit::{fit, PoleEntry, RationalModel, VfOptions};

fn clipper_dataset() -> TftDataset {
    let mut ckt = diode_clipper(Waveform::Sine {
        offset: 0.0,
        amplitude: 1.5,
        freq_hz: 1.0e5,
        phase_rad: 0.0,
        delay: 0.0,
    });
    let cfg = TftConfig {
        f_min_hz: 1.0e3,
        f_max_hz: 1.0e8,
        n_freqs: 30,
        t_train: 1.0e-5,
        steps: 400,
        n_snapshots: 40,
        embed_depth: 1,
        threads: 2,
    };
    let (ds, _) = extract_from_circuit(&mut ckt, &cfg).unwrap();
    ds
}

/// Bitwise equality of two rational models: every pole, residue, and
/// constant/linear term must match down to the last mantissa bit.
fn assert_models_bit_identical(a: &RationalModel, b: &RationalModel, what: &str) {
    let (pa, pb) = (a.poles().entries(), b.poles().entries());
    assert_eq!(pa.len(), pb.len(), "{what}: pole entry count");
    for (x, y) in pa.iter().zip(pb) {
        match (x, y) {
            (PoleEntry::Real(p), PoleEntry::Real(q)) => {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}: real pole {p} vs {q}");
            }
            (PoleEntry::Pair(p), PoleEntry::Pair(q)) => {
                assert_eq!(p.re.to_bits(), q.re.to_bits(), "{what}: pair re {p:?} vs {q:?}");
                assert_eq!(p.im.to_bits(), q.im.to_bits(), "{what}: pair im {p:?} vs {q:?}");
            }
            other => panic!("{what}: pole structure differs: {other:?}"),
        }
    }
    assert_eq!(a.terms().len(), b.terms().len(), "{what}: response count");
    for (k, (ta, tb)) in a.terms().iter().zip(b.terms()).enumerate() {
        for (ra, rb) in ta.residues.0.iter().zip(&tb.residues.0) {
            assert_eq!(ra.re.to_bits(), rb.re.to_bits(), "{what}: residue re, response {k}");
            assert_eq!(ra.im.to_bits(), rb.im.to_bits(), "{what}: residue im, response {k}");
        }
        assert_eq!(ta.d.to_bits(), tb.d.to_bits(), "{what}: d term, response {k}");
    }
}

#[test]
fn parallel_frequency_fit_is_bitwise_equal_to_serial() {
    let ds = clipper_dataset();
    let s_grid = ds.s_grid();
    let responses = ds.dynamic_responses();
    assert!(responses.len() >= 16, "want a real many-response workload");

    let serial =
        fit(&s_grid, &responses, &VfOptions::frequency(6).with_iterations(6).with_threads(1))
            .unwrap();
    for threads in [2, 4, 0] {
        let par = fit(
            &s_grid,
            &responses,
            &VfOptions::frequency(6).with_iterations(6).with_threads(threads),
        )
        .unwrap();
        assert_models_bit_identical(
            &serial.model,
            &par.model,
            &format!("frequency axis, threads={threads}"),
        );
        assert_eq!(serial.rms_error.to_bits(), par.rms_error.to_bits());
        assert_eq!(serial.iterations_run, par.iterations_run);
        assert_eq!(serial.final_displacement.to_bits(), par.final_displacement.to_bits());
    }
}

#[test]
fn parallel_state_fit_is_bitwise_equal_to_serial() {
    // Real-axis trajectories from the same dataset: the static gain and
    // a fixed-frequency magnitude over the state variable.
    let ds = clipper_dataset();
    let xs: Vec<Complex> = ds.states().iter().map(|&x| Complex::from_re(x)).collect();
    let g0: Vec<Complex> = ds.samples.iter().map(|s| Complex::from_re(s.h0.re)).collect();
    let gm: Vec<Complex> =
        ds.samples.iter().map(|s| Complex::from_re(s.h[ds.n_freqs() / 2].abs())).collect();
    let data = vec![g0, gm];

    let serial = fit(&xs, &data, &VfOptions::state(6).with_iterations(6).with_threads(1)).unwrap();
    for threads in [2, 4] {
        let par =
            fit(&xs, &data, &VfOptions::state(6).with_iterations(6).with_threads(threads)).unwrap();
        assert_models_bit_identical(
            &serial.model,
            &par.model,
            &format!("state axis, threads={threads}"),
        );
        assert_eq!(serial.rms_error.to_bits(), par.rms_error.to_bits());
    }
}
