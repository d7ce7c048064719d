//! Shared fixtures of the parallel-fit suites: a real diode-clipper TFT
//! dataset, its state-axis trajectories, and bit-identity asserts.

use rvf::circuit::{diode_clipper, Waveform};
use rvf::numerics::Complex;
use rvf::tft::{extract_from_circuit, TftConfig, TftDataset};
use rvf::vecfit::{PoleEntry, RationalModel, VfFit};

pub fn clipper_dataset() -> TftDataset {
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

/// Real-axis trajectories of the dataset: the state samples, and the
/// static gain and a fixed-frequency magnitude over them.
pub fn state_axis(ds: &TftDataset) -> (Vec<Complex>, Vec<Vec<Complex>>) {
    let xs: Vec<Complex> = ds.states().iter().map(|&x| Complex::from_re(x)).collect();
    let g0: Vec<Complex> = ds.samples.iter().map(|s| Complex::from_re(s.h0.re)).collect();
    let gm: Vec<Complex> =
        ds.samples.iter().map(|s| Complex::from_re(s.h[ds.n_freqs() / 2].abs())).collect();
    (xs, vec![g0, gm])
}

/// Bitwise equality of two rational models: every pole, residue, and
/// constant term must match down to the last mantissa bit.
pub fn assert_models_bit_identical(a: &RationalModel, b: &RationalModel, what: &str) {
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

/// Bitwise equality of two fits: the model plus every diagnostic.
pub fn assert_fits_bit_identical(a: &VfFit, b: &VfFit, what: &str) {
    assert_models_bit_identical(&a.model, &b.model, what);
    assert_eq!(a.rms_error.to_bits(), b.rms_error.to_bits(), "{what}: rms error");
    assert_eq!(a.iterations_run, b.iterations_run, "{what}: iterations");
    assert_eq!(
        a.final_displacement.to_bits(),
        b.final_displacement.to_bits(),
        "{what}: final displacement"
    );
}
