//! Pins the behaviour of the persistent sweep-pool runtime at the
//! fitting layer: a pooled parallel fit is **bit-identical** to the
//! serial one on a real diode-clipper TFT dataset for every worker
//! count, one pool serves consecutive fits without re-spawning, and a
//! panicking worker is contained without poisoning the pool.

use rvf::circuit::{diode_clipper, Waveform};
use rvf::numerics::{Complex, SweepConfig, SweepError, SweepPool};
use rvf::tft::{extract_from_circuit, TftConfig, TftDataset};
use rvf::vecfit::{fit, fit_in, PoleEntry, RationalModel, VfOptions};

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
fn pooled_fit_is_bitwise_equal_to_serial_for_every_worker_count() {
    let ds = clipper_dataset();
    let s_grid = ds.s_grid();
    let responses = ds.dynamic_responses();
    assert!(responses.len() >= 16, "want a real many-response workload");

    // Reference: plain serial fit (its internal pool resolves to the
    // inline path).
    let serial =
        fit(&s_grid, &responses, &VfOptions::frequency(6).with_iterations(6).with_threads(1))
            .unwrap();
    // One borrowed 4-capacity pool serves fits at every requested
    // worker count — the round's effective workers clamp to the pool.
    let pool = SweepPool::new(4);
    for threads in [1, 2, 4, 0] {
        let pooled = fit_in(
            &pool,
            &s_grid,
            &responses,
            &VfOptions::frequency(6).with_iterations(6).with_threads(threads),
            None,
        )
        .unwrap();
        assert_models_bit_identical(
            &serial.model,
            &pooled.model,
            &format!("pooled frequency fit, threads={threads}"),
        );
        assert_eq!(serial.rms_error.to_bits(), pooled.rms_error.to_bits());
        assert_eq!(serial.iterations_run, pooled.iterations_run);
        assert_eq!(serial.final_displacement.to_bits(), pooled.final_displacement.to_bits());
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
    let opts_f = VfOptions::frequency(6).with_iterations(4).with_threads(2);
    let f1 = fit_in(&pool, &s_grid, &responses, &opts_f, None).unwrap();
    let f1_fresh = fit(&s_grid, &responses, &opts_f).unwrap();
    assert_models_bit_identical(&f1.model, &f1_fresh.model, "fit 1 vs fresh-pool fit");

    // Fit 2 on the same pool: real axis (state trajectories).
    let xs: Vec<Complex> = ds.states().iter().map(|&x| Complex::from_re(x)).collect();
    let g0: Vec<Complex> = ds.samples.iter().map(|s| Complex::from_re(s.h0.re)).collect();
    let gm: Vec<Complex> =
        ds.samples.iter().map(|s| Complex::from_re(s.h[ds.n_freqs() / 2].abs())).collect();
    let data = vec![g0, gm];
    let opts_s = VfOptions::state(6).with_iterations(4).with_threads(2);
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
        .run_with(24, &SweepConfig::threads(3), &mut units, |(), i| {
            if i == 11 {
                panic!("poisoned task");
            }
            Ok::<_, ()>(i)
        })
        .unwrap_err();
    assert!(matches!(err, SweepError::WorkerPanicked { .. }), "got {err:?}");
    // The contained panic must not wedge or poison the pool: the next
    // round completes normally on the same workers.
    let out = pool
        .run_with(24, &SweepConfig::threads(3), &mut units, |(), i| Ok::<_, ()>(i * i))
        .unwrap();
    assert_eq!(out[23], 23 * 23);
}
