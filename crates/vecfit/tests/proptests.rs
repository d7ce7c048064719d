//! Property-based tests: vector fitting recovers randomly generated
//! stable systems, and its invariants hold for arbitrary valid inputs.

use proptest::prelude::*;
use rvf_numerics::{c, jw_grid, linspace, logspace, Complex};
use rvf_vecfit::{fit_single, VfOptions};

fn pf(poles: &[Complex], residues: &[Complex], s: Complex) -> Complex {
    poles.iter().zip(residues).map(|(&a, &r)| r * (s - a).inv()).sum()
}

/// Strategy: a random stable system of one real pole and one complex
/// pair with bounded residues.
fn stable_system() -> impl Strategy<Value = (Vec<Complex>, Vec<Complex>)> {
    (
        0.5..50.0f64, // real pole magnitude
        0.1..20.0f64, // pair damping
        5.0..80.0f64, // pair frequency
        -5.0..5.0f64, // real residue
        -3.0..3.0f64, // pair residue re
        -3.0..3.0f64, // pair residue im
    )
        .prop_map(|(pr, sg, om, r0, rr, ri)| {
            let poles = vec![c(-pr, 0.0), c(-sg, om), c(-sg, -om)];
            let residues = vec![c(r0, 0.0), c(rr, ri), c(rr, -ri)];
            (poles, residues)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovers_random_stable_systems((poles, residues) in stable_system()) {
        // Avoid residues that vanish (unidentifiable poles).
        prop_assume!(residues[0].abs() > 0.05 && residues[1].abs() > 0.05);
        let samples = jw_grid(&logspace(-1.0, 2.2, 100));
        let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, s)).collect();
        let scale = data.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        prop_assume!(scale > 1e-3);
        let fit = fit_single(&samples, &data, &VfOptions::frequency(3).with_iterations(12)).unwrap();
        prop_assert!(fit.rms_error < 1e-6 * scale.max(1.0),
            "rms {} for poles {poles:?}", fit.rms_error);
        prop_assert!(fit.model.poles().is_stable());
    }

    #[test]
    fn fitted_model_is_hermitian(seed in 0u64..1000) {
        // Any fitted model must satisfy H(s*) = H(s)* by construction.
        let poles = vec![c(-1.0 - (seed % 7) as f64, 10.0), c(-1.0 - (seed % 7) as f64, -10.0)];
        let residues = vec![c(1.0, 0.3), c(1.0, -0.3)];
        let samples = jw_grid(&linspace(0.5, 30.0, 60));
        let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, s)).collect();
        let fit = fit_single(&samples, &data, &VfOptions::frequency(2)).unwrap();
        let s = c(0.0, 3.7 + (seed % 13) as f64);
        let a = fit.model.eval(0, s);
        let b = fit.model.eval(0, s.conj());
        prop_assert!((a.conj() - b).abs() < 1e-10 * a.abs().max(1.0));
    }

    #[test]
    fn real_axis_fit_stays_real(width in 0.2..3.0f64, shift in -0.5..0.5f64) {
        // Random bump function on the real axis; fitted model must be
        // real-valued on the axis and pole-free on it.
        let xs: Vec<Complex> = linspace(-1.0, 1.0, 61).into_iter().map(Complex::from_re).collect();
        let data: Vec<Complex> = xs
            .iter()
            .map(|x| Complex::from_re(1.0 / (1.0 + width * (x.re - shift).powi(2))))
            .collect();
        let fit = fit_single(&xs, &data, &VfOptions::state(6).with_iterations(10)).unwrap();
        for &x in &xs {
            let v = fit.model.eval(0, x);
            prop_assert!(v.im.abs() < 1e-8, "imaginary leak {v:?}");
            prop_assert!(v.is_finite());
        }
        for p in fit.model.poles().to_complex() {
            prop_assert!(p.im.abs() > 1e-9, "pole on the real axis: {p:?}");
        }
    }

    #[test]
    fn rms_error_is_measured_not_invented(extra_poles in 1usize..4) {
        // The reported rms must match an independent recomputation.
        let poles = vec![c(-2.0, 15.0), c(-2.0, -15.0)];
        let residues = vec![c(1.0, 1.0), c(1.0, -1.0)];
        let samples = jw_grid(&linspace(1.0, 40.0, 50));
        let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, s)).collect();
        let fit = fit_single(&samples, &data, &VfOptions::frequency(2 + extra_poles)).unwrap();
        let mut acc = 0.0;
        for (s, h) in samples.iter().zip(&data) {
            acc += (fit.model.eval(0, *s) - *h).norm_sqr();
        }
        let rms = (acc / samples.len() as f64).sqrt();
        prop_assert!((rms - fit.rms_error).abs() <= 1e-12 * rms.max(1e-30) + 1e-300);
    }
}
