//! Recovery tests: vector fitting must reconstruct synthetic rational
//! functions with known poles to near machine precision, on both axes.

use rvf_numerics::{c, jw_grid, linspace, logspace, sort_eigenvalues, Complex};
use rvf_vecfit::{fit, fit_single, VfOptions};

/// Partial-fraction evaluation helper for building synthetic data.
fn pf(poles: &[Complex], residues: &[Complex], d: f64, s: Complex) -> Complex {
    poles
        .iter()
        .zip(residues)
        .map(|(&a, &r)| r * (s - a).inv())
        .fold(Complex::from_re(d), |acc, v| acc + v)
}

#[test]
fn recovers_three_pole_siso_frequency_response() {
    // Stable system: one real pole, one complex pair.
    let poles = [c(-5.0, 0.0), c(-2.0, 30.0), c(-2.0, -30.0)];
    let residues = [c(4.0, 0.0), c(1.0, 2.0), c(1.0, -2.0)];
    let samples = jw_grid(&logspace(-1.0, 2.5, 120));
    let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();

    let fit = fit_single(&samples, &data, &VfOptions::frequency(3)).unwrap();
    assert!(fit.rms_error < 1e-9, "rms {}", fit.rms_error);
    assert!(fit.model.poles().is_stable());

    let mut got = fit.model.poles().to_complex();
    let mut want = poles.to_vec();
    sort_eigenvalues(&mut got);
    sort_eigenvalues(&mut want);
    for (g, w) in got.iter().zip(&want) {
        assert!((*g - *w).abs() < 1e-6 * w.abs(), "pole {g:?} vs {w:?}");
    }
}

#[test]
fn recovers_poles_across_decades() {
    // Poles spread over five decades, like an analog macromodel.
    let poles =
        [c(-1.0e3, 0.0), c(-5.0e4, 3.0e5), c(-5.0e4, -3.0e5), c(-2.0e6, 4.0e7), c(-2.0e6, -4.0e7)];
    let residues =
        [c(2.0e3, 0.0), c(1.0e4, -3.0e4), c(1.0e4, 3.0e4), c(5.0e5, 1.0e6), c(5.0e5, -1.0e6)];
    let samples = jw_grid(&logspace(1.0, 8.5, 200));
    let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();

    let fit = fit_single(&samples, &data, &VfOptions::frequency(5).with_iterations(15)).unwrap();
    let scale = data.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    assert!(fit.rms_error < 1e-8 * scale, "rms {} scale {}", fit.rms_error, scale);
}

#[test]
fn common_pole_fit_with_parameterized_residues() {
    // K responses sharing poles with smoothly varying residues — the
    // exact structure of TFT data (state-dependent residues, fixed poles).
    let poles = [c(-3.0, 25.0), c(-3.0, -25.0), c(-8.0, 0.0)];
    let samples = jw_grid(&logspace(-0.5, 2.0, 90));
    let k_count = 24;
    let mut data = Vec::new();
    for k in 0..k_count {
        let x = k as f64 / (k_count - 1) as f64; // "state" in [0, 1]
        let residues =
            [c(1.0 + x * x, 0.5 * x), c(1.0 + x * x, -0.5 * x), c(2.0 * (1.0 - 0.3 * x), 0.0)];
        data.push(samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect());
    }
    let fit = fit(&samples, &data, &VfOptions::frequency(3).with_iterations(12)).unwrap();
    assert!(fit.rms_error < 1e-8, "rms {}", fit.rms_error);
    assert_eq!(fit.model.n_responses(), k_count);

    // The recovered residue trajectory of the real pole must follow
    // 2·(1 − 0.3x).
    let poles_got = fit.model.poles().to_complex();
    // Find which entry is the real pole.
    let real_entry = fit
        .model
        .poles()
        .entries()
        .iter()
        .position(|e| matches!(e, rvf_vecfit::PoleEntry::Real(_)))
        .expect("real pole present");
    let traj = fit.model.residue_trajectory(real_entry);
    for (k, r) in traj.iter().enumerate() {
        let x = k as f64 / (k_count - 1) as f64;
        let want = 2.0 * (1.0 - 0.3 * x);
        assert!((r.re - want).abs() < 1e-6, "trajectory at {x}: {} vs {want}", r.re);
        assert!(r.im.abs() < 1e-6);
    }
    let _ = poles_got;
}

#[test]
fn real_axis_fit_of_smooth_nonlinearity() {
    // Fit a real function of a real variable with conjugate-pair poles —
    // the state-dimension step of the RVF recursion. Target: a saturating
    // conductance shape (derivative of tanh).
    let xs: Vec<Complex> = linspace(0.4, 1.4, 101).into_iter().map(Complex::from_re).collect();
    let g = |x: f64| 1.0 - (2.0 * (x - 0.9)).tanh().powi(2); // sech²
    let data: Vec<Complex> = xs.iter().map(|s| Complex::from_re(g(s.re))).collect();

    let opts = VfOptions::state(8).with_iterations(15);
    let fit = fit_single(&xs, &data, &opts).unwrap();
    assert!(fit.rms_error < 1e-6, "rms {}", fit.rms_error);

    // All poles must be complex pairs, off the real axis.
    for e in fit.model.poles().entries() {
        match e {
            rvf_vecfit::PoleEntry::Pair(a) => {
                assert!(a.im > 0.0, "pair pole on the real axis: {a:?}");
            }
            rvf_vecfit::PoleEntry::Real(_) => panic!("real pole in a real-axis fit"),
        }
    }
    // The fitted function must be real-valued on the axis.
    for &x in &xs {
        let v = fit.model.eval(0, x);
        assert!(v.im.abs() < 1e-9, "fit not real at {x:?}: {v:?}");
    }
}

#[test]
fn real_axis_fit_multiple_trajectories() {
    // Several residue trajectories fitted with common state poles.
    let xs: Vec<Complex> = linspace(-1.0, 1.0, 81).into_iter().map(Complex::from_re).collect();
    let fns: [Box<dyn Fn(f64) -> f64>; 4] = [
        Box::new(|x: f64| 1.0 / (1.0 + 4.0 * x * x)),
        Box::new(|x: f64| x / (1.0 + 4.0 * x * x)),
        Box::new(|x: f64| (0.7 * x).sin()),
        Box::new(|x: f64| 0.75 + 1.0 / (1.0 + 4.0 * x * x)),
    ];
    let data: Vec<Vec<Complex>> =
        fns.iter().map(|f| xs.iter().map(|s| Complex::from_re(f(s.re))).collect()).collect();
    let fit = fit(&xs, &data, &VfOptions::state(10).with_iterations(12)).unwrap();
    assert!(fit.rms_error < 1e-5, "rms {}", fit.rms_error);
    // A real-axis fit carries the constant column: the last trajectory is
    // the first plus 0.75, and that offset must land in `d`.
    let (first, offset) = (&fit.model.terms()[0], &fit.model.terms()[3]);
    assert!((offset.d - first.d - 0.75).abs() < 1e-8, "d {} vs {}", offset.d, first.d);
}

#[test]
fn classic_unrelaxed_variant_also_converges() {
    let poles = [c(-4.0, 18.0), c(-4.0, -18.0)];
    let residues = [c(2.0, 1.0), c(2.0, -1.0)];
    let samples = jw_grid(&linspace(0.5, 40.0, 70));
    let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();
    let fit = fit_single(
        &samples,
        &data,
        &VfOptions::frequency(2).with_relaxed(false).with_iterations(15),
    )
    .unwrap();
    assert!(fit.rms_error < 1e-9, "rms {}", fit.rms_error);
}

#[test]
fn stability_enforced_even_for_unstable_data() {
    // Data generated by an *unstable* pole: the fit must still return
    // stable poles (the model trades accuracy for stability).
    let poles = [c(2.0, 10.0), c(2.0, -10.0)];
    let residues = [c(1.0, 0.0), c(1.0, 0.0)];
    let samples = jw_grid(&linspace(0.5, 30.0, 60));
    let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();
    let fit = fit_single(&samples, &data, &VfOptions::frequency(4)).unwrap();
    assert!(fit.model.poles().is_stable());
}

#[test]
fn error_paths() {
    use rvf_vecfit::VecfitError;
    let samples = jw_grid(&linspace(1.0, 10.0, 10));
    // Empty.
    assert!(matches!(fit(&samples, &[], &VfOptions::frequency(2)), Err(VecfitError::EmptyData)));
    // Length mismatch.
    assert!(matches!(
        fit(&samples, &[vec![Complex::ZERO; 5]], &VfOptions::frequency(2)),
        Err(VecfitError::LengthMismatch { .. })
    ));
    // Too few samples for many poles.
    assert!(matches!(
        fit(&samples, &[vec![Complex::ONE; 10]], &VfOptions::frequency(18)),
        Err(VecfitError::TooFewSamples { .. })
    ));
    // Non-finite data.
    let mut bad = vec![Complex::ONE; 10];
    bad[3] = c(f64::NAN, 0.0);
    assert!(matches!(fit(&samples, &[bad], &VfOptions::frequency(2)), Err(VecfitError::NonFinite)));
    // Degenerate grid (all DC) on the imaginary axis.
    let dc = vec![Complex::ZERO; 10];
    assert!(matches!(
        fit(&dc, &[vec![Complex::ONE; 10]], &VfOptions::frequency(2)),
        Err(VecfitError::DegenerateGrid)
    ));
}

#[test]
fn overfit_pole_count_remains_accurate() {
    // More poles than the true order: extra poles should be benign.
    let poles = [c(-2.0, 0.0)];
    let residues = [c(1.0, 0.0)];
    let samples = jw_grid(&logspace(-1.0, 1.5, 60));
    let data: Vec<Complex> = samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();
    let fit = fit_single(&samples, &data, &VfOptions::frequency(6)).unwrap();
    assert!(fit.rms_error < 1e-7, "rms {}", fit.rms_error);
    assert!(fit.model.poles().is_stable());
}

#[test]
fn state_poles_are_clamped_to_the_interval() {
    // Low-order data (a line) tempts the relocation into sending poles
    // to huge magnitudes; the clamp must keep them near the interval so
    // downstream logarithmic primitives stay well conditioned.
    let xs: Vec<rvf_numerics::Complex> =
        linspace(0.0, 1.0, 41).into_iter().map(rvf_numerics::Complex::from_re).collect();
    let data: Vec<rvf_numerics::Complex> =
        xs.iter().map(|x| rvf_numerics::Complex::from_re(1.0 + x.re)).collect();
    let fit = fit_single(&xs, &data, &VfOptions::state(4).with_iterations(10)).unwrap();
    // Clamping trades a little accuracy for primitive conditioning;
    // 1e-3 relative on unit-scale data is ample for a line.
    assert!(fit.rms_error < 1e-3, "rms {}", fit.rms_error);
    for p in fit.model.poles().to_complex() {
        assert!(p.re >= -0.5 - 1e-9 && p.re <= 1.5 + 1e-9, "pole escaped the interval: {p:?}");
        assert!(p.im.abs() <= 2.0 + 1e-9, "pole too far off axis: {p:?}");
    }
}

#[test]
fn displacement_decreases_with_iterations() {
    // Convergence diagnostics: more relocation rounds → settled poles.
    let poles = [c(-2.0, 15.0), c(-2.0, -15.0), c(-7.0, 40.0), c(-7.0, -40.0)];
    let residues = [c(1.0, 1.0), c(1.0, -1.0), c(2.0, 0.5), c(2.0, -0.5)];
    let samples = jw_grid(&logspace(0.0, 2.0, 80));
    let data: Vec<rvf_numerics::Complex> =
        samples.iter().map(|&s| pf(&poles, &residues, 0.0, s)).collect();
    let short = fit_single(&samples, &data, &VfOptions::frequency(4).with_iterations(2)).unwrap();
    let long = fit_single(&samples, &data, &VfOptions::frequency(4).with_iterations(12)).unwrap();
    assert!(
        long.final_displacement <= short.final_displacement.max(1e-12),
        "no convergence: {} vs {}",
        long.final_displacement,
        short.final_displacement
    );
    assert!(long.rms_error <= short.rms_error * 1.5 + 1e-12);
}
