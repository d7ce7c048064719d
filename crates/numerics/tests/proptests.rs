//! Property-based tests for the numerical kernels.

use proptest::prelude::*;
use rvf_numerics::{
    c, cumtrapz, eigenvalues, from_roots, linspace, lstsq, sort_eigenvalues, Complex, FohScalar,
    Lu, Mat, Qr,
};

fn finite_f64(range: core::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        let span = range.end - range.start;
        range.start + (v.abs() % 1.0) * span
    })
}

fn small_matrix(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-10.0..10.0f64, n * n).prop_map(move |data| Mat::from_vec(n, n, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn ln_of_the_conjugate_is_the_conjugate_of_ln(re in prop::num::f64::NORMAL,
                                                 im in prop::num::f64::NORMAL,
                                                 axis in 0u8..4) {
        // Normal parts over the whole exponent range, and both axes.
        let (re, im) = match axis {
            0 => (0.0, im),
            1 => (re, 0.0),
            _ => (re, im),
        };
        let z = c(re, im);
        let (a, b) = (z.conj().ln(), z.ln().conj());
        prop_assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()));
    }
}

/// `S·D·S⁻¹` for `D` block-diagonal with a spectrum symmetric in ±:
/// each `(a, b)` gives the pairs `±a ± jb` as two 2×2 rotation-scaling
/// blocks, each `r` the real pair `±r`. Returns the matrix and its
/// eigenvalues, or `None` when `S = I + ¼·R` is too close to singular.
fn plus_minus_similar(
    pairs: &[(f64, f64)],
    reals: &[f64],
    r: &[f64],
) -> Option<(Mat, Vec<Complex>)> {
    let n = 4 * pairs.len() + 2 * reals.len();
    let mut d = Mat::zeros(n, n);
    let mut want = Vec::new();
    let mut k = 0;
    for &(a, b) in pairs {
        for sa in [a, -a] {
            d[(k, k)] = sa;
            d[(k, k + 1)] = b;
            d[(k + 1, k)] = -b;
            d[(k + 1, k + 1)] = sa;
            want.extend([c(sa, b), c(sa, -b)]);
            k += 2;
        }
    }
    for &re in reals {
        for sr in [re, -re] {
            d[(k, k)] = sr;
            want.push(c(sr, 0.0));
            k += 1;
        }
    }
    let s = Mat::from_fn(n, n, |i, j| f64::from(u8::from(i == j)) + 0.25 * r[i * n + j]);
    let lu = Lu::factor(&s).ok()?;
    if lu.rcond_estimate() < 1e-2 {
        return None;
    }
    Some((s.matmul(&d).matmul(&lu.inverse().ok()?), want))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn eigenvalues_of_plus_minus_symmetric_spectra(
        n_pairs in 0usize..3,
        n_reals in 0usize..3,
        vals in prop::collection::vec(0.05..3.0f64, 6),
        r in prop::collection::vec(-1.0..1.0f64, 144),
    ) {
        prop_assume!(4 * n_pairs + 2 * n_reals >= 3);
        let pairs: Vec<(f64, f64)> = (0..n_pairs).map(|i| (vals[2 * i], vals[2 * i + 1])).collect();
        let reals = &vals[4..4 + n_reals];
        let built = plus_minus_similar(&pairs, reals, &r);
        prop_assume!(built.is_some());
        let (a, want) = built.unwrap();
        let got = eigenvalues(&a);
        prop_assert!(got.is_ok(), "{got:?} on {a:?}");
        // Match each known eigenvalue to its nearest computed one.
        let mut got = got.unwrap();
        for w in &want {
            let (i, dist) = got
                .iter()
                .enumerate()
                .map(|(i, g)| (i, (*g - *w).abs()))
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .unwrap();
            prop_assert!(dist < 1e-6, "{w:?} missing from {got:?}");
            got.swap_remove(i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(ar in -5.0..5.0f64, ai in -5.0..5.0f64,
                            br in -5.0..5.0f64, bi in -5.0..5.0f64) {
        let a = c(ar, ai);
        let b = c(br, bi);
        // Commutativity.
        prop_assert!(((a + b) - (b + a)).abs() < 1e-12);
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        // Conjugation is an automorphism.
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-10);
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    }

    #[test]
    fn complex_inverse_round_trip(re in -100.0..100.0f64, im in -100.0..100.0f64) {
        prop_assume!(re.abs() > 1e-6 || im.abs() > 1e-6);
        let z = c(re, im);
        prop_assert!((z * z.inv() - Complex::ONE).abs() < 1e-10);
    }

    #[test]
    fn complex_exp_ln_round_trip(re in -3.0..3.0f64, im in -3.0..3.0f64) {
        prop_assume!(re.abs() > 1e-3 || im.abs() > 1e-3);
        let z = c(re, im);
        prop_assert!((z.ln().exp() - z).abs() < 1e-10 * z.abs().max(1.0));
    }

    #[test]
    fn lu_solve_residual(m in small_matrix(4), b in prop::collection::vec(-10.0..10.0f64, 4)) {
        if let Ok(lu) = Lu::factor(&m) {
            // Skip numerically hopeless cases.
            prop_assume!(lu.rcond_estimate() > 1e-10);
            let x = lu.solve(&b).unwrap();
            let r = m.matvec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-6, "residual too large");
            }
        }
    }

    #[test]
    fn qr_normal_equations(rows in 3usize..8, data in prop::collection::vec(-5.0..5.0f64, 64),
                           rhs in prop::collection::vec(-5.0..5.0f64, 8)) {
        let cols = 2usize;
        let a = Mat::from_vec(rows, cols, data[..rows * cols].to_vec());
        let b = &rhs[..rows];
        let f = Qr::factor(&a);
        if f.rank(1e-8) == cols {
            let x = f.solve_lstsq(b).unwrap();
            let ax = a.matvec(&x);
            let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
            let atr = a.matvec_t(&r);
            for v in atr {
                prop_assert!(v.abs() < 1e-6, "normal equations violated: {v}");
            }
        }
    }

    #[test]
    fn eigenvalue_trace_invariant(m in small_matrix(5)) {
        let e = eigenvalues(&m).unwrap();
        let sum: Complex = e.iter().sum();
        let tr: f64 = (0..5).map(|i| m[(i, i)]).sum();
        let scale = m.norm_max().max(1.0);
        prop_assert!((sum.re - tr).abs() < 1e-7 * scale * 5.0, "trace {tr} vs {sum:?}");
        prop_assert!(sum.im.abs() < 1e-7 * scale * 5.0);
    }

    #[test]
    fn eigenvalues_conjugate_symmetry(m in small_matrix(4)) {
        // Real matrices have conjugate-symmetric spectra.
        let mut e = eigenvalues(&m).unwrap();
        sort_eigenvalues(&mut e);
        let mut conj: Vec<Complex> = e.iter().map(|z| z.conj()).collect();
        sort_eigenvalues(&mut conj);
        let scale = m.norm_max().max(1.0);
        for (a, b) in e.iter().zip(&conj) {
            prop_assert!((*a - *b).abs() < 1e-6 * scale, "spectrum not conjugate-symmetric");
        }
    }

    #[test]
    fn polynomial_roots_recovered(r1 in -5.0..5.0f64, r2 in -5.0..5.0f64, r3 in -5.0..5.0f64) {
        prop_assume!((r1 - r2).abs() > 0.1 && (r2 - r3).abs() > 0.1 && (r1 - r3).abs() > 0.1);
        let p = from_roots(&[r1, r2, r3]);
        let mut roots = p.roots().unwrap();
        sort_eigenvalues(&mut roots);
        let mut want = [r1, r2, r3];
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, w) in roots.iter().zip(want) {
            prop_assert!((got.re - w).abs() < 1e-5 && got.im.abs() < 1e-5);
        }
    }

    #[test]
    fn foh_scalar_decays_for_stable_pole(a in -1e6..-1.0f64, h in 1e-6..1e-2f64, x0 in -10.0..10.0f64) {
        // Homogeneous response magnitude never grows.
        let p = FohScalar::new(a, h);
        let x1 = p.step(x0, 0.0, 0.0);
        prop_assert!(x1.abs() <= x0.abs() + 1e-12);
    }

    #[test]
    fn cumtrapz_linearity(scale in -4.0..4.0f64) {
        let x = linspace(0.0, 1.0, 33);
        let y1: Vec<f64> = x.iter().map(|v| v.sin()).collect();
        let ys: Vec<f64> = y1.iter().map(|v| scale * v).collect();
        let c1 = cumtrapz(&x, &y1);
        let cs = cumtrapz(&x, &ys);
        for (a, b) in c1.iter().zip(&cs) {
            prop_assert!((scale * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn lstsq_exact_for_consistent_systems(x0 in -5.0..5.0f64, x1 in -5.0..5.0f64) {
        // Build a consistent overdetermined system with known solution.
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.5], &[2.0, 2.0]]);
        let truth = [x0, x1];
        let b = a.matvec(&truth);
        let got = lstsq(&a, &b).unwrap();
        prop_assert!((got[0] - x0).abs() < 1e-8 && (got[1] - x1).abs() < 1e-8);
    }

    #[test]
    fn finite_strategy_is_in_range(v in finite_f64(2.0..3.0)) {
        prop_assert!((2.0..3.0).contains(&v));
    }
}
