//! Deterministic unit tests of the three kernel families the paper's
//! pipeline leans on (satellite to the workspace bootstrap):
//!
//! * LU solves against systems with known closed-form solutions (the
//!   MNA solves of every DC/transient/AC step),
//! * QR least squares, checked through residual orthogonality — the
//!   defining property of the fitting systems' solutions,
//! * eigenvalue recovery from companion matrices — the zeros-of-sigma
//!   eigenproblem that drives vector-fitting pole relocation.

use rvf_numerics::{
    c, eigenvalues, from_roots, lstsq, sort_eigenvalues, CLu, CMat, Complex, Lu, Mat, Qr,
};

const TOL: f64 = 1e-12;

// ---------------------------------------------------------------- LU --

#[test]
fn lu_solves_known_spd_system_exactly() {
    // A·x = b with A symmetric positive definite and x chosen first.
    let a = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
    let x_true = [1.0, -2.0, 3.0];
    let b = a.matvec(&x_true);
    let lu = Lu::factor(&a).unwrap();
    let x = lu.solve(&b).unwrap();
    for (got, want) in x.iter().zip(x_true) {
        assert!((got - want).abs() < TOL, "{got} vs {want}");
    }
}

#[test]
fn lu_pivots_through_zero_leading_entry() {
    // Requires a row exchange: naive elimination without pivoting
    // divides by zero on a11.
    let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
    let lu = Lu::factor(&a).unwrap();
    let x = lu.solve(&[5.0, 7.0]).unwrap();
    assert!((x[0] - 7.0).abs() < TOL && (x[1] - 5.0).abs() < TOL);
}

#[test]
fn lu_rejects_singular_matrix() {
    let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    assert!(
        Lu::factor(&a).is_err() || Lu::factor(&a).unwrap().rcond_estimate() < 1e-14,
        "rank-1 matrix must not produce a usable factorization"
    );
}

#[test]
fn complex_lu_matches_analytic_rc_impedance() {
    // One-node RC at s = jω: (G + sC)·v = i  ⇒  v = i / (G + jωC).
    let g = Mat::from_rows(&[&[1.0e-3]]);
    let cap = Mat::from_rows(&[&[1.0e-9]]);
    let omega = 2.0 * std::f64::consts::PI * 1.0e6;
    let s = Complex::from_im(omega);
    let sys = CMat::from_real_pair(&g, s, &cap);
    let clu = CLu::factor(&sys).unwrap();
    let v = clu.solve_real(&[1.0]).unwrap();
    let want = (c(1.0e-3, 0.0) + s * c(1.0e-9, 0.0)).inv();
    assert!((v[0] - want).abs() < 1e-9 * want.abs(), "{:?} vs {want:?}", v[0]);
}

// ---------------------------------------------------------------- QR --

#[test]
fn qr_least_squares_residual_is_orthogonal_to_column_space() {
    // Overdetermined 6×3 system with an inconsistent right-hand side:
    // the solution is characterized by Aᵀ(b − A·x) = 0.
    let a = Mat::from_rows(&[
        &[1.0, 2.0, 0.5],
        &[0.0, 1.0, -1.0],
        &[2.0, -1.0, 3.0],
        &[1.0, 1.0, 1.0],
        &[-1.0, 0.5, 2.0],
        &[3.0, 0.0, -2.0],
    ]);
    let b = [1.0, -2.0, 0.5, 4.0, -1.5, 2.0];
    let x = lstsq(&a, &b).unwrap();
    let ax = a.matvec(&x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    let atr = a.matvec_t(&r);
    for v in &atr {
        assert!(v.abs() < 1e-10, "normal equations violated: Aᵀr = {atr:?}");
    }
    // The residual is genuinely nonzero (b is not in range(A)) — the
    // orthogonality check above is not vacuous.
    let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(rnorm > 0.1, "rhs unexpectedly consistent, residual {rnorm}");
}

#[test]
fn qr_reproduces_consistent_system_exactly() {
    let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0], &[1.0, 4.0]]);
    // Points on the line y = 3 − 0.5·t: intercept 3, slope −0.5.
    let b = [2.5, 2.0, 1.5, 1.0];
    let f = Qr::factor(&a);
    assert_eq!(f.rank(1e-12), 2);
    let x = f.solve_lstsq(&b).unwrap();
    assert!((x[0] - 3.0).abs() < TOL && (x[1] + 0.5).abs() < TOL, "{x:?}");
}

#[test]
fn qr_factor_is_orthonormal_times_upper_triangular() {
    let a =
        Mat::from_rows(&[&[2.0, -1.0, 0.5], &[1.0, 3.0, 1.0], &[0.0, 1.0, -2.0], &[1.5, 0.5, 1.0]]);
    let f = Qr::factor(&a);
    let q = f.q();
    let r = f.r();
    // QᵀQ = I on the economy factor.
    for i in 0..3 {
        for j in 0..3 {
            let dot: f64 = (0..4).map(|k| q[(k, i)] * q[(k, j)]).sum();
            let want = if i == j { 1.0 } else { 0.0 };
            assert!((dot - want).abs() < 1e-12, "QᵀQ[{i}{j}] = {dot}");
        }
    }
    // R upper triangular and Q·R = A.
    for i in 1..3 {
        for j in 0..i {
            assert!(r[(i, j)].abs() < 1e-12, "R not triangular at ({i},{j})");
        }
    }
    let qr = q.matmul(&r);
    for i in 0..4 {
        for j in 0..3 {
            assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-12);
        }
    }
}

// --------------------------------------------- companion eigenvalues --

/// Companion matrix of the monic polynomial with the given low-to-high
/// coefficients `a0 + a1·x + … + x^n` (the relocation eigenproblem
/// shape: vector fitting finds new poles as eigenvalues of exactly such
/// a structure).
fn companion(coeffs_low_to_high: &[f64]) -> Mat {
    let n = coeffs_low_to_high.len();
    let mut m = Mat::zeros(n, n);
    for i in 1..n {
        m[(i, i - 1)] = 1.0;
    }
    for i in 0..n {
        m[(i, n - 1)] = -coeffs_low_to_high[i];
    }
    m
}

#[test]
fn companion_eigenvalues_recover_distinct_real_roots() {
    // p(x) = (x − 1)(x + 2)(x − 3)(x + 4)
    //      = x⁴ + 2x³ − 13x² − 14x + 24.
    let m = companion(&[24.0, -14.0, -13.0, 2.0]);
    let mut eigs = eigenvalues(&m).unwrap();
    sort_eigenvalues(&mut eigs);
    let mut want = [c(-4.0, 0.0), c(-2.0, 0.0), c(1.0, 0.0), c(3.0, 0.0)].to_vec();
    sort_eigenvalues(&mut want);
    for (got, w) in eigs.iter().zip(&want) {
        assert!((*got - *w).abs() < 1e-8, "{got:?} vs {w:?}");
    }
}

#[test]
fn companion_eigenvalues_recover_complex_pole_pair() {
    // p(x) = (x + 2)(x² + 2x + 5): roots −2 and −1 ± 2i — a stable
    // real pole plus a conjugate pair, the canonical VF pole layout.
    // Expansion: x³ + 4x² + 9x + 10.
    let m = companion(&[10.0, 9.0, 4.0]);
    let mut eigs = eigenvalues(&m).unwrap();
    sort_eigenvalues(&mut eigs);
    let mut want = vec![c(-2.0, 0.0), c(-1.0, 2.0), c(-1.0, -2.0)];
    sort_eigenvalues(&mut want);
    for (got, w) in eigs.iter().zip(&want) {
        assert!((*got - *w).abs() < 1e-8, "{got:?} vs {w:?}");
    }
}

#[test]
fn companion_route_agrees_with_poly_roots() {
    // The same roots through `from_roots(..).roots()` (which builds its
    // own companion internally) and through an explicit companion here.
    let roots = [-0.5, -1.5, -2.5, -3.5, -4.5];
    let p = from_roots(&roots);
    let mut via_poly = p.roots().unwrap();
    sort_eigenvalues(&mut via_poly);
    let mut want = roots;
    want.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (got, want) in via_poly.iter().zip(want) {
        assert!((got.re - want).abs() < 1e-7 && got.im.abs() < 1e-7, "{got:?} vs {want}");
    }
}

#[test]
fn companion_eigenvalues_scale_to_radian_frequencies() {
    // Pole relocation happens at ~1e9 rad/s in this problem domain;
    // the solver must stay accurate at that scaling, not just at O(1).
    let w = 1.0e9;
    // roots −w and (−0.1 ± 1.0i)·w  ⇒  monic cubic coefficients:
    let a2 = 1.2 * w; // sum of roots, negated
    let a1 = (0.01 + 1.0 + 0.2) * w * w; // pairwise products: 1.01w² + 0.2w²
    let a0 = 1.01 * w * w * w; // product, negated
    let m = companion(&[a0, a1, a2]);
    let mut eigs = eigenvalues(&m).unwrap();
    sort_eigenvalues(&mut eigs);
    let mut want = vec![c(-w, 0.0), c(-0.1 * w, w), c(-0.1 * w, -w)];
    sort_eigenvalues(&mut want);
    for (got, wv) in eigs.iter().zip(&want) {
        assert!((*got - *wv).abs() < 1e-4 * w, "{got:?} vs {wv:?}");
    }
}
