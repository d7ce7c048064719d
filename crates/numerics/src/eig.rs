//! Eigenvalues of real dense matrices.
//!
//! Vector fitting relocates poles by computing the eigenvalues of
//! `A − b·c̃ᵀ` (diagonal-plus-rank-one in real block form, see Gustavsen &
//! Semlyen 1999). Those matrices mix magnitudes across many decades
//! (poles from 1 Hz to 10 GHz), so the solver balances first, reduces to
//! upper Hessenberg form with Householder reflectors, and finds the
//! eigenvalues with the Francis implicit double-shift QR iteration
//! (EISPACK `hqr` lineage).

use crate::complex::Complex;
use crate::error::NumericsError;
use crate::matrix::Mat;

/// Eigenvalues of a square real matrix, in no particular order.
///
/// Complex eigenvalues appear in conjugate pairs.
///
/// # Errors
///
/// Returns [`NumericsError::NotSquare`] for rectangular input and
/// [`NumericsError::NoConvergence`] if the QR iteration stalls: more than
/// LAPACK `dlahqr`'s budget of 30·max(10, n) iterations for one
/// eigenvalue. A spectrum symmetric in ± (the textbook case where
/// Francis shifts stall, and one the fitting pipeline's relocation
/// matrices do produce) is broken by the exceptional shift taken every
/// 10 iterations; the Numerical Recipes budget of 30 iterations with
/// shifts at 10 and 20 was not enough there. Vector fitting's
/// warm-started fits still recover from a failure by restarting cold,
/// and report it (`VfFit::cold_restarted` in `rvf-vecfit`).
///
/// # Examples
///
/// ```
/// use rvf_numerics::{eigenvalues, Mat};
///
/// # fn main() -> Result<(), rvf_numerics::NumericsError> {
/// // Rotation by 90°: eigenvalues ±j.
/// let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let mut e = eigenvalues(&a)?;
/// e.sort_by(|x, y| x.im.partial_cmp(&y.im).unwrap());
/// assert!((e[0].im + 1.0).abs() < 1e-12 && (e[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Mat) -> Result<Vec<Complex>, NumericsError> {
    if !a.is_square() {
        return Err(NumericsError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    match n {
        0 => return Ok(Vec::new()),
        1 => return Ok(vec![Complex::from_re(a[(0, 0)])]),
        2 => return Ok(eig_2x2(a[(0, 0)], a[(0, 1)], a[(1, 0)], a[(1, 1)]).to_vec()),
        _ => {}
    }
    let mut h = a.clone();
    balance_in_place(&mut h);
    hessenberg_in_place(&mut h);
    hqr_in_place(&mut h)
}

/// Closed-form eigenvalues of the 2×2 matrix `[[a, b], [c, d]]`.
pub(crate) fn eig_2x2(a: f64, b: f64, c: f64, d: f64) -> [Complex; 2] {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // Stable quadratic roots: avoid cancellation on the small root.
        let r1 = tr / 2.0 + if tr >= 0.0 { sq } else { -sq };
        let r2 = if r1 != 0.0 { det / r1 } else { tr / 2.0 - sq };
        [Complex::from_re(r1), Complex::from_re(r2)]
    } else {
        let im = (-disc).sqrt();
        [Complex::new(tr / 2.0, im), Complex::new(tr / 2.0, -im)]
    }
}

/// EISPACK-style balancing: diagonal similarity scaling by powers of two
/// so that row and column norms become comparable. Eigenvalues are
/// invariant under the similarity; conditioning improves dramatically for
/// matrices whose entries span many decades.
pub(crate) fn balance_in_place(a: &mut Mat) {
    const RADIX: f64 = 2.0;
    let n = a.rows();
    let sqrdx = RADIX * RADIX;
    loop {
        let mut converged = true;
        for i in 0..n {
            let mut c = 0.0;
            let mut r = 0.0;
            for j in 0..n {
                if j != i {
                    c += a[(j, i)].abs();
                    r += a[(i, j)].abs();
                }
            }
            if c != 0.0 && r != 0.0 {
                let mut g = r / RADIX;
                let mut f = 1.0;
                let s = c + r;
                let mut cc = c;
                while cc < g {
                    f *= RADIX;
                    cc *= sqrdx;
                }
                g = r * RADIX;
                while cc > g {
                    f /= RADIX;
                    cc /= sqrdx;
                }
                if (cc + r) / f < 0.95 * s {
                    converged = false;
                    let ginv = 1.0 / f;
                    for j in 0..n {
                        a[(i, j)] *= ginv;
                    }
                    for j in 0..n {
                        a[(j, i)] *= f;
                    }
                }
            }
        }
        if converged {
            break;
        }
    }
}

/// Householder reduction to upper Hessenberg form (eigenvalues only: the
/// orthogonal factor is not accumulated).
pub(crate) fn hessenberg_in_place(a: &mut Mat) {
    let n = a.rows();
    if n < 3 {
        return;
    }
    let mut v = vec![0.0; n];
    for k in 0..n - 2 {
        // Reflector annihilating column k below row k+1.
        let mut norm = 0.0;
        for i in (k + 1)..n {
            norm = f64::hypot(norm, a[(i, k)]);
        }
        if norm == 0.0 {
            continue;
        }
        let x0 = a[(k + 1, k)];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        // v = x − α·e1.
        v[k + 1] = x0 - alpha;
        for i in (k + 2)..n {
            v[i] = a[(i, k)];
        }
        let vtv: f64 = (k + 1..n).map(|i| v[i] * v[i]).sum();
        if vtv == 0.0 {
            continue;
        }
        let beta = 2.0 / vtv;
        // Left multiply: A ← (I − β v vᵀ) A on rows k+1..n, cols k..n.
        for j in k..n {
            let mut dot = 0.0;
            for i in (k + 1)..n {
                dot += v[i] * a[(i, j)];
            }
            dot *= beta;
            for i in (k + 1)..n {
                a[(i, j)] -= dot * v[i];
            }
        }
        // Right multiply: A ← A (I − β v vᵀ) on all rows, cols k+1..n.
        for i in 0..n {
            let mut dot = 0.0;
            for j in (k + 1)..n {
                dot += a[(i, j)] * v[j];
            }
            dot *= beta;
            for j in (k + 1)..n {
                a[(i, j)] -= dot * v[j];
            }
        }
        // Exact zeros below the subdiagonal in column k.
        a[(k + 1, k)] = alpha;
        for i in (k + 2)..n {
            a[(i, k)] = 0.0;
        }
    }
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Francis implicit double-shift QR on an upper Hessenberg matrix
/// (EISPACK `hqr`, 0-based). Destroys `h`; returns all eigenvalues.
fn hqr_in_place(h: &mut Mat) -> Result<Vec<Complex>, NumericsError> {
    let n = h.rows();
    let eps = f64::EPSILON;
    let mut wr = vec![0.0; n];
    let mut wi = vec![0.0; n];

    // Norm over the Hessenberg envelope.
    let mut anorm = 0.0;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += h[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Complex::ZERO; n]);
    }

    let mut nn = n as isize - 1;
    let mut t = 0.0;
    let mut total_its = 0usize;
    while nn >= 0 {
        let mut its = 0;
        loop {
            // Look for a single small subdiagonal element.
            let mut l = 0isize;
            let mut ell = nn;
            while ell >= 1 {
                let mut s = h[(ell as usize - 1, ell as usize - 1)].abs()
                    + h[(ell as usize, ell as usize)].abs();
                if s == 0.0 {
                    s = anorm;
                }
                if h[(ell as usize, ell as usize - 1)].abs() <= eps * s {
                    h[(ell as usize, ell as usize - 1)] = 0.0;
                    l = ell;
                    break;
                }
                ell -= 1;
            }
            let x = h[(nn as usize, nn as usize)];
            if l == nn {
                // One real root found.
                wr[nn as usize] = x + t;
                wi[nn as usize] = 0.0;
                nn -= 1;
                break;
            }
            let y = h[(nn as usize - 1, nn as usize - 1)];
            let w = h[(nn as usize, nn as usize - 1)] * h[(nn as usize - 1, nn as usize)];
            if l == nn - 1 {
                // Two roots found.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let mut z = q.abs().sqrt();
                let x = x + t;
                if q >= 0.0 {
                    z = p + sign(z, p);
                    wr[nn as usize - 1] = x + z;
                    wr[nn as usize] = if z != 0.0 { x - w / z } else { x + z };
                    wi[nn as usize - 1] = 0.0;
                    wi[nn as usize] = 0.0;
                } else {
                    wr[nn as usize - 1] = x + p;
                    wr[nn as usize] = x + p;
                    wi[nn as usize] = -z;
                    wi[nn as usize - 1] = z;
                }
                nn -= 2;
                break;
            }
            // No root yet: perform a double QR step (`dlahqr`'s budget).
            if its == 30 * n.max(10) {
                return Err(NumericsError::NoConvergence {
                    iterations: total_its,
                    what: "hqr eigensolver",
                });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its > 0 && its % 10 == 0 {
                // Exceptional shift, every 10 iterations without deflation.
                t += x;
                for i in 0..=nn as usize {
                    h[(i, i)] -= x;
                }
                let s = h[(nn as usize, nn as usize - 1)].abs()
                    + h[(nn as usize - 1, nn as usize - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            total_its += 1;
            // Find two consecutive small subdiagonals.
            let mut m = nn - 2;
            let (mut p, mut q, mut r) = (0.0, 0.0, 0.0);
            while m >= l {
                let mu = m as usize;
                let z = h[(mu, mu)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / h[(mu + 1, mu)] + h[(mu, mu + 1)];
                q = h[(mu + 1, mu + 1)] - z - rr - ss;
                r = h[(mu + 2, mu + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = h[(mu, mu - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (h[(mu - 1, mu - 1)].abs() + z.abs() + h[(mu + 1, mu + 1)].abs());
                if u <= eps * v {
                    break;
                }
                m -= 1;
            }
            let m = m.max(l) as usize;
            for i in (m + 2)..=(nn as usize) {
                h[(i, i - 2)] = 0.0;
                if i != m + 2 {
                    h[(i, i - 3)] = 0.0;
                }
            }
            // Double QR step on rows l..=nn, columns m..=nn.
            let lu = l as usize;
            let nnu = nn as usize;
            for k in m..nnu {
                if k != m {
                    p = h[(k, k - 1)];
                    q = h[(k + 1, k - 1)];
                    r = if k != nnu - 1 { h[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m as isize {
                        h[(k, k - 1)] = -h[(k, k - 1)];
                    }
                } else {
                    h[(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = h[(k, j)] + q * h[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * h[(k + 2, j)];
                        h[(k + 2, j)] -= pp * z;
                    }
                    h[(k + 1, j)] -= pp * y;
                    h[(k, j)] -= pp * x;
                }
                // Column modification.
                let mmin = if nnu < k + 3 { nnu } else { k + 3 };
                for i in lu..=mmin {
                    let mut pp = x * h[(i, k)] + y * h[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z * h[(i, k + 2)];
                        h[(i, k + 2)] -= pp * r;
                    }
                    h[(i, k + 1)] -= pp * q;
                    h[(i, k)] -= pp;
                }
            }
            // Continue the inner loop (l < nn-1 is implied: no deflation).
        }
    }
    Ok(wr.into_iter().zip(wi).map(|(re, im)| Complex::new(re, im)).collect())
}

/// Sorts eigenvalues by real part, then imaginary part (test helper and
/// deterministic presentation order for fitted poles).
pub fn sort_eigenvalues(e: &mut [Complex]) {
    e.sort_by(|a, b| {
        a.re.partial_cmp(&b.re)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.im.partial_cmp(&b.im).unwrap_or(core::cmp::Ordering::Equal))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectrum(a: &Mat, expect: &[Complex], tol: f64) {
        let mut got = eigenvalues(a).unwrap();
        let mut want = expect.to_vec();
        sort_eigenvalues(&mut got);
        sort_eigenvalues(&mut want);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < tol, "eigenvalue mismatch: got {got:?}, want {want:?}");
        }
    }

    #[test]
    fn empty_and_scalar() {
        assert!(eigenvalues(&Mat::zeros(0, 0)).unwrap().is_empty());
        let a = Mat::from_rows(&[&[42.0]]);
        assert_eq!(eigenvalues(&a).unwrap(), vec![Complex::from_re(42.0)]);
    }

    #[test]
    fn diagonal_matrix() {
        let a = Mat::from_diag(&[1.0, -2.0, 3.5, 0.0]);
        assert_spectrum(
            &a,
            &[Complex::from_re(1.0), Complex::from_re(-2.0), Complex::from_re(3.5), Complex::ZERO],
            1e-10,
        );
    }

    #[test]
    fn companion_matrix_cubic() {
        // p(x) = (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6.
        let a = Mat::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        assert_spectrum(
            &a,
            &[Complex::from_re(1.0), Complex::from_re(2.0), Complex::from_re(3.0)],
            1e-8,
        );
    }

    #[test]
    fn rotation_block_complex_pair() {
        let (s, c) = (0.6_f64, 0.8_f64);
        let a = Mat::from_rows(&[&[c, -s], &[s, c]]);
        assert_spectrum(&a, &[Complex::new(c, s), Complex::new(c, -s)], 1e-12);
    }

    #[test]
    fn plus_minus_symmetric_relocation_matrix_converges() {
        // The `clipper_hard` pole-relocation matrix that `zoo --seed 1`
        // built and the Numerical Recipes budget (30 iterations, shifts at
        // 10 and 20) gave up on: its spectrum is two conjugate pairs
        // mirrored in ±, where Francis shifts stall. Bits as dumped; the
        // reference eigenvalues are from 40-digit arithmetic.
        let rows: [[u64; 4]; 4] = [
            [
                0xc014_e766_1dc9_3a5c,
                0x4015_ebbd_e84b_2592,
                0x4013_aeb9_33f5_a874,
                0x4015_4cb8_430c_087a,
            ],
            [0xbfc3_e0b8_3653_69f8, 0xbfd3_8ace_2eb3_3ce8, 0, 0],
            [
                0xc013_aeb9_3ade_068d,
                0x4015_4cb8_2698_8a42,
                0x4014_e766_1707_62fd,
                0x4015_ebbe_04e5_13ce,
            ],
            [0, 0, 0xbfc3_e0b8_3b21_6a80, 0x3fd3_8ace_311b_a88b],
        ];
        let a = Mat::from_fn(4, 4, |i, j| f64::from_bits(rows[i][j]));
        assert_spectrum(
            &a,
            &[
                Complex::new(-0.864_104_539_045_478_8, 0.044_643_705_736_734_2),
                Complex::new(-0.864_104_539_045_478_8, -0.044_643_705_736_734_2),
                Complex::new(0.864_104_489_821_733_3, 0.044_644_488_997_353_5),
                Complex::new(0.864_104_489_821_733_3, -0.044_644_488_997_353_5),
            ],
            1e-9,
        );
    }

    #[test]
    fn vf_style_block_diagonal() {
        // Two complex pole pairs in real block form plus one real pole,
        // exactly the structure used during pole relocation.
        let (s1, w1) = (-1.0e3_f64, 2.0e5_f64);
        let (s2, w2) = (-4.0e6_f64, 9.0e8_f64);
        let p3 = -7.0e2_f64;
        let a = Mat::from_rows(&[
            &[s1, w1, 0.0, 0.0, 0.0],
            &[-w1, s1, 0.0, 0.0, 0.0],
            &[0.0, 0.0, s2, w2, 0.0],
            &[0.0, 0.0, -w2, s2, 0.0],
            &[0.0, 0.0, 0.0, 0.0, p3],
        ]);
        assert_spectrum(
            &a,
            &[
                Complex::new(s1, w1),
                Complex::new(s1, -w1),
                Complex::new(s2, w2),
                Complex::new(s2, -w2),
                Complex::from_re(p3),
            ],
            1.0, // absolute tol; values are ~1e9 so this is ~1e-9 relative
        );
    }

    #[test]
    fn similarity_transformed_diagonal() {
        // A = Q D Qᵀ with orthonormal Q from QR of a fixed matrix.
        use crate::qr::Qr;
        let raw = Mat::from_fn(4, 4, |i, j| ((1 + i * 7 + j * 3) as f64).sin());
        let q = Qr::factor(&raw).q();
        let d = Mat::from_diag(&[-1.0, 2.0, -3.0, 4.0]);
        let a = q.matmul(&d).matmul(&q.transpose());
        assert_spectrum(
            &a,
            &[
                Complex::from_re(-1.0),
                Complex::from_re(2.0),
                Complex::from_re(-3.0),
                Complex::from_re(4.0),
            ],
            1e-9,
        );
    }

    /// Determinant by cofactor expansion along the first row.
    fn cofactor_det(a: &Mat) -> f64 {
        let n = a.rows();
        if n == 1 {
            return a[(0, 0)];
        }
        (0..n)
            .map(|j| {
                let minor = Mat::from_fn(n - 1, n - 1, |r, c| a[(r + 1, c + (c >= j) as usize)]);
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                sign * a[(0, j)] * cofactor_det(&minor)
            })
            .sum()
    }

    #[test]
    fn trace_and_det_invariants() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 0.5, -1.0],
            &[0.3, -2.0, 1.0, 0.0],
            &[0.0, 1.5, 3.0, 2.0],
            &[1.0, 0.0, -0.5, 0.5],
        ]);
        let e = eigenvalues(&a).unwrap();
        let sum: Complex = e.iter().sum();
        let trace = (0..4).map(|i| a[(i, i)]).sum::<f64>();
        assert!((sum.re - trace).abs() < 1e-9, "trace mismatch: {sum:?}");
        assert!(sum.im.abs() < 1e-9);
        let prod: Complex = e.iter().copied().product();
        let det = cofactor_det(&a);
        assert!((prod.re - det).abs() < 1e-8 * det.abs().max(1.0));
        assert!(prod.im.abs() < 1e-8);
    }

    #[test]
    fn wide_magnitude_range_needs_balancing() {
        // Diagonal-plus-rank-one with magnitudes from 1e0 to 1e10,
        // as produced by the sigma-pole relocation step.
        let poles = [-1.0, -1.0e3, -1.0e6, -1.0e10];
        let mut a = Mat::from_diag(&poles);
        // Rank-one update b·cᵀ with b = 1, small c.
        for i in 0..4 {
            for j in 0..4 {
                a[(i, j)] -= 1.0e-3 * poles[j].abs();
            }
        }
        let e = eigenvalues(&a).unwrap();
        let sum: Complex = e.iter().sum();
        let trace = (0..4).map(|i| a[(i, i)]).sum::<f64>();
        assert!(((sum.re - trace) / trace).abs() < 1e-10, "sum {sum:?} vs trace {trace}");
    }

    #[test]
    fn hessenberg_preserves_spectrum_structure() {
        let a = Mat::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ]);
        let mut h = a.clone();
        hessenberg_in_place(&mut h);
        // Zeros below the first subdiagonal.
        for i in 2..4 {
            for j in 0..i - 1 {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
        // Trace preserved (similarity transform).
        let tr_a: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let tr_h: f64 = (0..4).map(|i| h[(i, i)]).sum();
        assert!((tr_a - tr_h).abs() < 1e-12);
    }

    #[test]
    fn eig_2x2_closed_form() {
        let [a, b] = eig_2x2(0.0, -1.0, 1.0, 0.0);
        assert!(
            (a - Complex::new(0.0, 1.0)).abs() < 1e-15
                || (a - Complex::new(0.0, -1.0)).abs() < 1e-15
        );
        assert!((a.conj() - b).abs() < 1e-15);
        let [a, b] = eig_2x2(3.0, 0.0, 0.0, -5.0);
        let mut v = [a.re, b.re];
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(v, [-5.0, 3.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The closed form's roots sum to the trace and multiply to the
        /// determinant: an oracle independent of `eigenvalues`, which
        /// answers every 2×2 matrix with `eig_2x2` itself.
        #[test]
        fn eig_2x2_matches_trace_and_determinant(a in -5.0..5.0f64, b in -5.0..5.0f64,
                                                 c in -5.0..5.0f64, d in -5.0..5.0f64) {
            let [l1, l2] = eig_2x2(a, b, c, d);
            let scale = [a, b, c, d].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let (trace, det) = (Complex::from_re(a + d), Complex::from_re(a * d - b * c));
            proptest::prop_assert!((l1 + l2 - trace).abs() <= 1e-12 * scale);
            proptest::prop_assert!((l1 * l2 - det).abs() <= 1e-12 * scale * scale);
        }
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(eigenvalues(&Mat::zeros(2, 3)), Err(NumericsError::NotSquare { .. })));
    }

    #[test]
    fn defective_jordan_block() {
        // Jordan block with eigenvalue 2 (algebraic multiplicity 3).
        let a = Mat::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 2.0, 1.0], &[0.0, 0.0, 2.0]]);
        let e = eigenvalues(&a).unwrap();
        for v in e {
            assert!((v - Complex::from_re(2.0)).abs() < 1e-4, "{v:?}");
        }
    }
}
