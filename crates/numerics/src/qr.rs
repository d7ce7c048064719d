//! Householder QR factorization and linear least squares.
//!
//! Vector fitting assembles tall real least-squares systems (stacked
//! real/imaginary parts of the partial-fraction basis); the fast VF
//! variant of Deschrijver et al. additionally needs the triangular `R`
//! factor of per-snapshot blocks to compress the pole-identification
//! system. Every factorization runs one row-oriented fused Householder
//! kernel ([`factor_block_in_place`]); [`apply_reflectors_in_place`]
//! replays a packed factor's reflectors on another block with the same
//! arithmetic, so a column block shared by many systems is factored
//! once.

use crate::error::NumericsError;
use crate::matrix::Mat;

/// Householder QR factorization of a real `m × n` matrix (`m ≥ n` or `m < n`).
///
/// Stores the reflectors in compact form; `Q` is never formed explicitly
/// unless requested.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{Mat, Qr};
///
/// # fn main() -> Result<(), rvf_numerics::NumericsError> {
/// // Overdetermined: fit y = a + b*t through three points.
/// let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let x = Qr::factor(&a).solve_lstsq(&[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Reflectors below the diagonal, R on and above.
    qr: Mat,
    /// Scalar factors of the reflectors.
    tau: Vec<f64>,
}

impl Qr {
    /// Computes the QR factorization of `a`.
    pub fn factor(a: &Mat) -> Self {
        let mut qr = a.clone();
        let mut tau = Vec::new();
        factor_with_rhs_in_place(&mut qr, &mut tau, &mut []);
        Self { qr, tau }
    }

    /// The upper-triangular factor `R` (economy size: `min(m,n) × n`).
    pub fn r(&self) -> Mat {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        let mut r = Mat::zeros(k, n);
        for i in 0..k {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }

    /// Applies `Qᵀ` to a vector (length `m`), in place semantics via return.
    pub(crate) fn qt_mul(&self, b: &[f64]) -> Vec<f64> {
        let m = self.qr.rows();
        assert_eq!(b.len(), m, "dimension mismatch in qt_mul");
        let mut y = b.to_vec();
        for (j, &t) in self.tau.iter().enumerate() {
            if t != 0.0 {
                reflect_vec(&mut y, j, t, |i| self.qr[(i, j)]);
            }
        }
        y
    }

    /// Forms the economy `Q` factor (`m × min(m,n)`).
    pub fn q(&self) -> Mat {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        let mut q = Mat::zeros(m, k);
        // Apply reflectors in reverse to the identity columns.
        for col in 0..k {
            let mut e = vec![0.0; m];
            e[col] = 1.0;
            for j in (0..k).rev() {
                if self.tau[j] != 0.0 {
                    reflect_vec(&mut e, j, self.tau[j], |i| self.qr[(i, j)]);
                }
            }
            for i in 0..m {
                q[(i, col)] = e[i];
            }
        }
        q
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` for tall `A`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != m`, and
    /// [`NumericsError::RankDeficient`] if a diagonal of `R` underflows
    /// relative tolerance (the system does not determine all unknowns).
    // Back substitution reads x[j] for j > i while writing x[i]; the
    // index loop keeps that operation order explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(NumericsError::DimensionMismatch { expected: m, got: b.len() });
        }
        if m < n {
            return Err(NumericsError::RankDeficient { rank: m, wanted: n });
        }
        let y = self.qt_mul(b);
        // Back-substitute R x = y[0..n].
        let mut x = vec![0.0; n];
        let rmax = (0..n).fold(0.0_f64, |acc, i| acc.max(self.qr[(i, i)].abs()));
        let tol = rmax * 1e-13;
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() <= tol {
                return Err(NumericsError::RankDeficient { rank: i, wanted: n });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }

    /// Numerical rank: number of `R` diagonals above `tol · max|R_ii|`.
    pub fn rank(&self, rel_tol: f64) -> usize {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        let rmax = (0..k).fold(0.0_f64, |acc, i| acc.max(self.qr[(i, i)].abs()));
        if rmax == 0.0 {
            return 0;
        }
        (0..k).filter(|&i| self.qr[(i, i)].abs() > rel_tol * rmax).count()
    }
}

/// In-place fused Householder factorization: on return `a` holds `R` on
/// and above the diagonal and the reflectors below it, `tau` the
/// reflector scalars, and `rhs` (when non-empty) is overwritten with
/// `Qᵀ·rhs`.
///
/// This is the allocation-free core behind [`Qr::factor`]: callers that own a reusable block buffer
/// factor it in place and read the rows of `R` straight out of the
/// packed factor — entries `(i, j)` with `j ≥ i` — without a [`Qr`]
/// handle, a copy of `R`, or a separate `qt_mul` pass. `tau` is cleared
/// and refilled, retaining its capacity across calls.
///
/// An empty `rhs` slice means "no right-hand side".
///
/// # Panics
///
/// Panics if `rhs` is non-empty and its length differs from the row
/// count of `a`.
pub fn factor_with_rhs_in_place(a: &mut Mat, tau: &mut Vec<f64>, rhs: &mut [f64]) {
    let (m, n) = a.shape();
    factor_block_in_place(a.as_mut_slice(), m, n, tau, rhs);
}

/// [`factor_with_rhs_in_place`] on a row-major `rows × cols` slice, so a
/// caller can factor a trailing row block of a larger buffer in place.
///
/// Column norms use a scaled sum of squares (one max pass, one
/// accumulation pass) instead of an `m`-deep `hypot` chain; `hypot`'s
/// per-element overflow guard costs an order of magnitude more than a
/// multiply-add and the scaling achieves the same robustness. Each
/// reflector is applied row by row (see [`apply_reflectors_in_place`]
/// for the per-column arithmetic), so the update streams contiguous
/// row slices instead of one strided dot chain per column.
///
/// # Panics
///
/// Panics if `a.len() != rows · cols`, or if `rhs` is non-empty and its
/// length differs from `rows`.
pub fn factor_block_in_place(
    a: &mut [f64],
    rows: usize,
    cols: usize,
    tau: &mut Vec<f64>,
    rhs: &mut [f64],
) {
    let (m, n) = (rows, cols);
    assert_eq!(a.len(), m * n, "block length must equal rows*cols");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in factor_block_in_place");
    let k = m.min(n);
    tau.clear();
    tau.resize(k, 0.0);
    for j in 0..k {
        // Householder reflector for column j; scaled sum of squares
        // keeps the norm overflow-safe without hypot.
        let amax = a[j * n + j..].iter().step_by(n).fold(0.0_f64, |acc, v| acc.max(v.abs()));
        if amax == 0.0 {
            // tau[j] stays 0: identity reflector.
            continue;
        }
        let mut ssq = 0.0;
        for v in a[j * n + j..].iter().step_by(n) {
            let t = v / amax;
            ssq += t * t;
        }
        let norm = amax * ssq.sqrt();
        // Choose sign to avoid cancellation.
        let ajj = a[j * n + j];
        let alpha = if ajj >= 0.0 { -norm } else { norm };
        // v = x - alpha*e1, normalized so v[0] = 1.
        let v0 = ajj - alpha;
        for v in a.iter_mut().skip((j + 1) * n + j).step_by(n) {
            *v /= v0;
        }
        tau[j] = -v0 / alpha;
        a[j * n + j] = alpha;
        // Apply the reflector to the remaining columns and, fusing the
        // qt_mul pass, to the right-hand side.
        reflect_rows(a, n, j, j + 1, tau[j], |_, row| row[j]);
        reflect_vec(rhs, j, tau[j], |i| a[i * n + j]);
    }
}

/// Applies the reflectors of an already-packed factor — `factor` and
/// `tau` as left by [`factor_with_rhs_in_place`] — to another row-major
/// block `b` (`b_cols` wide, as many rows as `factor`) and to `rhs`
/// when it is non-empty: `b ← Qᵀ·b`, `rhs ← Qᵀ·rhs`.
///
/// The arithmetic is exactly the fused kernel's, so factoring
/// `[A | B]` in one pass and factoring `A` then applying its reflectors
/// to `B` leave bit-identical columns in `B`. Per column `c` and
/// reflector `j` (`v_j = 1`): `w = b(j,c) + Σ_{i>j} v_i·b(i,c)`
/// accumulated in increasing `i`, `w ← τ_j·w`, `b(i,c) ← b(i,c) − w·v_i`.
/// Reflectors with `τ = 0` (all-zero columns) are skipped, as the fused
/// kernel skips them.
///
/// # Panics
///
/// Panics if `tau` holds more reflectors than `factor` has, if
/// `b.len() != rows · b_cols`, or if `rhs` is non-empty and its length
/// differs from the row count.
pub fn apply_reflectors_in_place(
    factor: &Mat,
    tau: &[f64],
    b: &mut [f64],
    b_cols: usize,
    rhs: &mut [f64],
) {
    let (m, n) = factor.shape();
    assert!(tau.len() <= m.min(n), "more reflectors than the factor holds");
    assert_eq!(b.len(), m * b_cols, "block length must equal rows*cols");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in apply_reflectors_in_place");
    for (j, &t) in tau.iter().enumerate() {
        if t == 0.0 {
            continue;
        }
        reflect_rows(b, b_cols, j, 0, t, |i, _| factor[(i, j)]);
        reflect_vec(rhs, j, t, |i| factor[(i, j)]);
    }
}

/// Columns per pass of the row-oriented update: their accumulators live
/// on the stack, so the kernel needs no workspace.
const COL_CHUNK: usize = 64;

/// Applies the reflector `I − τ·v·vᵀ` (`v_j = 1`, `v_i = v(i, row_i)`
/// below) to rows `j..` of columns `first_col..cols` of the row-major
/// block `b`. Every column gets the fused kernel's products in its
/// summation order; only the loop nest is swapped so rows stream
/// contiguously.
fn reflect_rows(
    b: &mut [f64],
    cols: usize,
    j: usize,
    first_col: usize,
    tau: f64,
    v: impl Fn(usize, &[f64]) -> f64,
) {
    let rows = b.len().checked_div(cols).unwrap_or(0);
    let mut acc = [0.0_f64; COL_CHUNK];
    for c0 in (first_col..cols).step_by(COL_CHUNK) {
        let width = (cols - c0).min(COL_CHUNK);
        let w = &mut acc[..width];
        w.copy_from_slice(&b[j * cols + c0..][..width]);
        for i in j + 1..rows {
            let row = &b[i * cols..(i + 1) * cols];
            let vi = v(i, row);
            for (wc, x) in w.iter_mut().zip(&row[c0..c0 + width]) {
                *wc += vi * x;
            }
        }
        for wc in w.iter_mut() {
            *wc *= tau;
        }
        for (x, wc) in b[j * cols + c0..][..width].iter_mut().zip(w.iter()) {
            *x -= wc;
        }
        for i in j + 1..rows {
            let vi = v(i, &b[i * cols..(i + 1) * cols]);
            for (x, wc) in b[i * cols + c0..][..width].iter_mut().zip(w.iter()) {
                *x -= wc * vi;
            }
        }
    }
}

/// Applies the reflector `I − τ·v·vᵀ` (`v_j = 1`, `v_i = v(i)` below) to
/// rows `j..` of the vector `y`; a no-op on an empty `y`.
fn reflect_vec(y: &mut [f64], j: usize, tau: f64, v: impl Fn(usize) -> f64) {
    let Some((yj, below)) = y.get_mut(j..).and_then(<[f64]>::split_first_mut) else {
        return;
    };
    let mut dot = *yj;
    for (i, yi) in (j + 1..).zip(below.iter()) {
        dot += v(i) * yi;
    }
    dot *= tau;
    *yj -= dot;
    for (i, yi) in (j + 1..).zip(below.iter_mut()) {
        *yi -= dot * v(i);
    }
}

/// One-shot least squares `min ‖A·x − b‖₂`.
///
/// # Errors
///
/// See [`Qr::solve_lstsq`].
///
/// # Examples
///
/// ```
/// use rvf_numerics::{lstsq, Mat};
///
/// # fn main() -> Result<(), rvf_numerics::NumericsError> {
/// let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
/// let x = lstsq(&a, &[1.0, 1.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn lstsq(a: &Mat, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
    Qr::factor(a).solve_lstsq(b)
}

/// Ridge-regularized least squares: `min ‖A·x − b‖² + λ‖x‖²`.
///
/// Implemented by stacking `√λ·I` under `A`; useful when residue
/// regression systems become ill-conditioned at high pole counts.
///
/// # Errors
///
/// See [`Qr::solve_lstsq`].
pub fn lstsq_ridge(a: &Mat, b: &[f64], lambda: f64) -> Result<Vec<f64>, NumericsError> {
    assert!(lambda >= 0.0, "ridge parameter must be non-negative");
    let (m, n) = a.shape();
    let sq = lambda.sqrt();
    let mut stacked = Mat::zeros(m + n, n);
    for i in 0..m {
        for j in 0..n {
            stacked[(i, j)] = a[(i, j)];
        }
    }
    for j in 0..n {
        stacked[(m + j, j)] = sq;
    }
    let mut rhs = b.to_vec();
    rhs.resize(m + n, 0.0);
    Qr::factor(&stacked).solve_lstsq(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The column-oriented fused kernel the row-oriented one replaced:
    /// one strided dot chain per column. Kept as the bit-level oracle.
    fn column_dot_factor(a: &mut Mat, tau: &mut Vec<f64>, rhs: &mut [f64]) {
        let (m, n) = a.shape();
        let k = m.min(n);
        tau.clear();
        tau.resize(k, 0.0);
        for j in 0..k {
            let mut amax = 0.0_f64;
            for i in j..m {
                amax = amax.max(a[(i, j)].abs());
            }
            if amax == 0.0 {
                continue;
            }
            let mut ssq = 0.0;
            for i in j..m {
                let t = a[(i, j)] / amax;
                ssq += t * t;
            }
            let norm = amax * ssq.sqrt();
            let alpha = if a[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = a[(j, j)] - alpha;
            for i in (j + 1)..m {
                a[(i, j)] /= v0;
            }
            tau[j] = -v0 / alpha;
            a[(j, j)] = alpha;
            for c in (j + 1)..n {
                let mut dot = a[(j, c)];
                for i in (j + 1)..m {
                    dot += a[(i, j)] * a[(i, c)];
                }
                dot *= tau[j];
                a[(j, c)] -= dot;
                for i in (j + 1)..m {
                    let vij = a[(i, j)];
                    a[(i, c)] -= dot * vij;
                }
            }
            if !rhs.is_empty() {
                let mut dot = rhs[j];
                for i in (j + 1)..m {
                    dot += a[(i, j)] * rhs[i];
                }
                dot *= tau[j];
                rhs[j] -= dot;
                for i in (j + 1)..m {
                    rhs[i] -= dot * a[(i, j)];
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `rows × cols` matrix from `data`, with the columns flagged in
    /// `zero_mask` forced to zero (identity reflectors).
    fn masked(rows: usize, cols: usize, data: &[f64], zero_mask: u32) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            if zero_mask >> j & 1 == 1 {
                0.0
            } else {
                data[(i * cols + j) % data.len()]
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn row_kernel_is_bit_identical_to_column_dot_oracle(
            rows in 0usize..14,
            cols in 0usize..11,
            data in prop::collection::vec(-5.0..5.0f64, 97),
            zero_mask in 0u32..2048,
            rhs_data in prop::collection::vec(-5.0..5.0f64, 14),
            with_rhs in 0u8..2,
        ) {
            // Covers wide (m < n) shapes, all-zero columns and an empty RHS.
            let a = masked(rows, cols, &data, zero_mask);
            let rhs0: Vec<f64> = if with_rhs == 1 { rhs_data[..rows].to_vec() } else { Vec::new() };
            let (mut want, mut want_tau, mut want_rhs) = (a.clone(), Vec::new(), rhs0.clone());
            column_dot_factor(&mut want, &mut want_tau, &mut want_rhs);
            let (mut got, mut got_tau, mut got_rhs) = (a, vec![3.0; 5], rhs0);
            factor_with_rhs_in_place(&mut got, &mut got_tau, &mut got_rhs);
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            prop_assert_eq!(bits(&got_tau), bits(&want_tau));
            prop_assert_eq!(bits(&got_rhs), bits(&want_rhs));
        }

        #[test]
        fn shared_reflectors_then_trailing_factor_match_one_pass(
            rows in 1usize..14,
            left in 1usize..6,
            right in 0usize..7,
            data in prop::collection::vec(-5.0..5.0f64, 89),
            zero_mask in 0u32..512,
            rhs_data in prop::collection::vec(-5.0..5.0f64, 14),
        ) {
            // Factoring [A | B] in one pass, and factoring A, applying
            // its reflectors to B, then factoring B's trailing rows, must
            // leave the same bits in B's columns and in Qᵀb.
            let n = left + right;
            let full = masked(rows, n, &data, zero_mask);
            let rhs0 = rhs_data[..rows].to_vec();
            let (mut one, mut one_tau, mut one_rhs) = (full.clone(), Vec::new(), rhs0.clone());
            factor_with_rhs_in_place(&mut one, &mut one_tau, &mut one_rhs);

            let mut a = Mat::from_fn(rows, left, |i, j| full[(i, j)]);
            let mut a_tau = Vec::new();
            factor_with_rhs_in_place(&mut a, &mut a_tau, &mut []);
            let mut b: Vec<f64> = (0..rows).flat_map(|i| full.row(i)[left..].to_vec()).collect();
            let mut b_rhs = rhs0;
            apply_reflectors_in_place(&a, &a_tau, &mut b, right, &mut b_rhs);
            let top = left.min(rows);
            let mut t_tau = Vec::new();
            factor_block_in_place(&mut b[top * right..], rows - top, right, &mut t_tau, &mut b_rhs[top..]);

            let want_b: Vec<f64> = (0..rows).flat_map(|i| one.row(i)[left..].to_vec()).collect();
            prop_assert_eq!(bits(&b), bits(&want_b));
            prop_assert_eq!(bits(&b_rhs), bits(&one_rhs));
            let mut tau = a_tau;
            tau.extend_from_slice(&t_tau);
            prop_assert_eq!(bits(&tau), bits(&one_tau));
        }
    }

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn square_solve_via_lstsq() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        approx(&x, &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // y = 2 + 3 t, perturbation-free.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Mat::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { ts[i] });
        let b: Vec<f64> = ts.iter().map(|t| 2.0 + 3.0 * t).collect();
        let x = lstsq(&a, &b).unwrap();
        approx(&x, &[2.0, 3.0], 1e-12);
    }

    #[test]
    fn lstsq_minimizes_residual() {
        // Inconsistent system: check normal equations Aᵀ(Ax - b) = 0.
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [0.0, 1.0, 0.0, 2.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let atr = a.matvec_t(&r);
        for v in atr {
            assert!(v.abs() < 1e-12, "normal equations violated: {v}");
        }
    }

    #[test]
    fn q_is_orthonormal_and_reconstructs() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let f = Qr::factor(&a);
        let q = f.q();
        let r = f.r();
        // QᵀQ = I.
        let qtq = q.transpose().matmul(&q);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expect).abs() < 1e-12);
            }
        }
        // Q R = A.
        let qr = q.matmul(&r);
        for i in 0..4 {
            for j in 0..2 {
                assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rank_detection() {
        // Rank-1 matrix.
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let f = Qr::factor(&a);
        assert_eq!(f.rank(1e-10), 1);
        assert!(matches!(
            f.solve_lstsq(&[1.0, 2.0, 3.0]),
            Err(NumericsError::RankDeficient { .. })
        ));
    }

    #[test]
    fn ridge_shrinks_solution() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x0 = lstsq_ridge(&a, &[1.0, 1.0], 0.0).unwrap();
        let x1 = lstsq_ridge(&a, &[1.0, 1.0], 1.0).unwrap();
        approx(&x0, &[1.0, 1.0], 1e-12);
        approx(&x1, &[0.5, 0.5], 1e-12);
    }

    #[test]
    fn wide_system_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Qr::factor(&a).solve_lstsq(&[1.0, 2.0]),
            Err(NumericsError::RankDeficient { .. })
        ));
    }

    #[test]
    fn in_place_factor_exposes_r_in_packed_form() {
        let a = Mat::from_fn(6, 3, |i, j| ((i * 3 + j) as f64 + 0.5).cos());
        let mut packed = a.clone();
        let mut tau = Vec::new();
        let mut rhs = vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.5];
        factor_with_rhs_in_place(&mut packed, &mut tau, &mut rhs);
        let f = Qr::factor(&a);
        let r = f.r();
        for i in 0..3 {
            for j in i..3 {
                assert_eq!(packed[(i, j)].to_bits(), r[(i, j)].to_bits());
            }
        }
        let y = f.qt_mul(&[1.0, -1.0, 0.5, 2.0, 0.0, 1.5]);
        for (p, q) in rhs.iter().zip(&y) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn in_place_factor_reuses_tau_capacity() {
        let a = Mat::from_fn(8, 5, |i, j| (i + 2 * j) as f64 + 0.25);
        let mut work = a.clone();
        let mut tau = vec![9.0; 32];
        factor_with_rhs_in_place(&mut work, &mut tau, &mut []);
        assert_eq!(tau.len(), 5);
        // A zero column yields the identity reflector (tau = 0).
        let z = Mat::zeros(4, 2);
        let mut wz = z.clone();
        factor_with_rhs_in_place(&mut wz, &mut tau, &mut []);
        assert_eq!(tau, vec![0.0, 0.0]);
    }

    #[test]
    fn scaled_norm_survives_extreme_columns() {
        // hypot-free norms must not overflow/underflow on extreme data:
        // naive sum-of-squares would overflow at 1e200 per entry.
        let big = Mat::from_rows(&[&[1e200, 2e200], &[3e200, 4e200], &[5e200, 7e200]]);
        let x = Qr::factor(&big).solve_lstsq(&[1e200, 2e200, 3e200]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        // x solves the system scaled down by 1e200: A/1e200 · x = b/1e200.
        let small = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 7.0]]);
        let x_small = Qr::factor(&small).solve_lstsq(&[1.0, 2.0, 3.0]).unwrap();
        for (a, b) in x.iter().zip(&x_small) {
            assert!((a - b).abs() < 1e-12, "{x:?} vs {x_small:?}");
        }
        let tiny = Mat::from_rows(&[&[1e-200, 1.0], &[2e-200, 1.0], &[3e-200, 2.0]]);
        let f = Qr::factor(&tiny);
        assert!(f.r()[(0, 0)].abs() > 0.0 && f.r()[(0, 0)].is_finite());
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Mat::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let r = Qr::factor(&a).r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }
}
