//! LU factorization with partial pivoting, real and complex.
//!
//! The circuit simulator solves `J·Δv = -f` at every Newton iteration
//! (real) and the TFT sampler solves `(G + s·C)·x = B` per frequency
//! point (complex); both go through the factorizations here.

use crate::cmatrix::CMat;
use crate::complex::Complex;
use crate::error::NumericsError;
use crate::matrix::Mat;

/// LU factorization of a square real matrix with partial pivoting.
///
/// A `Lu` doubles as a reusable workspace: [`Lu::refactor`] and
/// [`Lu::refactor_with`] factor a new matrix in the memory of the last
/// one, and [`Lu::solve_into`] writes into a caller's buffer, so a
/// Newton loop factors and solves without allocating. [`Lu::factor`]
/// and [`Lu::solve`] are allocating wrappers over the same kernel.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{Lu, Mat};
///
/// # fn main() -> Result<(), rvf_numerics::NumericsError> {
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
///
/// // Reuse the workspace for a second matrix of the same size.
/// let mut ws = lu;
/// ws.refactor(&Mat::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]))?;
/// let mut y = [0.0; 2];
/// ws.solve_into(&[4.0, 3.0], &mut y)?;
/// assert_eq!(y, [3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Mat,
    /// Row permutation: original row of pivot `i`. Empty after a failed
    /// factorization, so no solve runs on a half-eliminated matrix.
    piv: Vec<usize>,
}

impl Lu {
    /// Factors `a` as `P·A = L·U`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] if a pivot is exactly zero, and
    /// [`NumericsError::NotSquare`] if `a` is not square.
    pub fn factor(a: &Mat) -> Result<Self, NumericsError> {
        let mut lu = Self::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factors `a` in place of the workspace's last factorization,
    /// allocating only when `a`'s size differs from it.
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`].
    pub fn refactor(&mut self, a: &Mat) -> Result<(), NumericsError> {
        if !a.is_square() {
            return Err(NumericsError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        self.refactor_with(a.rows(), |m| m.copy_from_slice(a.as_slice()))
    }

    /// Factors the `n × n` matrix that `fill` writes, row-major, over the
    /// workspace (whose prior contents are unspecified), so a caller can
    /// assemble the matrix straight into the factor's memory.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] if a pivot is exactly zero.
    /// The workspace then holds no factorization: solves report a
    /// dimension mismatch until the next successful refactor.
    pub fn refactor_with(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> Result<(), NumericsError> {
        if self.lu.shape() != (n, n) {
            self.lu = Mat::zeros(n, n);
        }
        fill(self.lu.as_mut_slice());
        eliminate(self.lu.as_mut_slice(), n, &mut self.piv)
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.piv.len()
    }

    /// The combined factors: `U` on and above the diagonal, the
    /// multipliers of the unit lower `L` below it.
    pub fn factors(&self) -> &Mat {
        &self.lu
    }

    /// The row permutation: entry `i` is the original row of pivot `i`.
    pub fn permutation(&self) -> &[usize] {
        &self.piv
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` or
    /// `x.len()` differs from the factored dimension (which is 0 after a
    /// failed factorization).
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(NumericsError::DimensionMismatch { expected: n, got: len });
            }
        }
        // Apply permutation.
        for (xi, &p) in x.iter_mut().zip(&self.piv) {
            *xi = b[p];
        }
        let lu = self.lu.as_slice();
        // Forward substitution (L is unit lower).
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (l, xj) in lu[i * n..i * n + i].iter().zip(done.iter()) {
                acc -= l * xj;
            }
            rest[0] = acc;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let (head, solved) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (u, xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(())
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns an error if `b.rows()` differs from the factored dimension.
    pub(crate) fn solve_mat(&self, b: &Mat) -> Result<Mat, NumericsError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(NumericsError::DimensionMismatch { expected: n, got: b.rows() });
        }
        let mut out = Mat::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on a workspace whose
    /// last factorization failed.
    pub fn inverse(&self) -> Result<Mat, NumericsError> {
        self.solve_mat(&Mat::identity(self.lu.rows()))
    }

    /// Crude reciprocal condition estimate `min|U_ii| / max|U_ii|`.
    pub fn rcond_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for i in 0..self.dim() {
            let d = self.lu[(i, i)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if hi == 0.0 {
            0.0
        } else {
            lo / hi
        }
    }
}

/// The elimination kernel behind every real factorization: factors the
/// row-major `n × n` matrix `a` in place as `P·A = L·U` and writes the
/// row permutation to `piv`, which is reset first. Each update is
/// `a[i][j] −= m·a[k][j]` in the order of the index loop over `(i, j)`,
/// skipped for a zero multiplier.
fn eliminate(a: &mut [f64], n: usize, piv: &mut Vec<usize>) -> Result<(), NumericsError> {
    piv.clear();
    piv.extend(0..n);
    for k in 0..n {
        // Pivot search in column k.
        let mut p = k;
        let mut best = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            piv.clear();
            return Err(NumericsError::Singular { pivot: k });
        }
        // Rows 0..=k above the split, rows k+1.. below it.
        let (upper, below) = a.split_at_mut((k + 1) * n);
        let row_k = &mut upper[k * n..];
        if p != k {
            row_k.swap_with_slice(&mut below[(p - k - 1) * n..(p - k) * n]);
            piv.swap(k, p);
        }
        let pivot = row_k[k];
        let tail_k = &row_k[k + 1..];
        for row_i in below.chunks_exact_mut(n) {
            let m = row_i[k] / pivot;
            row_i[k] = m;
            if m != 0.0 {
                for (v, &u) in row_i[k + 1..].iter_mut().zip(tail_k) {
                    *v -= m * u;
                }
            }
        }
    }
    Ok(())
}

/// LU factorization of a square complex matrix with partial pivoting.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{c, CLu, CMat};
///
/// # fn main() -> Result<(), rvf_numerics::NumericsError> {
/// let mut a = CMat::identity(2);
/// a[(0, 1)] = c(0.0, 1.0);
/// let lu = CLu::factor(&a)?;
/// let x = lu.solve(&[c(1.0, 1.0), c(2.0, 0.0)])?;
/// assert!((x[1] - c(2.0, 0.0)).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CLu {
    lu: CMat,
    piv: Vec<usize>,
}

impl CLu {
    /// Factors `a` as `P·A = L·U`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] if a pivot is exactly zero, and
    /// [`NumericsError::NotSquare`] if `a` is not square.
    pub fn factor(a: &CMat) -> Result<Self, NumericsError> {
        if a.rows() != a.cols() {
            return Err(NumericsError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut best = lu[(k, k)].norm_sqr();
            for i in (k + 1)..n {
                let v = lu[(i, k)].norm_sqr();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(NumericsError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                piv.swap(k, p);
            }
            let pivot = lu[(k, k)];
            let pinv = pivot.inv();
            for i in (k + 1)..n {
                let m = lu[(i, k)] * pinv;
                lu[(i, k)] = m;
                if m != Complex::ZERO {
                    for j in (k + 1)..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }
        Ok(Self { lu, piv })
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on a length mismatch.
    // Substitution reads x[j] for j on one side of i while writing x[i];
    // the index loops keep that operation order explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, NumericsError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch { expected: n, got: b.len() });
        }
        let mut x: Vec<Complex> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc * self.lu[(i, i)].inv();
        }
        Ok(x)
    }

    /// Solves with a real right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on a length mismatch.
    pub fn solve_real(&self, b: &[f64]) -> Result<Vec<Complex>, NumericsError> {
        let cb: Vec<Complex> = b.iter().map(|&v| Complex::from_re(v)).collect();
        self.solve(&cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c;

    #[test]
    fn real_solve_3x3() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let lu = Lu::factor(&a).unwrap();
        let b = [5.0, -2.0, 9.0];
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-15);
        assert!((x[1] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn singular_is_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(NumericsError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(NumericsError::NotSquare { .. })));
    }

    #[test]
    fn inverse_round_trip() {
        let a = Mat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_solve_round_trip() {
        let mut a = CMat::zeros(3, 3);
        a[(0, 0)] = c(2.0, 1.0);
        a[(0, 1)] = c(0.0, -1.0);
        a[(0, 2)] = c(1.0, 0.0);
        a[(1, 0)] = c(0.0, 3.0);
        a[(1, 1)] = c(1.0, 1.0);
        a[(1, 2)] = c(0.0, 0.0);
        a[(2, 0)] = c(1.0, 0.0);
        a[(2, 1)] = c(2.0, -2.0);
        a[(2, 2)] = c(3.0, 3.0);
        let b = vec![c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 2.0)];
        let lu = CLu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((*ri - *bi).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_singular_detected() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(1.0, 1.0);
        a[(0, 1)] = c(2.0, 2.0);
        a[(1, 0)] = c(2.0, 2.0);
        a[(1, 1)] = c(4.0, 4.0);
        assert!(matches!(CLu::factor(&a), Err(NumericsError::Singular { .. })));
    }

    #[test]
    fn rcond_estimate_sane() {
        let a = Mat::from_diag(&[1.0, 1e-8]);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.rcond_estimate() < 1e-7);
        let b = Mat::identity(4);
        assert_eq!(Lu::factor(&b).unwrap().rcond_estimate(), 1.0);
    }
}
