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
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Mat,
    /// Row permutation: original row of pivot `i`.
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
        if !a.is_square() {
            return Err(NumericsError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
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
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
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
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    // Substitution reads x[j] for j on one side of i while writing x[i];
    // the index loops keep that operation order explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch { expected: n, got: b.len() });
        }
        // Apply permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L is unit lower).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
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
    /// Propagates solve failures (cannot occur once factored).
    pub fn inverse(&self) -> Result<Mat, NumericsError> {
        self.solve_mat(&Mat::identity(self.dim()))
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
