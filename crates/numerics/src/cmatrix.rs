//! Dense row-major complex matrices.
//!
//! The TFT step evaluates `Dᵀ (G + s·C)⁻¹ B` at complex frequencies `s`,
//! which requires complex system assembly and solves; [`CMat`] mirrors
//! [`crate::Mat`] for `Complex` entries.

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::complex::Complex;
use crate::matrix::Mat;

/// A dense, row-major matrix of [`Complex`] entries.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{c, CMat};
///
/// let a = CMat::identity(2);
/// assert_eq!(a[(0, 0)], c(1.0, 0.0));
/// ```
#[derive(Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Complex::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds the complex combination `A + s·B` of two real matrices.
    ///
    /// This is the MNA frequency-domain system matrix `G + s·C`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn from_real_pair(a: &Mat, s: Complex, b: &Mat) -> Self {
        assert_eq!(a.shape(), b.shape(), "shape mismatch in from_real_pair");
        let (rows, cols) = a.shape();
        let data = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&ga, &ca)| Complex::from_re(ga) + s * ca)
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Complex] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [Complex] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut y = vec![Complex::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (a, b) in self.row(i).iter().zip(x) {
                acc += *a * *b;
            }
            *yi = acc;
        }
        y
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub(crate) fn matmul(&self, other: &CMat) -> CMat {
        assert_eq!(self.cols, other.rows, "dimension mismatch in matmul");
        let mut out = CMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex::ZERO {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aik * *b;
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(6) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect();
        CMat { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect();
        CMat { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.matmul(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c;

    #[test]
    fn from_real_pair_builds_g_plus_sc() {
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let cm = Mat::from_rows(&[&[0.5, 0.0], &[0.0, 0.25]]);
        let s = c(0.0, 2.0);
        let a = CMat::from_real_pair(&g, s, &cm);
        assert_eq!(a[(0, 0)], c(1.0, 1.0));
        assert_eq!(a[(1, 1)], c(2.0, 0.5));
    }

    #[test]
    fn matmul_identity() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(1.0, 1.0);
        a[(0, 1)] = c(0.0, -1.0);
        a[(1, 0)] = c(2.0, 0.0);
        a[(1, 1)] = c(3.0, -2.0);
        let i = CMat::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matvec_complex() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c(0.0, 1.0); // j
        a[(1, 1)] = c(2.0, 0.0);
        let x = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let y = a.matvec(&x);
        assert_eq!(y[0], c(0.0, 1.0));
        assert_eq!(y[1], c(0.0, 2.0));
    }
}
