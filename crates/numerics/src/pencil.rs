//! Hessenberg–triangular reduction of a real matrix pencil `(G, C)`.
//!
//! The TFT sampler evaluates `Dᵀ·(G + s·C)⁻¹·B` for one snapshot at
//! many frequencies `s`. Factoring `G + s·C` from scratch at every `s`
//! costs `O(n³)` per frequency point. [`HtPencil::reduce`] instead pays
//! one `O(n³)` orthogonal reduction per snapshot — the first phase of
//! the QZ algorithm (Golub & Van Loan §7.7): orthogonal `Q`, `Z` with
//!
//! ```text
//! Qᵀ·G·Z = H   (upper Hessenberg)
//! Qᵀ·C·Z = R   (upper triangular)
//! ```
//!
//! so that for *every* frequency `G + s·C = Q·(H + s·R)·Zᵀ`, and
//! `H + s·R` stays upper Hessenberg. A Hessenberg system solves in
//! `O(n²)` (one Gaussian elimination sweep along the subdiagonal plus
//! back-substitution), turning a sweep over `L` frequencies from
//! `O(L·n³)` into `O(n³ + L·n²)`.
//!
//! Unlike the full QZ iteration, the reduction is direct (no
//! convergence loop) and never divides by a diagonal of `R`, so a
//! singular `C` — e.g. a pure-resistive snapshot with no dynamic
//! elements — reduces fine; only a genuinely singular `G + s·C` makes
//! the subsequent solve fail.
//!
//! # Examples
//!
//! ```
//! use rvf_numerics::{Complex, HtPencil, Mat};
//!
//! # fn main() -> Result<(), rvf_numerics::NumericsError> {
//! // A 1-section RC ladder pencil: G + s·C with H(s) = 1/(1 + s).
//! let g = Mat::from_rows(&[&[1.0, -1.0], &[-1.0, 2.0]]);
//! let c = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
//! let p = HtPencil::reduce(&g, &c)?;
//! let x = p.solve(Complex::from_im(1.0), &[1.0, 0.0])?;
//! // Same solution as factoring G + j·C directly.
//! assert!(x.iter().all(|v| v.is_finite()));
//! # Ok(())
//! # }
//! ```

use crate::cmatrix::CMat;
use crate::complex::Complex;
use crate::error::NumericsError;
use crate::matrix::Mat;
use crate::qr::Qr;

/// A pencil `(G, C)` reduced to Hessenberg–triangular form
/// `(H, R) = (Qᵀ·G·Z, Qᵀ·C·Z)`.
///
/// Reduce once per snapshot with [`HtPencil::reduce`], then evaluate
/// `(G + s·C)⁻¹·b` at any number of frequencies with [`HtPencil::solve`]
/// (or the projected variants when `b`/`d` are fixed across the sweep)
/// at `O(n²)` each.
#[derive(Debug, Clone)]
pub struct HtPencil {
    /// `Qᵀ·G·Z`, upper Hessenberg.
    h: Mat,
    /// `Qᵀ·C·Z`, upper triangular.
    r: Mat,
    /// Left orthogonal factor.
    q: Mat,
    /// Right orthogonal factor.
    z: Mat,
}

impl HtPencil {
    /// Reduces `(g, c)` to Hessenberg–triangular form.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NotSquare`] if `g` is rectangular and
    /// [`NumericsError::DimensionMismatch`] if the shapes differ. The
    /// reduction itself cannot fail: it is a fixed sequence of
    /// orthogonal transforms, valid for any pencil including singular
    /// `C` or `G`.
    pub fn reduce(g: &Mat, c: &Mat) -> Result<Self, NumericsError> {
        if !g.is_square() {
            return Err(NumericsError::NotSquare { rows: g.rows(), cols: g.cols() });
        }
        if g.shape() != c.shape() {
            return Err(NumericsError::DimensionMismatch { expected: g.rows(), got: c.rows() });
        }
        let n = g.rows();
        // Stage 1: C = Q·R (Householder QR), then H ← Qᵀ·G, Z = I.
        let qr = Qr::factor(c);
        let q = qr.q();
        let mut r = qr.r();
        let mut h = q.transpose().matmul(g);
        let mut q = q;
        let mut z = Mat::identity(n);

        // Stage 2: chase the sub-Hessenberg entries of H to zero with
        // Givens rotations, restoring R's triangularity after each one
        // (Golub & Van Loan Algorithm 7.7.1).
        if n >= 3 {
            for j in 0..n - 2 {
                for i in (j + 2..n).rev() {
                    // Left rotation on rows (i-1, i) zeroing H[i][j].
                    let (gc, gs) = givens(h[(i - 1, j)], h[(i, j)]);
                    rot_rows(&mut h, i - 1, i, gc, gs, j);
                    rot_rows(&mut r, i - 1, i, gc, gs, i - 1);
                    rot_cols_accum(&mut q, i - 1, i, gc, gs);
                    h[(i, j)] = 0.0;
                    // That fills R[i][i-1]; a right rotation on columns
                    // (i-1, i) restores the triangle.
                    let (zc, zs) = givens_col(r[(i, i - 1)], r[(i, i)]);
                    rot_cols(&mut r, i - 1, i, zc, zs, i + 1);
                    rot_cols(&mut h, i - 1, i, zc, zs, n);
                    rot_cols(&mut z, i - 1, i, zc, zs, n);
                    r[(i, i - 1)] = 0.0;
                }
            }
        }
        Ok(Self { h, r, q, z })
    }

    /// Dimension of the pencil.
    #[inline]
    pub fn dim(&self) -> usize {
        self.h.rows()
    }

    /// The upper Hessenberg factor `H = Qᵀ·G·Z`.
    pub fn hessenberg(&self) -> &Mat {
        &self.h
    }

    /// The upper triangular factor `R = Qᵀ·C·Z`.
    pub fn triangular(&self) -> &Mat {
        &self.r
    }

    /// The left orthogonal factor `Q`.
    pub fn q(&self) -> &Mat {
        &self.q
    }

    /// The right orthogonal factor `Z`.
    pub fn z(&self) -> &Mat {
        &self.z
    }

    /// Projects a right-hand side into the reduced basis: `Qᵀ·b`.
    ///
    /// Hoist this out of a frequency loop when `b` is fixed.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on a length mismatch.
    pub fn project_input(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.check_len(b)?;
        Ok(self.q.matvec_t(b))
    }

    /// Projects an output row into the reduced basis: `Zᵀ·d`, so that
    /// `dᵀ·x = (Zᵀ·d)ᵀ·y` for a reduced solution `y`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on a length mismatch.
    pub fn project_output(&self, d: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.check_len(d)?;
        Ok(self.z.matvec_t(d))
    }

    /// Solves the reduced Hessenberg system `(H + s·R)·y = bt` in
    /// `O(n²)`, where `bt` is a projected right-hand side from
    /// [`HtPencil::project_input`].
    ///
    /// Purely imaginary evaluation points — the jω grid of an AC or TFT
    /// sweep, by far the common case — dispatch to the real-arithmetic
    /// kernel [`HtPencil::solve_reduced_jw`]; everything else takes the
    /// general complex path ([`HtPencil::solve_reduced_complex`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] when `G + s·C` is singular at
    /// this frequency and [`NumericsError::DimensionMismatch`] on a
    /// length mismatch.
    pub(crate) fn solve_reduced(
        &self,
        s: Complex,
        bt: &[f64],
    ) -> Result<Vec<Complex>, NumericsError> {
        if s.re == 0.0 {
            self.solve_reduced_jw(s.im, bt)
        } else {
            self.solve_reduced_complex(s, bt)
        }
    }

    /// The general-complex reference path of the reduced solve `(H +
    /// s·R)·y = bt`: assembles `H + s·R` as a complex matrix and runs a
    /// complex Hessenberg elimination. Public so the jω kernel can be
    /// pinned against it (tests, proptests, and the
    /// `pencil_solve_real_vs_complex` bench); production callers go
    /// through [`HtPencil::solve`] or [`HtPencil::transfer_projected`],
    /// which send jω points to [`HtPencil::solve_reduced_jw`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] when `G + s·C` is singular at
    /// this frequency and [`NumericsError::DimensionMismatch`] on a
    /// length mismatch.
    pub fn solve_reduced_complex(
        &self,
        s: Complex,
        bt: &[f64],
    ) -> Result<Vec<Complex>, NumericsError> {
        self.check_len(bt)?;
        let mut m = CMat::from_real_pair(&self.h, s, &self.r);
        let mut y: Vec<Complex> = bt.iter().map(|&v| Complex::from_re(v)).collect();
        hessenberg_solve_in_place(&mut m, &mut y)?;
        Ok(y)
    }

    /// Solves `(H + jω·R)·y = bt` with the real-arithmetic jω kernel:
    /// no complex matrix is ever assembled.
    ///
    /// The shifted matrix is carried as split real/imaginary planes
    /// built straight from the real factors (`re = H`, `im = ω·R` — one
    /// real multiply per entry, not a complex one), the right-hand side
    /// starts purely real, and the elimination/back-substitution run as
    /// scalar `f64` arithmetic: complex divides are Smith-scaled pivot
    /// reciprocals carried as two real scalars (matching the complex
    /// path's robustness to extreme pivot magnitudes, without `Complex`
    /// values). Same adjacent-row partial pivoting decisions as the
    /// complex path, so both paths agree to roundoff (pinned at ≤1e-12
    /// relative by the `pencil` proptests).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HtPencil::solve_reduced_complex`].
    pub fn solve_reduced_jw(&self, omega: f64, bt: &[f64]) -> Result<Vec<Complex>, NumericsError> {
        self.check_len(bt)?;
        let mut planes = JwPlanes::default();
        self.solve_jw_into(omega, bt, &mut planes)?;
        Ok(planes.solution().collect())
    }

    /// Loads `H + jω·R` and `bt` into `planes` and runs the jω kernel,
    /// leaving the solution in `(planes.yr, planes.yi)`; `bt` has the
    /// pencil's dimension.
    fn solve_jw_into(
        &self,
        omega: f64,
        bt: &[f64],
        planes: &mut JwPlanes,
    ) -> Result<(), NumericsError> {
        let JwPlanes { mr, mi, yr, yi } = planes;
        mr.clear();
        mr.extend_from_slice(self.h.as_slice());
        mi.clear();
        mi.extend(self.r.as_slice().iter().map(|&v| omega * v));
        yr.clear();
        yr.extend_from_slice(bt);
        yi.clear();
        yi.resize(bt.len(), 0.0);
        jw_hessenberg_solve_in_place(self.dim(), mr, mi, yr, yi)
    }

    /// Evaluates `dtᵀ·(H + s·R)⁻¹·bt` for projected ports `bt = Qᵀ·b`,
    /// `dt = Zᵀ·d` — the per-frequency kernel of a transfer sweep.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HtPencil::solve_reduced_complex`].
    pub fn transfer_projected(
        &self,
        bt: &[f64],
        dt: &[f64],
        s: Complex,
    ) -> Result<Complex, NumericsError> {
        Ok(self.transfer_projected_sweep(bt, dt, &[s])?[0])
    }

    /// [`HtPencil::transfer_projected`] at every point of `ss`, in order.
    /// The jω points share one set of kernel buffers, so the sweep
    /// allocates the same amount at any length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HtPencil::solve_reduced_complex`], at the
    /// first point that fails.
    pub fn transfer_projected_sweep(
        &self,
        bt: &[f64],
        dt: &[f64],
        ss: &[Complex],
    ) -> Result<Vec<Complex>, NumericsError> {
        self.check_len(dt)?;
        self.check_len(bt)?;
        let mut planes = JwPlanes::default();
        let mut out = Vec::with_capacity(ss.len());
        for &s in ss {
            out.push(if s.re == 0.0 {
                self.solve_jw_into(s.im, bt, &mut planes)?;
                project(dt, planes.solution())
            } else {
                project(dt, self.solve_reduced_complex(s, bt)?)
            });
        }
        Ok(out)
    }

    /// [`NumericsError::DimensionMismatch`] unless `v` has the pencil's
    /// dimension.
    fn check_len(&self, v: &[f64]) -> Result<(), NumericsError> {
        if v.len() != self.dim() {
            return Err(NumericsError::DimensionMismatch { expected: self.dim(), got: v.len() });
        }
        Ok(())
    }

    /// Solves the original system `(G + s·C)·x = b` through the reduced
    /// form: project, Hessenberg-solve, rotate back (`x = Z·y`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`HtPencil::solve_reduced_complex`].
    pub fn solve(&self, s: Complex, b: &[f64]) -> Result<Vec<Complex>, NumericsError> {
        let bt = self.project_input(b)?;
        let y = self.solve_reduced(s, &bt)?;
        let n = self.dim();
        let mut x = vec![Complex::ZERO; n];
        for (i, xi) in x.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (zij, yj) in self.z.row(i).iter().zip(&y) {
                acc += yj.scale(*zij);
            }
            *xi = acc;
        }
        Ok(x)
    }
}

/// The split real/imaginary planes the jω kernel works in, reused across
/// the frequency points of a sweep.
#[derive(Debug, Default)]
struct JwPlanes {
    mr: Vec<f64>,
    mi: Vec<f64>,
    yr: Vec<f64>,
    yi: Vec<f64>,
}

impl JwPlanes {
    /// The kernel's solution as complex values.
    fn solution(&self) -> impl Iterator<Item = Complex> + '_ {
        self.yr.iter().zip(&self.yi).map(|(&re, &im)| Complex::new(re, im))
    }
}

/// The output projection `dtᵀ·y` of a reduced solution `y`.
fn project(dt: &[f64], y: impl IntoIterator<Item = Complex>) -> Complex {
    let mut acc = Complex::ZERO;
    for (di, yi) in dt.iter().zip(y) {
        acc += yi.scale(*di);
    }
    acc
}

/// Givens pair `(c, s)` such that the row rotation
/// `[c s; -s c]·[a; b] = [r; 0]`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    let r = f64::hypot(a, b);
    if r == 0.0 {
        (1.0, 0.0)
    } else {
        (a / r, b / r)
    }
}

/// Givens pair `(c, s)` for a column rotation sending entry `x`
/// (paired against `y` in the next column) to zero:
/// `col' = c·col − s·next`, which maps `(x, y)` to `(c·x − s·y, …) = 0`.
fn givens_col(x: f64, y: f64) -> (f64, f64) {
    let r = f64::hypot(x, y);
    if r == 0.0 {
        (1.0, 0.0)
    } else {
        (y / r, x / r)
    }
}

/// Applies the left rotation to rows `(i, k)` of `a`, columns `from..`.
fn rot_rows(a: &mut Mat, i: usize, k: usize, c: f64, s: f64, from: usize) {
    let n = a.cols();
    for j in from..n {
        let u = a[(i, j)];
        let v = a[(k, j)];
        a[(i, j)] = c * u + s * v;
        a[(k, j)] = -s * u + c * v;
    }
}

/// Applies the right rotation to columns `(j, k)` of `a`, rows `..upto`.
fn rot_cols(a: &mut Mat, j: usize, k: usize, c: f64, s: f64, upto: usize) {
    let m = a.rows().min(upto);
    for i in 0..m {
        let u = a[(i, j)];
        let v = a[(i, k)];
        a[(i, j)] = c * u - s * v;
        a[(i, k)] = s * u + c * v;
    }
}

/// Accumulates a left row-rotation into `q` (i.e. `Q ← Q·Pᵀ` when the
/// rotation `P` was applied to the reduced factors from the left).
fn rot_cols_accum(q: &mut Mat, i: usize, k: usize, c: f64, s: f64) {
    let n = q.rows();
    for row in 0..n {
        let u = q[(row, i)];
        let v = q[(row, k)];
        q[(row, i)] = c * u + s * v;
        q[(row, k)] = -s * u + c * v;
    }
}

/// In-place solve of an upper Hessenberg complex system `M·y = rhs`
/// with adjacent-row partial pivoting: `O(n²)`.
fn hessenberg_solve_in_place(m: &mut CMat, rhs: &mut [Complex]) -> Result<(), NumericsError> {
    let n = m.rows();
    // Forward sweep: eliminate the single subdiagonal entry per column.
    for k in 0..n.saturating_sub(1) {
        if m[(k + 1, k)].norm_sqr() > m[(k, k)].norm_sqr() {
            for j in k..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(k + 1, j)];
                m[(k + 1, j)] = tmp;
            }
            rhs.swap(k, k + 1);
        }
        if m[(k + 1, k)] == Complex::ZERO {
            continue;
        }
        let factor = m[(k + 1, k)] * m[(k, k)].inv();
        for j in (k + 1)..n {
            let v = m[(k, j)];
            m[(k + 1, j)] -= factor * v;
        }
        m[(k + 1, k)] = Complex::ZERO;
        let v = rhs[k];
        rhs[k + 1] -= factor * v;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for j in (i + 1)..n {
            acc -= m[(i, j)] * rhs[j];
        }
        let d = m[(i, i)];
        if d == Complex::ZERO {
            return Err(NumericsError::Singular { pivot: i });
        }
        rhs[i] = acc * d.inv();
    }
    Ok(())
}

/// Smith-scaled complex division `(ar + j·ai) / (br + j·bi)` in scalar
/// real arithmetic: one real division for the scaling ratio, one real
/// reciprocal for the scaled denominator, multiplies elsewhere. Scaling
/// by the larger denominator component keeps the intermediate products
/// in range wherever the quotient itself is representable — the same
/// overflow/underflow behaviour as the complex path's [`Complex::inv`],
/// where a naive `conj/|b|²` form would spuriously over- or underflow
/// for `|b|` outside roughly `[1e-154, 1e154]`.
#[inline]
fn smith_div(ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64) {
    if br.abs() >= bi.abs() {
        let r = bi / br;
        let inv = 1.0 / (br + bi * r);
        ((ar + ai * r) * inv, (ai - ar * r) * inv)
    } else {
        let r = br / bi;
        let inv = 1.0 / (bi + br * r);
        ((ar * r + ai) * inv, (ai * r - ar) * inv)
    }
}

/// In-place real-arithmetic solve of the upper Hessenberg system
/// `(Mr + j·Mi)·(yr + j·yi) = yr₀ + j·yi₀` with adjacent-row partial
/// pivoting, on split row-major `n×n` planes: `O(n²)` scalar `f64`
/// operations, no `Complex` values anywhere.
///
/// Pivot comparisons use squared magnitudes (the same decisions as the
/// complex path) and divisions are Smith-scaled ([`smith_div`],
/// matching the complex path's robustness to extreme magnitudes).
fn jw_hessenberg_solve_in_place(
    n: usize,
    mr: &mut [f64],
    mi: &mut [f64],
    yr: &mut [f64],
    yi: &mut [f64],
) -> Result<(), NumericsError> {
    // Forward sweep: eliminate the single subdiagonal entry per column.
    for k in 0..n.saturating_sub(1) {
        let (p, q) = (k * n + k, (k + 1) * n + k);
        if mr[q] * mr[q] + mi[q] * mi[q] > mr[p] * mr[p] + mi[p] * mi[p] {
            for j in k..n {
                mr.swap(k * n + j, (k + 1) * n + j);
                mi.swap(k * n + j, (k + 1) * n + j);
            }
            yr.swap(k, k + 1);
            yi.swap(k, k + 1);
        }
        let (sr, si) = (mr[q], mi[q]);
        if sr == 0.0 && si == 0.0 {
            continue;
        }
        let (pr, pi) = (mr[p], mi[p]);
        // factor = sub/pivot, Smith-scaled. The subdiagonal is purely
        // real unless a pivot swap disturbed it (R is triangular), so
        // si is usually an exact 0.0 feeding trivial products.
        let (fr, fi) = smith_div(sr, si, pr, pi);
        let (upper, lower) = mr.split_at_mut((k + 1) * n);
        let (iupper, ilower) = mi.split_at_mut((k + 1) * n);
        let row_k_r = &upper[k * n..];
        let row_k_i = &iupper[k * n..];
        for j in (k + 1)..n {
            let (ar, ai) = (row_k_r[j], row_k_i[j]);
            lower[j] -= fr * ar - fi * ai;
            ilower[j] -= fr * ai + fi * ar;
        }
        lower[k] = 0.0;
        ilower[k] = 0.0;
        let (br, bi) = (yr[k], yi[k]);
        yr[k + 1] -= fr * br - fi * bi;
        yi[k + 1] -= fr * bi + fi * br;
    }
    // Back substitution, with the solution accumulated into (yr, yi).
    for i in (0..n).rev() {
        let row_r = &mr[i * n..(i + 1) * n];
        let row_i = &mi[i * n..(i + 1) * n];
        let (mut ar, mut ai) = (yr[i], yi[i]);
        for j in (i + 1)..n {
            let (ur, ui) = (row_r[j], row_i[j]);
            let (xr, xi) = (yr[j], yi[j]);
            ar -= ur * xr - ui * xi;
            ai -= ur * xi + ui * xr;
        }
        let (dr, di) = (row_r[i], row_i[i]);
        if dr == 0.0 && di == 0.0 {
            return Err(NumericsError::Singular { pivot: i });
        }
        let (xr, xi) = smith_div(ar, ai, dr, di);
        yr[i] = xr;
        yi[i] = xi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::CLu;

    fn rand_mat(n: usize, seed: u64) -> Mat {
        // Tiny deterministic LCG; plenty for structural tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        assert!((a - b).abs() < tol, "{what}: {a} vs {b}");
    }

    #[test]
    fn factors_have_the_advertised_structure() {
        for n in [1, 2, 3, 5, 8] {
            let g = rand_mat(n, 7 + n as u64);
            let c = rand_mat(n, 1000 + n as u64);
            let p = HtPencil::reduce(&g, &c).unwrap();
            let h = p.hessenberg();
            let r = p.triangular();
            for i in 0..n {
                for j in 0..n {
                    if i > j + 1 {
                        assert_close(h[(i, j)], 0.0, 1e-12, "H sub-Hessenberg");
                    }
                    if i > j {
                        assert_close(r[(i, j)], 0.0, 1e-12, "R sub-triangular");
                    }
                }
            }
        }
    }

    #[test]
    fn orthogonal_factors_reconstruct_the_pencil() {
        let n = 6;
        let g = rand_mat(n, 42);
        let c = rand_mat(n, 43);
        let p = HtPencil::reduce(&g, &c).unwrap();
        // QᵀQ = I, ZᵀZ = I.
        let qtq = p.q().transpose().matmul(p.q());
        let ztz = p.z().transpose().matmul(p.z());
        for i in 0..n {
            for j in 0..n {
                let e = if i == j { 1.0 } else { 0.0 };
                assert_close(qtq[(i, j)], e, 1e-12, "QᵀQ");
                assert_close(ztz[(i, j)], e, 1e-12, "ZᵀZ");
            }
        }
        // Q·H·Zᵀ = G, Q·R·Zᵀ = C.
        let g2 = p.q().matmul(p.hessenberg()).matmul(&p.z().transpose());
        let c2 = p.q().matmul(p.triangular()).matmul(&p.z().transpose());
        for i in 0..n {
            for j in 0..n {
                assert_close(g2[(i, j)], g[(i, j)], 1e-12, "G round-trip");
                assert_close(c2[(i, j)], c[(i, j)], 1e-12, "C round-trip");
            }
        }
    }

    #[test]
    fn reduced_solve_matches_dense_clu() {
        let n = 7;
        let g = rand_mat(n, 11);
        let c = rand_mat(n, 12);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = HtPencil::reduce(&g, &c).unwrap();
        for s in
            [Complex::from_im(1.0), Complex::from_im(1.0e4), Complex::new(-0.5, 3.0), Complex::ZERO]
        {
            let x_fast = p.solve(s, &b).unwrap();
            let sys = CMat::from_real_pair(&g, s, &c);
            let x_ref = CLu::factor(&sys).unwrap().solve_real(&b).unwrap();
            for (a, r) in x_fast.iter().zip(&x_ref) {
                assert!((*a - *r).abs() < 1e-10, "solve mismatch at s={s:?}: {a:?} vs {r:?}");
            }
        }
    }

    #[test]
    fn transfer_projected_matches_direct_dot() {
        let n = 5;
        let g = rand_mat(n, 3);
        let c = rand_mat(n, 4);
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let d: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let p = HtPencil::reduce(&g, &c).unwrap();
        let bt = p.project_input(&b).unwrap();
        let dt = p.project_output(&d).unwrap();
        let s = Complex::from_im(2.5);
        let fast = p.transfer_projected(&bt, &dt, s).unwrap();
        let x = p.solve(s, &b).unwrap();
        let direct: Complex =
            d.iter().zip(&x).fold(Complex::ZERO, |acc, (di, xi)| acc + xi.scale(*di));
        assert!((fast - direct).abs() < 1e-12);
    }

    #[test]
    fn jw_kernel_matches_complex_path() {
        // The dispatch target and the reference path must agree to
        // roundoff across sizes and frequency scales, including ω = 0,
        // negative ω, and frequencies large enough to make ω·R dominate.
        for n in [1, 2, 3, 5, 8, 13] {
            let g = rand_mat(n, 21 + n as u64);
            let c = rand_mat(n, 4000 + n as u64);
            let p = HtPencil::reduce(&g, &c).unwrap();
            let bt: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            for omega in [0.0, 1.0, -2.5, 1.0e-6, 3.0e4, 6.0e10] {
                let fast = p.solve_reduced_jw(omega, &bt).unwrap();
                let slow = p.solve_reduced_complex(Complex::from_im(omega), &bt).unwrap();
                let scale = slow.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(f64::MIN_POSITIVE);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!(
                        (*a - *b).abs() <= 1e-12 * scale,
                        "n={n}, omega={omega}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn jw_kernel_survives_extreme_pivot_magnitudes() {
        // Badly scaled pencils whose reduced pivots sit far outside the
        // range where a naive conj/|pivot|² inversion survives: the
        // Smith-scaled kernel must track the complex path (which
        // divides through Complex::inv) instead of spuriously over- or
        // underflowing.
        for scale in [1.0e-160, 1.0e160] {
            let n = 5;
            let mut g = rand_mat(n, 3100 + n as u64);
            let mut c = rand_mat(n, 7100 + n as u64);
            for v in g.as_mut_slice() {
                *v *= scale;
            }
            for v in c.as_mut_slice() {
                *v *= scale;
            }
            let p = HtPencil::reduce(&g, &c).unwrap();
            let bt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
            for omega in [0.0, 1.0, 2.5e4] {
                let fast = p.solve_reduced_jw(omega, &bt).unwrap();
                let slow = p.solve_reduced_complex(Complex::from_im(omega), &bt).unwrap();
                let norm = slow.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                assert!(norm.is_finite() && norm > 0.0, "reference degenerate at {scale:e}");
                for (a, b) in fast.iter().zip(&slow) {
                    assert!(a.is_finite(), "jω kernel overflowed at scale {scale:e}");
                    assert!(
                        (*a - *b).abs() <= 1e-12 * norm,
                        "scale {scale:e}, omega {omega}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_dispatches_jw_points_to_the_real_kernel() {
        // A purely imaginary s must produce the jω kernel's bits; a
        // general s must not take that path (checked via agreement with
        // the explicit reference calls).
        let n = 6;
        let g = rand_mat(n, 77);
        let c = rand_mat(n, 78);
        let p = HtPencil::reduce(&g, &c).unwrap();
        let bt: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let via_dispatch = p.solve_reduced(Complex::from_im(3.0), &bt).unwrap();
        let via_jw = p.solve_reduced_jw(3.0, &bt).unwrap();
        for (a, b) in via_dispatch.iter().zip(&via_jw) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let s = Complex::new(-0.5, 3.0);
        let via_dispatch = p.solve_reduced(s, &bt).unwrap();
        let via_complex = p.solve_reduced_complex(s, &bt).unwrap();
        for (a, b) in via_dispatch.iter().zip(&via_complex) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn jw_kernel_detects_singularity() {
        // G = diag(1, 0, 1) with C = 0: H + jω·R is singular for all ω.
        let mut g = Mat::identity(3);
        g[(1, 1)] = 0.0;
        let c = Mat::zeros(3, 3);
        let p = HtPencil::reduce(&g, &c).unwrap();
        let err = p.solve_reduced_jw(1.0, &[1.0, 1.0, 1.0]);
        assert!(matches!(err, Err(NumericsError::Singular { .. })));
        // And the length check.
        assert!(matches!(
            p.solve_reduced_jw(1.0, &[1.0]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn singular_c_reduces_and_solves() {
        // Pure-resistive snapshot: C = 0. The reduction must succeed and
        // the solve must match plain G⁻¹·b at any finite s.
        let n = 4;
        let g = rand_mat(n, 99);
        let c = Mat::zeros(n, n);
        let p = HtPencil::reduce(&g, &c).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let s = Complex::from_im(1.0e6);
        let x = p.solve(s, &b).unwrap();
        let x_ref = crate::lu::Lu::factor(&g).unwrap().solve(&b).unwrap();
        for (a, r) in x.iter().zip(&x_ref) {
            assert!((a.re - r).abs() < 1e-10 && a.im.abs() < 1e-10);
        }
    }

    #[test]
    fn singular_pencil_point_is_detected() {
        // G = I, C = I: G + s·C singular exactly at s = −1.
        let g = Mat::identity(3);
        let c = Mat::identity(3);
        let p = HtPencil::reduce(&g, &c).unwrap();
        let err = p.solve(Complex::from_re(-1.0), &[1.0, 0.0, 0.0]);
        assert!(matches!(err, Err(NumericsError::Singular { .. })));
        assert!(p.solve(Complex::from_re(-0.5), &[1.0, 0.0, 0.0]).is_ok());
    }

    #[test]
    fn shape_errors() {
        assert!(matches!(
            HtPencil::reduce(&Mat::zeros(2, 3), &Mat::zeros(2, 3)),
            Err(NumericsError::NotSquare { .. })
        ));
        assert!(matches!(
            HtPencil::reduce(&Mat::zeros(2, 2), &Mat::zeros(3, 3)),
            Err(NumericsError::DimensionMismatch { .. })
        ));
        let p = HtPencil::reduce(&Mat::identity(2), &Mat::identity(2)).unwrap();
        assert!(matches!(
            p.solve(Complex::ZERO, &[1.0]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
        assert!(p.project_input(&[1.0]).is_err());
        assert!(p.project_output(&[1.0]).is_err());
    }

    #[test]
    fn degenerate_sizes() {
        // n = 0 and n = 1 take the no-rotation paths.
        let p = HtPencil::reduce(&Mat::zeros(0, 0), &Mat::zeros(0, 0)).unwrap();
        assert!(p.solve(Complex::ONE, &[]).unwrap().is_empty());
        let g = Mat::from_rows(&[&[2.0]]);
        let c = Mat::from_rows(&[&[0.5]]);
        let p = HtPencil::reduce(&g, &c).unwrap();
        let x = p.solve(Complex::from_re(2.0), &[3.0]).unwrap();
        // (2 + 2·0.5)⁻¹·3 = 1.
        assert!((x[0] - Complex::ONE).abs() < 1e-14);
    }
}
