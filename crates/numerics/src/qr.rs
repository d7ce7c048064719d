//! Householder QR factorization and linear least squares.
//!
//! Vector fitting assembles tall real least-squares systems (stacked
//! real/imaginary parts of the partial-fraction basis); the fast VF
//! variant of Deschrijver et al. additionally needs the triangular `R`
//! factor of per-snapshot blocks to compress the pole-identification
//! system. Every factorization runs one row-oriented fused Householder
//! kernel ([`factor_block_in_place`]); [`apply_reflectors_in_place`]
//! replays a factor's [`Reflectors`] on another block with the same
//! arithmetic, so a column block shared by many systems is factored
//! once.
//!
//! Each reflector is applied by one kernel, which factor, apply,
//! `Qᵀ·b` and [`Qr::q`] all run. It reads the reflector's `v`
//! from a contiguous slice of the packed panel that the factorization
//! fills as it goes, and updates the block's columns in groups of 8, 4,
//! 2 and 1 whose accumulators stay in registers, so no row runs a
//! remainder loop. Every column keeps the column-dot arithmetic in its
//! order, so the grouping moves no bit.

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
    /// The same reflectors, packed for the kernel.
    refl: Reflectors,
}

impl Qr {
    /// Computes the QR factorization of `a`.
    pub fn factor(a: &Mat) -> Self {
        let mut qr = a.clone();
        let mut refl = Reflectors::default();
        factor_with_rhs_in_place(&mut qr, &mut refl, &mut []);
        Self { qr, refl }
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
        assert_eq!(b.len(), self.qr.rows(), "dimension mismatch in qt_mul");
        let mut y = b.to_vec();
        apply_reflectors_in_place(&self.refl, &mut y, 1, &mut []);
        y
    }

    /// Forms the economy `Q` factor (`m × min(m,n)`).
    pub fn q(&self) -> Mat {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        // Apply the reflectors in reverse to the identity columns.
        let mut q = Mat::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
        for (j, &t) in self.refl.tau.iter().enumerate().rev() {
            if t != 0.0 {
                reflect(q.as_mut_slice(), k, j, 0, t, self.refl.v(j));
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

/// The Householder reflectors of a factor left by
/// [`factor_block_in_place`]: the scalars `τ_j` and the packed panel,
/// which holds each reflector's `v_i` (`i > j`) as one contiguous slice.
///
/// The factorization fills it as it goes and keeps its capacity across
/// calls, so a caller that owns one factors without allocating, and
/// [`apply_reflectors_in_place`] reuses it on as many blocks as it
/// likes.
#[derive(Debug, Clone, Default)]
pub struct Reflectors {
    /// Row count of the factored block.
    rows: usize,
    /// Scalar factors; `τ = 0` is the identity (an all-zero column).
    tau: Vec<f64>,
    /// Reflector `j` in `panel[j·rows..(j+1)·rows]`: slot `j` is the
    /// column's scratch copy, slots `j+1..` its `v_i`.
    panel: Vec<f64>,
}

impl Reflectors {
    /// Reflector `j`'s entries below its unit head.
    fn v(&self, j: usize) -> &[f64] {
        &self.panel[j * self.rows + j + 1..(j + 1) * self.rows]
    }
}

/// In-place fused Householder factorization: on return `a` holds `R` on
/// and above the diagonal and the reflectors below it, `refl` the
/// reflectors in packed form, and `rhs` (when non-empty) is overwritten
/// with `Qᵀ·rhs`.
///
/// This is the allocation-free core behind [`Qr::factor`]: callers that own a reusable block buffer
/// factor it in place and read the rows of `R` straight out of the
/// packed factor — entries `(i, j)` with `j ≥ i` — without a [`Qr`]
/// handle, a copy of `R`, or a separate `qt_mul` pass. `refl` is
/// refilled, retaining its capacity across calls.
///
/// An empty `rhs` slice means "no right-hand side".
///
/// # Panics
///
/// Panics if `rhs` is non-empty and its length differs from the row
/// count of `a`.
pub fn factor_with_rhs_in_place(a: &mut Mat, refl: &mut Reflectors, rhs: &mut [f64]) {
    let (m, n) = a.shape();
    factor_block_in_place(a.as_mut_slice(), m, n, refl, rhs);
}

/// [`factor_with_rhs_in_place`] on a row-major `rows × cols` slice, so a
/// caller can factor a trailing row block of a larger buffer in place.
///
/// Each column is gathered once into its slot of the packed panel.
/// Its norm uses a scaled sum of squares (one max pass, one
/// accumulation pass) instead of an `m`-deep `hypot` chain; `hypot`'s
/// per-element overflow guard costs an order of magnitude more than a
/// multiply-add and the scaling achieves the same robustness. The
/// reflector is then applied row by row (see
/// [`apply_reflectors_in_place`] for the per-column arithmetic), so the
/// update streams contiguous row slices instead of one strided dot
/// chain per column.
///
/// # Panics
///
/// Panics if `a.len() != rows · cols`, or if `rhs` is non-empty and its
/// length differs from `rows`.
pub fn factor_block_in_place(
    a: &mut [f64],
    rows: usize,
    cols: usize,
    refl: &mut Reflectors,
    rhs: &mut [f64],
) {
    let (m, n) = (rows, cols);
    assert_eq!(a.len(), m * n, "block length must equal rows*cols");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in factor_block_in_place");
    let k = m.min(n);
    refl.rows = m;
    refl.tau.clear();
    refl.tau.resize(k, 0.0);
    // Every slot a nonzero τ reads is written below first.
    refl.panel.resize(k * m, 0.0);
    for j in 0..k {
        // Householder reflector for column j; scaled sum of squares
        // keeps the norm overflow-safe without hypot.
        let x = &mut refl.panel[j * m + j..(j + 1) * m];
        for (xi, ai) in x.iter_mut().zip(a[j * n + j..].iter().step_by(n)) {
            *xi = *ai;
        }
        let amax = x.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
        if amax == 0.0 {
            // tau[j] stays 0: identity reflector.
            continue;
        }
        let mut ssq = 0.0;
        for v in x.iter() {
            let t = v / amax;
            ssq += t * t;
        }
        let norm = amax * ssq.sqrt();
        // Choose sign to avoid cancellation.
        let ajj = x[0];
        let alpha = if ajj >= 0.0 { -norm } else { norm };
        // v = x - alpha*e1, normalized so v[0] = 1.
        let v0 = ajj - alpha;
        for (vi, ai) in x[1..].iter_mut().zip(a.iter_mut().skip((j + 1) * n + j).step_by(n)) {
            *vi /= v0;
            *ai = *vi;
        }
        let t = -v0 / alpha;
        refl.tau[j] = t;
        a[j * n + j] = alpha;
        // Apply the reflector to the remaining columns and, fusing the
        // qt_mul pass, to the right-hand side.
        let v = refl.v(j);
        reflect(a, n, j, j + 1, t, v);
        reflect(rhs, 1, j, 0, t, v);
    }
}

/// Applies the reflectors of a factor — as left in `refl` by
/// [`factor_block_in_place`] — to another row-major block `b` (`b_cols`
/// wide, as many rows as the factored block) and to `rhs` when it is
/// non-empty: `b ← Qᵀ·b`, `rhs ← Qᵀ·rhs`.
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
/// Panics if `b.len() != rows · b_cols`, or if `rhs` is non-empty and
/// its length differs from the row count.
pub fn apply_reflectors_in_place(refl: &Reflectors, b: &mut [f64], b_cols: usize, rhs: &mut [f64]) {
    let m = refl.rows;
    assert_eq!(b.len(), m * b_cols, "block length must equal rows*cols");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in apply_reflectors_in_place");
    for (j, &t) in refl.tau.iter().enumerate() {
        if t == 0.0 {
            continue;
        }
        let v = refl.v(j);
        reflect(b, b_cols, j, 0, t, v);
        reflect(rhs, 1, j, 0, t, v);
    }
}

/// Applies the reflector `I − τ·v·vᵀ` (`v_j = 1`, `v_{j+1..}` the slice
/// `v`) to rows `j..` of columns `first_col..cols` of the row-major
/// block `b`; a no-op on an empty block, so an empty right-hand side
/// passes through.
///
/// Columns go in groups of 8, 4, 2 and 1 (see [`reflect_group`]). Every
/// column gets the column-dot kernel's products in its summation
/// order; only the loop nest is swapped so rows stream contiguously.
fn reflect(b: &mut [f64], cols: usize, j: usize, first_col: usize, tau: f64, v: &[f64]) {
    if b.is_empty() || first_col >= cols {
        return;
    }
    let (top, below) = b[j * cols..].split_at_mut(cols);
    debug_assert_eq!(below.len(), v.len() * cols, "one v entry per row below j");
    let mut c = first_col;
    while c < cols {
        c += match cols - c {
            8.. => reflect_group::<8>(top, below, cols, c, tau, v),
            4..=7 => reflect_group::<4>(top, below, cols, c, tau, v),
            2 | 3 => reflect_group::<2>(top, below, cols, c, tau, v),
            _ => reflect_group::<1>(top, below, cols, c, tau, v),
        };
    }
}

/// [`reflect`] on the `W` columns `c..c + W`: row `j` is `top`, the rows
/// under it are `below`. The `W` accumulators are one array value that
/// stays in registers, and each row touches exactly `W` entries.
/// Returns `W`.
#[inline(always)]
fn reflect_group<const W: usize>(
    top: &mut [f64],
    below: &mut [f64],
    cols: usize,
    c: usize,
    tau: f64,
    v: &[f64],
) -> usize {
    let top: &mut [f64; W] = (&mut top[c..c + W]).try_into().expect("group inside the row");
    let mut w = *top;
    for (row, &vi) in below.chunks_exact(cols).zip(v) {
        let x: &[f64; W] = row[c..c + W].try_into().expect("group inside the row");
        for (wc, xc) in w.iter_mut().zip(x) {
            *wc += vi * xc;
        }
    }
    for wc in &mut w {
        *wc *= tau;
    }
    for (xc, wc) in top.iter_mut().zip(&w) {
        *xc -= wc;
    }
    for (row, &vi) in below.chunks_exact_mut(cols).zip(v) {
        let x: &mut [f64; W] = (&mut row[c..c + W]).try_into().expect("group inside the row");
        for (xc, wc) in x.iter_mut().zip(&w) {
            *xc -= wc * vi;
        }
    }
    W
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

    /// Applies the reflectors packed in the oracle's factor `f` (with
    /// scalars `tau`) to the vector `y`, reflector `j` in the order
    /// `order` yields, one strided dot chain per reflector.
    fn column_dot_apply(f: &Mat, tau: &[f64], order: impl Iterator<Item = usize>, y: &mut [f64]) {
        let m = f.rows();
        for j in order {
            if tau[j] == 0.0 {
                continue;
            }
            let mut dot = y[j];
            for i in (j + 1)..m {
                dot += f[(i, j)] * y[i];
            }
            dot *= tau[j];
            y[j] -= dot;
            for i in (j + 1)..m {
                y[i] -= dot * f[(i, j)];
            }
        }
    }

    /// A `rows × cols` matrix from `data`, with the columns listed in
    /// `zero_cols` forced to zero (identity reflectors).
    fn masked(rows: usize, cols: usize, data: &[f64], zero_cols: &[usize]) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            if zero_cols.contains(&j) {
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
            rows in 0usize..=130,
            cols in 0usize..=26,
            data in prop::collection::vec(-5.0..5.0f64, 211),
            zero_cols in prop::collection::vec(0usize..=26, 0..4),
            rhs_data in prop::collection::vec(-5.0..5.0f64, 131),
            with_rhs in 0u8..2,
        ) {
            // Up to 26 columns run every group width (8, 4, 2, 1) and
            // every remainder as the trailing block narrows; the shapes
            // also cover m < n, all-zero columns (τ = 0) and an empty RHS.
            let a = masked(rows, cols, &data, &zero_cols);
            let rhs0: Vec<f64> = if with_rhs == 1 { rhs_data[..rows].to_vec() } else { Vec::new() };
            let (mut want, mut want_tau, mut want_rhs) = (a.clone(), Vec::new(), rhs0.clone());
            column_dot_factor(&mut want, &mut want_tau, &mut want_rhs);
            let (mut got, mut got_refl, mut got_rhs) = (a.clone(), Reflectors::default(), rhs0);
            // A stale panel from a larger factor must not leak in.
            factor_with_rhs_in_place(&mut Mat::from_fn(131, 27, |i, j| (i + j) as f64), &mut got_refl, &mut []);
            factor_with_rhs_in_place(&mut got, &mut got_refl, &mut got_rhs);
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            prop_assert_eq!(bits(&got_refl.tau), bits(&want_tau));
            prop_assert_eq!(bits(&got_rhs), bits(&want_rhs));

            // Qᵀ·b and the economy Q run the same kernel: Q's columns
            // are the reflectors applied in reverse to identity columns.
            let f = Qr::factor(&a);
            let y0 = &rhs_data[..rows];
            let mut want_y = y0.to_vec();
            column_dot_apply(&want, &want_tau, 0..want_tau.len(), &mut want_y);
            prop_assert_eq!(bits(&f.qt_mul(y0)), bits(&want_y));
            let k = rows.min(cols);
            let q = f.q();
            for col in 0..k {
                let mut e = vec![0.0; rows];
                e[col] = 1.0;
                column_dot_apply(&want, &want_tau, (0..k).rev(), &mut e);
                let got_col: Vec<f64> = (0..rows).map(|i| q[(i, col)]).collect();
                prop_assert_eq!(bits(&got_col), bits(&e));
            }
        }

        #[test]
        fn shared_reflectors_then_trailing_factor_match_one_pass(
            rows in 0usize..=130,
            left in 0usize..=26,
            right in 0usize..=26,
            data in prop::collection::vec(-5.0..5.0f64, 211),
            zero_cols in prop::collection::vec(0usize..=52, 0..4),
            rhs_data in prop::collection::vec(-5.0..5.0f64, 131),
            with_rhs in 0u8..2,
        ) {
            // Factoring [A | B] in one pass, and factoring A, applying
            // its packed reflectors to B, then factoring B's trailing
            // rows, must leave the same bits in B's columns and in Qᵀb.
            // The shapes reach the state stage's 101 × 21 | 21 blocks.
            let n = left + right;
            let full = masked(rows, n, &data, &zero_cols);
            let rhs0: Vec<f64> = if with_rhs == 1 { rhs_data[..rows].to_vec() } else { Vec::new() };
            let (mut one, mut one_refl, mut one_rhs) = (full.clone(), Reflectors::default(), rhs0.clone());
            factor_with_rhs_in_place(&mut one, &mut one_refl, &mut one_rhs);

            let mut a = Mat::from_fn(rows, left, |i, j| full[(i, j)]);
            let mut a_refl = Reflectors::default();
            factor_with_rhs_in_place(&mut a, &mut a_refl, &mut []);
            let mut b: Vec<f64> = (0..rows).flat_map(|i| full.row(i)[left..].to_vec()).collect();
            let mut b_rhs = rhs0;
            apply_reflectors_in_place(&a_refl, &mut b, right, &mut b_rhs);
            let top = left.min(rows);
            let mut t_refl = Reflectors::default();
            let t_rhs = if b_rhs.is_empty() { &mut [][..] } else { &mut b_rhs[top..] };
            factor_block_in_place(&mut b[top * right..], rows - top, right, &mut t_refl, t_rhs);

            let want_b: Vec<f64> = (0..rows).flat_map(|i| one.row(i)[left..].to_vec()).collect();
            prop_assert_eq!(bits(&b), bits(&want_b));
            prop_assert_eq!(bits(&b_rhs), bits(&one_rhs));
            let mut tau = a_refl.tau.clone();
            tau.extend_from_slice(&t_refl.tau);
            prop_assert_eq!(bits(&tau), bits(&one_refl.tau));
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
        let mut refl = Reflectors::default();
        let mut rhs = vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.5];
        factor_with_rhs_in_place(&mut packed, &mut refl, &mut rhs);
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
        let mut refl = Reflectors::default();
        factor_with_rhs_in_place(&mut Mat::zeros(32, 32), &mut refl, &mut []);
        let (tau_cap, panel_cap) = (refl.tau.capacity(), refl.panel.capacity());
        factor_with_rhs_in_place(&mut work, &mut refl, &mut []);
        assert_eq!(refl.tau.len(), 5);
        // A zero column yields the identity reflector (tau = 0).
        let z = Mat::zeros(4, 2);
        let mut wz = z.clone();
        factor_with_rhs_in_place(&mut wz, &mut refl, &mut []);
        assert_eq!(refl.tau, vec![0.0, 0.0]);
        assert_eq!((refl.tau.capacity(), refl.panel.capacity()), (tau_cap, panel_cap));
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
