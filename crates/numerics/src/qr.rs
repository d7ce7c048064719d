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
//!
//! The kernel is written once over blocks whose elements are
//! `[f64; N]`: `N` independent systems, one per lane, factored side by
//! side. The `f64` entry points are its one-lane instance.
//! [`compress_lanes_in_place`] is its [`LANES`]-wide instance, which
//! runs the fast-VF compression of four responses at a time: the
//! shared reflectors on all four lanes, then each lane's own trailing
//! factor. Every lane runs exactly the one-lane IEEE sequence, and a
//! lane whose pivot column is all zero (`τ = 0`) takes per-lane
//! selects that leave its values untouched, so each lane is bit for
//! bit the one-lane factor of its own block. That instance is built
//! twice, for the baseline target and with AVX2 enabled, and picked at
//! run time; neither build contracts into fused multiply-adds, so both
//! are bit-equal.

use crate::error::NumericsError;
use crate::matrix::Mat;

/// Lanes of [`compress_lanes_in_place`]: the systems it factors side by
/// side, one per lane.
pub const LANES: usize = 4;

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
            if t != [0.0] {
                reflect(one_lane(q.as_mut_slice()), k, j, 0, t, self.refl.v(j));
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
/// [`factor_block_in_place`] (`N = 1`) or of the `N` lane factors left
/// by [`compress_lanes_in_place`]: the scalars `τ_j` and the packed
/// panel, which holds each reflector's `v_i` (`i > j`) as one
/// contiguous slice, one value per lane.
///
/// The factorization fills it as it goes and keeps its capacity across
/// calls, so a caller that owns one factors without allocating, and
/// [`apply_reflectors_in_place`] reuses it on as many blocks as it
/// likes.
#[derive(Debug, Clone, Default)]
pub struct Reflectors<const N: usize = 1> {
    /// Row count of the factored block.
    rows: usize,
    /// Scalar factors; `τ = 0` is the identity (an all-zero column).
    tau: Vec<[f64; N]>,
    /// Reflector `j` in `panel[j·rows..(j+1)·rows]`: slot `j` is the
    /// column's scratch copy, slots `j+1..` its `v_i` (`+0` in a lane
    /// whose `τ` is 0).
    panel: Vec<[f64; N]>,
}

impl<const N: usize> Reflectors<N> {
    /// Reflector `j`'s entries below its unit head.
    fn v(&self, j: usize) -> &[[f64; N]] {
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
    factor_lanes(one_lane(a), rows, cols, cols, refl, one_lane(rhs));
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
    apply_lanes(refl, one_lane(b), b_cols, one_lane(rhs));
}

/// The fast-VF compression of [`LANES`] systems at once, one per lane:
/// `block` is a row-major `rows × cols` block (`rows` those of the
/// shared factor) whose element `[l]` belongs to lane `l`'s system.
/// It applies the shared reflectors to every lane, then factors rows
/// `shared.tau.len()..` of each lane on its first `pivots` columns,
/// reflecting the columns after them (a right-hand side) without
/// pivoting on them. `refl` receives the lanes' trailing reflectors.
///
/// Lane `l` ends bit for bit where [`apply_reflectors_in_place`] and
/// [`factor_block_in_place`] leave lane `l`'s block alone: the trailing
/// rows' `R` on and above their diagonal, and a reflected extra column
/// where the fused right-hand side would be. An all-zero lane is a
/// valid pad.
///
/// # Panics
///
/// Panics if `block.len() != rows · cols` or `pivots > cols`.
pub fn compress_lanes_in_place(
    shared: &Reflectors,
    block: &mut [[f64; LANES]],
    cols: usize,
    pivots: usize,
    refl: &mut Reflectors<LANES>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature the build enables.
        return unsafe { compress_lanes_avx2(shared, block, cols, pivots, refl) };
    }
    compress_lanes(shared, block, cols, pivots, refl);
}

/// A reusable, cache-line-friendly buffer for the blocks of
/// [`compress_lanes_in_place`]. Its elements start on a 32-byte
/// boundary, so no element straddles two cache lines; an unaligned
/// block splits half of the kernel's vector loads and runs about a
/// third slower.
#[derive(Debug, Clone, Default)]
pub struct LaneBlock {
    /// Backing store, `LANES − 1` entries longer than the block so the
    /// block can start at an aligned entry.
    buf: Vec<f64>,
}

impl LaneBlock {
    /// The buffer as a block of `len` elements. Its contents are
    /// unspecified: a call that grows the buffer may move them.
    pub fn resize(&mut self, len: usize) -> &mut [[f64; LANES]] {
        self.buf.resize(len * LANES + LANES - 1, 0.0);
        // At most LANES − 1 entries; the bound only matters on a
        // platform that reports no offset, where the block stays valid.
        let skip = self.buf.as_ptr().align_offset(LANES * 8).min(LANES - 1);
        self.buf[skip..skip + len * LANES].as_chunks_mut().0
    }
}

/// [`compress_lanes_in_place`]'s one body. Inlined into a caller built
/// for the baseline target it is the baseline build; inlined into
/// `compress_lanes_avx2` it is the AVX2 build.
#[inline(always)]
fn compress_lanes<const N: usize>(
    shared: &Reflectors,
    block: &mut [[f64; N]],
    cols: usize,
    pivots: usize,
    refl: &mut Reflectors<N>,
) {
    let (rows, top) = (shared.rows, shared.tau.len());
    apply_lanes(shared, block, cols, &mut []);
    factor_lanes(&mut block[top * cols..], rows - top, cols, pivots, refl, &mut []);
}

/// The AVX2 build of [`compress_lanes_in_place`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress_lanes_avx2(
    shared: &Reflectors,
    block: &mut [[f64; LANES]],
    cols: usize,
    pivots: usize,
    refl: &mut Reflectors<LANES>,
) {
    compress_lanes(shared, block, cols, pivots, refl);
}

/// A slice of `f64` as one-lane elements.
fn one_lane(x: &mut [f64]) -> &mut [[f64; 1]] {
    x.as_chunks_mut().0
}

/// The fused kernel over `N` lanes: factors each lane of the row-major
/// `rows × cols` block `a` on its first `pivots` columns and reflects
/// the rest and `rhs` along (see [`factor_block_in_place`]).
///
/// Each lane runs the one-lane arithmetic in its order. A lane whose
/// pivot column is all zero keeps `τ = 0`, as the one-lane kernel
/// leaves it, and selects its old column and `v = +0`;
/// [`reflect_group`] selects its `w = +0`, so the lane's update
/// subtracts `+0·+0` from every entry, which leaves every value,
/// `−0.0` included, as it was. A pivot with every lane zero is skipped.
#[inline(always)]
fn factor_lanes<const N: usize>(
    a: &mut [[f64; N]],
    rows: usize,
    cols: usize,
    pivots: usize,
    refl: &mut Reflectors<N>,
    rhs: &mut [[f64; N]],
) {
    let (m, n) = (rows, cols);
    assert_eq!(a.len(), m * n, "block length must equal rows*cols");
    assert!(pivots <= n, "pivot columns must lie in the block");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in factor_block_in_place");
    let k = m.min(pivots);
    refl.rows = m;
    refl.tau.clear();
    refl.tau.resize(k, [0.0; N]);
    // Every slot a nonzero τ reads is written below first.
    refl.panel.resize(k * m, [0.0; N]);
    for j in 0..k {
        // Householder reflector for column j; scaled sum of squares
        // keeps the norm overflow-safe without hypot.
        let x = &mut refl.panel[j * m + j..(j + 1) * m];
        for (xi, ai) in x.iter_mut().zip(a[j * n + j..].iter().step_by(n)) {
            *xi = *ai;
        }
        let amax = x.iter().fold([0.0_f64; N], |acc, v| lanes(|l| acc[l].max(v[l].abs())));
        if amax == [0.0; N] {
            // tau[j] stays 0: identity reflector in every lane.
            continue;
        }
        let live = amax.map(|a| a != 0.0);
        let mut ssq = [0.0; N];
        for v in x.iter() {
            for l in 0..N {
                let t = v[l] / amax[l];
                ssq[l] += t * t;
            }
        }
        let norm: [f64; N] = lanes(|l| amax[l] * ssq[l].sqrt());
        // Choose sign to avoid cancellation.
        let ajj = x[0];
        let alpha: [f64; N] = lanes(|l| if ajj[l] >= 0.0 { -norm[l] } else { norm[l] });
        // v = x - alpha*e1, normalized so v[0] = 1. A dead lane's
        // arithmetic (0/0 above) is discarded by the selects.
        let v0: [f64; N] = lanes(|l| ajj[l] - alpha[l]);
        for (vi, ai) in x[1..].iter_mut().zip(a.iter_mut().skip((j + 1) * n + j).step_by(n)) {
            for l in 0..N {
                let q = vi[l] / v0[l];
                vi[l] = if live[l] { q } else { 0.0 };
                ai[l] = if live[l] { q } else { ai[l] };
            }
        }
        let t: [f64; N] = lanes(|l| if live[l] { -v0[l] / alpha[l] } else { 0.0 });
        refl.tau[j] = t;
        let ajj = &mut a[j * n + j];
        *ajj = lanes(|l| if live[l] { alpha[l] } else { ajj[l] });
        // Apply the reflector to the remaining columns and, fusing the
        // qt_mul pass, to the right-hand side.
        let v = refl.v(j);
        reflect(a, n, j, j + 1, t, v);
        reflect(rhs, 1, j, 0, t, v);
    }
}

/// [`apply_reflectors_in_place`] on `N`-lane blocks: the one-lane
/// reflectors of `refl` act on every lane alike. It runs column group
/// by column group, each taking every reflector in turn, so a group
/// stays in L1 while the reflectors stream past it; the right-hand
/// side is one more group. Each column still takes the reflectors in
/// order, so the loop order moves no bit.
#[inline(always)]
fn apply_lanes<const N: usize>(
    refl: &Reflectors,
    b: &mut [[f64; N]],
    b_cols: usize,
    rhs: &mut [[f64; N]],
) {
    let m = refl.rows;
    assert_eq!(b.len(), m * b_cols, "block length must equal rows*cols");
    assert!(rhs.is_empty() || rhs.len() == m, "dimension mismatch in apply_reflectors_in_place");
    let mut c = 0;
    while c < b_cols {
        c += match b_cols - c {
            8.. => apply_group::<8, N>(refl, b, b_cols, c),
            4..=7 => apply_group::<4, N>(refl, b, b_cols, c),
            2 | 3 => apply_group::<2, N>(refl, b, b_cols, c),
            _ => apply_group::<1, N>(refl, b, b_cols, c),
        };
    }
    if !rhs.is_empty() {
        apply_group::<1, N>(refl, rhs, 1, 0);
    }
}

/// Applies every reflector of `refl` with `τ ≠ 0` to the `W` columns
/// `c..c + W` of `b`, in order. Returns `W`.
#[inline(always)]
fn apply_group<const W: usize, const N: usize>(
    refl: &Reflectors,
    b: &mut [[f64; N]],
    cols: usize,
    c: usize,
) -> usize {
    for (j, &t) in refl.tau.iter().enumerate() {
        if t == [0.0] {
            continue;
        }
        let (top, below) = b[j * cols..].split_at_mut(cols);
        reflect_group::<W, N, 1>(top, below, cols, c, t, refl.v(j));
    }
    W
}

/// `[f(0), …, f(N − 1)]`.
#[inline(always)]
fn lanes<const N: usize>(f: impl FnMut(usize) -> f64) -> [f64; N] {
    core::array::from_fn(f)
}

/// Applies the reflector `I − τ·v·vᵀ` (`v_j = 1`, `v_{j+1..}` the slice
/// `v`) to rows `j..` of columns `first_col..cols` of the row-major
/// block `b`; a no-op on an empty block, so an empty right-hand side
/// passes through.
///
/// The reflector has `M` lanes: one lane's `τ` and `v` act on all `N`
/// lanes of `b` (a shared factor), or `M = N` and lane `l` of the
/// reflector acts on lane `l`.
///
/// Columns go in groups of 8, 4, 2 and 1 (see [`reflect_group`]). Every
/// column gets the column-dot kernel's products in its summation
/// order; only the loop nest is swapped so rows stream contiguously.
#[inline(always)]
fn reflect<const N: usize, const M: usize>(
    b: &mut [[f64; N]],
    cols: usize,
    j: usize,
    first_col: usize,
    tau: [f64; M],
    v: &[[f64; M]],
) {
    if b.is_empty() || first_col >= cols {
        return;
    }
    let (top, below) = b[j * cols..].split_at_mut(cols);
    debug_assert_eq!(below.len(), v.len() * cols, "one v entry per row below j");
    let mut c = first_col;
    while c < cols {
        c += match cols - c {
            8.. => reflect_group::<8, N, M>(top, below, cols, c, tau, v),
            4..=7 => reflect_group::<4, N, M>(top, below, cols, c, tau, v),
            2 | 3 => reflect_group::<2, N, M>(top, below, cols, c, tau, v),
            _ => reflect_group::<1, N, M>(top, below, cols, c, tau, v),
        };
    }
}

/// [`reflect`] on the `W` columns `c..c + W`: row `j` is `top`, the rows
/// under it are `below`. The `W` accumulators are one array value that
/// stays in registers, and each row touches exactly `W` entries.
/// A lane whose `τ` is 0 takes `w = +0`, so its entries stay as they
/// are. Returns `W`.
#[inline(always)]
fn reflect_group<const W: usize, const N: usize, const M: usize>(
    top: &mut [[f64; N]],
    below: &mut [[f64; N]],
    cols: usize,
    c: usize,
    tau: [f64; M],
    v: &[[f64; M]],
) -> usize {
    // Lane l of a reflector with M lanes (M is 1 or N).
    let lane = |x: [f64; M]| -> [f64; N] { lanes(|l| x[l % M]) };
    let tau = lane(tau);
    let top: &mut [[f64; N]; W] = (&mut top[c..c + W]).try_into().expect("group inside the row");
    let mut w = *top;
    for (row, &vi) in below.chunks_exact(cols).zip(v) {
        let vi = lane(vi);
        let x: &[[f64; N]; W] = row[c..c + W].try_into().expect("group inside the row");
        for (wc, xc) in w.iter_mut().zip(x) {
            for l in 0..N {
                wc[l] += vi[l] * xc[l];
            }
        }
    }
    for wc in &mut w {
        *wc = lanes(|l| if tau[l] == 0.0 { 0.0 } else { wc[l] * tau[l] });
    }
    for (xc, wc) in top.iter_mut().zip(&w) {
        for l in 0..N {
            xc[l] -= wc[l];
        }
    }
    for (row, &vi) in below.chunks_exact_mut(cols).zip(v) {
        let vi = lane(vi);
        let x: &mut [[f64; N]; W] = (&mut row[c..c + W]).try_into().expect("group inside the row");
        for (xc, wc) in x.iter_mut().zip(&w) {
            for l in 0..N {
                xc[l] -= wc[l] * vi[l];
            }
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
            prop_assert_eq!(bits(got_refl.tau.as_flattened()), bits(&want_tau));
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
            prop_assert_eq!(bits(tau.as_flattened()), bits(one_refl.tau.as_flattened()));
        }
    }

    /// One build of `compress_lanes_in_place`.
    type CompressLanes = fn(&Reflectors, &mut [[f64; LANES]], usize, usize, &mut Reflectors<LANES>);

    /// Every build of the lane kernel this CPU can run, by name: the
    /// baseline build, the AVX2 build when the CPU has AVX2 (the skip is
    /// printed), and the dispatching entry point.
    fn lane_builds() -> Vec<(&'static str, CompressLanes)> {
        let mut builds: Vec<(&'static str, CompressLanes)> =
            vec![("baseline", compress_lanes::<LANES>), ("dispatch", compress_lanes_in_place)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2.
            builds.push(("avx2", |s, b, c, p, r| unsafe { compress_lanes_avx2(s, b, c, p, r) }));
        } else {
            println!("compress_lanes_in_place: the CPU has no AVX2, AVX2 build skipped");
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("compress_lanes_in_place: not x86_64, AVX2 build skipped");
        builds
    }

    /// A seeded value in (−4, 4): a splitmix64 step.
    fn draw(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
    }

    /// One lane's `rows × cols` block of the given kind: 0 live, 1 all
    /// +0, 2 all ±0 (−0.0 where the draw is negative), 3 live with
    /// columns 0 and `cols / 2` all −0.0 (a dead pivot inside a live
    /// system), 4 live with a third of its entries −0.0, 5 all −0.0.
    /// An all −0.0 column is the one that a reflection with `τ = 0`
    /// would turn to +0.0.
    fn lane_block(kind: usize, rows: usize, cols: usize, state: &mut u64) -> Vec<f64> {
        (0..rows * cols)
            .map(|e| {
                let v = draw(state);
                match kind {
                    1 => 0.0,
                    2 => 0.0 * v,
                    3 if e % cols == 0 || e % cols == cols / 2 => -0.0,
                    4 if v.abs() < 4.0 / 3.0 => -0.0,
                    5 => -0.0,
                    _ => v,
                }
            })
            .collect()
    }

    #[test]
    fn lane_builds_match_four_one_lane_factors_bit_for_bit() {
        let builds = lane_builds();
        let mut state = 0x6c61_6e65_5f71_7221;
        // (rows, n_loc, n_sig): the frequency and state stage shapes,
        // trailing blocks wider than tall, one with no trailing rows,
        // and no shared columns at all.
        let shapes = [
            (48, 4, 5),
            (101, 21, 21),
            (9, 4, 8),
            (6, 6, 3),
            (4, 6, 2),
            (30, 0, 11),
            (3, 0, 5),
            (1, 1, 1),
        ];
        let kinds = [
            [0, 1, 2, 3],
            [3, 0, 4, 2],
            [5, 4, 0, 3],
            [1, 1, 1, 1],
            [5, 5, 5, 5],
            [3, 3, 3, 3],
            [0, 5, 3, 1],
        ];
        for &(rows, n_loc, n_sig) in &shapes {
            for classic in [false, true] {
                for (case, lane_kinds) in kinds.iter().enumerate() {
                    // The shared factor, with a zero column (a skipped
                    // τ = 0 reflector) in every other case.
                    let zero_cols: &[usize] = if case % 2 == 0 { &[] } else { &[1] };
                    let data: Vec<f64> = (0..97).map(|_| draw(&mut state)).collect();
                    let mut local = masked(rows, n_loc, &data, zero_cols);
                    let mut shared = Reflectors::default();
                    factor_with_rhs_in_place(&mut local, &mut shared, &mut []);
                    let top = n_loc.min(rows);
                    let cols = n_sig + usize::from(classic);
                    let lanes: Vec<Vec<f64>> =
                        lane_kinds.iter().map(|&k| lane_block(k, rows, cols, &mut state)).collect();

                    // Lane by lane through the one-lane kernels, the RHS
                    // (the last column when classic) fused.
                    let mut want = Vec::new();
                    let mut want_tau = Vec::new();
                    for lane in &lanes {
                        let mut b: Vec<f64> =
                            lane.chunks(cols).flat_map(|r| r[..n_sig].to_vec()).collect();
                        let mut r: Vec<f64> = if classic {
                            lane.chunks(cols).map(|r| r[n_sig]).collect()
                        } else {
                            Vec::new()
                        };
                        apply_reflectors_in_place(&shared, &mut b, n_sig, &mut r);
                        let mut refl = Reflectors::default();
                        let trail_rhs = r.get_mut(top..).unwrap_or_default();
                        factor_block_in_place(
                            &mut b[top * n_sig..],
                            rows - top,
                            n_sig,
                            &mut refl,
                            trail_rhs,
                        );
                        let mut got = Vec::new();
                        for i in 0..rows {
                            got.extend_from_slice(&b[i * n_sig..(i + 1) * n_sig]);
                            got.extend(r.get(i));
                        }
                        want.push(got);
                        want_tau.push(refl.tau.as_flattened().to_vec());
                    }

                    for &(name, build) in &builds {
                        let mut block: Vec<[f64; LANES]> = (0..rows * cols)
                            .map(|e| core::array::from_fn(|l| lanes[l][e]))
                            .collect();
                        let mut refl = Reflectors::default();
                        // A stale panel from a larger factor must not leak in.
                        build(&shared, &mut vec![[1.5; LANES]; rows * 30], 30, 30, &mut refl);
                        build(&shared, &mut block, cols, n_sig, &mut refl);
                        for l in 0..LANES {
                            let got: Vec<f64> = block.iter().map(|e| e[l]).collect();
                            let tau: Vec<f64> = refl.tau.iter().map(|t| t[l]).collect();
                            assert!(
                                bits(&got) == bits(&want[l]) && bits(&tau) == bits(&want_tau[l]),
                                "{name} build, {rows}x{n_loc}x{n_sig}, classic {classic}, lane {l} of kinds {lane_kinds:?}"
                            );
                        }
                    }
                }
            }
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
        assert_eq!(refl.tau, vec![[0.0], [0.0]]);
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
