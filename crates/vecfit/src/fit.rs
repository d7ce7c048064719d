//! The vector fitting driver.
//!
//! Implements relaxed vector fitting (Gustavsen 2006) with the fast
//! per-response QR compression of Deschrijver, Mrozowski, Dhaene &
//! De Zutter (2008) — the paper's reference \[9\] — generalized over the
//! sample axis so the same engine fits frequency responses (`s = jω`)
//! and residue trajectories over the real state variable.
//!
//! One relocation round:
//!
//! 1. Evaluate the partial-fraction basis once per sample into one
//!    `[basis | 1]` table: the local block `Φ_loc` (the per-response
//!    unknowns: residues, plus `d` on the real axis) reads its first
//!    `n_loc` columns, the sigma block `Φ_σ` its first `n_sig`.
//!    Column-equilibrate `Φ_loc` and Householder-factor it **once**:
//!    every row carries weight one, so `Φ_loc` — and hence the first
//!    `n_loc` reflectors of every response's block
//!    `[ Φ_loc | −H_k·Φ_σ ]` — is the same for all `k`.
//! 2. Compress the responses [`LANES`] at a time, one per SIMD lane
//!    of one lane block: write each response's `−H_k·Φ_σ` into its
//!    lane, apply the shared reflectors to every lane, factor each
//!    lane's trailing `rows − n_loc` rows and keep its `R₂₂` rows — the
//!    influence of response `k` on the shared sigma unknowns after
//!    eliminating its local ones. Every lane runs the one-block
//!    kernel's arithmetic, which makes this bit-identical to factoring
//!    each full block; a short last group's missing lanes are zero pads.
//!    Only classic VF has a right-hand side (`H_k`): one more lane
//!    column, reflected but never a pivot. Relaxed VF's is all +0, which
//!    every reflection keeps at +0, so it is neither built nor reflected.
//! 3. Stack all `R₂₂` blocks (plus the relaxation row), solve a small
//!    least-squares system for the sigma coefficients.
//! 4. New poles are the zeros of `σ`: eigenvalues of `A − b·c̃ᵀ/d̃` in
//!    real block form, post-processed per axis (stability flipping on the
//!    frequency axis, conjugate-pair enforcement on the state axis).
//!
//! Step 2 is independent per lane group, so it fans out over the
//! work-stealing sweep runtime of `rvf-numerics`: every parallel region
//! of a fit — each relocation round (one task per lane group) and the
//! final residue identification (one per response) — is one
//! [`SweepPool::run_with`] *round*, as wide as the pool, on a single
//! persistent pool that lives for the whole fit (one worker for
//! [`fit`]; borrowed from the caller via [`fit_in`], so a pole-growth
//! loop pays one pool for its entire sequence of fits). Each worker
//! owns a `BlockScratch` (lane block, reflectors, identification RHS)
//! held in a `FitScratch` that lives for the whole fit next to the
//! shared local factor, so a steady-state round allocates nothing per
//! task and spawns no thread. The residue identification factors its
//! shared left-hand side once and gives each response one `Qᵀb` plus a
//! back-substitution. Response `k` always runs in lane `k mod LANES` of
//! group `k / LANES` and writes rows `k·kept .. (k+1)·kept` of the
//! stacked system, so the parallel result is **bit-identical** to the
//! serial one regardless of worker count or claim order.

use rvf_numerics::{
    compress_lanes_in_place, eigenvalues, factor_with_rhs_in_place, lstsq_ridge, resolve_threads,
    Complex, LaneBlock, Mat, NumericsError, Qr, Reflectors, SweepError, SweepPool, LANES,
};

use crate::basis::{basis_row, Residues};
use crate::error::VecfitError;
use crate::model::{RationalModel, ResponseTerms};
use crate::options::{Axis, VfOptions, STOP_DISPLACEMENT};
use crate::poles::{PoleEntry, PoleSet, REAL_AXIS_MIN_IMAG};

/// Result of a vector fitting run.
#[derive(Debug, Clone)]
pub struct VfFit {
    /// The fitted common-pole rational model.
    pub model: RationalModel,
    /// Absolute RMS error over all responses and samples.
    pub rms_error: f64,
    /// Pole-relocation rounds actually performed.
    pub iterations_run: usize,
    /// Relative pole displacement in the final round (convergence
    /// indicator; small values mean the poles have settled).
    pub final_displacement: f64,
    /// `true` when a warm-started [`fit_in`] hit a numerical kernel
    /// failure and this result comes from its cold restart.
    pub cold_restarted: bool,
}

/// Fits `K` responses sampled on a common grid with common poles, on
/// the calling thread (a one-worker pool; see [`fit_in`] for a wider
/// one).
///
/// `samples` are the `L` sample points (on `jω` for
/// [`Axis::Imaginary`], real values for [`Axis::Real`]); `data[k]` is the
/// `k`-th response evaluated on that grid.
///
/// # Errors
///
/// Returns a [`VecfitError`] for empty/mismatched/non-finite data, a
/// degenerate grid, too few samples for the requested pole count, or a
/// numerical kernel failure.
///
/// # Examples
///
/// ```
/// use rvf_numerics::{c, Complex};
/// use rvf_vecfit::{fit_single, VfOptions};
///
/// # fn main() -> Result<(), rvf_vecfit::VecfitError> {
/// // Synthesize H(s) = 3/(s+2) on the jω axis and recover it.
/// let samples: Vec<Complex> = (1..=60)
///     .map(|i| c(0.0, 0.2 * i as f64))
///     .collect();
/// let data: Vec<Complex> = samples
///     .iter()
///     .map(|&s| (s + 2.0).inv() * 3.0)
///     .collect();
/// let fit = fit_single(&samples, &data, &VfOptions::frequency(2))?;
/// assert!(fit.rms_error < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn fit(
    samples: &[Complex],
    data: &[Vec<Complex>],
    opts: &VfOptions,
) -> Result<VfFit, VecfitError> {
    fit_in(&SweepPool::new(1), samples, data, opts, None)
}

/// [`fit`] running its parallel regions on a caller-owned [`SweepPool`],
/// optionally warm-started from an explicit initial pole set.
///
/// The pool is borrowed, not consumed: callers that fit repeatedly —
/// the RVF pole-growth loop fits once per pole count, each fit running
/// one sweep round per relocation iteration — construct one pool and
/// thread it through every fit, collapsing the per-fit spawn/join cost
/// to a single pool construction for the whole sequence. Each round
/// runs as many workers as the pool has, up to the response count, and
/// the result is bit-identical to [`fit`] for every pool size.
///
/// With `initial`, the growth loop (paper Algorithm 1) passes the
/// *relocated* poles of the previous, smaller fit instead of re-seeding
/// from the generic spread at every count: the engine augments them to
/// [`VfOptions::n_poles`] (adding pairs inside the sample span), and
/// already-settled poles then need few (often zero) further relocation
/// rounds. An initial set with *more* than `opts.n_poles` poles is used
/// as-is. `None` is exactly [`fit`].
///
/// Warm starting is an optimization, not a semantic change: if a
/// warm-started run trips a numerical kernel failure (a warm pole set
/// can seed a relocation eigenproblem the solver refuses), the fit
/// transparently restarts from the cold initial spread instead of
/// failing; the result reports it in [`VfFit::cold_restarted`].
///
/// # Errors
///
/// See [`fit`].
pub fn fit_in(
    pool: &SweepPool,
    samples: &[Complex],
    data: &[Vec<Complex>],
    opts: &VfOptions,
    initial: Option<&PoleSet>,
) -> Result<VfFit, VecfitError> {
    match fit_inner(pool, samples, data, opts, initial) {
        Err(VecfitError::Numerics(_)) if initial.is_some() => {
            Ok(VfFit { cold_restarted: true, ..fit_inner(pool, samples, data, opts, None)? })
        }
        other => other,
    }
}

fn fit_inner(
    pool: &SweepPool,
    samples: &[Complex],
    data: &[Vec<Complex>],
    opts: &VfOptions,
    initial: Option<&PoleSet>,
) -> Result<VfFit, VecfitError> {
    validate(samples, data, opts, opts.n_poles)?;
    let (lo, hi) = sample_range(samples, opts.axis)?;
    let min_imag_abs = match opts.axis {
        Axis::Real => (REAL_AXIS_MIN_IMAG * (hi - lo)).max(1e-12),
        Axis::Imaginary => 0.0,
    };
    let clamp = match opts.axis {
        Axis::Real => Some((lo, hi)),
        Axis::Imaginary => None,
    };
    let mut poles = match initial {
        Some(p) => p.grown_to(opts.n_poles, opts.axis, lo, hi),
        None => PoleSet::initial_for(opts, lo, hi),
    };
    // The grown set can exceed the requested count (odd growth rounds up
    // to a pair on the real axis; an oversized initial set is kept
    // as-is), so the sample budget must be re-checked against the basis
    // size the fit will actually use.
    if poles.n_poles() > opts.n_poles {
        validate(samples, data, opts, poles.n_poles())?;
    }
    let mut scratch = FitScratch::new(pool.workers().min(data.len()));
    let mut displacement = f64::INFINITY;
    let mut iterations_run = 0;
    for _ in 0..opts.iterations {
        let new_poles =
            relocate_once(pool, samples, data, &poles, opts, min_imag_abs, clamp, &mut scratch)?;
        displacement = new_poles.displacement(&poles);
        poles = new_poles;
        iterations_run += 1;
        if displacement < STOP_DISPLACEMENT {
            break;
        }
    }
    let model = identify_residues(pool, samples, data, poles, opts, &mut scratch)?;
    let rms_error = model_rms(&model, samples, data);
    Ok(VfFit {
        model,
        rms_error,
        iterations_run,
        final_displacement: displacement,
        cold_restarted: false,
    })
}

/// Convenience wrapper for a single response.
///
/// # Errors
///
/// See [`fit`].
pub fn fit_single(
    samples: &[Complex],
    data: &[Complex],
    opts: &VfOptions,
) -> Result<VfFit, VecfitError> {
    fit(samples, &[data.to_vec()], opts)
}

/// Below this many responses, an auto width request (`threads == 0`)
/// resolves to a single serial worker. A relocation round's task is one
/// lane group of [`LANES`] responses (8 responses are 2 tasks), a
/// residue identification's one response. It is a floor under the
/// round handoff's cost, not a measured break-even: on a 2-vCPU VM the
/// `vf_k_scaling` rows' two workers beat one from 16 responses up,
/// while `zoo` over seeds 1–4 ran no faster with auto than serial. The
/// benchmark ledger pins every thread count to 1, so none of its
/// workloads reads this constant.
const AUTO_PARALLEL_CROSSOVER: usize = 8;

/// Resolves the pool width for `threads` over `k_count` responses: an
/// auto request (`0`) stays serial below `AUTO_PARALLEL_CROSSOVER`
/// responses and resolves to one worker per core from there up;
/// explicit counts are clamped to the response count.
///
/// Public so stage drivers (the RVF pole-growth loops) can size a
/// [`SweepPool`] once for a whole sequence of fits over the same data.
pub fn auto_workers(threads: usize, k_count: usize) -> usize {
    let resolved = match threads {
        0 if k_count < AUTO_PARALLEL_CROSSOVER => 1,
        t => resolve_threads(t),
    };
    resolved.clamp(1, k_count.max(1))
}

/// Per-worker scratch for the block stages. All buffers retain their
/// capacity across tasks and relocation rounds.
#[derive(Default)]
struct BlockScratch {
    /// One lane group's realified sigma blocks plus classic VF's RHS
    /// column, response `l` of the group in lane `l`.
    lanes: LaneBlock,
    /// The residue identification's realified right-hand side.
    bdata: Vec<f64>,
    /// The lanes' trailing reflectors.
    refl: Reflectors<LANES>,
}

/// Buffers shared by all rounds of one fit: the basis table, the shared
/// local block, the stacked sigma system, and the per-worker block
/// scratch pool. Allocated once per [`fit`] call; the relocation loop
/// reuses everything.
#[derive(Default)]
struct FitScratch {
    /// One `[basis | 1]` row per sample (see [`fill_basis_table`]).
    basis: Vec<Vec<Complex>>,
    sig_norms: Vec<f64>,
    /// `−1/‖σ_j‖` per sigma column, the factor every block entry takes.
    sig_scale: Vec<f64>,
    /// Column norms of the shared local block.
    loc_norms: Vec<f64>,
    /// The equilibrated local block: each round's packed shared factor,
    /// then the residue identification's left-hand side.
    local: Mat,
    /// The shared local factor's reflectors, packed once per round.
    local_refl: Reflectors,
    stacked: Mat,
    stacked_rhs: Vec<f64>,
    /// Per-worker block scratch, one per worker a round can run: the
    /// pool's capacity, capped at the response count.
    block_pool: Vec<BlockScratch>,
}

impl FitScratch {
    fn new(workers: usize) -> Self {
        let mut block_pool = Vec::with_capacity(workers);
        block_pool.resize_with(workers, BlockScratch::default);
        Self { block_pool, ..Self::default() }
    }
}

/// Raw view of the stacked system for the compression workers.
///
/// SAFETY invariant: task `g` (lane group `g`) writes only the rows of
/// responses `LANES·g .. LANES·(g+1)`, `k·kept .. (k+1)·kept` for each
/// (disjoint across tasks, each claimed exactly once by the executor),
/// and the executor joins every worker before the buffers are read
/// again — so no two threads ever touch the same element and no read
/// races a write.
struct StackedWriter {
    mat: *mut f64,
    rhs: *mut f64,
    n_sig: usize,
}

// SAFETY: see the type-level invariant above.
unsafe impl Sync for StackedWriter {}

impl StackedWriter {
    /// Writes `stacked[(row, j)] = v`.
    ///
    /// # Safety
    ///
    /// `row` must lie in the calling task's exclusive row range.
    unsafe fn write(&self, row: usize, j: usize, v: f64) {
        *self.mat.add(row * self.n_sig + j) = v;
    }

    /// Writes `stacked_rhs[row] = v` under the same contract as
    /// [`StackedWriter::write`].
    unsafe fn write_rhs(&self, row: usize, v: f64) {
        *self.rhs.add(row) = v;
    }
}

/// Flattens a sweep failure: task errors carry their [`VecfitError`]
/// through; a contained worker panic is a programmer error and is
/// re-raised as a panic, keeping the crate's panic discipline identical
/// to the serial path.
fn unwrap_sweep(e: SweepError<VecfitError>) -> VecfitError {
    match e {
        SweepError::Task { error, .. } => error,
        SweepError::WorkerPanicked { worker } => panic!("vector-fit worker {worker} panicked"),
    }
}

fn validate(
    samples: &[Complex],
    data: &[Vec<Complex>],
    opts: &VfOptions,
    n_poles: usize,
) -> Result<(), VecfitError> {
    if samples.is_empty() || data.is_empty() {
        return Err(VecfitError::EmptyData);
    }
    let l = samples.len();
    for (k, row) in data.iter().enumerate() {
        if row.len() != l {
            return Err(VecfitError::LengthMismatch { response: k, expected: l, got: row.len() });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(VecfitError::NonFinite);
        }
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(VecfitError::NonFinite);
    }
    let n_loc = n_poles + usize::from(opts.has_const());
    let n_sig = n_poles + usize::from(opts.relaxed);
    let needed = (n_loc + n_sig).div_ceil(rows_per_sample(opts.axis));
    if l < needed {
        return Err(VecfitError::TooFewSamples { needed, got: l });
    }
    Ok(())
}

// `!(hi > lo)` also rejects a NaN range, which `hi <= lo` would pass.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn sample_range(samples: &[Complex], axis: Axis) -> Result<(f64, f64), VecfitError> {
    match axis {
        Axis::Imaginary => {
            let mut lo = f64::INFINITY;
            let mut hi: f64 = 0.0;
            for s in samples {
                let w = s.im.abs();
                if w > 0.0 {
                    lo = lo.min(w);
                    hi = hi.max(w);
                }
            }
            if hi == 0.0 || !lo.is_finite() {
                return Err(VecfitError::DegenerateGrid);
            }
            if lo == hi {
                // Single frequency: spread the starting poles a decade around it.
                return Ok((hi / 3.0, hi * 3.0));
            }
            Ok((lo, hi))
        }
        Axis::Real => {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for s in samples {
                lo = lo.min(s.re);
                hi = hi.max(s.re);
            }
            if !(hi > lo) {
                return Err(VecfitError::DegenerateGrid);
            }
            Ok((lo, hi))
        }
    }
}

/// Refills `out` with one `[basis | 1]` row per sample: the partial
/// fractions, then the constant column. The local basis (constant on
/// the real axis) and the sigma basis (constant when relaxed) are both
/// prefixes of it. Row vectors are reused across rounds.
fn fill_basis_table(poles: &PoleSet, samples: &[Complex], out: &mut Vec<Vec<Complex>>) {
    out.resize_with(samples.len(), Vec::new);
    for (row, &s) in out.iter_mut().zip(samples) {
        basis_row(poles, s, row);
        row.push(Complex::ONE);
    }
}

/// Real equations per complex sample (see [`realify_rows`]).
fn rows_per_sample(axis: Axis) -> usize {
    match axis {
        Axis::Imaginary => 2,
        Axis::Real => 1,
    }
}

/// Converts one complex equation row into real ones. On the imaginary
/// axis it yields a (Re, Im) row pair; on the real axis the data and
/// basis are real so only the real part is kept. A right-hand-side entry
/// is realified as a one-column row.
fn realify_rows(axis: Axis, row: &[Complex], out: &mut Vec<f64>) {
    out.extend(row.iter().map(|v| v.re));
    if axis == Axis::Imaginary {
        out.extend(row.iter().map(|v| v.im));
    }
}

/// Least squares with a ridge fallback: over-parameterized fits (more
/// poles than the data supports) produce nearly dependent basis columns;
/// a tiny ridge picks the minimum-norm-flavoured solution instead of
/// failing, which is the behaviour vector fitting needs when the pole
/// count exceeds the underlying system order.
/// `qr` is the factorization of `m`, which the fallback needs unfactored.
fn solve_lstsq_robust(qr: &Qr, m: &Mat, rhs: &[f64]) -> Result<Vec<f64>, NumericsError> {
    match qr.solve_lstsq(rhs) {
        Ok(x) => Ok(x),
        Err(NumericsError::RankDeficient { .. }) => {
            // Floor the ridge absolutely: an all-zero block (e.g. fitting
            // an identically zero trajectory) must still yield the
            // minimum-norm solution 0 instead of a singular system.
            let scale = (1e-10 * m.norm_fro()).max(1e-120);
            lstsq_ridge(m, rhs, scale * scale)
        }
        Err(e) => Err(e),
    }
}

/// Refills `out` with the realified local block, the first `n_loc`
/// columns of the basis table, scaled to unit column 2-norms; `norms`
/// receives the scale factors (divide solutions by them), an all-zero
/// column getting `zero_norm`.
fn local_block(
    axis: Axis,
    basis: &[Vec<Complex>],
    (rows, n_loc): (usize, usize),
    zero_norm: f64,
    out: &mut Mat,
    norms: &mut Vec<f64>,
) {
    let mut m = core::mem::take(out).into_vec();
    m.clear();
    for row in basis {
        realify_rows(axis, &row[..n_loc], &mut m);
    }
    norms.clear();
    norms.resize(n_loc, 0.0);
    for row in m.chunks_exact(n_loc.max(1)) {
        for (nj, v) in norms.iter_mut().zip(row) {
            *nj += v * v;
        }
    }
    for n in norms.iter_mut() {
        *n = if *n == 0.0 { zero_norm } else { n.sqrt() };
    }
    for row in m.chunks_exact_mut(n_loc.max(1)) {
        for (v, nj) in row.iter_mut().zip(norms.iter()) {
            *v /= nj;
        }
    }
    *out = Mat::from_vec(rows, n_loc, m);
}

/// One sigma-identification + pole-relocation round: one sweep round on
/// the borrowed pool, no thread spawn.
#[allow(clippy::too_many_arguments)]
fn relocate_once(
    sweep_pool: &SweepPool,
    samples: &[Complex],
    data: &[Vec<Complex>],
    poles: &PoleSet,
    opts: &VfOptions,
    min_imag_abs: f64,
    clamp: Option<(f64, f64)>,
    scratch: &mut FitScratch,
) -> Result<PoleSet, VecfitError> {
    let l = samples.len();
    let k_count = data.len();
    let n_basis = poles.n_basis();
    let n_loc = n_basis + usize::from(opts.has_const());
    let n_sig = n_basis + usize::from(opts.relaxed);
    let n_cols = n_loc + n_sig;

    let FitScratch {
        basis,
        sig_norms,
        sig_scale,
        loc_norms,
        local,
        local_refl,
        stacked,
        stacked_rhs,
        block_pool,
    } = scratch;
    fill_basis_table(poles, samples, basis);
    let basis = &*basis;

    // Global scaling of the sigma columns must be shared across k blocks;
    // accumulate their norms first.
    sig_norms.clear();
    sig_norms.resize(n_sig, 0.0);
    for row in data {
        for (si, &h) in basis.iter().zip(row) {
            for (nj, v) in sig_norms.iter_mut().zip(si) {
                *nj += (*v * h).norm_sqr();
            }
        }
    }
    for n in sig_norms.iter_mut() {
        *n = n.sqrt();
        if *n == 0.0 {
            *n = 1.0;
        }
    }
    let sig_norms = &*sig_norms;
    sig_scale.clear();
    sig_scale.extend(sig_norms.iter().map(|n| -1.0 / n));
    let sig_scale = &*sig_scale;

    // The local columns are the same for every response: equilibrate and
    // factor them once. (Sigma columns share the global scaling above;
    // rescaling them per block would break the stacking.)
    let block_rows = rows_per_sample(opts.axis) * l;
    local_block(opts.axis, basis, (block_rows, n_loc), f64::MIN_POSITIVE, local, loc_norms);
    factor_with_rhs_in_place(local, local_refl, &mut []);
    let local_refl = &*local_refl;

    // Lane groups fan out over the executor; response k owns rows
    // k·kept..(k+1)·kept of the stacked system (see the module doc).
    let kept = block_rows.min(n_cols).saturating_sub(n_loc);
    let top = n_loc.min(block_rows);
    let total_rows = k_count * kept + usize::from(opts.relaxed);
    if stacked.shape() != (total_rows, n_sig) {
        *stacked = Mat::zeros(total_rows, n_sig);
    }
    stacked_rhs.clear();
    stacked_rhs.resize(total_rows, 0.0);

    let writer = StackedWriter {
        mat: stacked.as_mut_slice().as_mut_ptr(),
        rhs: stacked_rhs.as_mut_ptr(),
        n_sig,
    };
    // Classic VF's RHS is one more column, never a pivot.
    let cols = n_sig + usize::from(!opts.relaxed);
    sweep_pool
        .run_with(k_count.div_ceil(LANES), &mut block_pool[..], |ws: &mut BlockScratch, g| {
            let first = g * LANES;
            let group = &data[first..k_count.min(first + LANES)];
            // Every entry is written: the realified rows of one sample
            // (Re, then Im on jω) take each product's parts in lane l,
            // response first + l; a short group's missing lanes take
            // h = 0 and are discarded. Classic VF's σ = 1 + Σ c̃φ moves
            // H·1 to the RHS column.
            let block = ws.lanes.resize(block_rows * cols);
            let per_sample = block.chunks_exact_mut(rows_per_sample(opts.axis) * cols);
            for (li, (rows, bi)) in per_sample.zip(basis).enumerate() {
                let hs = (0..LANES).map(|l| group.get(l).map_or(Complex::ZERO, |row| row[li]));
                for (l, h) in hs.enumerate() {
                    let sigma = bi.iter().zip(sig_scale).map(|(v, s)| *v * h * *s);
                    for (j, p) in sigma.chain((!opts.relaxed).then_some(h)).enumerate() {
                        rows[j][l] = p.re;
                        if opts.axis == Axis::Imaginary {
                            rows[cols + j][l] = p.im;
                        }
                    }
                }
            }
            compress_lanes_in_place(local_refl, block, cols, n_sig, &mut ws.refl);
            let trail = &block[top * cols..];
            for (l, k) in (first..first + group.len()).enumerate() {
                for ri in 0..kept {
                    let (dest, row) = (k * kept + ri, &trail[ri * cols..(ri + 1) * cols]);
                    for (j, e) in row[..n_sig].iter().enumerate() {
                        // R is upper triangular; below-diagonal entries of
                        // the packed factor hold reflectors, not R.
                        let v = if j >= ri { e[l] } else { 0.0 };
                        // SAFETY: group g owns these rows exclusively.
                        unsafe { writer.write(dest, j, v) };
                    }
                    if !opts.relaxed {
                        // SAFETY: as above.
                        unsafe { writer.write_rhs(dest, row[n_sig][l]) };
                    }
                }
            }
            Ok::<(), VecfitError>(())
        })
        .map_err(unwrap_sweep)?;

    // Relaxation constraint: Σ_l Re{σ(s_l)} = L, scaled to the data norm.
    if opts.relaxed {
        let scale = data.iter().flatten().fold(0.0, |acc, h| acc + h.norm_sqr());
        let scale = scale.sqrt() / (k_count as f64 * l as f64);
        let row = k_count * kept;
        for j in 0..n_sig {
            let mut acc = 0.0;
            for bi in basis {
                acc += bi[j].re;
            }
            stacked[(row, j)] = scale * acc / sig_norms[j];
        }
        stacked_rhs[row] = scale * l as f64;
    }

    let sol = solve_lstsq_robust(&Qr::factor(stacked), stacked, stacked_rhs)?;
    // Undo the global sigma scaling.
    let mut c_sigma: Vec<f64> = sol.iter().zip(sig_norms).map(|(v, n)| v / n).collect();
    let d_sigma = if opts.relaxed {
        let d = c_sigma.pop().expect("relaxed sigma has a constant column");
        // Guard against a vanishing sigma constant (Gustavsen's TOLlow).
        if d.abs() < 1e-8 {
            if d < 0.0 {
                -1e-8
            } else {
                1e-8
            }
        } else {
            d
        }
    } else {
        1.0
    };

    // Zeros of sigma: eigenvalues of A − b·c̃ᵀ/d̃ in real block form.
    let mut a = Mat::zeros(n_basis, n_basis);
    let mut i = 0;
    for e in poles.entries() {
        match e {
            PoleEntry::Real(p) => {
                a[(i, i)] = *p;
                for j in 0..n_basis {
                    a[(i, j)] -= c_sigma[j] / d_sigma;
                }
                i += 1;
            }
            PoleEntry::Pair(p) => {
                a[(i, i)] = p.re;
                a[(i, i + 1)] = p.im;
                a[(i + 1, i)] = -p.im;
                a[(i + 1, i + 1)] = p.re;
                for j in 0..n_basis {
                    // b = [2, 0]ᵀ for the pair block.
                    a[(i, j)] -= 2.0 * c_sigma[j] / d_sigma;
                }
                i += 2;
            }
        }
    }
    let eigs = eigenvalues(&a)?;
    Ok(PoleSet::from_eigenvalues(&eigs, opts.axis, min_imag_abs, clamp))
}

/// Final residue identification with the poles fixed: the left-hand
/// side is the same for every response, so it is factored once and each
/// response — one round on the borrowed pool — needs only `Qᵀb` and a
/// back-substitution.
fn identify_residues(
    sweep_pool: &SweepPool,
    samples: &[Complex],
    data: &[Vec<Complex>],
    poles: PoleSet,
    opts: &VfOptions,
    scratch: &mut FitScratch,
) -> Result<RationalModel, VecfitError> {
    let n_basis = poles.n_basis();
    let n_loc = n_basis + usize::from(opts.has_const());
    let FitScratch { basis, loc_norms, local, block_pool, .. } = scratch;
    fill_basis_table(&poles, samples, basis);
    let rows = rows_per_sample(opts.axis) * samples.len();
    local_block(opts.axis, basis, (rows, n_loc), 1.0, local, loc_norms);
    let (lhs, norms) = (&*local, &*loc_norms);
    let qr = Qr::factor(lhs);

    let poles_ref = &poles;
    let terms: Vec<ResponseTerms> = sweep_pool
        .run_with(data.len(), &mut block_pool[..], |ws: &mut BlockScratch, k| {
            ws.bdata.clear();
            for &h in &data[k] {
                realify_rows(opts.axis, &[h], &mut ws.bdata);
            }
            let sol = solve_lstsq_robust(&qr, lhs, &ws.bdata)?;
            let flat: Vec<f64> = sol.iter().zip(norms).map(|(v, n)| v / n).collect();
            let residues = Residues::from_flat(poles_ref, &flat[..n_basis]);
            let d = if opts.has_const() { flat[n_basis] } else { 0.0 };
            Ok::<ResponseTerms, VecfitError>(ResponseTerms { residues, d })
        })
        .map_err(unwrap_sweep)?;
    Ok(RationalModel::new(poles, terms))
}

/// Absolute RMS error of a model against the training data.
fn model_rms(model: &RationalModel, samples: &[Complex], data: &[Vec<Complex>]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (k, row) in data.iter().enumerate() {
        for (s, h) in samples.iter().zip(row) {
            acc += (model.eval(k, *s) - *h).norm_sqr();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (acc / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvf_numerics::{jw_grid, linspace, logspace};

    /// The per-response full-block compression the shared local factor
    /// replaced: for every response assemble `[Φ_loc | −H_k·Φ_σ]`,
    /// equilibrate its local columns, factor the whole block and keep the
    /// `R₂₂` rows; then append the relaxation row. Kept as the bit-level
    /// oracle of the stacked sigma system. It evaluates its own local and
    /// sigma bases, and it builds and reflects the RHS in both modes: in
    /// relaxed mode that is the check that the reflections the engine
    /// skips only ever leave +0.
    fn full_block_oracle(
        samples: &[Complex],
        data: &[Vec<Complex>],
        poles: &PoleSet,
        opts: &VfOptions,
    ) -> (Mat, Vec<f64>) {
        let l = samples.len();
        let n_basis = poles.n_basis();
        let n_loc = n_basis + usize::from(opts.has_const());
        let n_sig = n_basis + usize::from(opts.relaxed);
        let n_cols = n_loc + n_sig;
        let (mut loc, mut sig) = (Vec::new(), Vec::new());
        for &s in samples {
            let mut row = Vec::new();
            basis_row(poles, s, &mut row);
            let (mut loc_row, mut sig_row) = (row.clone(), row);
            if opts.has_const() {
                loc_row.push(Complex::ONE);
            }
            if opts.relaxed {
                sig_row.push(Complex::ONE);
            }
            loc.push(loc_row);
            sig.push(sig_row);
        }
        let mut sig_norms = vec![0.0_f64; n_sig];
        for row in data {
            for li in 0..l {
                for (j, nj) in sig_norms.iter_mut().enumerate() {
                    *nj += (sig[li][j] * row[li]).norm_sqr();
                }
            }
        }
        for n in &mut sig_norms {
            *n = n.sqrt();
            if *n == 0.0 {
                *n = 1.0;
            }
        }
        let block_rows = if opts.axis == Axis::Imaginary { 2 * l } else { l };
        let kept = block_rows.min(n_cols).saturating_sub(n_loc);
        let total_rows = data.len() * kept + usize::from(opts.relaxed);
        let mut stacked = Mat::zeros(total_rows, n_sig);
        let mut stacked_rhs = vec![0.0; total_rows];
        for (k, row) in data.iter().enumerate() {
            let (mut mdata, mut bdata) = (Vec::new(), Vec::new());
            for li in 0..l {
                let h = row[li];
                let mut crow: Vec<Complex> = loc[li].clone();
                for (j, v) in sig[li].iter().enumerate() {
                    crow.push(*v * h * (-1.0 / sig_norms[j]));
                }
                realify_rows(opts.axis, &crow, &mut mdata);
                realify_rows(
                    opts.axis,
                    &[if opts.relaxed { Complex::ZERO } else { h }],
                    &mut bdata,
                );
            }
            let mut norms = vec![0.0_f64; n_loc];
            for i in 0..block_rows {
                for (nj, v) in norms.iter_mut().zip(&mdata[i * n_cols..i * n_cols + n_loc]) {
                    *nj += v * v;
                }
            }
            for n in &mut norms {
                *n = n.sqrt().max(f64::MIN_POSITIVE);
            }
            for i in 0..block_rows {
                for (j, nj) in norms.iter().enumerate() {
                    mdata[i * n_cols + j] /= nj;
                }
            }
            let mut block = Mat::from_vec(block_rows, n_cols, mdata);
            factor_with_rhs_in_place(&mut block, &mut Reflectors::default(), &mut bdata);
            for (ri, row_out) in (n_loc..n_loc + kept).enumerate() {
                for j in 0..n_sig {
                    let col = n_loc + j;
                    let v = if col >= row_out { block[(row_out, col)] } else { 0.0 };
                    stacked[(k * kept + ri, j)] = v;
                }
                stacked_rhs[k * kept + ri] = bdata[row_out];
            }
        }
        if opts.relaxed {
            let mut scale = 0.0;
            for row in data {
                for h in row {
                    scale += h.norm_sqr();
                }
            }
            let scale = scale.sqrt() / (data.len() as f64 * l as f64);
            let row = data.len() * kept;
            for j in 0..n_sig {
                let mut acc = 0.0;
                for si in &sig {
                    acc += si[j].re;
                }
                stacked[(row, j)] = scale * acc / sig_norms[j];
            }
            stacked_rhs[row] = scale * l as f64;
        }
        (stacked, stacked_rhs)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn shared_local_factor_stacks_the_oracle_bits(
            real_axis in 0u8..2,
            relaxed in 0u8..2,
            n_poles in 1usize..7,
            k_count in 1usize..=13,
            workers in 1usize..3,
            extra_samples in 0usize..15,
            zero_response in 0usize..16,
            subnormal in 0u8..4,
            values in prop::collection::vec(-5.0..5.0f64, 61),
        ) {
            let base = if real_axis == 1 { VfOptions::state(n_poles) } else { VfOptions::frequency(n_poles) };
            let opts = base.with_relaxed(relaxed == 1).with_iterations(1);
            // From trailing blocks shorter than their pivots to tall ones.
            let l = opts.n_poles + 1 + extra_samples;
            let samples = match opts.axis {
                Axis::Imaginary => jw_grid(&logspace(0.0, 3.0, l)),
                Axis::Real => linspace(-1.0, 2.0, l).into_iter().map(Complex::from_re).collect(),
            };
            // Up to 13 responses fill one to four lane groups and leave
            // every tail length. Values under 1/4 in magnitude are −0.0.
            let value = |i: usize| match values[i % values.len()] {
                v if v.abs() < 0.25 => -0.0,
                v => v,
            };
            // Response `zero_response` (when it exists) is all ±0: its
            // sigma block is, so its lane takes τ = 0 at every trailing
            // pivot next to live lanes, and must keep each −0.0. In a
            // quarter of the cases every value is a few subnormal steps:
            // the sigma norms underflow to 1, and a product with a basis
            // value under 1/2 a step rounds to ±0, so some sigma columns
            // are zero inside live responses.
            let unit = if subnormal == 0 { 5e-324 } else { 1.0 };
            let data: Vec<Vec<Complex>> = (0..k_count)
                .map(|k| {
                    let scale = if k == zero_response { 0.0 } else { unit };
                    (0..l)
                        .map(|li| {
                            let i = 2 * (k * l + li);
                            match opts.axis {
                                Axis::Imaginary => Complex::new(scale * value(i), scale * value(i + 1)),
                                Axis::Real => Complex::from_re(scale * value(i)),
                            }
                        })
                        .collect()
                })
                .collect();
            let (lo, hi) = sample_range(&samples, opts.axis).unwrap();
            let poles = PoleSet::initial_for(&opts, lo, hi);
            let (want, want_rhs) = full_block_oracle(&samples, &data, &poles, &opts);

            let pool = SweepPool::new(workers);
            let mut scratch = FitScratch::new(workers);
            // Only the stacked system is compared; the relocation
            // eigenproblem of random data may legitimately fail.
            let _ = relocate_once(&pool, &samples, &data, &poles, &opts, 1e-3, None, &mut scratch);
            prop_assert_eq!(scratch.stacked.shape(), want.shape());
            prop_assert_eq!(bits(scratch.stacked.as_slice()), bits(want.as_slice()));
            prop_assert_eq!(bits(&scratch.stacked_rhs), bits(&want_rhs));
        }
    }
}
