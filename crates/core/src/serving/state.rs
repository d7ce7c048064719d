//! Checkpointable per-simulation state and the streaming kernel.
//!
//! [`SimState`] extracts the first-order-hold block state and the
//! drive-memo registers out of the kernel loop into a first-class
//! value: create one with [`CompiledSim::new_state`], advance it chunk
//! by chunk with [`CompiledSim::simulate_into`], clone it to
//! checkpoint, and hand the clone back later to resume. Feeding a
//! stimulus in N chunks produces exactly the bits of the one-shot
//! [`CompiledSim::simulate`] call — the kernel's per-sample arithmetic
//! never depends on where a chunk boundary falls.
//!
//! All three entries — [`CompiledSim::simulate`],
//! [`CompiledSim::simulate_into`] and the pooled
//! [`CompiledSim::advance_chunks`] — run the same single-simulation
//! kernel, `advance`, over one state at a time.
//!
//! `advance` walks a chunk in segments: a run of changed samples has its
//! drives evaluated up to eight samples per pass, one per vector lane,
//! and steps sample by sample; a held run of bit-equal samples steps
//! with drives and input terms computed once. Every lane and step runs
//! the reference's operations, so neither split moves an output bit.

use rvf_numerics::{ln_parts, Complex};

use super::compile::{BlockCoef, CompiledSim};
use super::{check_dt, check_stimulus, dt_ok, ServingError};

/// Checkpointable state of one running simulation.
///
/// Holds everything the kernel carries from one sample to the next:
/// the 2-wide first-order-hold state of every block, the previous
/// sample's drive vector, and the bit pattern of the input that built
/// it (the drive-memo register). `Clone` is the checkpoint operation —
/// a cloned state resumed later continues bit-for-bit where the
/// original stood.
///
/// The buffers double as the kernel's scratch space, so a chunk
/// advanced through [`CompiledSim::simulate_into`] performs **no heap
/// allocation** in steady state (the first-order-hold coefficients are
/// cached per `dt` inside the state, in capacity reserved up front).
///
/// # Examples
///
/// ```
/// use rvf_core::{StateFn, SimBuilder};
///
/// let mut b = SimBuilder::new();
/// let zero = b.drive_poly(&[0.0]);
/// b.set_static_drive(zero);
/// let f = b.drive_rational(&StateFn {
///     terms: vec![],
///     linear: 1.0e9,
///     constant: 0.0,
/// });
/// b.block_real(-1.0e9, f);
/// let sim = b.try_build().unwrap();
///
/// // Stream a stimulus in two chunks; the result is bit-identical to
/// // the one-shot call.
/// let stimulus = [0.0, 0.4, 0.8, 0.8, 0.8, 0.2];
/// let mut state = sim.new_state();
/// let mut out = [0.0; 6];
/// sim.simulate_into(1.0e-10, &stimulus[..3], &mut state, &mut out[..3]).unwrap();
/// let checkpoint = state.clone(); // resumable snapshot
/// sim.simulate_into(1.0e-10, &stimulus[3..], &mut state, &mut out[3..]).unwrap();
/// assert_eq!(out.to_vec(), sim.simulate(1.0e-10, &stimulus));
/// assert_eq!(checkpoint.samples(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SimState {
    /// Previous-sample drive values, one per drive row.
    v0: Vec<f64>,
    /// Block state, real components, one per block.
    sre: Vec<f64>,
    /// Block state, imaginary components, one per block.
    sim: Vec<f64>,
    /// Bit pattern of the last input that rebuilt the drives.
    uprev: u64,
    /// Has the state absorbed its first sample (which seeds the blocks
    /// at the DC steady state of that input)?
    started: bool,
    /// The drive block (scratch): per drive row, its values at the up
    /// to `LANES` samples of one drive pass, one per lane.
    blk: Vec<[f64; LANES]>,
    /// One kernel row per block: the first-order-hold coefficients
    /// cached for `coef_dt`, and the current segment's input terms.
    rows: Vec<BlockRow>,
    /// Bit pattern of the `dt` the cache was computed for.
    coef_dt: u64,
    /// Model shape fingerprint: (drives, blocks, pole features, pdeg).
    shape: [usize; 4],
    /// Samples advanced so far.
    samples: u64,
}

impl SimState {
    /// Whether this state was sized for `sim`'s table shape. (A
    /// fingerprint check: two models with identical shape are
    /// interchangeable as far as buffer safety goes.)
    pub(crate) fn matches(&self, sim: &CompiledSim) -> bool {
        self.shape == shape_of(sim)
    }

    /// Re-fills the cached propagators if `dt` changed (bit compare);
    /// the cache vector's capacity was reserved at construction, so
    /// this never allocates.
    pub(crate) fn ensure_coef(&mut self, sim: &CompiledSim, dt: f64) {
        let bits = dt.to_bits();
        if self.coef_dt == bits && self.rows.len() == sim.n_blocks() {
            return;
        }
        self.rows.clear();
        self.rows.extend(sim.propagators(dt).map(BlockRow::new));
        self.coef_dt = bits;
    }

    /// Number of `f64` registers the kernel carries between samples:
    /// the drive vector plus both block-state components.
    pub(crate) fn carry_len(&self) -> usize {
        self.v0.len() + self.sre.len() + self.sim.len()
    }

    /// Loads the registers the kernel carries between samples from the
    /// same-shape state `src` (scratch buffers, the propagator cache and
    /// the sample counter stay this state's).
    pub(crate) fn load_carry(&mut self, src: &SimState) {
        self.v0.copy_from_slice(&src.v0);
        self.sre.copy_from_slice(&src.sre);
        self.sim.copy_from_slice(&src.sim);
        self.uprev = src.uprev;
        self.started = src.started;
    }

    /// Saves the carried registers: the `f64` ones into `dst` (length
    /// [`carry_len`](SimState::carry_len)), the drive-memo bits and the
    /// started flag as the return value.
    pub(crate) fn save_carry(&self, dst: &mut [f64]) -> (u64, bool) {
        let (v0, rest) = dst.split_at_mut(self.v0.len());
        let (sre, sim) = rest.split_at_mut(self.sre.len());
        v0.copy_from_slice(&self.v0);
        sre.copy_from_slice(&self.sre);
        sim.copy_from_slice(&self.sim);
        (self.uprev, self.started)
    }

    /// Commits registers saved by [`save_carry`](SimState::save_carry)
    /// from a copy of this state that went on to absorb `n` samples.
    pub(crate) fn commit_carry(&mut self, src: &[f64], (uprev, started): (u64, bool), n: usize) {
        let (v0, rest) = src.split_at(self.v0.len());
        let (sre, sim) = rest.split_at(self.sre.len());
        self.v0.copy_from_slice(v0);
        self.sre.copy_from_slice(sre);
        self.sim.copy_from_slice(sim);
        self.uprev = uprev;
        self.started = started;
        self.samples += n as u64;
    }

    /// Samples this state has absorbed since creation.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Whether the state has absorbed at least one sample. A fresh
    /// state seeds every block at the DC steady state of the first
    /// input it sees.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Exports this state as a plain-data [`StateCheckpoint`] — the
    /// introspection seam a durability layer serializes.
    pub fn export(&self) -> StateCheckpoint {
        CheckpointView::from(self).to_checkpoint()
    }
}

/// The fields [`SimState::export`] copies, borrowed: what a serializer
/// streams from a live state without cloning it.
impl<'a> From<&'a SimState> for CheckpointView<'a> {
    fn from(s: &'a SimState) -> Self {
        CheckpointView {
            shape: s.shape.map(|n| n as u64),
            v0: &s.v0,
            sre: &s.sre,
            sim: &s.sim,
            uprev: s.uprev,
            started: s.started,
            samples: s.samples,
            coef_dt: s.coef_dt,
        }
    }
}

/// Plain-data snapshot of a [`SimState`]: everything the
/// kernel carries from one sample to the next, as exact bit patterns.
/// Produced by [`SimState::export`], turned back into a live state by
/// [`CompiledSim::import_state`]; a round trip through any byte-exact
/// serialization resumes **bit-identically** — the fields are the
/// complete per-sample carry of the kernel, nothing is approximated.
///
/// Scratch buffers (the drive block and the per-block input terms) are
/// deliberately absent: they are overwritten before being read, so they
/// are not state.
///
/// `V` is how the three vectors are held: owned (`Vec<f64>`, the
/// default), borrowed ([`CheckpointView`]), or in any other form a
/// serializer reads them in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateCheckpoint<V = Vec<f64>> {
    /// Model shape fingerprint `[n_drives, n_blocks, pole features,
    /// pdeg]` — import refuses a mismatching model.
    pub shape: [u64; 4],
    /// Previous-sample drive values (one per drive row).
    pub v0: V,
    /// Block state, real components (one per block).
    pub sre: V,
    /// Block state, imaginary components (one per block).
    pub sim: V,
    /// Bit pattern of the last input that rebuilt the drives (the
    /// drive-memo register).
    pub uprev: u64,
    /// Whether the state has absorbed its first sample (a fresh state
    /// seeds the blocks at the DC point of its first input).
    pub started: bool,
    /// Samples absorbed so far.
    pub samples: u64,
    /// Propagator-cache key: bit pattern of the `dt` whose first-order-
    /// hold coefficients were cached (`u64::MAX` = cache empty). Import
    /// re-warms the cache from this key, so the first chunk after a
    /// restore allocates nothing new.
    pub coef_dt: u64,
}

/// A [`StateCheckpoint`] with its vectors borrowed, from a live
/// [`SimState`] or from a checkpoint (both convert with `From`).
pub type CheckpointView<'a> = StateCheckpoint<&'a [f64]>;

impl<'a> From<&'a StateCheckpoint> for CheckpointView<'a> {
    fn from(c: &'a StateCheckpoint) -> Self {
        CheckpointView {
            shape: c.shape,
            v0: &c.v0,
            sre: &c.sre,
            sim: &c.sim,
            uprev: c.uprev,
            started: c.started,
            samples: c.samples,
            coef_dt: c.coef_dt,
        }
    }
}

impl CheckpointView<'_> {
    /// An owned copy.
    pub fn to_checkpoint(&self) -> StateCheckpoint {
        StateCheckpoint {
            shape: self.shape,
            v0: self.v0.to_vec(),
            sre: self.sre.to_vec(),
            sim: self.sim.to_vec(),
            uprev: self.uprev,
            started: self.started,
            samples: self.samples,
            coef_dt: self.coef_dt,
        }
    }
}

/// The shape fingerprint [`SimState::matches`] compares.
fn shape_of(sim: &CompiledSim) -> [usize; 4] {
    [sim.n_drives, sim.n_blocks(), sim.poles.len(), sim.pdeg]
}

/// Lanes of one vector group of the drive pass: the most samples one
/// pass evaluates, and the width of each row of the drive block.
const LANES: usize = 8;

/// Fills the dead lanes of a short last group: finite and off the real
/// axis, so those lanes take the `ln` kernel's ordinary path.
const PAD_POLE: Complex = Complex::new(0.0, 1.0);

/// Vector groups per block of the drive pass, whose log features wait on
/// the stack until the block's terms are added.
const BLOCK: usize = 8;

/// Evaluates every drive row at the 1, 2, 4 or 8 inputs `u` (other
/// counts do nothing), row `d` at `u[j]` into `blk[d][j]`. The body is
/// built for the baseline target, with AVX2 and with AVX-512F; each call
/// picks the widest build the CPU has (cached feature checks). No build
/// enables FMA, lanes never mix, and Rust never contracts `a·b + c`, so
/// every lane has the reference's bits, whatever the build or count.
fn eval_drives(sim: &CompiledSim, u: &[f64], blk: &mut [[f64; LANES]]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, the only feature the build enables.
            return unsafe { drives_avx512(sim, u, blk) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature the build enables.
            return unsafe { drives_avx2(sim, u, blk) };
        }
    }
    drive_pass(sim, u, blk);
}

/// [`eval_drives`] with the sample count as the lane body's constant.
#[inline(always)]
fn drive_pass(sim: &CompiledSim, u: &[f64], blk: &mut [[f64; LANES]]) {
    match *u {
        [a] => drive_lanes(sim, &[a], blk),
        [a, b] => drive_lanes(sim, &[a, b], blk),
        [a, b, c, d] => drive_lanes(sim, &[a, b, c, d], blk),
        [a, b, c, d, e, f, g, h] => drive_lanes(sim, &[a, b, c, d, e, f, g, h], blk),
        _ => {}
    }
}

/// The AVX2 build of [`eval_drives`], for CPUs with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn drives_avx2(sim: &CompiledSim, u: &[f64], blk: &mut [[f64; LANES]]) {
    drive_pass(sim, u, blk);
}

/// The AVX-512 build of [`eval_drives`], for CPUs with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn drives_avx512(sim: &CompiledSim, u: &[f64], blk: &mut [[f64; LANES]]) {
    drive_pass(sim, u, blk);
}

/// The drive pass for `M` samples, one per lane. Rational rows start
/// from their linear heads. Each block of the pole table runs `ln(u −
/// pole)` in vector groups of `LANES / M` poles × `M` samples; then
/// every row that reads the block's poles adds its terms on them into
/// its `M` accumulators. A row reads one run of the table in pole
/// order, so it adds its terms in its CSR order, as the reference does.
/// Polynomial rows sum their powers of `u` last.
#[inline(always)]
fn drive_lanes<const M: usize>(sim: &CompiledSim, u: &[f64; M], blk: &mut [[f64; LANES]]) {
    for (h, acc) in sim.head.iter().zip(blk.iter_mut()) {
        for (a, &u) in acc.iter_mut().zip(u) {
            // Matches `constant + linear*u` bit for bit.
            *a = h[0] + h[1] * u;
        }
    }
    let (per, mut run) = (LANES / M, 0);
    let (mut lr, mut li) = ([[0.0; LANES]; BLOCK], [[0.0; LANES]; BLOCK]);
    for (b, poles) in sim.poles.chunks(BLOCK * per).enumerate() {
        for ((group, r), i) in poles.chunks(per).zip(&mut lr).zip(&mut li) {
            [*r, *i] = if group.len() == per {
                ln_group(u, group)
            } else {
                let mut padded = [PAD_POLE; LANES];
                padded[..group.len()].copy_from_slice(group);
                ln_group(u, &padded[..per])
            };
        }
        // Pole `p` of the block at sample `j` is `lr[p][j]`.
        let (lr, li) = (lr.as_flattened().as_chunks::<M>().0, li.as_flattened().as_chunks::<M>().0);
        let (first, end) = (b * BLOCK * per, b * BLOCK * per + poles.len());
        run += sim.runs[run..].iter().take_while(|r| r.poles.end <= first).count();
        for fr in sim.runs[run..].iter().take_while(|r| r.poles.start < end) {
            let (lo, hi) = (fr.poles.start.max(first), fr.poles.end.min(end));
            let lanes = lr[lo - first..].iter().zip(&li[lo - first..]);
            for &d in &fr.rows {
                let terms = &sim.term_w[sim.row_off[d] + lo - fr.poles.start..][..hi - lo];
                let mut acc: [f64; M] = core::array::from_fn(|j| blk[d][j]);
                for (w, (r, i)) in terms.iter().zip(lanes.clone()) {
                    for j in 0..M {
                        // Matches `2.0 * (rho * z.ln()).re`.
                        acc[j] += 2.0 * (w[0] * r[j] - w[1] * i[j]);
                    }
                }
                blk[d][..M].copy_from_slice(&acc);
            }
        }
    }
    for (&d, row) in sim.prow.iter().zip(sim.pmat.chunks_exact(sim.pdeg + 1)) {
        // `Σ row[k]·u^k` over the powers `1, u, u·u, …` in turn.
        let (mut acc, mut pw) = ([0.0; M], [1.0; M]);
        for &c in row {
            for j in 0..M {
                acc[j] += c * pw[j];
                pw[j] *= u[j];
            }
        }
        blk[d][..M].copy_from_slice(&acc);
    }
}

/// Emit pass: output = static drive value + Σ block state components,
/// accumulated per block (`y += sre + sim`) in model block order — the
/// reference summation.
fn emit(sim: &CompiledSim, v1: &[f64], sre: &[f64], simc: &[f64]) -> f64 {
    let mut acc = v1[sim.static_row];
    for (re, im) in sre.iter().zip(simc) {
        acc += re + im;
    }
    acc
}

/// One block's row of the kernel: its first-order-hold coefficients
/// and the input terms of the current segment, `k₁ = g1·w0` and `k₂ =
/// g2·(w1 − w0)` component-wise. The terms share the coefficients'
/// buffer instead of having one of their own: with one more buffer per
/// state, a warm standby's heap fragmented and its peak RSS grew from
/// pass to pass.
#[derive(Debug, Clone, Copy)]
struct BlockRow {
    c: BlockCoef,
    k1r: f64,
    k1i: f64,
    k2r: f64,
    k2i: f64,
}

impl BlockRow {
    /// A row for coefficients `c`; every segment writes its terms
    /// before stepping.
    fn new(c: BlockCoef) -> Self {
        Self { c, k1r: 0.0, k1i: 0.0, k2r: 0.0, k2i: 0.0 }
    }
}

/// Computes every block's input terms for a step from drives `w0` to
/// `w1` (row `d`'s drive is `w1(d)`), in the reference association.
/// `w1 − w0` is a subtraction even when `w1` is `w0` (a held run), so an
/// infinite drive gives the NaN the per-sample step would.
fn fill_terms(sim: &CompiledSim, rows: &mut [BlockRow], w0: &[f64], w1: impl Fn(usize) -> f64) {
    for (b, row) in rows.iter_mut().enumerate() {
        let (o1, o2) = (sim.d1[b], sim.d2[b]);
        let (w0r, w0i) = (w0[o1], w0[o2]);
        let (dvr, dvi) = (w1(o1) - w0r, w1(o2) - w0i);
        let c = &row.c;
        (row.k1r, row.k1i) = (c.g1r * w0r - c.g1i * w0i, c.g1r * w0i + c.g1i * w0r);
        (row.k2r, row.k2i) = (c.g2r * dvr - c.g2i * dvi, c.g2r * dvi + c.g2i * dvr);
    }
}

/// Steps every block once per output slot with the segment's input
/// terms, `x ← (e·x + k₁) + k₂` component-wise (the reference
/// association of `e·z + g1·w0 + g2·(w1 − w0)`), and emits each sample
/// as `y_static` plus the blocks' components in block order. Real
/// blocks carry exact zeros in the imaginary parts, so there is no
/// per-block dispatch.
fn step_segment(
    rows: &[BlockRow],
    sre: &mut [f64],
    simc: &mut [f64],
    y_static: f64,
    out: &mut [f64],
) {
    for y in out {
        let mut acc = y_static;
        for (row, (xr, xi)) in rows.iter().zip(sre.iter_mut().zip(simc.iter_mut())) {
            let (c, r, i) = (&row.c, *xr, *xi);
            *xr = (c.er * r - c.ei * i + row.k1r) + row.k2r;
            *xi = (c.er * i + c.ei * r + row.k1i) + row.k2i;
            acc += *xr + *xi;
        }
        *y = acc;
    }
}

/// Advances `state` through one chunk of samples, writing output sample
/// `t` into `out[t]`. This is the whole serving kernel: every entry
/// point runs it, one simulation at a time.
///
/// A state that has not started yet absorbs its first sample as the DC
/// seed (the reference loop's `t = 0` path). After that the chunk is
/// walked in *segments*, each stepped by one shared body:
///
/// * a **changed run** is a stretch of samples whose bits each differ
///   from the sample before (the first from the memo register
///   `uprev`): its first 8, 4, 2 or 1 samples (the largest power of two
///   it holds) have their drives evaluated in one pass, and each of
///   them steps from the drives before it to its own;
/// * a **held run** is the longest stretch of samples whose bits equal
///   `uprev`: the drives are pure functions of `u`, so every sample of
///   it steps from `v0` to `v0` with input terms computed once — no
///   drive evaluation or copy.
///
/// The state carries the drive vector and memo register across calls,
/// and every lane of a drive pass has the bits of a one-sample pass, so
/// a chunk boundary (even one inside a run) is arithmetically
/// invisible.
pub(crate) fn advance(
    sim: &CompiledSim,
    dt: f64,
    state: &mut SimState,
    input: &[f64],
    out: &mut [f64],
) {
    debug_assert_eq!(input.len(), out.len());
    if input.is_empty() {
        return;
    }
    state.ensure_coef(sim, dt);
    state.samples += input.len() as u64;
    let SimState { v0, sre, sim: simc, uprev, started, blk, rows, .. } = state;

    let mut t = 0;
    if !*started {
        // DC seed: every block starts at the steady state of the first
        // input (the circuit's DC operating point).
        eval_drives(sim, &input[..1], blk);
        v0.iter_mut().zip(blk.iter()).for_each(|(v, b)| *v = b[0]);
        *uprev = input[0].to_bits();
        for b in 0..sim.n_blocks() {
            let (w1, w2) = (v0[sim.d1[b]], v0[sim.d2[b]]);
            if sim.pair[b] {
                let lambda = Complex::new(sim.sigma[b], -sim.omega[b]);
                let z = -(Complex::new(w1, w2) / lambda);
                sre[b] = z.re;
                simc[b] = z.im;
            } else {
                sre[b] = -w1 / sim.sigma[b];
                simc[b] = 0.0;
            }
        }
        out[0] = emit(sim, v0, sre, simc);
        *started = true;
        t = 1;
    }

    while t < input.len() {
        let bits = input[t].to_bits();
        if bits == *uprev {
            let end =
                input[t..].iter().position(|u| u.to_bits() != bits).map_or(input.len(), |n| t + n);
            fill_terms(sim, rows, v0, |d| v0[d]);
            step_segment(rows, sre, simc, v0[sim.static_row], &mut out[t..end]);
            t = end;
            continue;
        }
        let run = input[t..].windows(2).take(LANES - 1);
        let m = 1 << (run.take_while(|w| w[0].to_bits() != w[1].to_bits()).count() + 1).ilog2();
        eval_drives(sim, &input[t..t + m], blk);
        for (j, y) in out[t..t + m].iter_mut().enumerate() {
            fill_terms(sim, rows, v0, |d| blk[d][j]);
            step_segment(rows, sre, simc, blk[sim.static_row][j], core::slice::from_mut(y));
            v0.iter_mut().zip(blk.iter()).for_each(|(v, b)| *v = b[j]);
        }
        *uprev = input[t + m - 1].to_bits();
        t += m;
    }
}

/// `[Re, Im] ln(u − pole)` for one vector group: the `LANES / M` poles
/// of `group` at the `M` samples `u`, lane `k` holding pole `k / M` at
/// sample `k % M` ([`PAD_POLE`] pads a short last group).
#[inline(always)]
fn ln_group<const M: usize>(u: &[f64; M], group: &[Complex]) -> [[f64; LANES]; 2] {
    let (group, mut lr, mut li) = (&group[..LANES / M], [0.0; LANES], [0.0; LANES]);
    for (k, (r, i)) in lr.iter_mut().zip(li.iter_mut()).enumerate() {
        // `Complex::from_re(u) - pole`, part by part: 0.0 − im, not −im,
        // so a zero imaginary part stays +0.
        let pole = group[k / M];
        (*r, *i) = (u[k % M] - pole.re, 0.0 - pole.im);
    }
    for (r, i) in lr.iter_mut().zip(li.iter_mut()) {
        (*r, *i) = ln_parts(*r, *i);
    }
    [lr, li]
}

impl CompiledSim {
    /// A fresh single-simulation [`SimState`] sized for this model,
    /// with all kernel scratch (including the per-`dt` propagator
    /// cache) allocated up front — advancing chunks through
    /// [`simulate_into`](CompiledSim::simulate_into) is then
    /// allocation-free.
    pub fn new_state(&self) -> SimState {
        SimState {
            v0: vec![0.0; self.n_drives],
            sre: vec![0.0; self.n_blocks()],
            sim: vec![0.0; self.n_blocks()],
            uprev: 0,
            started: false,
            blk: vec![[0.0; LANES]; self.n_drives],
            rows: Vec::with_capacity(self.n_blocks()),
            coef_dt: u64::MAX,
            shape: shape_of(self),
            samples: 0,
        }
    }

    /// The allocation-free streaming kernel: advances `state` through
    /// the chunk `inputs`, writing one output sample per input into
    /// `out`. Feeding a stimulus in N chunks (any split, including
    /// single-sample chunks) produces exactly the bits of the one-shot
    /// [`simulate`](CompiledSim::simulate) call.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadDt`] for a non-finite or non-positive `dt`,
    /// [`ServingError::OutputMismatch`] when `out.len() !=
    /// inputs.len()`, [`ServingError::StateMismatch`] when `state` was
    /// built for a different model shape, and
    /// [`ServingError::BadStimulus`] for a chunk with a NaN or infinite
    /// sample. A rejected call leaves `state` untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use rvf_core::{StateFn, ServingError, SimBuilder};
    ///
    /// let mut b = SimBuilder::new();
    /// let s = b.drive_poly(&[0.0, 1.0]);
    /// b.set_static_drive(s);
    /// b.block_real(-1.0e9, s);
    /// let sim = b.try_build().unwrap();
    ///
    /// let mut state = sim.new_state();
    /// let mut out = [0.0; 2];
    /// sim.simulate_into(1e-10, &[0.1, 0.2], &mut state, &mut out).unwrap();
    /// assert!(matches!(
    ///     sim.simulate_into(f64::NAN, &[0.1], &mut state, &mut out[..1]),
    ///     Err(ServingError::BadDt { .. })
    /// ));
    /// ```
    pub fn simulate_into(
        &self,
        dt: f64,
        inputs: &[f64],
        state: &mut SimState,
        out: &mut [f64],
    ) -> Result<(), ServingError> {
        check_dt(dt)?;
        self.check_chunk(state, inputs, out)?;
        advance(self, dt, state, inputs, out);
        Ok(())
    }

    /// The per-chunk check of both checked entries, run before any
    /// state is touched: `output` has one slot per input sample,
    /// `state` fits this model's shape, and every input is finite.
    pub(crate) fn check_chunk(
        &self,
        state: &SimState,
        input: &[f64],
        output: &[f64],
    ) -> Result<(), ServingError> {
        if output.len() != input.len() {
            return Err(ServingError::OutputMismatch { expected: input.len(), got: output.len() });
        }
        if !state.matches(self) {
            return Err(ServingError::StateMismatch);
        }
        check_stimulus(input)
    }

    /// Simulates one stimulus sampled at fixed `dt` — the compiled
    /// equivalent of
    /// [`HammersteinModel::simulate_reference`](crate::HammersteinModel::simulate_reference),
    /// equal to it sample-for-sample under `f64` comparison.
    ///
    /// A non-finite or non-positive `dt` is a caller bug: it is
    /// `debug_assert!`ed here and produces non-finite output in release
    /// builds. Use [`simulate_into`](CompiledSim::simulate_into) to get
    /// a typed error instead.
    pub fn simulate(&self, dt: f64, inputs: &[f64]) -> Vec<f64> {
        debug_assert!(dt_ok(dt), "CompiledSim::simulate: dt must be finite and positive ({dt})");
        let mut out = vec![0.0; inputs.len()];
        advance(self, dt, &mut self.new_state(), inputs, &mut out);
        out
    }

    /// Rebuilds a live [`SimState`] from a [`StateCheckpoint`] exported
    /// earlier (possibly in another process). The restored state
    /// continues **bit-identically** where the exported one stood:
    /// every carried register is reloaded by exact bit pattern, scratch
    /// buffers are rebuilt fresh, and the propagator cache is re-warmed
    /// from the checkpoint's `dt` key so the first chunk after a
    /// restore allocates nothing.
    ///
    /// # Errors
    ///
    /// [`ServingError::StateMismatch`] when the checkpoint's shape
    /// fingerprint or vector lengths do not match this model — a
    /// checkpoint is only replayable into the model it was exported
    /// from (or a shape-identical twin, the same rule
    /// [`simulate_into`](CompiledSim::simulate_into) applies to
    /// states).
    pub fn import_state(&self, ckpt: &StateCheckpoint) -> Result<SimState, ServingError> {
        let shape = shape_of(self);
        if ckpt.shape != shape.map(|s| s as u64)
            || ckpt.v0.len() != self.n_drives
            || ckpt.sre.len() != self.n_blocks()
            || ckpt.sim.len() != self.n_blocks()
        {
            return Err(ServingError::StateMismatch);
        }
        let mut state = self.new_state();
        state.v0.copy_from_slice(&ckpt.v0);
        state.sre.copy_from_slice(&ckpt.sre);
        state.sim.copy_from_slice(&ckpt.sim);
        state.uprev = ckpt.uprev;
        state.started = ckpt.started;
        state.samples = ckpt.samples;
        let dt = f64::from_bits(ckpt.coef_dt);
        if ckpt.coef_dt != u64::MAX && dt_ok(dt) {
            state.ensure_coef(self, dt);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::linear_real_sim;
    use super::*;

    #[test]
    fn real_block_step_response_matches_analytic() {
        // ẏ = a·y + w0·u with a = −w0: unit-DC-gain low-pass.
        let w0 = 1.0e9;
        let sim = linear_real_sim(-w0, w0);
        let dt = 1.0e-11;
        let n = 600;
        let mut u = vec![0.0; n];
        for v in u.iter_mut().skip(1) {
            *v = 1.0;
        }
        let y = sim.simulate(dt, &u);
        let t_end = (n - 1) as f64 * dt;
        let want = 1.0 - (-w0 * (t_end - dt)).exp();
        assert!((y[n - 1] - want).abs() < 2e-3, "{} vs {want}", y[n - 1]);
        assert!(y[0].abs() < 1e-12, "starts in steady state");
    }

    #[test]
    fn memoized_constant_input_stays_in_steady_state() {
        let sim = linear_real_sim(-2.0e9, 3.0);
        let y = sim.simulate(1e-10, &vec![0.75; 200]);
        for v in &y {
            assert_eq!(*v, y[0], "constant input must hold the DC point exactly");
        }
    }

    #[test]
    fn empty_and_zero_length_stimuli() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        assert!(sim.simulate(1e-10, &[]).is_empty());
        let mut state = sim.new_state();
        sim.simulate_into(1e-10, &[], &mut state, &mut []).unwrap();
        assert_eq!(state.samples(), 0);
        assert!(!state.is_started());
    }

    #[test]
    fn chunked_streaming_is_bit_identical_to_one_shot() {
        let sim = linear_real_sim(-1.5e9, 2.0);
        let u: Vec<f64> = (0..97).map(|i| ((i / 5) as f64 * 0.37).sin()).collect();
        let dt = 2.0e-11;
        let want = sim.simulate(dt, &u);
        // Several chunkings, including length-1 chunks.
        for split in [vec![97], vec![1, 96], vec![10, 1, 1, 30, 55], vec![1; 97]] {
            let mut state = sim.new_state();
            let mut got = vec![0.0; u.len()];
            let mut off = 0;
            for len in split {
                sim.simulate_into(dt, &u[off..off + len], &mut state, &mut got[off..off + len])
                    .unwrap();
                off += len;
            }
            assert_eq!(off, u.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "sample {i}");
            }
            assert_eq!(state.samples(), 97);
            assert!(state.is_started());
        }
    }

    #[test]
    fn checkpoint_resume_continues_bitwise() {
        let sim = linear_real_sim(-2.0e9, 1.3);
        let u: Vec<f64> = (0..60).map(|i| (i as f64 * 0.21).cos()).collect();
        let dt = 5.0e-11;
        let want = sim.simulate(dt, &u);
        let mut state = sim.new_state();
        let mut head = vec![0.0; 25];
        sim.simulate_into(dt, &u[..25], &mut state, &mut head).unwrap();
        // Clone = checkpoint; run the tail twice from the same snapshot.
        let snapshot = state.clone();
        for _ in 0..2 {
            let mut resumed = snapshot.clone();
            let mut tail = vec![0.0; 35];
            sim.simulate_into(dt, &u[25..], &mut resumed, &mut tail).unwrap();
            for (i, (g, w)) in head.iter().chain(&tail).zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "sample {i}");
            }
            assert_eq!(resumed.samples(), 60);
        }
    }

    #[test]
    fn dt_validation_on_checked_apis() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let mut state = sim.new_state();
        let mut out = [0.0; 1];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    sim.simulate_into(bad, &[1.0], &mut state, &mut out),
                    Err(ServingError::BadDt { .. })
                ),
                "simulate_into({bad})"
            );
        }
        // A rejected call leaves the state untouched.
        assert_eq!(state.samples(), 0);
    }

    #[test]
    fn simulate_into_rejects_misshapen_arguments() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let mut state = sim.new_state();
        let mut short = [0.0; 1];
        assert_eq!(
            sim.simulate_into(1e-10, &[1.0, 2.0], &mut state, &mut short),
            Err(ServingError::OutputMismatch { expected: 2, got: 1 })
        );
        assert_eq!(state.samples(), 0, "a rejected chunk leaves the state untouched");
        // A state from a different model shape is refused.
        let other = linear_real_sim(-1.0e9, 1.0);
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0, 2.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        b.block_real(-2.0e9, s);
        let bigger = b.try_build().unwrap();
        let mut foreign = bigger.new_state();
        let mut out = [0.0; 1];
        assert_eq!(
            sim.simulate_into(1e-10, &[1.0], &mut foreign, &mut out),
            Err(ServingError::StateMismatch)
        );
        // Same-shape states interoperate (documented fingerprint check).
        let mut twin = other.new_state();
        sim.simulate_into(1e-10, &[1.0], &mut twin, &mut out).unwrap();
    }

    #[test]
    fn export_import_resumes_bitwise() {
        let sim = linear_real_sim(-1.7e9, 0.9);
        let u: Vec<f64> = (0..48).map(|i| (i as f64 * 0.13).sin()).collect();
        let dt = 3.0e-11;
        let want = sim.simulate(dt, &u);
        let mut state = sim.new_state();
        let mut head = vec![0.0; 20];
        sim.simulate_into(dt, &u[..20], &mut state, &mut head).unwrap();
        let ckpt = state.export();
        assert_eq!(ckpt.samples, 20);
        assert!(ckpt.started);
        assert_eq!(ckpt.coef_dt, dt.to_bits(), "cache key travels with the checkpoint");
        // Import into a *recompiled* twin and continue: still the bits
        // of the uninterrupted run.
        let mut resumed = sim.import_state(&ckpt).unwrap();
        let mut tail = vec![0.0; 28];
        sim.simulate_into(dt, &u[20..], &mut resumed, &mut tail).unwrap();
        for (i, (g, w)) in head.iter().chain(&tail).zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i}");
        }
        // The round trip itself is lossless.
        assert_eq!(sim.import_state(&ckpt).unwrap().export(), ckpt);
    }

    #[test]
    fn import_rejects_foreign_shapes() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let ckpt = sim.new_state().export();
        assert_eq!(ckpt.coef_dt, u64::MAX, "fresh state has no cached dt");
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        b.block_real(-2.0e9, s);
        let bigger = b.try_build().unwrap();
        assert!(matches!(bigger.import_state(&ckpt), Err(ServingError::StateMismatch)));

        // A checkpoint whose vectors lie about their lengths is refused
        // even if the shape header matches.
        let mut lying = ckpt.clone();
        lying.sre.push(0.0);
        assert!(matches!(sim.import_state(&lying), Err(ServingError::StateMismatch)));
    }

    /// One build of the drive pass.
    type DrivePass = fn(&CompiledSim, &[f64], &mut [[f64; LANES]]);

    /// Every build of the drive pass this CPU can run, by name: the
    /// baseline build, the AVX2 and AVX-512 builds when the CPU has them
    /// (each skip is printed), and the dispatching entry point.
    fn drive_builds() -> Vec<(&'static str, DrivePass)> {
        let mut builds: Vec<(&'static str, DrivePass)> =
            vec![("baseline", drive_pass), ("dispatch", eval_drives)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2.
                builds.push(("avx2", |s, u, b| unsafe { drives_avx2(s, u, b) }));
            } else {
                println!("drive pass: the CPU has no AVX2, AVX2 build skipped");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU supports AVX-512F.
                builds.push(("avx512", |s, u, b| unsafe { drives_avx512(s, u, b) }));
            } else {
                println!("drive pass: the CPU has no AVX-512F, AVX-512 build skipped");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("drive pass: not x86_64, AVX2 and AVX-512 builds skipped");
        builds
    }

    /// Whether `a` and `b` have the same bits, any NaN counting as any
    /// NaN (Rust leaves a NaN result's sign and payload unspecified).
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Lowers `fns` as rational drive rows (checks skipped, so any pole
    /// goes) plus one polynomial row `poly`, and checks that every build
    /// writes, for 1, 2, 4 and 8 samples of `u`, every row at every
    /// lane's input with the bits of the reference: [`StateFn::integral`]
    /// for the rational rows, the ascending power sum for the polynomial
    /// row.
    fn assert_drive_bits(builds: &[(&str, DrivePass)], fns: &[StateFn], poly: &[f64], u: [f64; 8]) {
        let mut b = SimBuilder::new();
        for f in fns {
            b.drive_rational(f);
        }
        let p = b.drive_poly(poly);
        let sim = b.lower(p);
        let power_sum = |u: f64| {
            let (mut acc, mut pw) = (0.0, 1.0);
            for (k, &c) in poly.iter().enumerate() {
                pw = if k == 0 { 1.0 } else { pw * u };
                acc += c * pw;
            }
            acc
        };
        let want: Vec<[f64; 8]> =
            fns.iter().map(|f| u.map(|u| f.integral(u))).chain([u.map(power_sum)]).collect();
        // A NaN payload the kernel never produces: an unwritten lane
        // cannot pass.
        let unwritten = f64::from_bits(0x7ff8_dead_beef_0001);
        let (mut blk, n_rows) = (vec![[0.0; LANES]; sim.n_drives], want.len());
        for &(name, build) in builds {
            for m in [1, 2, 4, 8] {
                blk.iter_mut().for_each(|row| row.fill(unwritten));
                build(&sim, &u[..m], &mut blk);
                for (d, (got, want)) in blk.iter().zip(&want).enumerate() {
                    for j in 0..m {
                        assert!(
                            got[j].to_bits() != unwritten.to_bits() && same_bits(got[j], want[j]),
                            "{name} build, {m} samples, row {d} of {}, lane {j} at u = {:e}: \
                             {:?} vs reference {:?}",
                            n_rows,
                            u[j],
                            got[j],
                            want[j]
                        );
                    }
                }
            }
        }
    }

    /// Two one-term rows per pole, whose values are its log feature's
    /// real and imaginary parts (`2·½·Re ln` and `−2·(−½)·Im ln`), then
    /// two rows over the whole table with the weights `rho`: one run
    /// per pole and one run across every group and block.
    fn feature_rows(poles: &[Complex], rho: &[Complex]) -> Vec<StateFn> {
        let one = |pole, rho| StateFn { terms: vec![LogTerm { pole, rho }], ..StateFn::default() };
        let whole = |flip: f64, linear: f64| StateFn {
            terms: poles
                .iter()
                .zip(rho)
                .map(|(&pole, &r)| LogTerm { pole, rho: r * flip })
                .collect(),
            linear,
            constant: 0.25,
        };
        poles
            .iter()
            .flat_map(|&p| [one(p, Complex::new(0.5, 0.0)), one(p, Complex::new(0.0, -0.5))])
            .chain([whole(1.0, 0.5), whole(-0.75, -1.5)])
            .collect()
    }

    /// SplitMix64: a seeded stream for the sweeps below.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        /// `±10^e` with `e` uniform in `[lo, hi)`.
        fn signed_decades(&mut self, lo: f64, hi: f64) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            sign * 10f64.powf(self.uniform(lo, hi))
        }

        /// A pole: real, a conjugate pair, within a few ulps of `near`
        /// (so `u − pole` is tiny or zero), or complex with unrelated
        /// part magnitudes, over 1e-300..1e300.
        fn push_pole(&mut self, near: f64, poles: &mut Vec<Complex>) {
            let part = |rng: &mut Stream| rng.signed_decades(-300.0, 300.0);
            match self.next() % 4 {
                0 => poles.push(Complex::new(part(self), 0.0)),
                1 => {
                    let (a, b) = (part(self), part(self));
                    poles.extend([Complex::new(a, b), Complex::new(a, -b)]);
                }
                2 => {
                    let re = f64::from_bits(near.to_bits() + self.next() % 9 - 4);
                    let im = self.signed_decades(-300.0, 0.0);
                    poles.push(Complex::new(re, im));
                }
                _ => poles.push(Complex::new(part(self), part(self))),
            }
        }
    }

    #[test]
    fn drive_lanes_match_the_reference_bits_over_a_seeded_sweep() {
        let builds = drive_builds();
        let mut rng = Stream(0x6472_6976_6573_7770);
        for _ in 0..1_000 {
            let u: [f64; 8] = core::array::from_fn(|_| rng.signed_decades(-300.0, 300.0));
            let mut poles = Vec::new();
            while poles.len() < 12 {
                let near = u[(rng.next() % 8) as usize];
                rng.push_pole(near, &mut poles);
            }
            let rho: Vec<Complex> = poles
                .iter()
                .map(|_| Complex::new(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
                .collect();
            let poly = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
            assert_drive_bits(&builds, &feature_rows(&poles, &rho), &poly, u);
        }
    }

    #[test]
    fn drive_lanes_match_the_reference_bits_on_special_values() {
        let builds = drive_builds();
        let finite = [
            0.0,
            -0.0,
            4.9e-324,
            -4.9e-324,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -1.0,
            core::f64::consts::PI,
            -core::f64::consts::PI,
            f64::MAX,
            -f64::MAX,
        ];
        let specials: Vec<f64> =
            finite.iter().copied().chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]).collect();
        // Every pole from the table, at every finite input from it, each
        // input in every lane: the ±0 combinations, the ±π cut (u = −1
        // against the zero-part poles), u exactly on a pole, subnormals,
        // MAX, and ±∞ and NaN poles.
        let poles: Vec<Complex> = specials
            .iter()
            .flat_map(|&a| specials.iter().map(move |&b| Complex::new(a, b)))
            .collect();
        let rho: Vec<Complex> = poles.iter().map(|_| Complex::new(0.5, -0.25)).collect();
        let rows = feature_rows(&poles, &rho);
        for start in 0..finite.len() {
            let u = core::array::from_fn(|k| finite[(start + k) % finite.len()]);
            assert_drive_bits(&builds, &rows, &[0.5, -1.0, 2.0], u);
        }
    }

    #[test]
    fn drive_lanes_match_the_reference_bits_at_every_pole_count() {
        let builds = drive_builds();
        let mut rng = Stream(0x7265_6d61_696e_6472);
        let pole = |rng: &mut Stream| {
            let im = rng.uniform(0.01, 1.0) * if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
            Complex::new(rng.uniform(-3.0, 3.0), im)
        };
        // A run of `len` poles after one of `start`: every pole count
        // mod 8, cut by the groups of every sample count at every offset,
        // and runs across the blocks of one (64 poles) and of eight
        // samples (8 poles).
        for len in (0..=25).chain([63, 64, 65, 72]) {
            for start in 0..8 {
                let u: [f64; 8] = core::array::from_fn(|_| rng.uniform(-3.0, 3.0));
                let head: Vec<Complex> = (0..start).map(|_| pole(&mut rng)).collect();
                let run: Vec<Complex> = (0..len).map(|_| pole(&mut rng)).collect();
                let mut fns = Vec::new();
                for poles in [&head, &run, &run] {
                    let terms = poles
                        .iter()
                        .map(|&pole| {
                            let rho = Complex::new(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
                            LogTerm { pole, rho }
                        })
                        .collect();
                    fns.push(StateFn { terms, linear: rng.uniform(-1.0, 1.0), constant: 0.5 });
                }
                assert_drive_bits(&builds, &fns, &[1.0], u);
            }
        }
    }

    use super::super::SimBuilder;
    use crate::{LogTerm, StateFn};
}
