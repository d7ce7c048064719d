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
//! `advance` walks a chunk in segments: a sample whose input bits
//! changed re-evaluates the drives and steps once, and a held run of
//! bit-equal samples steps with drives and input terms computed once
//! for the whole run. Both run one step body in the reference
//! association, so the segment split moves no output bit.

use rvf_numerics::{ln_shifted_into, Complex};

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
    /// Current-sample drive values (scratch).
    v1: Vec<f64>,
    /// Block state, real components, one per block.
    sre: Vec<f64>,
    /// Block state, imaginary components, one per block.
    sim: Vec<f64>,
    /// Bit pattern of the last input that rebuilt the drives.
    uprev: u64,
    /// Has the state absorbed its first sample (which seeds the blocks
    /// at the DC steady state of that input)?
    started: bool,
    /// Log-feature temporaries (one slot per distinct pole).
    lr: Vec<f64>,
    li: Vec<f64>,
    /// Power basis `[1, u, …, u^pdeg]` (scratch).
    pw: Vec<f64>,
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
/// Scratch buffers (current-sample drives, log-feature and power-basis
/// temporaries, per-block input terms) are deliberately absent: they
/// are overwritten before being read, so they are not state.
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

/// Evaluates every drive row at input `u` into `v1`.
///
/// Pass 1 fills the shared log-feature basis (one `ln` per *distinct*
/// pole, one `ln_shifted_into` call in 8/4/2-lane groups, the last padded
/// inside it), pass 2 adds the linear heads + CSR log terms in reference
/// operation order, pass 3 runs the power-basis matvec for the polynomial rows.
fn eval_drives(
    sim: &CompiledSim,
    u: f64,
    v1: &mut [f64],
    lr: &mut [f64],
    li: &mut [f64],
    pw: &mut [f64],
) {
    ln_shifted_into(u, &sim.poles, lr, li);
    for (d, v) in v1.iter_mut().enumerate() {
        let h = sim.head[d];
        // Matches `constant + linear*u` bit for bit.
        let mut acc = h[0] + h[1] * u;
        for t in sim.row_off[d]..sim.row_off[d + 1] {
            let w = sim.term_w[t];
            let p = sim.term_pole[t];
            // Matches `2.0 * (rho * z.ln()).re`.
            acc += 2.0 * (w[0] * lr[p] - w[1] * li[p]);
        }
        *v = acc;
    }
    if !sim.prow.is_empty() {
        let width = sim.pdeg + 1;
        pw[0] = 1.0;
        for j in 1..width {
            pw[j] = pw[j - 1] * u;
        }
        for (r, &d) in sim.prow.iter().enumerate() {
            let row = &sim.pmat[r * width..(r + 1) * width];
            let mut acc = 0.0;
            for j in 0..width {
                acc += row[j] * pw[j];
            }
            v1[d] = acc;
        }
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
/// `w1`, in the reference association. `w1 − w0` is a subtraction even
/// when `w1` is `w0` (a held run), so an infinite drive gives the NaN
/// the per-sample step would.
fn fill_terms(sim: &CompiledSim, rows: &mut [BlockRow], w0: &[f64], w1: &[f64]) {
    for (b, row) in rows.iter_mut().enumerate() {
        let (o1, o2) = (sim.d1[b], sim.d2[b]);
        let (w0r, w0i) = (w0[o1], w0[o2]);
        let (dvr, dvi) = (w1[o1] - w0r, w1[o2] - w0i);
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
/// walked in *segments*, each stepped by one shared body with its input
/// terms computed once:
///
/// * a **changed sample** (bits differ from the memo register `uprev`)
///   is a segment of length 1: its drives are evaluated into `v1`, the
///   blocks step from `v0` to `v1`, and the two swap;
/// * a **held run** is the longest stretch of samples whose bits equal
///   `uprev`: the drives are pure functions of `u`, so every sample of
///   it steps from `v0` to `v0` — no drive evaluation, copy or swap.
///
/// The state carries the drive vector and memo register across calls,
/// so a chunk boundary (even one inside a held run) is arithmetically
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
    let SimState { v0, v1, sre, sim: simc, uprev, started, lr, li, pw, rows, .. } = state;

    let mut t = 0;
    if !*started {
        // DC seed: every block starts at the steady state of the first
        // input (the circuit's DC operating point).
        let u = input[0];
        eval_drives(sim, u, v1, lr, li, pw);
        *uprev = u.to_bits();
        for b in 0..sim.n_blocks() {
            let (w1, w2) = (v1[sim.d1[b]], v1[sim.d2[b]]);
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
        out[0] = emit(sim, v1, sre, simc);
        core::mem::swap(v0, v1);
        *started = true;
        t = 1;
    }

    while t < input.len() {
        let bits = input[t].to_bits();
        let held = bits == *uprev;
        let end = if held {
            input[t..].iter().position(|u| u.to_bits() != bits).map_or(input.len(), |n| t + n)
        } else {
            eval_drives(sim, input[t], v1, lr, li, pw);
            *uprev = bits;
            t + 1
        };
        let w1: &[f64] = if held { v0 } else { v1 };
        fill_terms(sim, rows, v0, w1);
        step_segment(rows, sre, simc, w1[sim.static_row], &mut out[t..end]);
        if !held {
            core::mem::swap(v0, v1);
        }
        t = end;
    }
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
            v1: vec![0.0; self.n_drives],
            sre: vec![0.0; self.n_blocks()],
            sim: vec![0.0; self.n_blocks()],
            uprev: 0,
            started: false,
            lr: vec![0.0; self.poles.len()],
            li: vec![0.0; self.poles.len()],
            pw: vec![0.0; self.pdeg + 1],
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

    use super::super::SimBuilder;
}
