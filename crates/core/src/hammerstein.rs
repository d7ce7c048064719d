//! The parallel Hammerstein model (paper §II, eq. 7 and Fig. 2) and its
//! construction from TFT data.
//!
//! Each frequency pole (pair) owns a static nonlinear input stage
//! `f̂_p(x) = ∫ r̂_p(x) dx` feeding a first/second-order LTI block; a
//! memoryless static path (from the `H(0)` trajectory) completes the
//! model:
//!
//! ```text
//! y(t) = y_s(u(t)) + Σ_p D̂_p·ŷ_p(t),    ŷ̇_p = Â_p ŷ_p + f̂_p(u(t))
//! ```
//!
//! Stability is structural: every `Â_p` comes from the stability-flipped
//! frequency fit, and the simulator advances each block with its exact
//! first-order-hold flow.
//!
//! The model is generic over its state stage: RVF's [`StateFn`] (the
//! default) or any other regressor's. A [`Stage`] gives the transfer
//! function; a [`Primitive`] (closed-form `∫ r du`) gives simulation and
//! lowering.

use core::convert::Infallible;

use rvf_numerics::{Complex, FohPair, FohScalar, Poly};
use rvf_tft::TftDataset;
use rvf_vecfit::{PoleEntry, RationalModel};

use crate::error::RvfError;
use crate::integrated::StateFn;
use crate::rvf::{fit_state_stage, RvfOptions, StageFit};
use crate::serving::{CompiledSim, SimBuilder};

/// A state stage: the function `r(u)` that sets a block's residue (or,
/// on the static path, the DC conductance).
pub trait Stage {
    /// The stage function `r(u)`.
    fn value(&self, u: f64) -> f64;
}

/// A closed-form, anchored primitive `∫ r du` of a state stage: what
/// drives the LTI blocks in simulation.
pub trait Primitive {
    /// The primitive at `u`.
    fn integral(&self, u: f64) -> f64;
    /// Registers the primitive as a drive row of `b` and returns the
    /// row id.
    fn drive(&self, b: &mut SimBuilder) -> usize;
}

impl Stage for StateFn {
    fn value(&self, u: f64) -> f64 {
        StateFn::value(self, u)
    }
}

impl Primitive for StateFn {
    fn integral(&self, u: f64) -> f64 {
        StateFn::integral(self, u)
    }
    fn drive(&self, b: &mut SimBuilder) -> usize {
        b.drive_rational(self)
    }
}

/// A polynomial primitive (ascending coefficients).
impl Primitive for Poly {
    fn integral(&self, u: f64) -> f64 {
        self.eval(u)
    }
    fn drive(&self, b: &mut SimBuilder) -> usize {
        b.drive_poly(self.coeffs())
    }
}

/// One dynamic branch of the parallel Hammerstein structure.
#[derive(Debug, Clone, PartialEq)]
pub enum DynBlock<S = StateFn> {
    /// First-order block for a real frequency pole `a`:
    /// `ẏ = a·y + f(u)`, output weight 1 (input-shifted form, eq. 13).
    Real {
        /// The pole.
        a: f64,
        /// The input nonlinearity.
        f: S,
    },
    /// Second-order real block for a complex pair `σ ± jω` with the
    /// input-shifted residue components (eq. 14): inputs
    /// `(f₁(u), f₂(u))`, output `y₁ + y₂`.
    Pair {
        /// Real part of the pole.
        sigma: f64,
        /// Imaginary part of the pole (positive member).
        omega: f64,
        /// First input-shifted component `Re r + Im r`.
        f1: S,
        /// Second input-shifted component `Re r − Im r`.
        f2: S,
    },
}

impl<S> DynBlock<S> {
    /// The block's stages in order: `f`, or `f1` then `f2`.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &S> {
        let (first, second) = match self {
            DynBlock::Real { f, .. } => (f, None),
            DynBlock::Pair { f1, f2, .. } => (f1, Some(f2)),
        };
        core::iter::once(first).chain(second)
    }

    /// The same block over new stages: `f` maps `f`, or `f1` then `f2`,
    /// and its first error is returned.
    pub fn try_map<T, E>(&self, mut f: impl FnMut(&S) -> Result<T, E>) -> Result<DynBlock<T>, E> {
        Ok(match self {
            DynBlock::Real { a, f: s } => DynBlock::Real { a: *a, f: f(s)? },
            DynBlock::Pair { sigma, omega, f1, f2 } => {
                DynBlock::Pair { sigma: *sigma, omega: *omega, f1: f(f1)?, f2: f(f2)? }
            }
        })
    }
}

impl<S: Stage> DynBlock<S> {
    /// The complex residue value `r(u)` reconstructed from the
    /// input-shifted components (inverse of paper eq. 14).
    pub(crate) fn residue_at(&self, u: f64) -> Complex {
        match self {
            DynBlock::Real { f, .. } => Complex::from_re(f.value(u)),
            DynBlock::Pair { f1, f2, .. } => {
                let (c1, c2) = (f1.value(u), f2.value(u));
                Complex::new(0.5 * (c1 + c2), 0.5 * (c1 - c2))
            }
        }
    }

    /// Transfer contribution at `(u, s)`.
    pub(crate) fn transfer(&self, u: f64, s: Complex) -> Complex {
        match self {
            DynBlock::Real { a, .. } => self.residue_at(u) * (s - Complex::from_re(*a)).inv(),
            DynBlock::Pair { sigma, omega, .. } => {
                let a = Complex::new(*sigma, *omega);
                let r = self.residue_at(u);
                r * (s - a).inv() + r.conj() * (s - a.conj()).inv()
            }
        }
    }
}

/// Diagnostics of a model build.
#[derive(Debug, Clone, Default)]
pub struct BuildDiagnostics {
    /// Relative RMS error of the frequency-axis fit.
    pub freq_rel_error: f64,
    /// Number of frequency poles (the paper reports 12 on the buffer).
    pub n_freq_poles: usize,
    /// [`static_pole_count`](Self::static_pole_count) once per dynamic
    /// block: every block shares the model's one state-pole set.
    pub state_pole_counts: Vec<usize>,
    /// Size of the one state-pole set that the static path and every
    /// block share (the paper fits ~10 poles per residue, each on its own).
    pub static_pole_count: usize,
    /// Relative RMS error of the one state fit, over every normalised
    /// response.
    pub state_rel_error: f64,
    /// Warm-started fits, over every stage of the build, that hit a
    /// numerical kernel failure and fell back to a cold restart.
    pub cold_restarts: usize,
}

/// The extracted analytical model, over its state stage `S` (RVF's
/// [`StateFn`] by default).
#[derive(Debug, Clone, PartialEq)]
pub struct HammersteinModel<S = StateFn> {
    /// Static path: `value(u)` is the fitted DC conductance `g(u)`,
    /// `integral(u)` the static transfer curve `y_s(u)` anchored at the
    /// DC solution.
    pub static_path: S,
    /// Parallel dynamic blocks.
    pub blocks: Vec<DynBlock<S>>,
    /// DC anchor input (trajectory value at `t = 0`).
    pub u0: f64,
    /// DC anchor output.
    pub y0: f64,
}

impl<S> HammersteinModel<S> {
    /// Total LTI state dimension.
    pub fn n_states(&self) -> usize {
        self.blocks.iter().flat_map(DynBlock::stages).count()
    }

    /// Every stage in order: each block's (`f`, or `f1` then `f2`), then
    /// the static path.
    pub fn stages(&self) -> impl Iterator<Item = &S> {
        self.blocks.iter().flat_map(DynBlock::stages).chain(core::iter::once(&self.static_path))
    }

    /// The same model over new stages: `f` maps each stage, in
    /// [`stages`](Self::stages) order, and its first error is returned.
    pub fn try_map<T, E>(
        &self,
        mut f: impl FnMut(&S) -> Result<T, E>,
    ) -> Result<HammersteinModel<T>, E> {
        let blocks = self.blocks.iter().map(|b| b.try_map(&mut f)).collect::<Result<_, _>>()?;
        Ok(HammersteinModel {
            static_path: f(&self.static_path)?,
            blocks,
            u0: self.u0,
            y0: self.y0,
        })
    }
}

impl<S: Stage> HammersteinModel<S> {
    /// The model's TFT `T(x, s)` for hyperplane comparison (Figs. 7 and
    /// 8): fitted static gain plus the dynamic pole-residue part.
    pub fn transfer(&self, x: f64, s: Complex) -> Complex {
        let mut acc = Complex::from_re(self.static_path.value(x));
        for b in &self.blocks {
            acc += b.transfer(x, s);
        }
        acc
    }
}

impl<S: Primitive> HammersteinModel<S> {
    /// The static (DC) transfer curve `y_s(u)`.
    pub fn static_output(&self, u: f64) -> f64 {
        self.static_path.integral(u)
    }

    /// Lowers the model into the flat serving tables of
    /// [`CompiledSim`]: call once, then evaluate many stimuli through
    /// [`CompiledSim::simulate`] / [`CompiledSim::advance_chunks`].
    pub fn compile(&self) -> CompiledSim {
        let mut b = SimBuilder::new();
        let s = self.static_path.drive(&mut b);
        for block in &self.blocks {
            let Ok(rows) = block.try_map(|f| Ok::<_, Infallible>(f.drive(&mut b)));
            match rows {
                DynBlock::Real { a, f } => b.block_real(a, f),
                DynBlock::Pair { sigma, omega, f1, f2 } => b.block_pair(sigma, omega, f1, f2),
            }
        }
        // Every row is registered before a block references it, so the
        // wiring check has nothing to reject.
        b.lower(s)
    }

    /// Simulates the model for inputs sampled at fixed `dt`, returning
    /// the output at every sample (paper eq. 7, exact-exponential
    /// stepping).
    ///
    /// The LTI blocks start in steady state for the first input value,
    /// matching the circuit starting from its DC operating point.
    ///
    /// This routes through the compiled serving runtime
    /// ([`compile`](HammersteinModel::compile) + the streaming kernel).
    /// For RVF stages it is equal to
    /// [`simulate_reference`](HammersteinModel::simulate_reference)
    /// sample-for-sample under `f64` comparison; callers evaluating many
    /// stimuli should compile once and reuse the [`CompiledSim`].
    pub fn simulate(&self, dt: f64, inputs: &[f64]) -> Vec<f64> {
        self.compile().simulate(dt, inputs)
    }

    /// The scalar reference simulation loop — per-block enum dispatch,
    /// per-stage primitive evaluation — kept as the readable
    /// specification and the oracle the compiled runtime is pinned
    /// against.
    pub fn simulate_reference(&self, dt: f64, inputs: &[f64]) -> Vec<f64> {
        let Some(&u_first) = inputs.first() else {
            return Vec::new();
        };
        enum BlockState<'a, S> {
            Real { prop: FohScalar, x: f64, v_prev: f64, f: &'a S },
            Pair { prop: FohPair, z: Complex, v_prev: [f64; 2], f1: &'a S, f2: &'a S },
        }
        let mut states: Vec<BlockState<'_, S>> = self
            .blocks
            .iter()
            .map(|b| match b {
                DynBlock::Real { a, f } => {
                    let v = f.integral(u_first);
                    BlockState::Real { prop: FohScalar::new(*a, dt), x: -v / a, v_prev: v, f }
                }
                DynBlock::Pair { sigma, omega, f1, f2 } => {
                    let v = [f1.integral(u_first), f2.integral(u_first)];
                    // ż = λz + w with λ = σ − jω (complex representation).
                    let lambda = Complex::new(*sigma, -*omega);
                    let w = Complex::new(v[0], v[1]);
                    BlockState::Pair {
                        prop: FohPair::new(*sigma, *omega, dt),
                        z: -(w / lambda),
                        v_prev: v,
                        f1,
                        f2,
                    }
                }
            })
            .collect();

        let emit = |states: &[BlockState<'_, S>], u: f64| -> f64 {
            let mut y = self.static_path.integral(u);
            for s in states {
                match s {
                    BlockState::Real { x, .. } => y += x,
                    BlockState::Pair { z, .. } => y += z.re + z.im,
                }
            }
            y
        };
        let mut out = Vec::with_capacity(inputs.len());
        out.push(emit(&states, u_first));
        for &u1 in &inputs[1..] {
            for bs in &mut states {
                match bs {
                    BlockState::Real { prop, x, v_prev, f } => {
                        let v1 = f.integral(u1);
                        *x = prop.step(*x, *v_prev, v1);
                        *v_prev = v1;
                    }
                    BlockState::Pair { prop, z, v_prev, f1, f2 } => {
                        let v1 = [f1.integral(u1), f2.integral(u1)];
                        let next = prop.step([z.re, z.im], *v_prev, v1);
                        *z = Complex::new(next[0], next[1]);
                        *v_prev = v1;
                    }
                }
            }
            out.push(emit(&states, u1));
        }
        out
    }
}

/// The model skeleton every state-stage regressor starts from (RVF in
/// [`build_hammerstein`], CAFFEINE in `rvf-caffeine`): the DC anchor,
/// and one block per pole entry of the frequency fit whose stages are
/// the state trajectories its residue splits into — a real pole's
/// residue, or a pair's input-shifted components `Re r ± Im r` (paper
/// eq. 14). The static path holds the static-gain trajectory `g(x)`.
pub fn stage_trajectories(
    dataset: &TftDataset,
    freq_model: &RationalModel,
) -> HammersteinModel<Vec<f64>> {
    // DC anchor: the trajectory point at the earliest time.
    let (u0, y0) = dataset
        .samples
        .iter()
        .min_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(core::cmp::Ordering::Equal))
        .map(|s| (s.state, s.y))
        .unwrap_or((0.0, 0.0));
    let blocks = freq_model
        .poles()
        .entries()
        .iter()
        .enumerate()
        .map(|(p, entry)| {
            let traj = freq_model.residue_trajectory(p);
            let component = |c: fn(Complex) -> f64| traj.iter().map(|&r| c(r)).collect();
            match *entry {
                PoleEntry::Real(a) => DynBlock::Real { a, f: component(|r| r.re) },
                PoleEntry::Pair(a) => DynBlock::Pair {
                    sigma: a.re,
                    omega: a.im,
                    f1: component(|r| r.re + r.im),
                    f2: component(|r| r.re - r.im),
                },
            }
        })
        .collect();
    HammersteinModel { static_path: dataset.static_gains(), blocks, u0, y0 }
}

/// Builds a Hammerstein model from a TFT dataset (the full RVF
/// modeling chain of paper Fig. 3).
///
/// # Errors
///
/// Propagates fitting failures. A stage that misses `ε` within its pole
/// budget is not an error: it keeps its best fit, and the diagnostics
/// report the error it reached.
pub fn build_hammerstein(
    dataset: &TftDataset,
    freq_stage: &StageFit,
    opts: &RvfOptions,
) -> Result<(HammersteinModel, BuildDiagnostics), RvfError> {
    let skeleton = stage_trajectories(dataset, &freq_stage.fit.model);
    // Error scales. A residue error δr on pole a perturbs the transfer
    // function by up to δr·max_l 1/|s_l − a|, so a block's residues are
    // divided by peak(H)·min_l|s_l − a| before they are held to ε; else
    // low-frequency poles (small |a|, small residues) amplify their fitting
    // error by orders of magnitude. The static gain is divided by its peak.
    let s_grid = dataset.s_grid();
    let peak_dyn = dataset
        .samples
        .iter()
        .flat_map(|s| s.h.iter().map(move |&h| (h - s.h0).abs()))
        .fold(0.0_f64, f64::max)
        .max(1e-300);
    let block_scale = |poles: &[Complex]| -> f64 {
        let min_dist = s_grid
            .iter()
            .map(|&s| poles.iter().map(move |&a| (s - a).abs()).fold(f64::INFINITY, f64::min))
            .fold(f64::INFINITY, f64::min);
        peak_dyn * min_dist.max(1e-300)
    };
    let mut scales = Vec::new();
    for block in &skeleton.blocks {
        let scale = match *block {
            DynBlock::Real { a, .. } => block_scale(&[Complex::from_re(a)]),
            DynBlock::Pair { sigma, omega, .. } => {
                let a = Complex::new(sigma, omega);
                block_scale(&[a, a.conj()])
            }
        };
        scales.extend(block.stages().map(|_| scale));
    }
    scales.push(skeleton.static_path.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300));

    // One common state-pole set per model (the paper fits each residue on
    // its own): one growth loop, its error the RMS over all responses.
    let trajectories: Vec<Vec<f64>> = skeleton
        .stages()
        .zip(&scales)
        .map(|(traj, scale)| traj.iter().map(|v| v / scale).collect())
        .collect();
    let stage = fit_state_stage(&dataset.states(), &trajectories, 1.0, opts)?;

    // Responses come back in the order they went in: stage order. Block
    // primitives are anchored at 0, the static curve at the DC output.
    let (u0, y0) = (skeleton.u0, skeleton.y0);
    let mut k = 0;
    let Ok(mut model) = skeleton.try_map(|_| {
        k += 1;
        let f = StateFn::from_state_fit(&stage.fit.model, k - 1, scales[k - 1]);
        Ok::<_, Infallible>(f.anchored(u0, 0.0))
    });
    model.static_path = model.static_path.anchored(u0, y0);
    let diagnostics = BuildDiagnostics {
        freq_rel_error: freq_stage.rel_error,
        n_freq_poles: freq_stage.n_poles,
        state_pole_counts: vec![stage.n_poles; model.blocks.len()],
        static_pole_count: stage.n_poles,
        state_rel_error: stage.rel_error,
        cold_restarts: freq_stage.cold_restarts + stage.cold_restarts,
    };
    Ok((model, diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::{c, linspace};
    use rvf_vecfit::{fit_single, VfOptions};

    fn state_fn_for(g: impl Fn(f64) -> f64, u0: f64, anchor: f64) -> StateFn {
        let xs: Vec<Complex> = linspace(0.0, 2.0, 81).into_iter().map(Complex::from_re).collect();
        let data: Vec<Complex> = xs.iter().map(|x| Complex::from_re(g(x.re))).collect();
        let fit = fit_single(&xs, &data, &VfOptions::state(8).with_iterations(10)).unwrap();
        StateFn::from_state_fit(&fit.model, 0, 1.0).anchored(u0, anchor)
    }

    #[test]
    fn statefn_value_and_integral_consistent() {
        let f = state_fn_for(|x| 1.0 / (1.0 + x * x), 0.0, 0.0);
        // d/du integral = value.
        for &u in &[0.2, 0.8, 1.5] {
            let h = 1e-6;
            let fd = (f.integral(u + h) - f.integral(u - h)) / (2.0 * h);
            assert!((fd - f.value(u)).abs() < 1e-6);
        }
        assert!(f.integral(0.0).abs() < 1e-12, "anchored at 0");
        // ∫₀¹ 1/(1+x²) = π/4.
        assert!((f.integral(1.0) - core::f64::consts::FRAC_PI_4).abs() < 1e-3);
    }

    #[test]
    fn pair_block_residue_reconstruction() {
        // f1 = Re+Im, f2 = Re−Im must invert exactly.
        let f1 = state_fn_for(|x| 1.0 + x, 0.0, 0.0);
        let f2 = state_fn_for(|x| 1.0 - x, 0.0, 0.0);
        let b = DynBlock::Pair { sigma: -1.0, omega: 5.0, f1, f2 };
        let r = b.residue_at(0.5);
        // Re = ((1.5)+(0.5))/2 = 1.0, Im = ((1.5)−(0.5))/2 = 0.5.
        assert!((r - c(1.0, 0.5)).abs() < 1e-3, "{r:?}");
    }

    #[test]
    fn pair_transfer_is_hermitian() {
        let f1 = state_fn_for(|x| 0.3 * x, 0.0, 0.0);
        let f2 = state_fn_for(|x| 0.1 + 0.2 * x, 0.0, 0.0);
        let b = DynBlock::Pair { sigma: -2.0, omega: 10.0, f1, f2 };
        let s = c(0.0, 3.0);
        let h = b.transfer(0.7, s);
        let hc = b.transfer(0.7, s.conj());
        assert!((h.conj() - hc).abs() < 1e-12);
    }

    #[test]
    fn linear_model_simulation_matches_analytic_step_response() {
        // Single real pole a = −w0 with f(u) = w0·u (linear): this is a
        // first-order low-pass with unit DC gain; static path zero.
        let w0 = 1.0e9;
        let f = state_fn_for(move |_x| w0, 0.0, 0.0); // r(u) = w0 ⇒ f(u) = w0·u
        let zero = state_fn_for(|_x| 0.0, 0.0, 0.0);
        let model = HammersteinModel {
            static_path: zero,
            blocks: vec![DynBlock::Real { a: -w0, f }],
            u0: 0.0,
            y0: 0.0,
        };
        // Step input 0 → 1 at the second sample.
        let dt = 1.0e-11;
        let n = 600;
        let mut u = vec![0.0; n];
        for v in u.iter_mut().skip(1) {
            *v = 1.0;
        }
        let y = model.simulate(dt, &u);
        // y(t) ≈ 1 − e^{−w0 (t−dt)} after the (FOH-ramped) step.
        let t_end = (n - 1) as f64 * dt;
        let want = 1.0 - (-w0 * (t_end - dt)).exp();
        let got = *y.last().unwrap();
        assert!((got - want).abs() < 2e-3, "{got} vs {want}");
        // Starts in steady state: y[0] = 0.
        assert!(y[0].abs() < 1e-12);

        // Pair block a = σ + jω with a constant residue r (eq. 14's
        // components f₁ = Re r + Im r, f₂ = Re r − Im r): the same step
        // settles to the DC transfer −2·Re(r/a).
        let (a, r) = (c(-2.0e9, 3.0e9), c(2.0e9, 1.0e9));
        let pair = DynBlock::Pair {
            sigma: a.re,
            omega: a.im,
            f1: state_fn_for(move |_x| r.re + r.im, 0.0, 0.0),
            f2: state_fn_for(move |_x| r.re - r.im, 0.0, 0.0),
        };
        let want = -2.0 * (r / a).re;
        let dc = pair.transfer(1.0, Complex::ZERO);
        assert!((dc.re - want).abs() < 1e-6 * want.abs() && dc.im == 0.0, "{dc:?} vs {want}");
        let model = HammersteinModel {
            static_path: state_fn_for(|_x| 0.0, 0.0, 0.0),
            blocks: vec![pair],
            u0: 0.0,
            y0: 0.0,
        };
        let y = model.simulate(dt, &u);
        let got = *y.last().unwrap();
        assert!((got - want).abs() < 2e-3 * want.abs(), "{got} vs {want}");
        assert!(y[0].abs() < 1e-12);
    }

    #[test]
    fn simulation_starts_in_steady_state_for_pairs() {
        let f1 = state_fn_for(|x| 1.0 + 0.5 * x, 0.0, 0.0);
        let f2 = state_fn_for(|x| 0.5 - 0.5 * x, 0.0, 0.0);
        let zero = state_fn_for(|_x| 0.0, 0.0, 0.0);
        let model = HammersteinModel {
            static_path: zero,
            blocks: vec![DynBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1, f2 }],
            u0: 1.0,
            y0: 0.0,
        };
        // Constant input: output must stay constant from the start.
        let u = vec![1.0; 200];
        let y = model.simulate(1e-11, &u);
        let y0 = y[0];
        for v in &y {
            assert!((v - y0).abs() < 1e-9 * y0.abs().max(1.0), "drift: {v} vs {y0}");
        }
    }

    #[test]
    fn empty_input_simulation() {
        let zero = state_fn_for(|_x| 0.0, 0.0, 0.0);
        let model = HammersteinModel { static_path: zero, blocks: Vec::new(), u0: 0.0, y0: 0.0 };
        assert!(model.simulate(1e-12, &[]).is_empty());
    }
}
