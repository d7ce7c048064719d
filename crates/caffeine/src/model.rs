//! The CAFFEINE-based Hammerstein baseline (paper §IV, Fig. 8 and the
//! CAFF row of Table I).
//!
//! Same parallel Hammerstein topology as the RVF model — common
//! frequency poles from vector fitting — but every state-dependent
//! function (residue trajectories, static conductance) is regressed by
//! canonical-form genetic programming instead of recursive vector
//! fitting. Closed-form integration of the stages exists only for the
//! polynomial subset; general canonical forms require manual integration
//! (the paper's "Fully Automated: NO").

use rvf_numerics::{Complex, FohPair, FohScalar, Poly};
use rvf_tft::TftDataset;
use rvf_vecfit::{PoleEntry, RationalModel};

use crate::expr::{CanonicalForm, Integrability};
use crate::gp::{evolve, GpOptions};

/// Options for building the baseline model.
#[derive(Debug, Clone, Default)]
pub struct CaffeineOptions {
    /// GP engine configuration.
    pub gp: GpOptions,
    /// Force the polynomial (integrable) subset so the model can be
    /// simulated automatically — the paper does this manually.
    pub integrable_only: bool,
}

/// One GP-regressed state stage with an optional closed-form primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct CaffeineStage {
    /// The canonical-form fit of the stage function.
    pub(crate) form: CanonicalForm,
    /// Closed-form primitive (polynomial models only), anchored.
    pub(crate) primitive: Option<Poly>,
    /// RMS error of the GP fit on the training trajectory.
    pub fit_rmse: f64,
}

impl CaffeineStage {
    /// Fits a stage to trajectory samples and anchors its primitive
    /// (when one exists) at `primitive(u0) = anchor`.
    ///
    /// Trajectories are normalized to unit RMS before evolution (residue
    /// magnitudes scale with the pole frequency — up to ~1e12 — which
    /// would otherwise swamp the GP's structural constants) and the
    /// weights are rescaled afterwards.
    pub fn fit(xs: &[f64], ys: &[f64], gp: &GpOptions, u0: f64, anchor: f64) -> Self {
        let scale =
            (ys.iter().map(|v| v * v).sum::<f64>() / ys.len().max(1) as f64).sqrt().max(1e-300);
        let normalized: Vec<f64> = ys.iter().map(|v| v / scale).collect();
        let mut best = evolve(xs, &normalized, gp);
        for w in &mut best.form.weights {
            *w *= scale;
        }
        let fit_rmse = best.rmse * scale;
        let primitive = best.form.antiderivative().map(|p| {
            let shift = anchor - p.eval(u0);
            let mut coeffs = p.coeffs().to_vec();
            coeffs[0] += shift;
            Poly::new(coeffs)
        });
        Self { form: best.form, primitive, fit_rmse }
    }

    /// The stage function value.
    pub(crate) fn value(&self, u: f64) -> f64 {
        self.form.eval(u)
    }

    /// The anchored primitive, when available.
    pub fn integral(&self, u: f64) -> Option<f64> {
        self.primitive.as_ref().map(|p| p.eval(u))
    }
}

/// One dynamic branch with GP stages.
#[derive(Debug, Clone, PartialEq)]
pub enum CafBlock {
    /// First-order block for a real pole.
    Real {
        /// The pole.
        a: f64,
        /// Input stage.
        f: CaffeineStage,
    },
    /// Second-order block for a complex pair (input-shifted components).
    Pair {
        /// Real part of the pole.
        sigma: f64,
        /// Imaginary part of the pole.
        omega: f64,
        /// First component stage.
        f1: CaffeineStage,
        /// Second component stage.
        f2: CaffeineStage,
    },
}

impl CafBlock {
    /// Complex residue reconstructed from the components.
    pub(crate) fn residue_at(&self, u: f64) -> Complex {
        match self {
            CafBlock::Real { f, .. } => Complex::from_re(f.value(u)),
            CafBlock::Pair { f1, f2, .. } => {
                let c1 = f1.value(u);
                let c2 = f2.value(u);
                Complex::new(0.5 * (c1 + c2), 0.5 * (c1 - c2))
            }
        }
    }

    /// Transfer contribution at `(u, s)`.
    pub(crate) fn transfer(&self, u: f64, s: Complex) -> Complex {
        match self {
            CafBlock::Real { a, .. } => self.residue_at(u) * (s - Complex::from_re(*a)).inv(),
            CafBlock::Pair { sigma, omega, .. } => {
                let a = Complex::new(*sigma, *omega);
                let r = self.residue_at(u);
                r * (s - a).inv() + r.conj() * (s - a.conj()).inv()
            }
        }
    }
}

/// The CAFFEINE baseline model.
#[derive(Debug, Clone, PartialEq)]
pub struct CaffeineHammerstein {
    /// Static path (value = DC conductance, integral = static curve).
    pub static_path: CaffeineStage,
    /// Dynamic blocks.
    pub blocks: Vec<CafBlock>,
    /// DC anchor input.
    pub u0: f64,
    /// DC anchor output.
    pub y0: f64,
}

impl CaffeineHammerstein {
    /// `Closed` only when every stage is polynomial — i.e. the model can
    /// be simulated without manual integration.
    pub fn integrability(&self) -> Integrability {
        let mut stages: Vec<&CaffeineStage> = vec![&self.static_path];
        for b in &self.blocks {
            match b {
                CafBlock::Real { f, .. } => stages.push(f),
                CafBlock::Pair { f1, f2, .. } => {
                    stages.push(f1);
                    stages.push(f2);
                }
            }
        }
        if stages.iter().all(|s| s.form.integrability() == Integrability::Closed) {
            Integrability::Closed
        } else {
            Integrability::ManualRequired
        }
    }

    /// The model TFT `T(x, s)` for the Fig. 8 error contours.
    pub fn transfer(&self, x: f64, s: Complex) -> Complex {
        let mut acc = Complex::from_re(self.static_path.value(x));
        for b in &self.blocks {
            acc += b.transfer(x, s);
        }
        acc
    }

    /// Lowers the model into the shared compiled serving runtime
    /// ([`rvf_core::CompiledSim`]): every polynomial primitive becomes a
    /// row of the power-basis coefficient matrix, so one matvec per
    /// sample prices all stages. Returns `None` when a stage lacks a
    /// closed-form primitive (manual integration would be required —
    /// the paper's automation gap).
    pub fn compile(&self) -> Option<rvf_core::CompiledSim> {
        if self.integrability() != Integrability::Closed {
            return None;
        }
        let mut b = rvf_core::SimBuilder::new();
        let mut row = |stage: &CaffeineStage| -> Option<usize> {
            Some(b.drive_poly(stage.primitive.as_ref()?.coeffs()))
        };
        let s = row(&self.static_path)?;
        let mut specs = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            match block {
                CafBlock::Real { a, f } => specs.push((false, *a, 0.0, row(f)?, usize::MAX)),
                CafBlock::Pair { sigma, omega, f1, f2 } => {
                    specs.push((true, *sigma, *omega, row(f1)?, row(f2)?));
                }
            }
        }
        b.set_static_drive(s);
        for (pair, sigma, omega, d1, d2) in specs {
            if pair {
                b.block_pair(sigma, omega, d1, d2);
            } else {
                b.block_real(sigma, d1);
            }
        }
        // The wiring above registers every row before referencing it, so
        // lowering cannot fail on drive references; go through the typed
        // path anyway so a future wiring bug surfaces as the error text
        // instead of a builder assert.
        Some(b.try_build().expect("caffeine lowering wires every drive row"))
    }

    /// Simulates the model for fixed-step inputs through the compiled
    /// serving runtime (see [`compile`](CaffeineHammerstein::compile);
    /// [`simulate_reference`](CaffeineHammerstein::simulate_reference)
    /// is the scalar oracle). Returns `None` when a stage lacks a
    /// closed-form primitive.
    pub fn simulate(&self, dt: f64, inputs: &[f64]) -> Option<Vec<f64>> {
        if inputs.is_empty() {
            // Matches the reference loop: an empty stimulus is trivially
            // simulable even when the model lacks closed-form primitives.
            return Some(Vec::new());
        }
        Some(self.compile()?.simulate(dt, inputs))
    }

    /// The scalar reference simulation loop, kept as the oracle the
    /// compiled path is pinned against in tests.
    pub fn simulate_reference(&self, dt: f64, inputs: &[f64]) -> Option<Vec<f64>> {
        if inputs.is_empty() {
            return Some(Vec::new());
        }
        if self.integrability() != Integrability::Closed {
            return None;
        }
        enum S {
            Real { prop: FohScalar, x: f64, v: f64 },
            Pair { prop: FohPair, z: Complex, v: [f64; 2] },
        }
        let mut states: Vec<S> = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            match b {
                CafBlock::Real { a, f } => {
                    let v = f.integral(inputs[0]).expect("closed form checked");
                    states.push(S::Real { prop: FohScalar::new(*a, dt), x: -v / a, v });
                }
                CafBlock::Pair { sigma, omega, f1, f2 } => {
                    let v = [
                        f1.integral(inputs[0]).expect("closed form checked"),
                        f2.integral(inputs[0]).expect("closed form checked"),
                    ];
                    let lambda = Complex::new(*sigma, -*omega);
                    let w = Complex::new(v[0], v[1]);
                    states.push(S::Pair {
                        prop: FohPair::new(*sigma, *omega, dt),
                        z: -(w / lambda),
                        v,
                    });
                }
            }
        }
        let emit = |states: &[S], u: f64| -> f64 {
            let mut y = self.static_path.integral(u).expect("closed form checked");
            for s in states {
                match s {
                    S::Real { x, .. } => y += x,
                    S::Pair { z, .. } => y += z.re + z.im,
                }
            }
            y
        };
        let mut out = Vec::with_capacity(inputs.len());
        out.push(emit(&states, inputs[0]));
        for win in inputs.windows(2) {
            let u1 = win[1];
            for (s, b) in states.iter_mut().zip(&self.blocks) {
                match (s, b) {
                    (S::Real { prop, x, v }, CafBlock::Real { f, .. }) => {
                        let v1 = f.integral(u1).expect("closed form checked");
                        *x = prop.step(*x, *v, v1);
                        *v = v1;
                    }
                    (S::Pair { prop, z, v }, CafBlock::Pair { f1, f2, .. }) => {
                        let v1 = [
                            f1.integral(u1).expect("closed form checked"),
                            f2.integral(u1).expect("closed form checked"),
                        ];
                        let nz = prop.step([z.re, z.im], *v, v1);
                        *z = Complex::new(nz[0], nz[1]);
                        *v = v1;
                    }
                    _ => unreachable!("kinds always match"),
                }
            }
            out.push(emit(&states, u1));
        }
        Some(out)
    }

    /// Worst stage fit RMSE (diagnostic).
    pub fn worst_stage_rmse(&self) -> f64 {
        let mut worst = self.static_path.fit_rmse;
        for b in &self.blocks {
            match b {
                CafBlock::Real { f, .. } => worst = worst.max(f.fit_rmse),
                CafBlock::Pair { f1, f2, .. } => worst = worst.max(f1.fit_rmse).max(f2.fit_rmse),
            }
        }
        worst
    }
}

/// Builds the CAFFEINE baseline from a TFT dataset and a frequency-axis
/// vector fit (common poles + residue trajectories).
pub fn build_caffeine_hammerstein(
    dataset: &TftDataset,
    freq_model: &RationalModel,
    opts: &CaffeineOptions,
) -> CaffeineHammerstein {
    let states = dataset.states();
    let (u0, y0) = dataset
        .samples
        .iter()
        .min_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(core::cmp::Ordering::Equal))
        .map(|s| (s.state, s.y))
        .unwrap_or((0.0, 0.0));
    let mut gp = opts.gp.clone();
    if opts.integrable_only {
        gp.allow_operators = false;
    }
    let mut blocks = Vec::with_capacity(freq_model.poles().n_entries());
    for (p, entry) in freq_model.poles().entries().iter().enumerate() {
        let traj = freq_model.residue_trajectory(p);
        // Vary the seed per stage so structures differ.
        let mut gp_p = gp.clone();
        gp_p.seed = gp.seed.wrapping_add(p as u64 * 7919);
        match entry {
            PoleEntry::Real(a) => {
                let comp: Vec<f64> = traj.iter().map(|r| r.re).collect();
                let f = CaffeineStage::fit(&states, &comp, &gp_p, u0, 0.0);
                blocks.push(CafBlock::Real { a: *a, f });
            }
            PoleEntry::Pair(a) => {
                let c1: Vec<f64> = traj.iter().map(|r| r.re + r.im).collect();
                let c2: Vec<f64> = traj.iter().map(|r| r.re - r.im).collect();
                let f1 = CaffeineStage::fit(&states, &c1, &gp_p, u0, 0.0);
                let mut gp_q = gp_p.clone();
                gp_q.seed = gp_p.seed.wrapping_add(13);
                let f2 = CaffeineStage::fit(&states, &c2, &gp_q, u0, 0.0);
                blocks.push(CafBlock::Pair { sigma: a.re, omega: a.im, f1, f2 });
            }
        }
    }
    let g_traj = dataset.static_gains();
    let static_path = CaffeineStage::fit(&states, &g_traj, &gp, u0, y0);
    CaffeineHammerstein { static_path, blocks, u0, y0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::linspace;

    fn poly_stage(xs: &[f64], f: impl Fn(f64) -> f64) -> CaffeineStage {
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let gp = GpOptions { allow_operators: false, generations: 20, ..Default::default() };
        CaffeineStage::fit(xs, &ys, &gp, 0.0, 0.0)
    }

    #[test]
    fn stage_fit_and_anchor() {
        let xs = linspace(-1.0, 1.0, 50);
        let s = poly_stage(&xs, |x| 2.0 * x);
        assert!(s.fit_rmse < 1e-9);
        // ∫2x = x², anchored to 0 at 0.
        assert!((s.integral(1.0).unwrap() - 1.0).abs() < 1e-8);
        assert!(s.integral(0.0).unwrap().abs() < 1e-10);
    }

    #[test]
    fn integrability_propagates() {
        let xs = linspace(-1.0, 1.0, 40);
        let s = poly_stage(&xs, |x| x);
        let m = CaffeineHammerstein {
            static_path: s.clone(),
            blocks: vec![CafBlock::Real { a: -1.0e9, f: s }],
            u0: 0.0,
            y0: 0.0,
        };
        assert_eq!(m.integrability(), Integrability::Closed);
        assert!(m.simulate(1e-11, &[0.0, 0.5, 1.0]).is_some());
    }

    #[test]
    fn non_integrable_model_refuses_simulation() {
        use crate::expr::{BasisTerm, Factor, UnaryOp};
        let form = CanonicalForm {
            terms: vec![BasisTerm { factors: vec![Factor::Op(UnaryOp::Tanh, [0.0, 1.0, 0.0])] }],
            weights: vec![1.0],
        };
        let stage = CaffeineStage { form, primitive: None, fit_rmse: 0.0 };
        let m = CaffeineHammerstein { static_path: stage, blocks: Vec::new(), u0: 0.0, y0: 0.0 };
        assert_eq!(m.integrability(), Integrability::ManualRequired);
        assert!(m.simulate(1e-11, &[0.0, 1.0]).is_none());
        assert!(m.compile().is_none());
        // An empty stimulus stays trivially simulable (pre-serving
        // contract preserved): Some(empty), not None.
        assert_eq!(m.simulate(1e-11, &[]), Some(Vec::new()));
        assert_eq!(m.simulate_reference(1e-11, &[]), Some(Vec::new()));
    }

    #[test]
    fn compiled_simulation_pinned_to_reference() {
        // The compiled runtime evaluates the polynomial primitives over
        // the shared power basis instead of per-stage Horner passes;
        // pin it to the scalar oracle at 1e-12 relative.
        let xs = linspace(-1.0, 1.0, 60);
        let f1 = poly_stage(&xs, |x| 1.0 + x - 0.4 * x * x);
        let f2 = poly_stage(&xs, |x| 0.5 - 0.8 * x);
        let fr = poly_stage(&xs, |x| 0.2 * x + 0.7 * x * x * x);
        let stat = poly_stage(&xs, |x| 2.0 - 0.3 * x);
        let m = CaffeineHammerstein {
            static_path: stat,
            blocks: vec![
                CafBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1, f2 },
                CafBlock::Real { a: -2.5e9, f: fr },
            ],
            u0: 0.0,
            y0: 1.0,
        };
        let inputs: Vec<f64> = (0..400).map(|i| 0.9 * ((i / 7) as f64 * 0.61).sin()).collect();
        let want = m.simulate_reference(1e-11, &inputs).unwrap();
        let got = m.simulate(1e-11, &inputs).unwrap();
        let peak = want.iter().fold(0.0f64, |p, v| p.max(v.abs())).max(1.0);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * peak, "{g} vs {w}");
        }
        // And a batch round over fresh states is bit-identical to
        // per-stimulus serial.
        let sim = m.compile().unwrap();
        let halves: Vec<&[f64]> = inputs.chunks(57).collect();
        let mut states: Vec<_> = halves.iter().map(|_| sim.new_state()).collect();
        let mut batch: Vec<Vec<f64>> = halves.iter().map(|s| vec![0.0; s.len()]).collect();
        let mut chunks: Vec<rvf_core::SessionChunk<'_>> = states
            .iter_mut()
            .zip(halves.iter().copied())
            .zip(batch.iter_mut())
            .map(|((state, input), output)| rvf_core::SessionChunk { state, input, output })
            .collect();
        sim.advance_chunks(1e-11, &mut chunks, None).unwrap();
        drop(chunks);
        for (s, out) in halves.iter().zip(&batch) {
            let single = sim.simulate(1e-11, s);
            assert_eq!(out.len(), single.len());
            for (a, b) in out.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Streaming the same stimulus chunk by chunk reproduces the
        // one-shot bits: the CAFFEINE power-basis rows go through the
        // same chunk kernel as the RVF log-form rows.
        let mut state = sim.new_state();
        let mut streamed = vec![0.0; inputs.len()];
        for (chunk, out) in inputs.chunks(23).zip(streamed.chunks_mut(23)) {
            sim.simulate_into(1e-11, chunk, &mut state, out).unwrap();
        }
        assert_eq!(streamed.len(), got.len());
        for (a, b) in streamed.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transfer_is_hermitian() {
        let xs = linspace(0.0, 1.0, 40);
        let f1 = poly_stage(&xs, |x| 1.0 + x);
        let f2 = poly_stage(&xs, |x| 1.0 - x);
        let stat = poly_stage(&xs, |_| 2.0);
        let m = CaffeineHammerstein {
            static_path: stat,
            blocks: vec![CafBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1, f2 }],
            u0: 0.5,
            y0: 1.0,
        };
        let s = Complex::from_im(2.0e9);
        assert!((m.transfer(0.5, s).conj() - m.transfer(0.5, s.conj())).abs() < 1e-12);
    }
}
