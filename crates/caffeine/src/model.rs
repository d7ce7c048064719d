//! The CAFFEINE-based Hammerstein baseline (paper §IV, Fig. 8 and the
//! CAFF row of Table I).
//!
//! The model is rvf-core's [`HammersteinModel`] over [`CaffeineStage`]s:
//! the same parallel topology and the same frequency poles from vector
//! fitting, but every state-dependent function (residue trajectories,
//! static conductance) is regressed by canonical-form genetic
//! programming instead of recursive vector fitting. Closed-form
//! integration of the stages exists only for the polynomial subset;
//! general canonical forms require manual integration (the paper's
//! "Fully Automated: NO"), so simulation goes through [`primitives`],
//! which yields the model over its polynomial primitives when every
//! stage has one.

use core::convert::Infallible;

use rvf_core::{stage_trajectories, CompiledSim, HammersteinModel, Stage};
use rvf_numerics::Poly;
use rvf_tft::TftDataset;
use rvf_vecfit::RationalModel;

use crate::expr::{CanonicalForm, Integrability};
use crate::gp::{evolve, GpOptions};

/// Options for building the baseline model.
#[derive(Debug, Clone, Default)]
pub struct CaffeineOptions {
    /// GP engine configuration. With `allow_operators` off, the GP
    /// searches the polynomial (integrable) subset only, so the model
    /// can be simulated automatically — the paper does this manually.
    pub gp: GpOptions,
}

/// The CAFFEINE baseline: rvf-core's Hammerstein model over GP stages.
pub type CaffeineModel = HammersteinModel<CaffeineStage>;

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

    /// The anchored primitive, when available.
    pub fn integral(&self, u: f64) -> Option<f64> {
        self.primitive.as_ref().map(|p| p.eval(u))
    }
}

impl Stage for CaffeineStage {
    fn value(&self, u: f64) -> f64 {
        self.form.eval(u)
    }
}

/// The model over its stages' polynomial primitives, or `None` when a
/// stage has none (manual integration would be required — the paper's
/// automation gap).
pub fn primitives(model: &CaffeineModel) -> Option<HammersteinModel<Poly>> {
    model.try_map(|s| s.primitive.clone().ok_or(())).ok()
}

/// `Closed` only when every stage is polynomial — i.e. the model can be
/// simulated without manual integration.
pub fn integrability(model: &CaffeineModel) -> Integrability {
    if model.stages().all(|s| s.primitive.is_some()) {
        Integrability::Closed
    } else {
        Integrability::ManualRequired
    }
}

/// Lowers the model into the shared compiled serving runtime: every
/// polynomial primitive becomes a row of the power-basis coefficient
/// matrix, so one matvec per sample prices all stages. `None` when a
/// stage lacks a closed-form primitive.
pub fn compile(model: &CaffeineModel) -> Option<CompiledSim> {
    Some(primitives(model)?.compile())
}

/// Simulates the model for fixed-step inputs through the compiled
/// serving runtime ([`HammersteinModel::simulate`] of its
/// [`primitives`]). `None` when a stage lacks a closed-form primitive,
/// unless the stimulus is empty, which is trivially simulable.
pub fn simulate(model: &CaffeineModel, dt: f64, inputs: &[f64]) -> Option<Vec<f64>> {
    if inputs.is_empty() {
        return Some(Vec::new());
    }
    Some(primitives(model)?.simulate(dt, inputs))
}

/// [`simulate`] through the scalar reference loop
/// ([`HammersteinModel::simulate_reference`]), the oracle the compiled
/// path is pinned against.
pub fn simulate_reference(model: &CaffeineModel, dt: f64, inputs: &[f64]) -> Option<Vec<f64>> {
    if inputs.is_empty() {
        return Some(Vec::new());
    }
    Some(primitives(model)?.simulate_reference(dt, inputs))
}

/// Worst stage fit RMSE (diagnostic).
pub fn worst_stage_rmse(model: &CaffeineModel) -> f64 {
    model.stages().fold(model.static_path.fit_rmse, |worst, s| worst.max(s.fit_rmse))
}

/// Builds the CAFFEINE baseline from a TFT dataset and a frequency-axis
/// vector fit (common poles + residue trajectories), on the same
/// skeleton as the RVF model ([`stage_trajectories`]).
pub fn build_caffeine_hammerstein(
    dataset: &TftDataset,
    freq_model: &RationalModel,
    opts: &CaffeineOptions,
) -> CaffeineModel {
    let states = dataset.states();
    let skeleton = stage_trajectories(dataset, freq_model);
    let (u0, y0) = (skeleton.u0, skeleton.y0);
    let gp = &opts.gp;
    let blocks = skeleton
        .blocks
        .iter()
        .enumerate()
        .map(|(p, block)| {
            // Vary the seed per stage so structures differ: block p's
            // first stage starts 7919·p past the base seed, its second 13
            // past that.
            let mut gp_p = gp.clone();
            gp_p.seed = gp.seed.wrapping_add(p as u64 * 7919);
            let Ok(block) = block.try_map(|traj| {
                let stage = CaffeineStage::fit(&states, traj, &gp_p, u0, 0.0);
                gp_p.seed = gp_p.seed.wrapping_add(13);
                Ok::<_, Infallible>(stage)
            });
            block
        })
        .collect();
    let static_path = CaffeineStage::fit(&states, &skeleton.static_path, gp, u0, y0);
    HammersteinModel { static_path, blocks, u0, y0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_core::DynBlock;
    use rvf_numerics::{linspace, Complex};

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
        let m = HammersteinModel {
            static_path: s.clone(),
            blocks: vec![DynBlock::Real { a: -1.0e9, f: s }],
            u0: 0.0,
            y0: 0.0,
        };
        assert_eq!(integrability(&m), Integrability::Closed);
        assert!(simulate(&m, 1e-11, &[0.0, 0.5, 1.0]).is_some());
    }

    /// A stage `tanh(x)`, which has no closed-form primitive.
    fn tanh_stage() -> CaffeineStage {
        use crate::expr::{BasisTerm, Factor, UnaryOp};
        let form = CanonicalForm {
            terms: vec![BasisTerm { factors: vec![Factor::Op(UnaryOp::Tanh, [0.0, 1.0, 0.0])] }],
            weights: vec![1.0],
        };
        CaffeineStage { form, primitive: None, fit_rmse: 0.0 }
    }

    /// A model without a closed form refuses simulation, reference and
    /// compilation, yet an empty stimulus stays trivially simulable
    /// (pre-serving contract preserved): Some(empty), not None.
    fn assert_refuses_simulation(m: &CaffeineModel) {
        assert_eq!(integrability(m), Integrability::ManualRequired);
        assert!(primitives(m).is_none());
        assert!(simulate(m, 1e-11, &[0.0, 1.0]).is_none());
        assert!(simulate_reference(m, 1e-11, &[0.0, 1.0]).is_none());
        assert!(compile(m).is_none());
        assert_eq!(simulate(m, 1e-11, &[]), Some(Vec::new()));
        assert_eq!(simulate_reference(m, 1e-11, &[]), Some(Vec::new()));
    }

    #[test]
    fn non_integrable_model_refuses_simulation() {
        let m =
            HammersteinModel { static_path: tanh_stage(), blocks: Vec::new(), u0: 0.0, y0: 0.0 };
        assert_refuses_simulation(&m);
    }

    #[test]
    fn non_integrable_block_stage_refuses_simulation() {
        // The static path and the first block integrate; the second
        // block's second stage does not.
        let xs = linspace(-1.0, 1.0, 40);
        let s = poly_stage(&xs, |x| x);
        let m = HammersteinModel {
            static_path: s.clone(),
            blocks: vec![
                DynBlock::Real { a: -1.0e9, f: s.clone() },
                DynBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1: s, f2: tanh_stage() },
            ],
            u0: 0.0,
            y0: 0.0,
        };
        assert_refuses_simulation(&m);
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
        let m = HammersteinModel {
            static_path: stat,
            blocks: vec![
                DynBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1, f2 },
                DynBlock::Real { a: -2.5e9, f: fr },
            ],
            u0: 0.0,
            y0: 1.0,
        };
        let inputs: Vec<f64> = (0..400).map(|i| 0.9 * ((i / 7) as f64 * 0.61).sin()).collect();
        let want = simulate_reference(&m, 1e-11, &inputs).unwrap();
        let got = simulate(&m, 1e-11, &inputs).unwrap();
        let peak = want.iter().fold(0.0f64, |p, v| p.max(v.abs())).max(1.0);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * peak, "{g} vs {w}");
        }
        // And a batch round over fresh states is bit-identical to
        // per-stimulus serial.
        let sim = compile(&m).unwrap();
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
        let m = HammersteinModel {
            static_path: stat,
            blocks: vec![DynBlock::Pair { sigma: -1.0e9, omega: 4.0e9, f1, f2 }],
            u0: 0.5,
            y0: 1.0,
        };
        let s = Complex::from_im(2.0e9);
        assert!((m.transfer(0.5, s).conj() - m.transfer(0.5, s.conj())).abs() < 1e-12);
    }
}
