//! The Recursive Vector Fitting driver (paper Algorithm 1).
//!
//! Stage 1 fits the frequency axis of the TFT data with common poles,
//! incrementing the pole count by two until the error bound `ε` is met.
//! Stage 2 fits all of a model's state-dependent quantities (residue
//! trajectories and static conductance) in the state variable with one
//! common pole set, grown the same way, where the paper gives each residue
//! its own. Both stages, and both levels of the 2-D recursion in
//! [`crate::recursive`], run the one growth loop of this module.
//!
//! A caller sets only `ε`, the state-pole budget and the thread count.
//! The rest of Algorithm 1's schedule is fixed: both stages start at 4
//! poles (`START_POLES`), the frequency stage stops at 24
//! (`MAX_FREQ_POLES`), every fit runs its [`VfOptions`] preset's 10
//! relocation rounds (fewer once the poles settle to a relative
//! displacement of 1e-10), and each count after the first starts from
//! the previous count's relocated poles.

use rvf_numerics::{Complex, SweepPool};
use rvf_vecfit::{auto_workers, fit_in, Axis, PoleSet, RationalModel, VfFit, VfOptions};

use crate::error::RvfError;

/// Pole count at which every growth loop starts.
pub(crate) const START_POLES: usize = 4;
/// Largest frequency-stage pole count.
pub(crate) const MAX_FREQ_POLES: usize = 24;

/// Options for the RVF extraction (paper: `ε = 10⁻³`, yielding 12
/// frequency poles and 10 state poles per residue on the buffer; here one
/// common state-pole set serves all of a model's residues).
#[derive(Debug, Clone)]
pub struct RvfOptions {
    /// Relative error bound `ε` for both fitting stages.
    pub epsilon: f64,
    /// Maximum size of a model's common state-pole set.
    pub max_state_poles: usize,
    /// Worker threads for the per-response stages of every vector fit:
    /// each stage sizes one pool with [`rvf_vecfit::auto_workers`] (`0`
    /// = one per core above the engine's response-count crossover, `1`
    /// = serial), and every fit of the stage runs as wide as that pool.
    /// The fit results are bit-identical for every setting.
    pub threads: usize,
}

impl Default for RvfOptions {
    fn default() -> Self {
        Self { epsilon: 1e-3, max_state_poles: 16, threads: 0 }
    }
}

/// Outcome of one auto-incremented fitting stage.
#[derive(Debug, Clone)]
pub struct StageFit {
    /// The fitted model.
    pub fit: VfFit,
    /// Relative RMS error achieved (RMS / peak magnitude of the data).
    pub rel_error: f64,
    /// Number of poles used.
    pub n_poles: usize,
    /// Total pole-relocation rounds performed across *all* pole counts
    /// the stage tried.
    pub relocation_rounds: usize,
    /// Fits of the stage whose warm start failed and fell back to a cold
    /// restart (see [`rvf_vecfit::VfFit::cold_restarted`]).
    pub(crate) cold_restarts: usize,
}

/// Fits the frequency axis: common stable poles across all state
/// snapshots, pole count grown by 2 until `ε` is reached (paper
/// Algorithm 1, lines 14–17).
///
/// # Errors
///
/// Propagates fitting failures; otherwise returns the best fit found,
/// which misses `ε` when the pole budget runs out first.
pub fn fit_frequency_stage(
    s_grid: &[Complex],
    responses: &[Vec<Complex>],
    opts: &RvfOptions,
) -> Result<StageFit, RvfError> {
    // One pool for the whole growth loop: every relocation round of
    // every pole count is a round on these workers, not a spawn.
    let pool = SweepPool::new(auto_workers(opts.threads, responses.len()));
    let peak =
        responses.iter().flat_map(|r| r.iter()).fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
    grow_poles(&pool, s_grid, responses, Axis::Imaginary, MAX_FREQ_POLES, peak, opts)
}

/// Fits one or more real-valued state trajectories with *common*
/// conjugate-pair poles in the state variable, growing the pole count
/// until `ε·scale` is reached (paper Algorithm 1, lines 18–25).
///
/// `scale` normalizes the error target, so near-zero components are held
/// to the overall residue magnitude rather than to their own peak.
///
/// # Errors
///
/// Returns [`RvfError::EmptyPoleBudget`] when `max_state_poles` is
/// below the starting count of 4, [`RvfError::TooFewStates`] when the
/// states cannot support it, and propagates fitting failures.
pub fn fit_state_stage(
    states: &[f64],
    trajectories: &[Vec<f64>],
    scale: f64,
    opts: &RvfOptions,
) -> Result<StageFit, RvfError> {
    let pool = SweepPool::new(auto_workers(opts.threads, trajectories.len()));
    fit_state_stage_in(&pool, states, trajectories, scale, opts)
}

/// [`fit_state_stage`] on a caller-owned pool, so the 2-D recursion
/// shares one pool across its stages.
pub(crate) fn fit_state_stage_in(
    pool: &SweepPool,
    states: &[f64],
    trajectories: &[Vec<f64>],
    scale: f64,
    opts: &RvfOptions,
) -> Result<StageFit, RvfError> {
    let xs: Vec<Complex> = states.iter().map(|&x| Complex::from_re(x)).collect();
    let data: Vec<Vec<Complex>> =
        trajectories.iter().map(|t| t.iter().map(|&v| Complex::from_re(v)).collect()).collect();
    grow_poles(pool, &xs, &data, Axis::Real, opts.max_state_poles, scale.max(1e-300), opts)
}

/// The pole-growth loop of paper Algorithm 1, shared by every stage: fit
/// with the `axis` preset's `p` poles from `START_POLES` and, while
/// `rms / scale` is above `ε`, add two poles and fit again from the
/// previous fit's relocated poles, until `max`. Real-axis fits stop
/// growing once the samples no longer support the count (real rows are
/// single equations, so `L ≥ 2P + 2`).
///
/// Returns the lowest-error fit, with the relocation rounds and cold
/// restarts of every count tried.
pub(crate) fn grow_poles(
    pool: &SweepPool,
    samples: &[Complex],
    data: &[Vec<Complex>],
    axis: Axis,
    max: usize,
    scale: f64,
    opts: &RvfOptions,
) -> Result<StageFit, RvfError> {
    let (stage, preset): (_, fn(usize) -> VfOptions) = match axis {
        Axis::Imaginary => ("frequency", VfOptions::frequency),
        Axis::Real => ("state", VfOptions::state),
    };
    let start = START_POLES;
    if start > max {
        return Err(RvfError::EmptyPoleBudget { stage, start, max });
    }
    let mut best: Option<StageFit> = None;
    let mut warm: Option<PoleSet> = None;
    let (mut relocation_rounds, mut cold_restarts) = (0, 0);
    let mut p = start;
    while p <= max {
        if axis == Axis::Real && samples.len() < 2 * p + 2 {
            break;
        }
        let fit = fit_in(pool, samples, data, &preset(p), warm.as_ref())?;
        relocation_rounds += fit.iterations_run;
        cold_restarts += usize::from(fit.cold_restarted);
        warm = Some(fit.model.poles().clone());
        let rel = fit.rms_error / scale;
        if best.as_ref().is_none_or(|b| rel < b.rel_error) {
            best = Some(StageFit {
                fit,
                rel_error: rel,
                n_poles: p,
                relocation_rounds,
                cold_restarts,
            });
        }
        if rel <= opts.epsilon {
            break;
        }
        p += 2;
    }
    let mut best =
        best.ok_or(RvfError::TooFewStates { got: samples.len(), needed: 2 * start + 2 })?;
    best.relocation_rounds = relocation_rounds;
    best.cold_restarts = cold_restarts;
    Ok(best)
}

/// Response `k` of a multi-response model, multiplied by `scale` (which
/// undoes a fit of trajectories divided by it).
pub(crate) fn single_response(model: &RationalModel, k: usize, scale: f64) -> RationalModel {
    RationalModel::new(model.poles().clone(), vec![model.terms()[k].scaled(scale)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::{c, jw_grid, linspace, logspace};

    #[test]
    fn frequency_stage_grows_until_tolerance() {
        // A 6-pole synthetic system: starting at 4 poles the stage must
        // step up to ≥6 to pass ε.
        let poles = [
            c(-1.0e3, 0.0),
            c(-1.0e4, 8.0e4),
            c(-1.0e4, -8.0e4),
            c(-3.0e5, 0.0),
            c(-2.0e5, 3.0e6),
            c(-2.0e5, -3.0e6),
        ];
        let residues = [
            c(5.0e2, 0.0),
            c(2.0e3, 1.0e3),
            c(2.0e3, -1.0e3),
            c(1.0e5, 0.0),
            c(4.0e4, -2.0e5),
            c(4.0e4, 2.0e5),
        ];
        let s_grid = jw_grid(&logspace(2.0, 7.5, 120));
        let data: Vec<Vec<Complex>> = vec![s_grid
            .iter()
            .map(|&s| poles.iter().zip(&residues).map(|(&a, &r)| r * (s - a).inv()).sum())
            .collect()];
        let opts = RvfOptions { epsilon: 1e-6, ..Default::default() };
        let stage = fit_frequency_stage(&s_grid, &data, &opts).unwrap();
        assert!(stage.n_poles >= 6, "stopped at {} poles", stage.n_poles);
        assert!(stage.rel_error <= 1e-6, "rel err {}", stage.rel_error);
    }

    #[test]
    fn state_stage_fits_multiple_components_with_common_poles() {
        let states = linspace(0.4, 1.4, 101);
        let t1: Vec<f64> =
            states.iter().map(|&x| 1.0 / (1.0 + 16.0 * (x - 0.9) * (x - 0.9))).collect();
        let t2: Vec<f64> =
            states.iter().map(|&x| (x - 0.9) / (1.0 + 16.0 * (x - 0.9) * (x - 0.9))).collect();
        let scale = 1.0;
        let opts = RvfOptions { epsilon: 1e-4, ..Default::default() };
        let stage = fit_state_stage(&states, &[t1.clone(), t2], scale, &opts).unwrap();
        assert!(stage.rel_error <= 1e-4, "rel err {}", stage.rel_error);
        assert_eq!(stage.fit.model.n_responses(), 2);
        // Check reconstruction of component 1.
        for (x, want) in states.iter().zip(&t1) {
            let got = stage.fit.model.eval(0, Complex::from_re(*x)).re;
            assert!((got - want).abs() < 5e-4, "at {x}: {got} vs {want}");
        }
    }

    #[test]
    fn state_stage_scale_relaxes_small_components() {
        // A tiny trajectory relative to scale converges immediately.
        let states = linspace(0.0, 1.0, 40);
        let tiny: Vec<f64> = states.iter().map(|&x| 1e-9 * x).collect();
        let opts = RvfOptions { epsilon: 1e-3, ..Default::default() };
        let stage = fit_state_stage(&states, &[tiny], 1.0, &opts).unwrap();
        assert!(stage.rel_error <= 1e-3);
        assert_eq!(stage.n_poles, 4, "no pole growth needed");
    }

    #[test]
    fn state_stage_too_few_states() {
        let states = [0.0, 0.5, 1.0];
        let data = vec![vec![1.0, 2.0, 3.0]];
        let err = fit_state_stage(&states, &data, 1.0, &RvfOptions::default()).unwrap_err();
        assert!(matches!(err, RvfError::TooFewStates { .. }));
    }

    #[test]
    fn state_stage_empty_pole_budget_is_a_typed_error() {
        // Enough states for the starting count: the budget, not the
        // sample count, is what is wrong.
        let states = linspace(0.0, 1.0, 60);
        let traj: Vec<f64> = states.iter().map(|&x| x * x).collect();
        let opts = RvfOptions { max_state_poles: 2, ..Default::default() };
        let err = fit_state_stage(&states, &[traj], 1.0, &opts).unwrap_err();
        assert_eq!(err, RvfError::EmptyPoleBudget { stage: "state", start: 4, max: 2 });
        assert!(err.to_string().contains("start 4 exceeds max 2"), "{err}");
    }

    #[test]
    fn single_response_extraction() {
        use rvf_vecfit::{PoleSet, Residues, ResponseTerms};
        let model = RationalModel::new(
            PoleSet::from_reals(&[-1.0]),
            vec![
                ResponseTerms { residues: Residues(vec![c(1.0, 0.0)]), d: 0.5 },
                ResponseTerms { residues: Residues(vec![c(2.0, 0.0)]), d: -0.5 },
            ],
        );
        let second = single_response(&model, 1, 1.0);
        assert_eq!(second.n_responses(), 1);
        assert_eq!(second.terms()[0], model.terms()[1]);
        let doubled = single_response(&model, 1, 2.0);
        assert_eq!(doubled.terms()[0].residues, Residues(vec![c(4.0, 0.0)]));
        assert_eq!(doubled.terms()[0].d, -1.0);
    }
}
