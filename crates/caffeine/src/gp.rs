//! The genetic-programming engine evolving canonical-form structures.
//!
//! Bi-objective (error, complexity) evolution in the CAFFEINE style:
//! structure by variation operators, weights always by linear least
//! squares, selection by Pareto-aware tournament with a complexity
//! pressure knob.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvf_numerics::{lstsq_ridge, Mat};

use crate::expr::{BasisTerm, CanonicalForm, Factor, UnaryOp};

/// GP configuration.
#[derive(Debug, Clone)]
pub struct GpOptions {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Maximum number of basis terms per individual.
    pub max_terms: usize,
    /// Allow unary operator factors (disable to force the analytically
    /// integrable polynomial subset).
    pub allow_operators: bool,
    /// Maximum power of plain `x^p` factors.
    pub max_power: u32,
    /// Complexity pressure: fitness = rmse · (1 + pressure·complexity).
    pub complexity_pressure: f64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for GpOptions {
    fn default() -> Self {
        Self {
            population: 64,
            generations: 60,
            max_terms: 6,
            allow_operators: true,
            max_power: 4,
            complexity_pressure: 1e-3,
            seed: 0xCAFF_E14E,
        }
    }
}

/// An evolved individual with its fitted weights and scores.
#[derive(Debug, Clone)]
pub(crate) struct Individual {
    /// The model.
    pub(crate) form: CanonicalForm,
    /// Root-mean-square error on the training data.
    pub(crate) rmse: f64,
    /// Structural complexity.
    pub(crate) complexity: usize,
}

impl Individual {
    /// Pressure-adjusted fitness. The floor keeps complexity pressure
    /// meaningful once the error reaches numerical noise: without it,
    /// two exact fits of different sizes would be ranked by round-off.
    fn scalar_fitness(&self, pressure: f64, floor: f64) -> f64 {
        self.rmse.max(floor) * (1.0 + pressure * self.complexity as f64)
    }
}

/// Evolves a canonical-form model for samples `(x, y)`.
///
/// Returns the best individual found (lowest pressure-adjusted error).
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths or are empty.
pub(crate) fn evolve(xs: &[f64], ys: &[f64], opts: &GpOptions) -> Individual {
    assert_eq!(xs.len(), ys.len(), "sample lengths differ");
    assert!(!xs.is_empty(), "need samples");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let data_rms = (ys.iter().map(|v| v * v).sum::<f64>() / ys.len() as f64).sqrt();
    let floor = (1e-12 * data_rms).max(1e-300);
    let mut population: Vec<Individual> = (0..opts.population)
        .map(|_| {
            let form = random_form(&mut rng, opts, xs);
            score(form, xs, ys)
        })
        .collect();
    // Seed the population with the pure polynomial ladder — CAFFEINE
    // initializes with simple canonical templates.
    for deg in 0..=opts.max_power.min(3) {
        let mut terms = vec![BasisTerm::constant()];
        for p in 1..=deg {
            terms.push(BasisTerm::power(p));
        }
        population.push(score(CanonicalForm { terms, weights: Vec::new() }, xs, ys));
    }

    for _gen in 0..opts.generations {
        let mut offspring = Vec::with_capacity(opts.population);
        while offspring.len() < opts.population {
            let a = tournament(&population, &mut rng, opts.complexity_pressure, floor);
            let child_form = if rng.gen_bool(0.35) {
                let b = tournament(&population, &mut rng, opts.complexity_pressure, floor);
                crossover(&population[a].form, &population[b].form, &mut rng, opts)
            } else {
                mutate(&population[a].form, &mut rng, opts, xs)
            };
            offspring.push(score(child_form, xs, ys));
        }
        population.extend(offspring);
        // Environmental selection: keep the best by adjusted fitness,
        // always preserving the best-by-rmse and best-by-complexity
        // extremes (a tiny elitist Pareto front).
        population.sort_by(|p, q| {
            p.scalar_fitness(opts.complexity_pressure, floor)
                .partial_cmp(&q.scalar_fitness(opts.complexity_pressure, floor))
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        let best_rmse = population
            .iter()
            .enumerate()
            .min_by(|(_, p), (_, q)| {
                p.rmse.partial_cmp(&q.rmse).unwrap_or(core::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        if best_rmse >= opts.population {
            let keep = population[best_rmse].clone();
            population[opts.population - 1] = keep;
        }
        population.truncate(opts.population.max(1));
    }
    population
        .into_iter()
        .min_by(|p, q| {
            p.scalar_fitness(opts.complexity_pressure, floor)
                .partial_cmp(&q.scalar_fitness(opts.complexity_pressure, floor))
                .unwrap_or(core::cmp::Ordering::Equal)
        })
        .expect("nonempty population")
}

/// Solves the linear weights by (ridge-stabilized) least squares and
/// scores the individual.
fn score(mut form: CanonicalForm, xs: &[f64], ys: &[f64]) -> Individual {
    if form.terms.is_empty() {
        form.terms.push(BasisTerm::constant());
    }
    let rows = xs.len();
    let cols = form.terms.len();
    let mut design = Mat::zeros(rows, cols);
    for (i, &x) in xs.iter().enumerate() {
        for (j, t) in form.terms.iter().enumerate() {
            let v = t.eval(x);
            design[(i, j)] = if v.is_finite() { v } else { 1e30 };
        }
    }
    let scale = design.norm_fro().max(1.0);
    let weights = lstsq_ridge(&design, ys, (1e-9 * scale) * (1e-9 * scale))
        .unwrap_or_else(|_| vec![0.0; cols]);
    form.weights = weights;
    let mut err = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let d = form.eval(x) - y;
        err += d * d;
    }
    let rmse = (err / rows as f64).sqrt();
    let rmse = if rmse.is_finite() { rmse } else { f64::INFINITY };
    let complexity = form.complexity();
    Individual { form, rmse, complexity }
}

fn tournament(pop: &[Individual], rng: &mut StdRng, pressure: f64, floor: f64) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].scalar_fitness(pressure, floor) <= pop[b].scalar_fitness(pressure, floor) {
        a
    } else {
        b
    }
}

fn random_inner_poly(rng: &mut StdRng, x_scale: f64) -> [f64; 3] {
    [
        rng.gen_range(-2.0..2.0),
        rng.gen_range(-2.0..2.0) / x_scale.max(1e-12),
        if rng.gen_bool(0.5) {
            rng.gen_range(-2.0..2.0) / (x_scale * x_scale).max(1e-12)
        } else {
            0.0
        },
    ]
}

fn random_term(rng: &mut StdRng, opts: &GpOptions, x_scale: f64) -> BasisTerm {
    let mut factors = Vec::new();
    if rng.gen_bool(0.8) {
        factors.push(Factor::Power(rng.gen_range(1..=opts.max_power)));
    }
    if opts.allow_operators && rng.gen_bool(0.5) {
        let op = UnaryOp::ALL[rng.gen_range(0..UnaryOp::ALL.len())];
        factors.push(Factor::Op(op, random_inner_poly(rng, x_scale)));
    }
    BasisTerm { factors }
}

fn random_form(rng: &mut StdRng, opts: &GpOptions, xs: &[f64]) -> CanonicalForm {
    let x_scale = xs.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let n = rng.gen_range(1..=opts.max_terms.min(4));
    let mut terms = vec![BasisTerm::constant()];
    for _ in 0..n {
        terms.push(random_term(rng, opts, x_scale));
    }
    CanonicalForm { terms, weights: Vec::new() }
}

fn mutate(parent: &CanonicalForm, rng: &mut StdRng, opts: &GpOptions, xs: &[f64]) -> CanonicalForm {
    let x_scale = xs.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let mut terms = parent.terms.clone();
    match rng.gen_range(0..4) {
        0 if terms.len() < opts.max_terms => {
            terms.push(random_term(rng, opts, x_scale));
        }
        1 if terms.len() > 1 => {
            let i = rng.gen_range(1..terms.len());
            terms.remove(i);
        }
        2 => {
            // Perturb one factor of one term.
            let i = rng.gen_range(0..terms.len());
            if let Some(f) = terms[i].factors.first_mut() {
                match f {
                    Factor::Power(p) => {
                        *p = (*p + rng.gen_range(0..=2u32)).clamp(1, opts.max_power);
                    }
                    Factor::Op(_, c) => {
                        let j = rng.gen_range(0..3usize);
                        c[j] += rng.gen_range(-0.3..0.3) * (1.0 + c[j].abs());
                    }
                }
            } else {
                terms[i] = random_term(rng, opts, x_scale);
            }
        }
        _ => {
            let i = rng.gen_range(0..terms.len());
            terms[i] = random_term(rng, opts, x_scale);
        }
    }
    CanonicalForm { terms, weights: Vec::new() }
}

fn crossover(
    a: &CanonicalForm,
    b: &CanonicalForm,
    rng: &mut StdRng,
    opts: &GpOptions,
) -> CanonicalForm {
    let mut terms = Vec::new();
    for t in &a.terms {
        if rng.gen_bool(0.5) {
            terms.push(t.clone());
        }
    }
    for t in &b.terms {
        if rng.gen_bool(0.5) && terms.len() < opts.max_terms {
            terms.push(t.clone());
        }
    }
    if terms.is_empty() {
        terms.push(BasisTerm::constant());
    }
    CanonicalForm { terms, weights: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::linspace;

    #[test]
    fn recovers_quadratic_exactly() {
        let xs = linspace(-1.0, 1.0, 60);
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 - 3.0 * x + 0.5 * x * x).collect();
        let opts = GpOptions { generations: 25, population: 40, ..Default::default() };
        let best = evolve(&xs, &ys, &opts);
        assert!(best.rmse < 1e-10, "rmse {}", best.rmse);
    }

    #[test]
    fn fits_saturating_curve_reasonably() {
        let xs = linspace(0.4, 1.4, 80);
        let ys: Vec<f64> = xs.iter().map(|&x| (3.0 * (x - 0.9)).tanh()).collect();
        let best = evolve(&xs, &ys, &GpOptions::default());
        let span = 2.0;
        assert!(best.rmse / span < 0.05, "rel rmse {}", best.rmse / span);
    }

    #[test]
    fn polynomial_only_mode_stays_integrable() {
        use crate::expr::Integrability;
        let xs = linspace(-1.0, 1.0, 50);
        let ys: Vec<f64> = xs.iter().map(|&x| x.sin()).collect();
        let opts = GpOptions { allow_operators: false, generations: 20, ..Default::default() };
        let best = evolve(&xs, &ys, &opts);
        assert_eq!(best.form.integrability(), Integrability::Closed);
        assert!(best.form.antiderivative().is_some());
        assert!(best.rmse < 0.05, "rmse {}", best.rmse);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let xs = linspace(0.0, 1.0, 30);
        let ys: Vec<f64> = xs.iter().map(|&x| x * x).collect();
        let opts = GpOptions { generations: 10, population: 20, seed: 7, ..Default::default() };
        let a = evolve(&xs, &ys, &opts);
        let b = evolve(&xs, &ys, &opts);
        assert_eq!(a.form, b.form);
        assert_eq!(a.rmse, b.rmse);
    }

    #[test]
    fn complexity_pressure_prefers_simpler_models() {
        let xs = linspace(-1.0, 1.0, 60);
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x).collect();
        let heavy = GpOptions { complexity_pressure: 1.0, generations: 25, ..Default::default() };
        let best = evolve(&xs, &ys, &heavy);
        // A line fits exactly; pressure should keep the model tiny.
        assert!(best.complexity <= 6, "complexity {}", best.complexity);
        assert!(best.rmse < 1e-8);
    }
}
