//! Accuracy regression for the CAFFEINE baseline's compiled serving
//! path: a polynomial model lowered through rvf-core's one Hammerstein
//! lowering (`rvf::caffeine::compile`) must track the scalar reference
//! loop within an explicit [`rvf::validate::AccuracyContract`].

use rvf::caffeine::{compile, simulate_reference, CaffeineStage, GpOptions};
use rvf::model::{DynBlock, HammersteinModel};
use rvf::numerics::linspace;
use rvf::validate::{AccuracyContract, AccuracyReport};

fn poly_stage(xs: &[f64], f: impl Fn(f64) -> f64) -> CaffeineStage {
    let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
    // Polynomial-only GP: every stage gets a closed-form primitive, so
    // the model is compilable (`Integrability::Closed`).
    let gp = GpOptions { allow_operators: false, generations: 20, ..Default::default() };
    CaffeineStage::fit(xs, &ys, &gp, 0.0, 0.0)
}

#[test]
fn compiled_caffeine_model_meets_accuracy_contract() {
    let xs = linspace(-1.0, 1.0, 60);
    let model = HammersteinModel {
        static_path: poly_stage(&xs, |x| 1.8 - 0.25 * x),
        blocks: vec![
            DynBlock::Pair {
                sigma: -1.2e9,
                omega: 3.5e9,
                f1: poly_stage(&xs, |x| 0.9 + 0.6 * x - 0.3 * x * x),
                f2: poly_stage(&xs, |x| 0.4 - 0.7 * x),
            },
            DynBlock::Real { a: -2.0e9, f: poly_stage(&xs, |x| 0.3 * x + 0.5 * x * x * x) },
        ],
        u0: 0.0,
        y0: 0.8,
    };

    // A spectrally rich stimulus: held levels with ramped transitions.
    let inputs: Vec<f64> = (0..1200)
        .map(|i| {
            let sym = (i / 9) as f64;
            0.85 * (sym * 0.77).sin() * (0.5 + 0.5 * (sym * 0.13).cos())
        })
        .collect();
    let dt = 1.0e-11;

    // Oracle: the scalar reference loop. Model under test: the compiled
    // serving runtime.
    let oracle = simulate_reference(&model, dt, &inputs).expect("polynomial model is closed-form");
    let compiled = compile(&model).expect("polynomial model compiles");
    let y = compiled.simulate(dt, &inputs);

    let report = AccuracyReport::compare(&oracle, &y, 0.1);
    // The compiled path is algebraically identical (shared power basis
    // vs per-stage Horner), so the contract is tight: floating-point
    // reassociation noise only.
    let contract =
        AccuracyContract { max_nrmse: 1e-12, max_abs_norm: 1e-11, max_settled_nrmse: 1e-12 };
    let violations = contract.check(&report);
    assert!(
        violations.is_empty(),
        "compiled path drifted from oracle: {violations:?} ({report:?})"
    );
    assert_eq!(report.n_samples, inputs.len());

    // Regression guard on the fit itself: the GP stages reproduce the
    // target polynomials, so the model's swing stays meaningful.
    assert!(report.swing > 0.1, "oracle swing collapsed: {}", report.swing);
}
