//! # rvf-caffeine
//!
//! A miniature reimplementation of CAFFEINE (McConaghy & Gielen,
//! *Template-free symbolic performance modeling of analog circuits via
//! canonical-form functions and genetic programming*, TCAD 2009) — the
//! baseline the DATE 2013 paper compares Recursive Vector Fitting
//! against (Fig. 8 and Table I).
//!
//! The crate provides:
//!
//! * canonical-form expressions (weighted sums of products of powers and
//!   guarded unary operators) with linear weights solved by least
//!   squares;
//! * a bi-objective (error, complexity) GP engine ([`GpOptions`]), run
//!   per state stage by [`CaffeineStage::fit`];
//! * an **integrability analyzer** ([`Integrability`]): only the
//!   polynomial subset has closed-form antiderivatives, which is exactly
//!   the automation gap the paper reports for CAFFEINE ("the indefinite
//!   integral … needs to be computed manually, if it can be computed
//!   altogether");
//! * the CAFFEINE Hammerstein baseline ([`build_caffeine_hammerstein`]):
//!   rvf-core's [`HammersteinModel`](rvf_core::HammersteinModel) over
//!   [`CaffeineStage`]s — VF frequency poles + GP residue regression —
//!   simulated and lowered through rvf-core's one reference loop and one
//!   lowering, once [`primitives`] has mapped every stage to its
//!   closed-form primitive (integrable stages only).
//!
//! # Examples
//!
//! Evolve a canonical-form fit of a quadratic stage; being polynomial,
//! it also gets a closed-form primitive, anchored here at `F(0) = 0`:
//!
//! ```
//! use rvf_caffeine::{CaffeineStage, GpOptions};
//! use rvf_numerics::linspace;
//!
//! let xs = linspace(-1.0, 1.0, 40);
//! let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + 2.0 * x * x).collect();
//! let gp = GpOptions { generations: 15, ..Default::default() };
//! let stage = CaffeineStage::fit(&xs, &ys, &gp, 0.0, 0.0);
//! assert!(stage.fit_rmse < 1e-8);
//! let f1 = stage.integral(1.0).expect("polynomial stages integrate");
//! assert!((f1 - 5.0 / 3.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod expr;
mod gp;
mod model;

pub use expr::Integrability;
pub use gp::GpOptions;
pub use model::{
    build_caffeine_hammerstein, compile, integrability, primitives, simulate, simulate_reference,
    worst_stage_rmse, CaffeineModel, CaffeineOptions, CaffeineStage,
};
