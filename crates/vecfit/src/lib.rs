//! # rvf-vecfit
//!
//! Vector fitting for the TFT-RVF reproduction: rational approximation of
//! many responses with *common poles* and response-dependent residues.
//!
//! The engine implements:
//!
//! * relaxed vector fitting (Gustavsen 2006) with the fast per-response
//!   QR compression of Deschrijver et al. 2008 (the paper's ref. \[9\]);
//! * pole relocation by the zeros-of-sigma eigenproblem with stability
//!   flipping on the frequency axis ("stable by construction");
//! * the same machinery on the *real axis* for the recursive
//!   state-dimension fits of the RVF algorithm, where poles are kept in
//!   complex conjugate pairs off the axis (the paper's zero-phase base
//!   functions).
//!
//! The fitted pole–residue models are realized in the input-shifted
//! state-space form of paper eqs. (12)–(14) by `rvf_core::hammerstein`.
//!
//! # Threading
//!
//! The per-response stages of a fit — block assembly + QR compression in
//! every relocation round, and the final residue identification — are
//! independent across responses and fan out over the work-stealing
//! sweep runtime of `rvf-numerics`. Every parallel region of a fit is a
//! *round* on one persistent [`rvf_numerics::SweepPool`], and a round is
//! as wide as that pool: [`fit()`] runs on a one-worker pool (serial,
//! inline on the caller), and [`fit_in`] borrows the caller's pool, so
//! a pole-growth loop sized by [`auto_workers`] shares a single pool
//! across all of its fits and never pays a per-round (or even per-fit)
//! thread spawn. The result is **bit-identical** for every pool size:
//! each response's compressed `R₂₂`
//! block lands in a fixed row range of the stacked sigma system, so
//! neither the worker count nor the claim order can reach the
//! arithmetic. Warm starts across pole counts pass the previous fit's
//! poles as [`fit_in`]'s `initial` set.
//!
//! # Examples
//!
//! Recover a known rational function from samples on the jω axis:
//!
//! ```
//! use rvf_numerics::{c, Complex};
//! use rvf_vecfit::{fit_single, VfOptions};
//!
//! # fn main() -> Result<(), rvf_vecfit::VecfitError> {
//! let truth = |s: Complex| {
//!     (s + 1.0).inv() * 2.0 + (s - c(-3.0, 40.0)).inv() * c(1.0, 0.5)
//!         + (s - c(-3.0, -40.0)).inv() * c(1.0, -0.5)
//! };
//! let samples: Vec<Complex> = (1..=100).map(|i| c(0.0, i as f64)).collect();
//! let data: Vec<Complex> = samples.iter().map(|&s| truth(s)).collect();
//! let fit = fit_single(&samples, &data, &VfOptions::frequency(3))?;
//! assert!(fit.rms_error < 1e-6);
//! assert!(fit.model.poles().is_stable());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod basis;
mod error;
mod fit;
mod model;
mod options;
mod poles;

pub use basis::{basis_row, Residues};
pub use error::VecfitError;
pub use fit::{auto_workers, fit, fit_in, fit_single, VfFit};
pub use model::{RationalModel, ResponseTerms};
pub use options::{Axis, VfOptions};
pub use poles::{PoleEntry, PoleSet};
