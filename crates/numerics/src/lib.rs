//! # rvf-numerics
//!
//! Self-contained dense numerical kernels for the TFT-RVF reproduction
//! (De Jonghe et al., *Extracting Analytical Nonlinear Models from Analog
//! Circuits by Recursive Vector Fitting of Transfer Function
//! Trajectories*, DATE 2013).
//!
//! The crate provides exactly the numerical machinery the modeling
//! pipeline needs, with no external linear-algebra dependencies:
//!
//! * [`Complex`] arithmetic with the principal logarithm used by the RVF
//!   closed-form integrals, and [`ln_shifted_into`], that logarithm over
//!   a whole pole table in one vectorised loop,
//! * dense real ([`Mat`]) and complex ([`CMat`]) matrices,
//! * LU factorizations ([`Lu`], [`CLu`]) for MNA solves and frequency
//!   sweeps,
//! * a Hessenberg–triangular pencil reduction ([`HtPencil`]) that turns a
//!   per-snapshot frequency sweep from `O(L·n³)` into `O(n³ + L·n²)`,
//! * a work-stealing sweep runtime: a persistent worker pool
//!   ([`SweepPool`]) that amortizes thread spawn across the many small
//!   parallel regions of a recursive fit and every serving round,
//! * Householder [`Qr`] least squares for the fitting systems,
//! * a balanced Hessenberg + Francis-QR [`eigenvalues`] solver for vector
//!   fitting pole relocation,
//! * exact first-order-hold block propagators ([`FohScalar`], [`FohPair`])
//!   for simulating the extracted Hammerstein models,
//! * frequency grids ([`logspace`], [`jw_grid`]), polynomial
//!   roots and antiderivatives ([`Poly`]), the dB and NRMSE error
//!   metrics, and [`spectral_occupancy`] for the bit-pattern stimulus
//!   check.
//!
//! # Examples
//!
//! Least squares and eigenvalues, the two workhorses of vector fitting:
//!
//! ```
//! use rvf_numerics::{eigenvalues, lstsq, Mat};
//!
//! # fn main() -> Result<(), rvf_numerics::NumericsError> {
//! let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, -1.0], &[1.0, 2.0]]);
//! let x = lstsq(&a, &[2.0, 0.0, 3.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//!
//! let rot = Mat::from_rows(&[&[0.0, -2.0], &[2.0, 0.0]]);
//! let eigs = eigenvalues(&rot)?;
//! assert!(eigs.iter().all(|e| e.re.abs() < 1e-12));
//! # Ok(())
//! # }
//! ```
//!
//! Reduce a pencil once, then sweep frequencies at `O(n²)` each — the
//! kernel behind the TFT stage's fast path:
//!
//! ```
//! use rvf_numerics::{CLu, CMat, Complex, HtPencil, Mat};
//!
//! # fn main() -> Result<(), rvf_numerics::NumericsError> {
//! let g = Mat::from_rows(&[&[1.0, -1.0], &[-1.0, 2.0]]);
//! let c = Mat::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
//! let pencil = HtPencil::reduce(&g, &c)?;
//! for s in [Complex::from_im(1.0), Complex::from_im(100.0)] {
//!     let fast = pencil.solve(s, &[1.0, 0.0])?;
//!     let dense = CLu::factor(&CMat::from_real_pair(&g, s, &c))?.solve_real(&[1.0, 0.0])?;
//!     assert!((fast[1] - dense[1]).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cmatrix;
mod complex;
mod eig;
mod error;
mod expm;
mod fft;
mod grid;
mod lu;
mod matrix;
mod pencil;
mod poly;
mod qr;
mod stats;
mod sweep;

pub use cmatrix::CMat;
pub use complex::{c, ln_shifted_into, Complex};
pub use eig::{eigenvalues, sort_eigenvalues};
pub use error::NumericsError;
pub use expm::{FohPair, FohScalar};
pub use fft::spectral_occupancy;
pub use grid::{jw_grid, linspace, logspace};
pub use lu::{CLu, Lu};
pub use matrix::Mat;
pub use pencil::HtPencil;
pub use poly::{from_roots, Poly};
pub use qr::{
    apply_reflectors_in_place, factor_block_in_place, factor_with_rhs_in_place, lstsq, lstsq_ridge,
    Qr, Reflectors,
};
pub use stats::{db20, from_db20, max_abs_err, nrmse, rmse, unwrap_phase};
pub use sweep::{pool_constructions, resolve_threads, SweepConfig, SweepError, SweepPool};
