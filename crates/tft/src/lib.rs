//! # rvf-tft
//!
//! Transfer Function Trajectories (De Jonghe & Gielen, paper refs.
//! \[3\], \[4\]): converting Jacobian snapshots captured along a circuit's
//! large-signal trajectory into state-dependent frequency responses
//!
//! ```text
//! H(k)(s) = Dᵀ·(G(k) + s·C(k))⁻¹·B
//! ```
//!
//! sampled over a frequency grid — the hyperplane in the mixed
//! state-space/frequency domain that the RVF algorithm subsequently fits.
//!
//! The crate also provides:
//!
//! * static/dynamic splitting `H = H(0) + [H − H(0)]`,
//! * gain/phase hyperplanes and error surfaces (Figs. 6–8 of the paper).
//!
//! # Example
//!
//! ```no_run
//! use rvf_circuit::{high_speed_buffer, BufferParams, Waveform};
//! use rvf_tft::{extract_from_circuit, Hyperplane, TftConfig};
//!
//! # fn main() -> Result<(), rvf_tft::TftError> {
//! let sine = Waveform::Sine {
//!     offset: 0.9, amplitude: 0.5, freq_hz: 5.0e7, phase_rad: 0.0, delay: 0.0,
//! };
//! let mut buf = high_speed_buffer(&BufferParams::default(), sine);
//! let (dataset, _tran) = extract_from_circuit(&mut buf, &TftConfig::default())?;
//! let surface = Hyperplane::of_dataset(&dataset); // Fig. 6
//! assert_eq!(surface.gain_db.rows(), dataset.n_states());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod dataset;
mod error;
mod hyperplane;
mod sampler;

pub use dataset::{StateSample, TftDataset};
pub use error::TftError;
pub use hyperplane::{error_surface, ErrorSurface, Hyperplane};
pub use sampler::{extract_from_circuit, tft_from_snapshots, TftConfig};
