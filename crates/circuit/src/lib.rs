//! # rvf-circuit
//!
//! A self-contained MNA circuit simulator — the reproduction's stand-in
//! for the commercial SPICE (ELDO) used in the paper. It provides
//! exactly the interfaces the TFT/RVF extraction flow needs:
//!
//! * nonlinear DC operating point (damped Newton + gmin continuation),
//! * fixed-step implicit transient analysis (trapezoidal/BE) with
//!   **Jacobian snapshot capture** `G(k) = ∂i/∂v`, `C(k) = ∂q/∂v` along
//!   the large-signal trajectory (paper eq. 3),
//! * small-signal AC analysis,
//! * device models: R, C, L, V/I sources, VCCS/VCVS, junction diode,
//!   Ebers-Moll BJT and a level-1 MOSFET,
//! * a SPICE-flavoured netlist parser,
//! * the paper's test vehicle: a synthetic 27-transistor four-stage
//!   differential high-speed buffer (DC gain ≈ 2, BW ≈ 3 GHz).
//!
//! # Example
//!
//! ```
//! use rvf_circuit::{dc_operating_point, transient, high_speed_buffer,
//!                   BufferParams, TranOptions, Waveform};
//!
//! # fn main() -> Result<(), rvf_circuit::CircuitError> {
//! let sine = Waveform::Sine {
//!     offset: 0.9, amplitude: 0.5, freq_hz: 5.0e7, phase_rad: 0.0, delay: 0.0,
//! };
//! let mut buf = high_speed_buffer(&BufferParams::default(), sine);
//! let op = dc_operating_point(&mut buf, &Default::default())?;
//! let opts = TranOptions {
//!     dt: 2.0e-11,
//!     t_stop: 4.0e-10,
//!     snapshot_every: Some(10),
//! };
//! let result = transient(&mut buf, &op, &opts)?;
//! assert!(!result.snapshots.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ac;
mod circuits;
mod dc;
pub mod devices;
mod error;
mod netlist;
mod newton;
pub mod parser;
mod snapshot;
mod transient;
mod waveform;

pub use ac::{ac_sweep, transfer_at, transfer_sweep, ReducedTransfer};
pub use circuits::{diode_clipper, high_speed_buffer, rc_ladder, transistor_count, BufferParams};
pub use dc::{dc_operating_point, DcOptions};
pub use error::CircuitError;
pub use netlist::{Circuit, MnaEval};
pub use parser::parse_netlist;
pub use snapshot::JacobianSnapshot;
pub use transient::{transient, TranOptions, TranResult};
pub use waveform::{prbs7, Waveform};
