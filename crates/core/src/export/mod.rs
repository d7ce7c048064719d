//! Model export: portable representations of the extracted equations.
//!
//! The paper's closing claim is that the RVF model "can be exported to
//! almost any mathematical software package or behavioral description
//! language" (the authors emit VHDL-AMS from Matlab). This module
//! provides three concrete targets:
//!
//! * [`text`] — a lossless, versioned plain-text serialization with a
//!   parser (round-trips through [`text::encode`]/[`text::decode`]);
//! * [`verilog_a`] — a Verilog-A behavioral module (the open analog HDL
//!   closest to the paper's VHDL-AMS target);
//! * [`matlab`] — a MATLAB function implementing the model equations for
//!   `ode45`-style integration.

pub(crate) mod matlab;
pub mod text;
pub(crate) mod verilog_a;
