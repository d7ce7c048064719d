//! # rvf-core
//!
//! Reproduction of *Extracting Analytical Nonlinear Models from Analog
//! Circuits by Recursive Vector Fitting of Transfer Function
//! Trajectories* (De Jonghe, Deschrijver, Dhaene, Gielen — DATE 2013).
//!
//! The crate implements the paper's contribution on top of the
//! workspace substrates:
//!
//! 1. **TFT data** (from [`rvf_tft`]) — state-dependent frequency
//!    responses sampled from circuit Jacobians;
//! 2. **RVF** ([`fit_frequency_stage`], [`fit_state_stage`]) — common-pole vector fitting along the frequency
//!    axis, then *recursive* vector fitting of every state-dependent
//!    residue trajectory in the state variable, with automatic pole
//!    count selection against an error bound `ε`. One common state-pole
//!    set serves all of a model's residues and its static gain (the
//!    paper fits each residue with poles of its own);
//! 3. **Analytic integration** ([`StateFn`]) — each fitted state
//!    function and its log-form closed-form primitive (paper eq. 19),
//!    from one set of terms, which make the Hammerstein static stages
//!    automatic;
//! 4. **The Hammerstein model** ([`HammersteinModel`]) — stable-by-
//!    construction parallel structure with exact-exponential simulation,
//!    generic over its state stage ([`Stage`], [`Primitive`]) so the
//!    CAFFEINE baseline shares its topology, reference loop and lowering;
//! 5. **Export** ([`text`], [`to_verilog_a`], [`to_matlab`]) — lossless
//!    text serialization, Verilog-A and MATLAB code generation;
//! 6. **Serving** ([`serving`]) — the compiled evaluation runtime behind
//!    [`HammersteinModel::simulate`]:
//!    models lowered to flat shared-basis tables, evaluated through
//!    three entries: one-shot [`CompiledSim::simulate`], one resumable
//!    [`SimState`] per [`CompiledSim::simulate_into`] call, and
//!    [`CompiledSim::advance_chunks`] for many states over a pool.
//!
//! # Examples
//!
//! End-to-end extraction on the paper's buffer test vehicle:
//!
//! ```no_run
//! use rvf_circuit::{high_speed_buffer, BufferParams, Waveform};
//! use rvf_core::{extract_model, RvfOptions};
//! use rvf_tft::TftConfig;
//!
//! # fn main() -> Result<(), rvf_core::RvfError> {
//! let sine = Waveform::Sine {
//!     offset: 0.9, amplitude: 0.5, freq_hz: 5.0e7, phase_rad: 0.0, delay: 0.0,
//! };
//! let mut buffer = high_speed_buffer(&BufferParams::default(), sine);
//! let (report, dataset, _train) =
//!     extract_model(&mut buffer, &TftConfig::default(), &RvfOptions::default())?;
//! println!(
//!     "extracted {} frequency poles, TFT error {:.1e}",
//!     report.diagnostics.n_freq_poles, report.diagnostics.freq_rel_error
//! );
//! let _surface = dataset.s_grid();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod export;
mod hammerstein;
mod integrated;
mod metrics;
mod pipeline;
mod recursive;
mod rvf;
pub mod serving;

pub use error::RvfError;
pub use export::{matlab::to_matlab, text, verilog_a::to_verilog_a};
pub use hammerstein::{
    build_hammerstein, stage_trajectories, BuildDiagnostics, DynBlock, HammersteinModel, Primitive,
    Stage,
};
pub use integrated::{LogTerm, StateFn};
pub use metrics::{measure_speedup, time_domain_report, Speedup, TimeDomainReport};
pub use pipeline::{extract_model, fit_tft, ExtractionReport};
pub use recursive::{fit_recursive_2d, Rvf2d};
pub use rvf::{fit_frequency_stage, fit_state_stage, RvfOptions, StageFit};
pub use serving::{
    CheckpointView, CompiledSim, ServingError, SessionChunk, SimBuilder, SimState, StateCheckpoint,
};
