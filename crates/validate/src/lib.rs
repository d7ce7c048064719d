//! # rvf-validate
//!
//! Circuit zoo + golden validation harness: accuracy contracts for
//! every extraction scenario the workspace supports.
//!
//! The paper's validation story is a single test vehicle (the 27-
//! transistor buffer, §IV). This crate generalizes it into a *zoo* of
//! parameterized circuit families — RC/RLC ladders, diode-clipper
//! variants, MOSFET square-law stages, controlled-source networks and
//! subcircuit-structured decks — each expressed as netlist text and
//! pushed through the complete pipeline:
//!
//! ```text
//! netlist → DC → training transient → TFT → RVF → compiled model
//!                                      │
//! netlist → DC → validation transient ─┴→ AccuracyReport vs contract
//! ```
//!
//! Every family carries a committed [`AccuracyContract`]
//! (`contracts/zoo.json`): swing-normalized RMS and per-sample bounds
//! plus a settling-window breakdown. The `zoo` binary runs the whole
//! corpus, writes a JSON report artifact and exits nonzero on any
//! contract violation — the repo's regression gate against silently
//! degrading extraction accuracy.
//!
//! ```no_run
//! use rvf_validate::{builtin_contracts, run_zoo, zoo, DEFAULT_SEED};
//!
//! let gated = run_zoo(&zoo(DEFAULT_SEED), &builtin_contracts()).unwrap();
//! assert!(gated.iter().all(|g| g.violations.is_empty()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod json;
mod report;
mod runner;
pub mod zoo;

pub use json::Json;
pub use report::{AccuracyContract, AccuracyReport, Violation};
pub use runner::{
    builtin_contracts, report_json, run_family, run_zoo, FamilyRun, GatedRun, ZooError,
};
pub use zoo::{zoo, ZooFamily, DEFAULT_SEED};
