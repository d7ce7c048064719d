//! Compiled serving runtime for extracted Hammerstein models.
//!
//! [`HammersteinModel::simulate`](crate::HammersteinModel::simulate) is
//! the deployment hot path (the paper's Table I "Speedup" is a claim
//! about *evaluation* cost). The runtime lowers a model **once** into
//! flat structure-of-arrays tables ([`SimBuilder`] → [`CompiledSim`],
//! see `compile.rs`) and then runs one kernel, `advance`, over one
//! [`SimState`] at a time. Three entries lead into it:
//!
//! * [`CompiledSim::simulate`] — one-shot: one stimulus in, one output
//!   vector out, sample-for-sample equal to
//!   [`HammersteinModel::simulate_reference`](crate::HammersteinModel::simulate_reference)
//!   under `f64` comparison;
//! * [`CompiledSim::simulate_into`] — one caller-owned [`SimState`]
//!   advanced by one chunk, checked and allocation-free. A stimulus fed
//!   in N chunks produces exactly the bits of the one-shot call;
//!   `clone` (or [`SimState::export`] /
//!   [`CompiledSim::import_state`]) checkpoints and resumes;
//! * [`CompiledSim::advance_chunks`] — many states advanced one chunk
//!   each as one transactional round on a caller-owned
//!   [`SweepPool`](rvf_numerics::SweepPool) (a local one-worker pool
//!   when none is given). A batch is a round over fresh states. The
//!   model carries no thread setting, and the module holds no global
//!   state.
//!
//! The kernel steps a held run of bit-equal input samples (the flat
//! stretches of a bit pattern) with its drives and per-block input
//! terms computed once for the run, and re-evaluates the drives only
//! for a sample whose bits changed.
//!
//! Every kernel expression reproduces the reference loop's operation
//! order, so compiled output equals the reference sample-for-sample
//! (`f64` `==`), a round's output is bit-identical to per-state serial
//! calls for every worker count, and chunked output is bit-identical to
//! one-shot evaluation for every chunk split.
//!
//! The checked entries ([`CompiledSim::simulate_into`],
//! [`CompiledSim::advance_chunks`]) run one per-chunk check and never
//! panic: invalid steps, foreign states, mis-sized buffers, non-finite
//! samples and mid-round worker panics all surface as a typed
//! [`ServingError`], with no state touched.

pub(crate) mod compile;
pub(crate) mod session;
pub(crate) mod state;

pub use compile::{CompiledSim, SimBuilder};
pub use session::SessionChunk;
pub use state::{CheckpointView, SimState, StateCheckpoint};

use core::fmt;

use rvf_numerics::Complex;

/// Errors produced by the checked serving APIs.
///
/// The serving layer's contract is that the *checked* entry points
/// ([`CompiledSim::simulate_into`], [`CompiledSim::advance_chunks`],
/// [`SimBuilder::try_build`]) never panic: every data-dependent
/// failure — including a worker panic inside a pooled round — comes
/// back as one of these variants.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServingError {
    /// The sample step is not a finite positive number.
    BadDt {
        /// The rejected step.
        dt: f64,
    },
    /// A block (or the static path) references a drive row that was
    /// never registered with the builder.
    BadDrive {
        /// The out-of-range drive row id.
        drive: usize,
        /// Number of registered drive rows.
        n_drives: usize,
    },
    /// [`SimBuilder::set_static_drive`] was never called.
    MissingStaticDrive,
    /// A rational drive row has a log-term pole that is not finite or
    /// lies on the real axis, where `ln(u − x̃)` is singular on the
    /// input axis.
    BadLogPole {
        /// The drive row.
        drive: usize,
        /// The rejected pole.
        pole: Complex,
    },
    /// A stimulus chunk contains a non-finite (NaN or ±∞) sample.
    ///
    /// Checked by [`CompiledSim::simulate_into`] and
    /// [`CompiledSim::advance_chunks`] *before* any state is touched: a
    /// NaN sample would otherwise poison the first-order-hold registers
    /// and every later checkpoint silently.
    BadStimulus {
        /// Position of the offending sample within its chunk.
        index: usize,
        /// The rejected sample value.
        value: f64,
    },
    /// An output buffer's length does not match its stimulus chunk.
    OutputMismatch {
        /// Required length (the chunk length).
        expected: usize,
        /// Length of the buffer that was passed.
        got: usize,
    },
    /// A [`SimState`] was created by (or for) a different model shape
    /// than the [`CompiledSim`] it was handed to.
    StateMismatch,
    /// A worker panicked mid-batch. The round is aborted (no partial
    /// results are applied) and the pool stays usable.
    WorkerPanicked {
        /// Slot of the worker whose task panicked.
        worker: usize,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadDt { dt } => {
                write!(f, "serving: dt must be finite and positive, got {dt}")
            }
            Self::BadDrive { drive, n_drives } => {
                write!(f, "SimBuilder: block drive row {drive} out of range ({n_drives} rows)")
            }
            Self::MissingStaticDrive => write!(f, "SimBuilder: static drive row not set"),
            Self::BadLogPole { drive, pole } => {
                write!(f, "SimBuilder: drive row {drive}: log pole {pole} is real or not finite")
            }
            Self::BadStimulus { index, value } => {
                write!(f, "serving: stimulus sample {index} is not finite ({value})")
            }
            Self::OutputMismatch { expected, got } => {
                write!(f, "serving: output buffer holds {got} samples, chunk needs {expected}")
            }
            Self::StateMismatch => {
                write!(f, "serving: SimState does not match this CompiledSim's shape")
            }
            Self::WorkerPanicked { worker } => {
                write!(f, "serving: batch worker {worker} panicked mid-round")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Whether `dt` is usable as a sample step (finite and strictly
/// positive) — the predicate behind [`check_dt`] and the
/// `debug_assert!` of the unchecked [`CompiledSim::simulate`].
pub(crate) fn dt_ok(dt: f64) -> bool {
    dt.is_finite() && dt > 0.0
}

/// Validates a sample step once per checked call.
pub(crate) fn check_dt(dt: f64) -> Result<(), ServingError> {
    if dt_ok(dt) {
        Ok(())
    } else {
        Err(ServingError::BadDt { dt })
    }
}

/// Rejects non-finite stimulus samples before any state is mutated —
/// the guard behind [`ServingError::BadStimulus`]. One linear scan per
/// chunk; the kernel itself is branch-free on the value.
pub(crate) fn check_stimulus(chunk: &[f64]) -> Result<(), ServingError> {
    for (index, &value) in chunk.iter().enumerate() {
        if !value.is_finite() {
            return Err(ServingError::BadStimulus { index, value });
        }
    }
    Ok(())
}

/// Shared fixtures for the serving unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::{CompiledSim, SimBuilder};
    use crate::StateFn;

    /// One real block `ẏ = a·y + slope·u` behind a zero static path —
    /// the smallest model that exercises the full kernel (drive memo,
    /// DC seed, FOH step, emit).
    pub(crate) fn linear_real_sim(a: f64, slope: f64) -> CompiledSim {
        let mut b = SimBuilder::new();
        let zero = b.drive_poly(&[0.0]);
        b.set_static_drive(zero);
        let f = b.drive_rational(&StateFn { terms: vec![], linear: slope, constant: 0.0 });
        b.block_real(a, f);
        b.try_build().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dt_predicate() {
        assert!(dt_ok(1.0e-12));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!dt_ok(bad), "{bad}");
            assert!(matches!(check_dt(bad), Err(ServingError::BadDt { .. })), "{bad}");
        }
        assert_eq!(check_dt(2.0e-9), Ok(()));
    }

    #[test]
    fn stimulus_predicate_reports_first_bad_sample() {
        assert_eq!(check_stimulus(&[]), Ok(()));
        assert_eq!(check_stimulus(&[0.0, -1.0e300, 1.0e-300]), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = check_stimulus(&[1.0, bad, f64::NAN]).unwrap_err();
            assert!(matches!(err, ServingError::BadStimulus { index: 1, .. }), "{bad}: {err:?}");
        }
    }

    #[test]
    fn display_formats() {
        assert!(ServingError::BadDt { dt: f64::NAN }.to_string().contains("finite"));
        assert!(ServingError::BadDrive { drive: 7, n_drives: 2 }
            .to_string()
            .contains("out of range"));
        assert!(ServingError::MissingStaticDrive.to_string().contains("static drive row not set"));
        assert!(ServingError::BadLogPole { drive: 2, pole: Complex::new(0.5, 0.0) }
            .to_string()
            .contains("real or not finite"));
        assert!(ServingError::BadStimulus { index: 3, value: f64::NAN }
            .to_string()
            .contains("not finite"));
        assert!(ServingError::OutputMismatch { expected: 4, got: 3 }.to_string().contains("4"));
        assert!(ServingError::StateMismatch.to_string().contains("SimState"));
        assert!(ServingError::WorkerPanicked { worker: 1 }.to_string().contains("panicked"));
    }
}
