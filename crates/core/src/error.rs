//! Error type for model extraction.

use core::fmt;

use rvf_circuit::CircuitError;
use rvf_numerics::NumericsError;
use rvf_tft::TftError;
use rvf_vecfit::VecfitError;

use crate::serving::ServingError;

/// Errors produced by the RVF extraction pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RvfError {
    /// A pole-growth loop was given no pole count to try: its starting
    /// count exceeds its maximum.
    EmptyPoleBudget {
        /// Which stage (`"frequency"` or `"state"`).
        stage: &'static str,
        /// Starting pole count.
        start: usize,
        /// Maximum pole count.
        max: usize,
    },
    /// The dataset has too few state points for the recursion.
    TooFewStates {
        /// States available.
        got: usize,
        /// Minimum required.
        needed: usize,
    },
    /// A model text serialization could not be parsed.
    Decode {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// Frequency- or state-axis vector fitting failed.
    Vecfit(VecfitError),
    /// TFT extraction failed.
    Tft(TftError),
    /// Circuit simulation failed.
    Circuit(CircuitError),
    /// Numerical kernel failure.
    Numerics(NumericsError),
    /// The compiled serving runtime rejected a request.
    Serving(ServingError),
}

impl fmt::Display for RvfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPoleBudget { stage, start, max } => {
                write!(f, "{stage} pole budget is empty: start {start} exceeds max {max}")
            }
            Self::TooFewStates { got, needed } => {
                write!(f, "dataset has {got} state points, need at least {needed}")
            }
            Self::Decode { line, message } => {
                write!(f, "model decode error at line {line}: {message}")
            }
            Self::Vecfit(e) => write!(f, "vector fitting failed: {e}"),
            Self::Tft(e) => write!(f, "tft extraction failed: {e}"),
            Self::Circuit(e) => write!(f, "circuit analysis failed: {e}"),
            Self::Numerics(e) => write!(f, "numerical kernel failed: {e}"),
            Self::Serving(e) => write!(f, "serving runtime failed: {e}"),
        }
    }
}

impl std::error::Error for RvfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Vecfit(e) => Some(e),
            Self::Tft(e) => Some(e),
            Self::Circuit(e) => Some(e),
            Self::Numerics(e) => Some(e),
            Self::Serving(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VecfitError> for RvfError {
    fn from(e: VecfitError) -> Self {
        Self::Vecfit(e)
    }
}

impl From<TftError> for RvfError {
    fn from(e: TftError) -> Self {
        Self::Tft(e)
    }
}

impl From<CircuitError> for RvfError {
    fn from(e: CircuitError) -> Self {
        Self::Circuit(e)
    }
}

impl From<NumericsError> for RvfError {
    fn from(e: NumericsError) -> Self {
        Self::Numerics(e)
    }
}

impl From<ServingError> for RvfError {
    fn from(e: ServingError) -> Self {
        Self::Serving(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_chaining() {
        use std::error::Error;
        let e = RvfError::EmptyPoleBudget { stage: "state", start: 4, max: 2 };
        assert!(e.to_string().contains("state"));
        assert!(e.source().is_none());
        let e = RvfError::from(VecfitError::EmptyData);
        assert!(e.source().is_some());
        let e = RvfError::from(ServingError::BadDt { dt: 0.0 });
        assert!(e.to_string().contains("serving"));
        assert!(e.source().is_some());
    }
}
