//! Error type for the circuit simulator.

use core::fmt;

use rvf_numerics::NumericsError;

/// Errors produced by netlist construction, parsing and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A device referenced a node that was never declared.
    UnknownNode {
        /// Name of the missing node.
        name: String,
    },
    /// A device name was used twice.
    DuplicateDevice {
        /// The repeated name.
        name: String,
    },
    /// The requested input source does not exist or is not a source.
    InvalidInput {
        /// Name of the offending device.
        name: String,
    },
    /// A current-controlled source (CCCS/CCVS) referenced a controlling
    /// device that does not exist or carries no branch current.
    InvalidControl {
        /// Name of the controlled device.
        name: String,
        /// Name of the missing/branchless controlling device.
        control: String,
    },
    /// Newton iteration failed to converge.
    NewtonDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Residual infinity-norm at the last iterate.
        residual: f64,
        /// Simulation time at the failure (NaN for DC).
        time: f64,
    },
    /// The netlist text could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The circuit has no input or no output configured for analysis
    /// that needs them.
    MissingPort {
        /// `"input"` or `"output"`.
        which: &'static str,
    },
    /// An underlying numerical kernel failed.
    Numerics(NumericsError),
    /// An analysis was configured with an unusable option value (e.g. a
    /// non-positive or non-finite `dt`/`t_stop`).
    BadAnalysisOptions {
        /// Description of the rejected option.
        message: String,
    },
    /// An initial-state vector's length does not match the circuit's
    /// MNA dimension.
    StateSizeMismatch {
        /// The circuit's MNA dimension.
        expected: usize,
        /// Length of the vector that was passed.
        got: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode { name } => write!(f, "unknown node '{name}'"),
            Self::DuplicateDevice { name } => write!(f, "duplicate device name '{name}'"),
            Self::InvalidInput { name } => {
                write!(f, "device '{name}' cannot serve as the circuit input")
            }
            Self::InvalidControl { name, control } => {
                write!(
                    f,
                    "device '{name}' needs the branch current of '{control}', which does not \
                     exist or has no branch unknown"
                )
            }
            Self::NewtonDiverged { iterations, residual, time } => {
                if time.is_nan() {
                    write!(f, "dc newton diverged after {iterations} iterations (residual {residual:.3e})")
                } else {
                    write!(
                        f,
                        "transient newton diverged at t={time:.3e}s after {iterations} iterations (residual {residual:.3e})"
                    )
                }
            }
            Self::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            Self::MissingPort { which } => write!(f, "circuit has no {which} configured"),
            Self::Numerics(e) => write!(f, "numerical kernel failed: {e}"),
            Self::BadAnalysisOptions { message } => {
                write!(f, "bad analysis options: {message}")
            }
            Self::StateSizeMismatch { expected, got } => {
                write!(f, "initial state has {got} entries, circuit dimension is {expected}")
            }
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericsError> for CircuitError {
    fn from(e: NumericsError) -> Self {
        Self::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CircuitError::UnknownNode { name: "vdd".into() };
        assert!(e.to_string().contains("vdd"));
        let e = CircuitError::NewtonDiverged { iterations: 50, residual: 1.0, time: f64::NAN };
        assert!(e.to_string().contains("dc newton"));
        let e = CircuitError::NewtonDiverged { iterations: 50, residual: 1.0, time: 1e-9 };
        assert!(e.to_string().contains("transient"));
        let e = CircuitError::Parse { line: 3, message: "bad token".into() };
        assert!(e.to_string().contains("line 3"));
        let e = CircuitError::BadAnalysisOptions { message: "dt must be positive".into() };
        assert!(e.to_string().contains("dt must be positive"));
        let e = CircuitError::StateSizeMismatch { expected: 4, got: 2 };
        assert!(e.to_string().contains("4"));
    }
}
