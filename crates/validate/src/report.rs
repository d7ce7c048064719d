//! Typed accuracy reports and the contracts that gate them.

/// Time-domain accuracy of a model waveform against a circuit-level
/// oracle, with a settling-window breakdown.
///
/// All `*_norm`/`nrmse` figures are normalized by the oracle's
/// peak-to-peak swing — the paper's Table I convention — so contracts
/// transfer between circuits with different signal levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Number of compared samples.
    pub n_samples: usize,
    /// Peak-to-peak swing of the oracle waveform.
    pub swing: f64,
    /// Absolute RMS error over the full window.
    pub(crate) rmse: f64,
    /// Swing-normalized RMS error over the full window.
    pub nrmse: f64,
    /// Worst-case absolute error over the full window.
    pub(crate) max_abs: f64,
    /// Worst-case error normalized by the swing (per-sample bound).
    pub max_abs_norm: f64,
    /// First sample index of the settled window.
    pub(crate) settle_split: usize,
    /// Swing-normalized RMS error over the initial settling window
    /// `[0, settle_split)` — model state ramps from zero here.
    pub(crate) settling_nrmse: f64,
    /// Swing-normalized RMS error over the settled window
    /// `[settle_split, n)`.
    pub settled_nrmse: f64,
}

impl AccuracyReport {
    /// Compares a model waveform against the oracle, splitting the
    /// window at `settle_frac` (clamped to `[0, 1]`) of the samples.
    ///
    /// # Panics
    ///
    /// Panics if the waveforms are empty or differ in length.
    pub fn compare(oracle: &[f64], model: &[f64], settle_frac: f64) -> Self {
        assert_eq!(oracle.len(), model.len(), "accuracy compare needs equal-length waveforms");
        assert!(!oracle.is_empty(), "accuracy compare needs at least one sample");
        let n = oracle.len();
        let split = ((n as f64) * settle_frac.clamp(0.0, 1.0)) as usize;
        let split = split.min(n.saturating_sub(1));
        let lo = oracle.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = oracle.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let swing = (hi - lo).max(1e-30);
        let rmse = rvf_numerics::rmse(oracle, model);
        let max_abs = rvf_numerics::max_abs_err(oracle, model);
        let window_rms = |a: &[f64], b: &[f64]| -> f64 {
            if a.is_empty() {
                0.0
            } else {
                rvf_numerics::rmse(a, b)
            }
        };
        let settling = window_rms(&oracle[..split], &model[..split]) / swing;
        let settled = window_rms(&oracle[split..], &model[split..]) / swing;
        Self {
            n_samples: n,
            swing,
            rmse,
            nrmse: rmse / swing,
            max_abs,
            max_abs_norm: max_abs / swing,
            settle_split: split,
            settling_nrmse: settling,
            settled_nrmse: settled,
        }
    }
}

/// Accuracy bounds a zoo family must satisfy. Every bound is normalized
/// by the oracle swing (see [`AccuracyReport`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyContract {
    /// Bound on [`AccuracyReport::nrmse`].
    pub max_nrmse: f64,
    /// Bound on [`AccuracyReport::max_abs_norm`].
    pub max_abs_norm: f64,
    /// Bound on [`AccuracyReport::settled_nrmse`].
    pub max_settled_nrmse: f64,
}

/// One contract bound the measured report exceeded.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the violated metric (`"nrmse"`, …).
    pub metric: &'static str,
    /// The measured value.
    pub(crate) measured: f64,
    /// The contract bound.
    pub(crate) bound: f64,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: measured {:.3e} exceeds bound {:.3e}",
            self.metric, self.measured, self.bound
        )
    }
}

impl AccuracyContract {
    /// Checks a report against the contract; an empty vector means the
    /// contract holds.
    // `!(measured <= bound)` counts a NaN metric as a violation.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check(&self, report: &AccuracyReport) -> Vec<Violation> {
        let mut v = Vec::new();
        let mut gate = |metric: &'static str, measured: f64, bound: f64| {
            if !(measured <= bound) {
                v.push(Violation { metric, measured, bound });
            }
        };
        gate("nrmse", report.nrmse, self.max_nrmse);
        gate("max_abs_norm", report.max_abs_norm, self.max_abs_norm);
        gate("settled_nrmse", report.settled_nrmse, self.max_settled_nrmse);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_windows_and_normalization() {
        // Oracle swings 0..2; model off by 0.2 in the first half only.
        let oracle = vec![0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0];
        let model = vec![0.2, 2.2, 0.2, 2.2, 0.0, 2.0, 0.0, 2.0];
        let r = AccuracyReport::compare(&oracle, &model, 0.5);
        assert_eq!(r.n_samples, 8);
        assert_eq!(r.settle_split, 4);
        assert!((r.swing - 2.0).abs() < 1e-12);
        assert!((r.max_abs - 0.2).abs() < 1e-12);
        assert!((r.max_abs_norm - 0.1).abs() < 1e-12);
        assert!((r.settling_nrmse - 0.1).abs() < 1e-12);
        assert!(r.settled_nrmse.abs() < 1e-12);
        assert!((r.nrmse - 0.1 / core::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn contract_flags_each_metric() {
        let oracle = vec![0.0, 1.0, 0.0, 1.0];
        let model = vec![0.1, 1.1, 0.1, 1.1];
        let r = AccuracyReport::compare(&oracle, &model, 0.25);
        let ok = AccuracyContract { max_nrmse: 0.2, max_abs_norm: 0.2, max_settled_nrmse: 0.2 };
        assert!(ok.check(&r).is_empty());
        let tight = AccuracyContract { max_nrmse: 0.05, max_abs_norm: 0.2, max_settled_nrmse: 0.2 };
        let v = tight.check(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "nrmse");
        assert!(v[0].to_string().contains("exceeds"));
        let all = AccuracyContract { max_nrmse: 0.0, max_abs_norm: 0.0, max_settled_nrmse: 0.0 };
        assert_eq!(all.check(&r).len(), 3);
    }

    #[test]
    fn nan_model_output_violates() {
        // NaN comparisons must fail closed, not pass silently.
        let oracle = vec![0.0, 1.0];
        let model = vec![f64::NAN, 1.0];
        let r = AccuracyReport::compare(&oracle, &model, 0.0);
        let c = AccuracyContract { max_nrmse: 1.0, max_abs_norm: 1.0, max_settled_nrmse: 1.0 };
        assert!(!c.check(&r).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let _ = AccuracyReport::compare(&[1.0], &[1.0, 2.0], 0.2);
    }
}
