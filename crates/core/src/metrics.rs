//! Evaluation metrics for Table I: time-domain accuracy and speedup.

use std::time::Instant;

/// Time-domain comparison between a reference waveform (transistor-level
/// simulation) and a model output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeDomainReport {
    /// Absolute RMS error.
    pub(crate) rmse: f64,
    /// RMS error normalized by the reference peak-to-peak swing — the
    /// paper's Table I "Time Domain RMSE" convention (≈ 0.0098 for RVF).
    pub nrmse: f64,
    /// RMS error in dB relative to the swing.
    pub nrmse_db: f64,
    /// Worst-case absolute error.
    pub max_abs: f64,
}

/// Computes the time-domain error report.
///
/// # Panics
///
/// Panics if the waveform lengths differ.
pub fn time_domain_report(reference: &[f64], model: &[f64]) -> TimeDomainReport {
    let rmse = rvf_numerics::rmse(reference, model);
    let nrmse = rvf_numerics::nrmse(reference, model);
    TimeDomainReport {
        rmse,
        nrmse,
        nrmse_db: rvf_numerics::db20(nrmse.max(1e-30)),
        max_abs: rvf_numerics::max_abs_err(reference, model),
    }
}

/// Wall-clock speedup measurement: reference (SPICE) versus model
/// evaluation of the same stimulus (Table I "Speedup").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Seconds for the transistor-level reference.
    pub reference_seconds: f64,
    /// Seconds for the model evaluation.
    pub model_seconds: f64,
    /// `reference_seconds / model_seconds`.
    pub factor: f64,
}

/// Times two closures and reports the speedup of the second relative to
/// the first. Each closure runs `repeat` times; the minimum time is used
/// (robust against scheduler noise).
pub fn measure_speedup(
    mut reference: impl FnMut(),
    mut model: impl FnMut(),
    repeat: usize,
) -> Speedup {
    let repeat = repeat.max(1);
    let time_of = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeat {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let reference_seconds = time_of(&mut reference);
    let model_seconds = time_of(&mut model);
    Speedup {
        reference_seconds,
        model_seconds,
        factor: reference_seconds / model_seconds.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_values() {
        let r = [0.0, 1.0, 0.0, 1.0];
        let m = [0.1, 1.1, 0.1, 1.1];
        let rep = time_domain_report(&r, &m);
        assert!((rep.rmse - 0.1).abs() < 1e-12);
        assert!((rep.nrmse - 0.1).abs() < 1e-12);
        assert!((rep.nrmse_db + 20.0).abs() < 1e-9);
        assert!((rep.max_abs - 0.1).abs() < 1e-12);
    }

    #[test]
    fn speedup_measures_work_ratio() {
        // Busy loops with a 10:1 work ratio (coarse check: factor > 2).
        let s = measure_speedup(
            || {
                let mut acc = 0.0_f64;
                for i in 0..200_000 {
                    acc += (i as f64).sqrt();
                }
                std::hint::black_box(acc);
            },
            || {
                let mut acc = 0.0_f64;
                for i in 0..20_000 {
                    acc += (i as f64).sqrt();
                }
                std::hint::black_box(acc);
            },
            3,
        );
        assert!(s.factor > 2.0, "factor {}", s.factor);
        assert!(s.reference_seconds > 0.0 && s.model_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let _ = time_domain_report(&[1.0], &[1.0, 2.0]);
    }
}
