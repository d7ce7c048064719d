//! The end-to-end extraction pipeline: netlist → TFT → RVF →
//! analytical Hammerstein model (paper Fig. 1).

use std::time::Instant;

use rvf_circuit::{Circuit, TranResult};
use rvf_tft::{extract_from_circuit, TftConfig, TftDataset};

use crate::error::RvfError;
use crate::hammerstein::{build_hammerstein, BuildDiagnostics, HammersteinModel};
use crate::rvf::{fit_frequency_stage, RvfOptions};

/// The result of an extraction: the model plus everything needed to
/// reproduce the paper's evaluation.
#[derive(Debug, Clone)]
pub struct ExtractionReport {
    /// The extracted analytical model.
    pub model: HammersteinModel,
    /// Fit diagnostics (pole counts, per-stage errors).
    pub diagnostics: BuildDiagnostics,
    /// Wall-clock model build time in seconds (Table I "Build Time"),
    /// excluding the training simulation.
    pub build_seconds: f64,
}

/// Fits a Hammerstein model to an existing TFT dataset.
///
/// # Errors
///
/// Propagates fitting failures. A stage that misses `ε` within its pole
/// budget keeps its best fit; the report's diagnostics give the error it
/// reached.
pub fn fit_tft(dataset: &TftDataset, opts: &RvfOptions) -> Result<ExtractionReport, RvfError> {
    let start = Instant::now();
    let s_grid = dataset.s_grid();
    let dynamic = dataset.dynamic_responses();
    let freq_stage = fit_frequency_stage(&s_grid, &dynamic, opts)?;
    let (model, diagnostics) = build_hammerstein(dataset, &freq_stage, opts)?;
    Ok(ExtractionReport { model, diagnostics, build_seconds: start.elapsed().as_secs_f64() })
}

/// Full flow from a circuit: DC + training transient + TFT transform +
/// RVF fit. Returns the report with the dataset and raw training
/// transient for validation plots.
///
/// # Errors
///
/// Propagates circuit, TFT and fitting failures.
pub fn extract_model(
    circuit: &mut Circuit,
    tft_cfg: &TftConfig,
    opts: &RvfOptions,
) -> Result<(ExtractionReport, TftDataset, TranResult), RvfError> {
    let (dataset, tran) = extract_from_circuit(circuit, tft_cfg)?;
    let report = fit_tft(&dataset, opts)?;
    Ok((report, dataset, tran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_circuit::{rc_ladder, Waveform};
    use rvf_numerics::Complex;

    #[test]
    fn linear_rc_extraction_reproduces_transfer() {
        // One-section RC: H(s) = 1/(1+sRC) — the extracted model must
        // match it across the grid and at every state.
        let r = 1.0e3;
        let c = 1.0e-9;
        let mut ckt = rc_ladder(
            1,
            r,
            c,
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.4,
                freq_hz: 1.0e4,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        let cfg = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e7,
            n_freqs: 40,
            t_train: 1.0e-4,
            steps: 600,
            n_snapshots: 60,
            embed_depth: 1,
            threads: 2,
        };
        let opts = RvfOptions { epsilon: 1e-4, ..Default::default() };
        let (report, dataset, _tran) = extract_model(&mut ckt, &cfg, &opts).unwrap();
        assert!(report.diagnostics.freq_rel_error <= 1e-4);
        let rc = r * c;
        for sample in dataset.samples.iter().step_by(7) {
            for (f, _h) in dataset.freqs_hz.iter().zip(&sample.h).step_by(5) {
                let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
                let want = (Complex::ONE + s.scale(rc)).inv();
                let got = report.model.transfer(sample.state, s);
                assert!(
                    (got - want).abs() < 5e-3,
                    "at x={}, f={f:.2e}: {got:?} vs {want:?}",
                    sample.state
                );
            }
        }
        // Static path reproduces y = u (unity DC gain RC).
        for &u in &[0.2, 0.5, 0.8] {
            assert!((report.model.static_output(u) - u).abs() < 5e-3);
        }
        assert!(report.build_seconds >= 0.0);
    }

    #[test]
    fn rc_model_time_domain_tracks_circuit() {
        use rvf_circuit::{dc_operating_point, transient, DcOptions, TranOptions};
        let r = 1.0e3;
        let c = 1.0e-9;
        let train = Waveform::Sine {
            offset: 0.5,
            amplitude: 0.4,
            freq_hz: 1.0e4,
            phase_rad: 0.0,
            delay: 0.0,
        };
        let mut ckt = rc_ladder(1, r, c, train);
        let cfg = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e7,
            n_freqs: 40,
            t_train: 1.0e-4,
            steps: 600,
            n_snapshots: 60,
            embed_depth: 1,
            threads: 2,
        };
        let opts = RvfOptions { epsilon: 1e-4, ..Default::default() };
        let (report, ..) = extract_model(&mut ckt, &cfg, &opts).unwrap();

        // Validate on a different waveform: a 100 kHz square-ish pulse.
        let test = Waveform::Pulse {
            v0: 0.2,
            v1: 0.8,
            delay: 1.0e-6,
            rise: 1.0e-7,
            fall: 1.0e-7,
            width: 4.0e-6,
            period: 1.0e-5,
        };
        let mut ckt2 = rc_ladder(1, r, c, test.clone());
        let op = dc_operating_point(&mut ckt2, &DcOptions::default()).unwrap();
        let dt = 2.0e-8;
        let t_stop = 3.0e-5;
        let tran =
            transient(&mut ckt2, &op, &TranOptions { dt, t_stop, ..Default::default() }).unwrap();
        let y_model = report.model.simulate(dt, &tran.inputs);
        let err = rvf_numerics::nrmse(&tran.outputs, &y_model);
        assert!(err < 0.02, "time-domain nrmse {err}");
    }
}
