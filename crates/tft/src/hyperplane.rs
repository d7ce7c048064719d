//! Gain/phase hyperplanes over (state × frequency) and error surfaces —
//! the quantities plotted in the paper's Figs. 6–8.

use rvf_numerics::{db20, unwrap_phase, Complex, Mat};

use crate::dataset::TftDataset;

/// A gain/phase surface over the (state, frequency) grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    /// State axis values (sorted ascending).
    pub states: Vec<f64>,
    /// Frequency axis (hertz).
    pub freqs_hz: Vec<f64>,
    /// Gain in dB, `K × L`.
    pub gain_db: Mat,
    /// Phase in degrees (unwrapped along frequency), `K × L`.
    pub phase_deg: Mat,
}

impl Hyperplane {
    /// Builds the hyperplane from complex response rows (`K × L`).
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent.
    pub(crate) fn from_responses(
        states: Vec<f64>,
        freqs_hz: Vec<f64>,
        responses: &[Vec<Complex>],
    ) -> Self {
        let k = states.len();
        let l = freqs_hz.len();
        assert_eq!(responses.len(), k, "row count mismatch");
        let mut gain_db = Mat::zeros(k, l);
        let mut phase_deg = Mat::zeros(k, l);
        for (ki, row) in responses.iter().enumerate() {
            assert_eq!(row.len(), l, "column count mismatch");
            let mut phases: Vec<f64> = row.iter().map(|h| h.arg()).collect();
            unwrap_phase(&mut phases);
            for (li, (h, ph)) in row.iter().zip(&phases).enumerate() {
                gain_db[(ki, li)] = db20(h.abs());
                phase_deg[(ki, li)] = ph.to_degrees();
            }
        }
        Self { states, freqs_hz, gain_db, phase_deg }
    }

    /// The TFT hyperplane of a dataset (the paper's Fig. 6 surface).
    pub fn of_dataset(dataset: &TftDataset) -> Self {
        Self::from_responses(dataset.states(), dataset.freqs_hz.clone(), &dataset.full_responses())
    }

    /// Builds a hyperplane by evaluating a model `H(x, s)` over the same
    /// grid as `dataset` (Figs. 7/8 top surfaces).
    pub fn of_model(dataset: &TftDataset, mut model: impl FnMut(f64, Complex) -> Complex) -> Self {
        let s_grid = dataset.s_grid();
        let responses: Vec<Vec<Complex>> = dataset
            .samples
            .iter()
            .map(|sample| s_grid.iter().map(|&s| model(sample.state, s)).collect())
            .collect();
        Self::from_responses(dataset.states(), dataset.freqs_hz.clone(), &responses)
    }
}

/// Pointwise fitting-error surfaces between a model and the TFT data
/// (the paper's Fig. 7/8 bottom contours), plus their maxima.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSurface {
    /// State axis.
    pub states: Vec<f64>,
    /// Frequency axis (hertz).
    pub freqs_hz: Vec<f64>,
    /// Gain error `20·log10(| |H_model| − |H_data| |)` in dB, `K × L`.
    pub gain_err_db: Mat,
    /// Absolute phase error in degrees (wrapped to [0°, 180°]), `K × L`.
    pub phase_err_deg: Mat,
    /// Maximum of the gain error surface (the paper's "maximum RMSE
    /// −60 dB" number for Fig. 7).
    pub max_gain_err_db: f64,
    /// Maximum phase error (degrees).
    pub max_phase_err_deg: f64,
    /// Maximum phase error restricted to points with significant gain
    /// (above −70 dB of the surface peak). The paper reports its 150°
    /// worst-case phase error "at high frequencies and negligible gain
    /// (< −70 dB)"; this field separates the meaningful region.
    pub max_phase_err_deg_significant: f64,
    /// RMS of the complex error over the surface.
    pub rms_complex: f64,
    /// RMS of the complex error in dB relative to unit gain
    /// (`20·log10(rms)`) — the Table I "TFT RMSE" figure.
    pub rms_complex_db: f64,
}

/// Computes the error surfaces of a model against the dataset.
pub fn error_surface(
    dataset: &TftDataset,
    mut model: impl FnMut(f64, Complex) -> Complex,
) -> ErrorSurface {
    let s_grid = dataset.s_grid();
    let k = dataset.n_states();
    let l = dataset.n_freqs();
    let mut gain_err_db = Mat::zeros(k, l);
    let mut phase_err_deg = Mat::zeros(k, l);
    let mut max_g = f64::NEG_INFINITY;
    let mut max_p = 0.0_f64;
    let mut max_p_sig = 0.0_f64;
    let mut acc = 0.0;
    let peak = dataset.peak_magnitude().max(1e-300);
    let significant = peak * rvf_numerics::from_db20(-70.0);
    for (ki, sample) in dataset.samples.iter().enumerate() {
        for (li, (&s, &h_data)) in s_grid.iter().zip(&sample.h).enumerate() {
            let h_model = model(sample.state, s);
            let diff_mag = (h_model.abs() - h_data.abs()).abs();
            let g_err = db20(diff_mag.max(1e-30));
            let mut p_err = (h_model.arg() - h_data.arg()).to_degrees().abs();
            if p_err > 180.0 {
                p_err = 360.0 - p_err;
            }
            gain_err_db[(ki, li)] = g_err;
            phase_err_deg[(ki, li)] = p_err;
            max_g = max_g.max(g_err);
            max_p = max_p.max(p_err);
            if h_data.abs() >= significant {
                max_p_sig = max_p_sig.max(p_err);
            }
            acc += (h_model - h_data).norm_sqr();
        }
    }
    let rms = (acc / (k * l) as f64).sqrt();
    ErrorSurface {
        states: dataset.states(),
        freqs_hz: dataset.freqs_hz.clone(),
        gain_err_db,
        phase_err_deg,
        max_gain_err_db: max_g,
        max_phase_err_deg: max_p,
        max_phase_err_deg_significant: max_p_sig,
        rms_complex: rms,
        rms_complex_db: db20(rms.max(1e-30)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::StateSample;
    use rvf_numerics::c;

    fn toy_dataset() -> TftDataset {
        // H(x, s) = x/(1 + s/ω₀) sampled at two states, three freqs.
        let w0 = 2.0 * core::f64::consts::PI * 1.0e6;
        let freqs = vec![1.0e5, 1.0e6, 1.0e7];
        let mk = |x: f64| {
            let h: Vec<Complex> = freqs
                .iter()
                .map(|&f| {
                    let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
                    Complex::from_re(x) * (Complex::ONE + s.scale(1.0 / w0)).inv()
                })
                .collect();
            StateSample { t: 0.0, state: x, x_embed: vec![x], y: 0.0, h, h0: c(x, 0.0) }
        };
        let samples = vec![mk(0.5), mk(1.0)];
        TftDataset::new(freqs, samples)
    }

    #[test]
    fn hyperplane_gain_and_phase() {
        let ds = toy_dataset();
        let hp = Hyperplane::of_dataset(&ds);
        assert_eq!(hp.gain_db.shape(), (2, 3));
        // At the corner frequency the gain is −3 dB below DC and the
        // phase is −45°.
        let g_corner = hp.gain_db[(1, 1)];
        assert!((g_corner + 3.0103).abs() < 0.02, "corner gain {g_corner}");
        let p_corner = hp.phase_deg[(1, 1)];
        assert!((p_corner + 45.0).abs() < 0.5, "corner phase {p_corner}");
        // State 0.5 sits 6 dB below state 1.0.
        assert!((hp.gain_db[(1, 0)] - hp.gain_db[(0, 0)] - 6.0206).abs() < 0.01);
    }

    #[test]
    fn perfect_model_has_tiny_error() {
        let ds = toy_dataset();
        let w0 = 2.0 * core::f64::consts::PI * 1.0e6;
        let es = error_surface(&ds, |x, s| {
            Complex::from_re(x) * (Complex::ONE + s.scale(1.0 / w0)).inv()
        });
        assert!(es.max_gain_err_db < -200.0, "max gain err {}", es.max_gain_err_db);
        assert!(es.max_phase_err_deg < 1e-8);
        assert!(es.rms_complex < 1e-12);
    }

    #[test]
    fn biased_model_error_is_quantified() {
        let ds = toy_dataset();
        // Model off by ×(1+1e-3) in magnitude: gain error ≈ 20log10(1e-3·|H|).
        let w0 = 2.0 * core::f64::consts::PI * 1.0e6;
        let es = error_surface(&ds, |x, s| {
            Complex::from_re(x * 1.001) * (Complex::ONE + s.scale(1.0 / w0)).inv()
        });
        // Peak |H| = 1 ⇒ max gain error ≈ −60 dB.
        assert!((es.max_gain_err_db + 60.0).abs() < 0.5, "{}", es.max_gain_err_db);
        assert!(es.rms_complex_db < -60.0);
    }

    #[test]
    fn of_model_matches_dataset_grid() {
        let ds = toy_dataset();
        let hp = Hyperplane::of_model(&ds, |x, s| {
            let w0 = 2.0 * core::f64::consts::PI * 1.0e6;
            Complex::from_re(x) * (Complex::ONE + s.scale(1.0 / w0)).inv()
        });
        let hd = Hyperplane::of_dataset(&ds);
        for i in 0..2 {
            for j in 0..3 {
                assert!((hp.gain_db[(i, j)] - hd.gain_db[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn phase_error_wraps() {
        let ds = toy_dataset();
        // Model with a 350° phase offset ⇒ wrapped error 10°.
        let w0 = 2.0 * core::f64::consts::PI * 1.0e6;
        let rot = Complex::from_polar(1.0, 350.0_f64.to_radians());
        let es = error_surface(&ds, |x, s| {
            Complex::from_re(x) * (Complex::ONE + s.scale(1.0 / w0)).inv() * rot
        });
        assert!((es.max_phase_err_deg - 10.0).abs() < 0.1, "{}", es.max_phase_err_deg);
    }
}
