//! Property-based tests for the TFT layer.

use proptest::prelude::*;
use rvf_numerics::{c, Complex, Mat};
use rvf_tft::{error_surface, Hyperplane, StateSample, TftDataset};

fn sample(state: f64, t: f64, gain: f64, freqs: &[f64]) -> StateSample {
    let h: Vec<Complex> = freqs
        .iter()
        .map(|&f| {
            let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
            Complex::from_re(gain) * (Complex::ONE + s.scale(1e-9)).inv()
        })
        .collect();
    StateSample { t, state, x_embed: vec![state], y: gain * state, h, h0: c(gain, 0.0) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dataset_always_sorted(states in prop::collection::vec(-2.0..2.0f64, 2..20)) {
        let freqs = vec![1e6, 1e8];
        let samples: Vec<StateSample> = states
            .iter()
            .enumerate()
            .map(|(i, &x)| sample(x, i as f64, 1.0, &freqs))
            .collect();
        let ds = TftDataset::new(freqs, samples);
        let got = ds.states();
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1], "not sorted: {got:?}");
        }
    }

    #[test]
    fn dynamic_plus_static_reconstructs_full(gain in 0.1..5.0f64, x in -1.0..1.0f64) {
        let freqs = vec![1e5, 1e7, 1e9];
        let ds = TftDataset::new(freqs, vec![sample(x, 0.0, gain, &[1e5, 1e7, 1e9])]);
        let dynamic = ds.dynamic_responses();
        let full = ds.full_responses();
        let h0 = ds.samples[0].h0;
        for (d, f) in dynamic[0].iter().zip(&full[0]) {
            prop_assert!(((*d + h0) - *f).abs() < 1e-12);
        }
    }

    #[test]
    fn thinning_preserves_subset(n in 2usize..30, step in 1usize..6) {
        let freqs = vec![1e6];
        let samples: Vec<StateSample> = (0..n)
            .map(|i| sample(i as f64, i as f64, 1.0, &freqs))
            .collect();
        let ds = TftDataset::new(freqs, samples);
        let thin = ds.thin_states(step);
        prop_assert_eq!(thin.n_states(), n.div_ceil(step));
        // Every thinned state exists in the original.
        let all = ds.states();
        for s in thin.states() {
            prop_assert!(all.contains(&s));
        }
    }

    #[test]
    fn perfect_model_error_surface_is_floor(gain in 0.2..4.0f64) {
        let freqs = vec![1e5, 1e7, 1e9];
        let samples: Vec<StateSample> = (0..8)
            .map(|i| sample(0.1 * i as f64, i as f64, gain, &[1e5, 1e7, 1e9]))
            .collect();
        let ds = TftDataset::new(freqs, samples);
        let es = error_surface(&ds, |_x, s| {
            Complex::from_re(gain) * (Complex::ONE + s.scale(1e-9)).inv()
        });
        prop_assert!(es.rms_complex < 1e-12);
        prop_assert!(es.max_phase_err_deg < 1e-8);
    }

    #[test]
    fn hyperplane_gain_monotone_in_response_gain(g1 in 0.1..1.0f64, factor in 1.1..4.0f64) {
        let freqs = vec![1e5, 1e7];
        let g2 = g1 * factor;
        let ds = TftDataset::new(
            freqs,
            vec![
                sample(0.0, 0.0, g1, &[1e5, 1e7]),
                sample(1.0, 1.0, g2, &[1e5, 1e7]),
            ],
        );
        let hp = Hyperplane::of_dataset(&ds);
        prop_assert!(hp.gain_db[(1, 0)] > hp.gain_db[(0, 0)]);
        // dB difference = 20·log10(factor).
        let diff = hp.gain_db[(1, 0)] - hp.gain_db[(0, 0)];
        prop_assert!((diff - 20.0 * factor.log10()).abs() < 1e-9);
    }

    #[test]
    fn error_surface_shapes_match(k in 1usize..6, l in 1usize..5) {
        let freqs: Vec<f64> = (0..l).map(|i| 10f64.powi(5 + i as i32)).collect();
        let samples: Vec<StateSample> = (0..k)
            .map(|i| sample(i as f64, i as f64, 1.0, &freqs))
            .collect();
        let ds = TftDataset::new(freqs, samples);
        let es = error_surface(&ds, |_x, _s| Complex::ONE);
        prop_assert_eq!(es.gain_err_db.shape(), (k, l));
        prop_assert_eq!(es.phase_err_deg.shape(), (k, l));
        let _: &Mat = &es.gain_err_db;
    }
}
