//! Jacobian snapshots → TFT dataset (paper §II, eq. 3).
//!
//! Each snapshot `(G(k), C(k))` becomes a sampled transfer function
//!
//! ```text
//! H(k)(s_l) = Dᵀ·(G(k) + s_l·C(k))⁻¹·B
//! ```
//!
//! Two layers of structure keep the `K snapshots × L frequencies` sweep
//! cheap:
//!
//! * per snapshot, the pencil `(G, C)` is reduced once to
//!   Hessenberg–triangular form (via [`rvf_circuit::transfer_sweep`]),
//!   so each frequency point is an `O(n²)` back-substitution instead of
//!   an `O(n³)` dense LU — `O(K·(n³ + L·n²))` overall instead of
//!   `O(K·L·n³)`;
//! * across snapshots, the work is spread over the work-stealing sweep
//!   runtime of `rvf-numerics` — one [`rvf_numerics::SweepPool`] round
//!   per extraction, each worker claiming one snapshot at a time — so a
//!   slow snapshot (near-singular operating point, pivoting churn)
//!   occupies one worker while the rest keep draining the queue.

use rvf_circuit::{
    dc_operating_point, transfer_sweep, transient, Circuit, DcOptions, JacobianSnapshot,
    TranOptions, TranResult,
};
use rvf_numerics::{logspace, resolve_threads, Complex, Lu, SweepPool};

use crate::dataset::{StateSample, TftDataset};
use crate::error::TftError;

/// Configuration of a TFT extraction run.
#[derive(Debug, Clone)]
pub struct TftConfig {
    /// Lowest frequency of the grid (Hz).
    pub f_min_hz: f64,
    /// Highest frequency of the grid (Hz).
    pub f_max_hz: f64,
    /// Number of (log-spaced) frequency points.
    pub n_freqs: usize,
    /// Training transient length (s).
    pub t_train: f64,
    /// Transient step count.
    pub steps: usize,
    /// Number of snapshots to capture along the trajectory.
    pub n_snapshots: usize,
    /// Delay-embedding depth `q` of the state estimator (1 = `u(t)` only).
    pub embed_depth: usize,
    /// Worker threads for the frequency sweep.
    ///
    /// The sweep runs on a [`SweepPool`] of this many workers (clamped
    /// to the snapshot count), built once per extraction. Its workers
    /// drain a work-stealing task queue, so the setting is a cap, not a
    /// partition: an idle worker always picks up the next pending
    /// snapshot. `0` means "one worker per available core"
    /// ([`std::thread::available_parallelism`]).
    pub threads: usize,
}

impl Default for TftConfig {
    fn default() -> Self {
        Self {
            f_min_hz: 1.0,
            f_max_hz: 1.0e10,
            n_freqs: 60,
            // One period of a 100 kHz training sine: slow enough that
            // the Jacobian sampling stays quasi-static (the paper's
            // "low-frequency high-amplitude" pump), which keeps the
            // residue trajectories single-valued over the state.
            t_train: 1.0e-5,
            steps: 2000,
            n_snapshots: 100,
            embed_depth: 1,
            threads: 4,
        }
    }
}

impl TftConfig {
    /// The log-spaced frequency grid in hertz.
    pub fn freq_grid(&self) -> Vec<f64> {
        logspace(self.f_min_hz.log10(), self.f_max_hz.log10(), self.n_freqs)
    }
}

/// Transforms captured snapshots into a TFT dataset given the circuit's
/// port vectors `b` (input column) and `d` (output row).
///
/// `threads` follows the [`TftConfig::threads`] convention
/// (`0` = available parallelism).
///
/// # Errors
///
/// Returns [`TftError::NoSnapshots`], [`TftError::BadFrequencyGrid`],
/// [`TftError::DimensionMismatch`], a numerics error if a frequency
/// solve hits a singular matrix, or [`TftError::WorkerPanicked`] if a
/// sweep worker dies (the panic is contained, not propagated).
// `!(f > 0.0)` also rejects NaN frequencies, which `f <= 0.0` would pass.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn tft_from_snapshots(
    snapshots: &[JacobianSnapshot],
    b: &[f64],
    d: &[f64],
    freqs_hz: &[f64],
    embed_depth: usize,
    threads: usize,
) -> Result<TftDataset, TftError> {
    if snapshots.is_empty() {
        return Err(TftError::NoSnapshots);
    }
    if freqs_hz.is_empty() || freqs_hz.iter().any(|&f| !(f > 0.0)) {
        return Err(TftError::BadFrequencyGrid);
    }
    let dim = b.len();
    for (i, s) in snapshots.iter().enumerate() {
        let ((g_rows, g_cols), (c_rows, c_cols)) = (s.g.shape(), s.c.shape());
        // Report the first dimension that differs, not always G's rows.
        if let Some(got) =
            [g_rows, g_cols, c_rows, c_cols, s.x.len()].into_iter().find(|&n| n != dim)
        {
            return Err(TftError::DimensionMismatch { snapshot: i, expected: dim, got });
        }
    }
    let s_grid: Vec<Complex> =
        freqs_hz.iter().map(|&f| Complex::from_im(2.0 * core::f64::consts::PI * f)).collect();

    // One task per snapshot, dispatched as a single round as wide as
    // the pool: workers borrow snapshots/b/d without Arc, and a slow
    // snapshot does not idle the workers that finished their share.
    // Capacity clamped to the snapshot count before spawning: a sweep
    // of 4 snapshots on a many-core machine must not park unusable
    // workers.
    let pool = SweepPool::new(resolve_threads(threads).min(snapshots.len()));
    let mut units = vec![(); pool.workers()];
    let mut samples: Vec<StateSample> =
        pool.run_with(snapshots.len(), &mut units, |(), k| -> Result<StateSample, TftError> {
            let snap = &snapshots[k];
            // Reduced-pencil sweep: one O(n³) reduction, O(n²) per
            // frequency.
            let h = transfer_sweep(&snap.g, &snap.c, b, d, &s_grid)
                .map_err(TftError::from_circuit_err)?;
            // Static gain from the real DC solve.
            let lu = Lu::factor(&snap.g)?;
            let xg = lu.solve(b)?;
            let h0: f64 = d.iter().zip(&xg).map(|(di, xi)| di * xi).sum();
            Ok(StateSample {
                t: snap.t,
                state: snap.u,
                x_embed: vec![snap.u],
                y: snap.y,
                h,
                h0: Complex::from_re(h0),
            })
        })?;
    // Delay embedding beyond depth 1: append lagged input values taken
    // from the snapshot sequence (trajectory order).
    if embed_depth > 1 {
        let us: Vec<f64> = samples.iter().map(|s| s.state).collect();
        for (i, s) in samples.iter_mut().enumerate() {
            for q in 1..embed_depth {
                let j = i.saturating_sub(q);
                s.x_embed.push(us[j]);
            }
        }
    }
    Ok(TftDataset::new(freqs_hz.to_vec(), samples))
}

impl TftError {
    fn from_circuit_err(e: rvf_circuit::CircuitError) -> Self {
        match e {
            rvf_circuit::CircuitError::Numerics(n) => TftError::Numerics(n),
            other => TftError::Circuit(other),
        }
    }
}

/// Runs the full training flow on a circuit: DC operating point, one
/// training transient with snapshot capture, then the TFT transform.
///
/// Returns the dataset together with the raw transient (reference
/// waveforms for validation).
///
/// # Errors
///
/// Returns [`TftError::BadConfig`] for a zero step/snapshot count or a
/// non-positive training window (each used to be an unchecked panic —
/// division by zero, or an `assert!` deep inside the transient solver);
/// otherwise propagates circuit analysis and TFT transform failures.
pub fn extract_from_circuit(
    circuit: &mut Circuit,
    cfg: &TftConfig,
) -> Result<(TftDataset, TranResult), TftError> {
    if cfg.steps == 0 {
        return Err(TftError::BadConfig { message: "steps must be nonzero".into() });
    }
    if cfg.n_snapshots == 0 {
        return Err(TftError::BadConfig { message: "n_snapshots must be nonzero".into() });
    }
    if !(cfg.t_train.is_finite() && cfg.t_train > 0.0) {
        return Err(TftError::BadConfig {
            message: format!("t_train must be finite and positive, got {}", cfg.t_train),
        });
    }
    let op = dc_operating_point(circuit, &DcOptions::default())?;
    let every = (cfg.steps / cfg.n_snapshots).max(1);
    let opts = TranOptions {
        dt: cfg.t_train / cfg.steps as f64,
        t_stop: cfg.t_train,
        snapshot_every: Some(every),
    };
    let tran = transient(circuit, &op, &opts)?;
    let b = circuit.input_column()?;
    let d = circuit.output_row()?;
    let dataset = tft_from_snapshots(
        &tran.snapshots,
        &b,
        &d,
        &cfg.freq_grid(),
        cfg.embed_depth,
        cfg.threads,
    )?;
    Ok((dataset, tran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_circuit::{rc_ladder, Waveform};
    use rvf_numerics::{db20, SweepConfig};

    #[test]
    fn rc_ladder_tft_matches_analytic_single_section() {
        // One RC section: H(s) = 1/(1 + sRC) regardless of state
        // (linear circuit ⇒ flat trajectory).
        let r = 1.0e3;
        let c = 1.0e-9;
        let mut ckt = rc_ladder(
            1,
            r,
            c,
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.3,
                freq_hz: 1.0e4,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        let cfg = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e7,
            n_freqs: 30,
            t_train: 1.0e-4,
            steps: 400,
            n_snapshots: 20,
            embed_depth: 1,
            threads: 2,
        };
        let (ds, _tran) = extract_from_circuit(&mut ckt, &cfg).unwrap();
        assert_eq!(ds.n_states(), 21);
        assert_eq!(ds.n_freqs(), 30);
        let rc = r * c;
        for sample in &ds.samples {
            assert!((sample.h0.re - 1.0).abs() < 1e-9, "static gain 1");
            for (f, h) in ds.freqs_hz.iter().zip(&sample.h) {
                let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
                let want = (Complex::ONE + s.scale(rc)).inv();
                assert!((*h - want).abs() < 1e-9, "H mismatch at f={f}: {h:?} vs {want:?}");
            }
        }
        // Linear circuit: the hyperplane is flat along the state axis.
        let first = &ds.samples[0].h;
        let last = &ds.samples[ds.n_states() - 1].h;
        for (a, b) in first.iter().zip(last) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn nonlinear_circuit_has_state_dependent_tft() {
        use rvf_circuit::diode_clipper;
        let mut ckt = diode_clipper(Waveform::Sine {
            offset: 0.0,
            amplitude: 1.5,
            freq_hz: 1.0e5,
            phase_rad: 0.0,
            delay: 0.0,
        });
        let cfg = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e8,
            n_freqs: 20,
            t_train: 1.0e-5,
            steps: 500,
            n_snapshots: 50,
            embed_depth: 1,
            threads: 3,
        };
        let (ds, _) = extract_from_circuit(&mut ckt, &cfg).unwrap();
        // Small-signal gain at u≈0 (diodes off) is near RL/(R+RL);
        // at |u| large the conducting diode crushes the gain.
        let g_mid = ds.samples[ds.n_states() / 2].h0.re;
        let g_hi = ds.samples.last().unwrap().h0.re;
        assert!(g_mid > 0.7, "mid-state gain {g_mid}");
        assert!(g_hi < 0.2, "clipped gain {g_hi} (state {})", ds.samples.last().unwrap().state);
        // Gain drop in dB for good measure.
        assert!(db20(g_mid / g_hi) > 15.0);
    }

    #[test]
    fn error_paths() {
        let freqs = [1.0e3];
        assert!(matches!(
            tft_from_snapshots(&[], &[1.0], &[1.0], &freqs, 1, 1),
            Err(TftError::NoSnapshots)
        ));
        let snap = JacobianSnapshot {
            t: 0.0,
            u: 0.0,
            y: 0.0,
            x: vec![0.0],
            g: rvf_numerics::Mat::identity(1),
            c: rvf_numerics::Mat::zeros(1, 1),
        };
        assert!(matches!(
            tft_from_snapshots(std::slice::from_ref(&snap), &[1.0], &[1.0], &[], 1, 1),
            Err(TftError::BadFrequencyGrid)
        ));
        assert!(matches!(
            tft_from_snapshots(std::slice::from_ref(&snap), &[1.0, 0.0], &[1.0, 0.0], &freqs, 1, 1),
            Err(TftError::DimensionMismatch { snapshot: 0, expected: 2, got: 1 })
        ));
    }

    #[test]
    fn dimension_mismatch_names_the_bad_dimension() {
        // G matches the ports (3×3); only C, or only x, does not.
        let good = JacobianSnapshot {
            t: 0.0,
            u: 0.0,
            y: 0.0,
            x: vec![0.0; 3],
            g: rvf_numerics::Mat::identity(3),
            c: rvf_numerics::Mat::zeros(3, 3),
        };
        let ports = [1.0, 0.0, 0.0];
        let bad_c = JacobianSnapshot { c: rvf_numerics::Mat::zeros(2, 2), ..good.clone() };
        let bad_x = JacobianSnapshot { x: vec![0.0; 4], ..good.clone() };
        let bad_c_cols = JacobianSnapshot { c: rvf_numerics::Mat::zeros(3, 5), ..good.clone() };
        for (snaps, want) in
            [(vec![bad_c], 2), (vec![good.clone(), bad_x], 4), (vec![bad_c_cols], 5)]
        {
            let err = tft_from_snapshots(&snaps, &ports, &ports, &[1.0e3], 1, 1).unwrap_err();
            let at = snaps.len() - 1;
            assert!(
                matches!(err, TftError::DimensionMismatch { snapshot, expected: 3, got }
                    if snapshot == at && got == want),
                "{err:?}"
            );
            assert_eq!(err.to_string(), format!("snapshot {at} has dimension {want}, expected 3"));
        }
    }

    #[test]
    fn bad_config_is_a_typed_error_not_a_panic() {
        // Regression: steps == 0 used to divide by zero computing dt,
        // n_snapshots == 0 divided by zero computing the capture cadence,
        // and a non-positive t_train tripped an assert in the transient
        // solver. All three must surface as TftError::BadConfig.
        let mut ckt = rc_ladder(
            1,
            1.0e3,
            1.0e-9,
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.3,
                freq_hz: 1e4,
                phase_rad: 0.0,
                delay: 0.0,
            },
        );
        let base = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e7,
            n_freqs: 10,
            t_train: 1.0e-4,
            steps: 100,
            n_snapshots: 10,
            embed_depth: 1,
            threads: 1,
        };
        for cfg in [
            TftConfig { steps: 0, ..base.clone() },
            TftConfig { n_snapshots: 0, ..base.clone() },
            TftConfig { t_train: 0.0, ..base.clone() },
            TftConfig { t_train: f64::NAN, ..base.clone() },
            TftConfig { t_train: -1.0, ..base.clone() },
        ] {
            let got = extract_from_circuit(&mut ckt, &cfg);
            assert!(matches!(got, Err(TftError::BadConfig { .. })), "{got:?}");
        }
        // The base config itself still extracts.
        extract_from_circuit(&mut ckt, &base).unwrap();
    }

    #[test]
    fn worker_panic_becomes_error_not_abort() {
        // Regression for the old `h.join().expect("tft worker panicked")`:
        // a poisoned worker must surface as TftError::WorkerPanicked
        // through the runtime's containment — on the pooled path the
        // sampler now takes — not tear down the caller.
        let pool = SweepPool::new(2);
        let swept = pool.run(8, &SweepConfig::threads(2), |k| -> Result<usize, TftError> {
            if k == 3 {
                panic!("poisoned snapshot");
            }
            Ok(k)
        });
        let err: TftError = swept.unwrap_err().into();
        assert!(matches!(err, TftError::WorkerPanicked { .. }), "got {err:?}");
        assert!(err.to_string().contains("panicked"));
    }

    #[test]
    fn sweep_task_error_unwraps_to_inner_tft_error() {
        let pool = SweepPool::new(2);
        let swept = pool.run(4, &SweepConfig::threads(2), |k| -> Result<usize, TftError> {
            if k == 1 {
                Err(TftError::NoSnapshots)
            } else {
                Ok(k)
            }
        });
        let err: TftError = swept.unwrap_err().into();
        assert!(matches!(err, TftError::NoSnapshots));
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let snap = JacobianSnapshot {
            t: 0.0,
            u: 0.25,
            y: 0.0,
            x: vec![0.0],
            g: rvf_numerics::Mat::identity(1),
            c: rvf_numerics::Mat::zeros(1, 1),
        };
        let ds = tft_from_snapshots(&[snap.clone(), snap], &[1.0], &[1.0], &[1.0e3, 1.0e4], 1, 0)
            .unwrap();
        assert_eq!(ds.n_freqs(), 2);
    }

    #[test]
    fn reduced_sweep_matches_naive_per_point_lu() {
        // Dataset-level pin of the tentpole equivalence: every H(k)(s_l)
        // from the reduced-pencil path agrees with a fresh per-point
        // dense LU to 1e-10 on a nonlinear circuit's snapshots.
        use rvf_circuit::{diode_clipper, transfer_at};
        let mut ckt = diode_clipper(Waveform::Sine {
            offset: 0.0,
            amplitude: 1.5,
            freq_hz: 1.0e5,
            phase_rad: 0.0,
            delay: 0.0,
        });
        let cfg = TftConfig {
            f_min_hz: 1.0e3,
            f_max_hz: 1.0e8,
            n_freqs: 30,
            t_train: 1.0e-5,
            steps: 200,
            n_snapshots: 10,
            embed_depth: 1,
            threads: 2,
        };
        let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TranOptions {
            dt: cfg.t_train / cfg.steps as f64,
            t_stop: cfg.t_train,
            snapshot_every: Some((cfg.steps / cfg.n_snapshots).max(1)),
        };
        let tran = transient(&mut ckt, &op, &opts).unwrap();
        let b = ckt.input_column().unwrap();
        let d = ckt.output_row().unwrap();
        let ds =
            tft_from_snapshots(&tran.snapshots, &b, &d, &cfg.freq_grid(), 1, cfg.threads).unwrap();
        // Samples come back sorted by state; match them to their
        // snapshot through the capture timestamp.
        for snap in &tran.snapshots {
            let sample = ds.samples.iter().find(|s| s.t == snap.t).expect("snapshot sample");
            for (f, h) in ds.freqs_hz.iter().zip(&sample.h) {
                let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
                let naive = transfer_at(&snap.g, &snap.c, &b, &d, s).unwrap();
                assert!(
                    (*h - naive).abs() < 1e-10,
                    "reduced vs naive mismatch at f={f}: {h:?} vs {naive:?}"
                );
            }
        }
    }

    #[test]
    fn embedding_depth_adds_lagged_states() {
        let snapmaker = |t: f64, u: f64| JacobianSnapshot {
            t,
            u,
            y: 0.0,
            x: vec![0.0],
            g: rvf_numerics::Mat::identity(1),
            c: rvf_numerics::Mat::zeros(1, 1),
        };
        let snaps = vec![snapmaker(0.0, 0.1), snapmaker(1.0, 0.2), snapmaker(2.0, 0.3)];
        let ds = tft_from_snapshots(&snaps, &[1.0], &[1.0], &[1.0e3], 2, 1).unwrap();
        // x_embed = (u(t), u(t−Δ)) in trajectory order before sorting.
        let s0 = ds.samples.iter().find(|s| s.state == 0.2).unwrap();
        assert_eq!(s0.x_embed, vec![0.2, 0.1]);
    }
}
