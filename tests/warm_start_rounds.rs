//! Pins the warm-start acceptance criterion on the paper's buffer
//! experiment: growing the pole count from the previous fit's relocated
//! poles must perform strictly fewer total relocation rounds than
//! re-seeding from the generic spread at every count — while losing
//! nothing in fit quality. A warm start that trips a kernel failure and
//! falls back to a cold restart shows up in the build diagnostics; on
//! `clipper_hard` at the default seed, the warm start that once did so
//! must now converge without one.

use rvf::circuit::{high_speed_buffer, parse_netlist, BufferParams, Waveform};
use rvf::model::{extract_model, fit_frequency_stage, RvfOptions};
use rvf::tft::{extract_from_circuit, TftConfig, TftDataset};
use rvf::validate::{zoo, DEFAULT_SEED};

fn buffer_dataset() -> TftDataset {
    let mut buffer = high_speed_buffer(
        &BufferParams::default(),
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 },
    );
    let cfg = TftConfig {
        f_min_hz: 1.0e0,
        f_max_hz: 1.0e10,
        n_freqs: 40,
        t_train: 1.0e-5,
        steps: 800,
        n_snapshots: 60,
        embed_depth: 1,
        threads: 2,
    };
    let (ds, _) = extract_from_circuit(&mut buffer, &cfg).unwrap();
    ds
}

#[test]
fn warm_start_performs_fewer_relocation_rounds_on_buffer() {
    let ds = buffer_dataset();
    let s_grid = ds.s_grid();
    let responses = ds.dynamic_responses();

    // Force several pole-count increments so the growth loop actually
    // has fits to warm-start, and use a meaningful convergence
    // threshold (the default 1e-10 effectively never stops early, which
    // would hide the warm start's faster settling behind the fixed
    // iteration cap).
    let base = RvfOptions {
        epsilon: 5e-5,
        start_freq_poles: 4,
        vf_stop_displacement: 1e-4,
        ..Default::default()
    };
    let warm_opts = RvfOptions { warm_start: true, ..base.clone() };
    let cold_opts = RvfOptions { warm_start: false, ..base };

    let warm = fit_frequency_stage(&s_grid, &responses, &warm_opts).unwrap();
    let cold = fit_frequency_stage(&s_grid, &responses, &cold_opts).unwrap();

    eprintln!(
        "warm: {} rounds, {} poles, rel {:.3e} | cold: {} rounds, {} poles, rel {:.3e}",
        warm.relocation_rounds,
        warm.n_poles,
        warm.rel_error,
        cold.relocation_rounds,
        cold.n_poles,
        cold.rel_error
    );
    assert!(
        warm.relocation_rounds < cold.relocation_rounds,
        "warm start must cut total relocation rounds: warm {} vs cold {}",
        warm.relocation_rounds,
        cold.relocation_rounds
    );
    // ... without giving up accuracy: both runs must meet the bound the
    // stage was asked for (or the warm run must be no worse).
    assert!(
        warm.rel_error <= 5e-5 || warm.rel_error <= cold.rel_error * 1.5,
        "warm rel_error {} vs cold {}",
        warm.rel_error,
        cold.rel_error
    );
}

#[test]
fn clipper_hard_reports_its_warm_start_fallback() {
    // At the default seed a warm-started fit of `clipper_hard` seeds a
    // relocation eigenproblem with a ± symmetric spectrum. Under the
    // Numerical Recipes iteration budget the solver refused it and
    // `fit_in` restarted cold (counted, not passed off as a plain
    // success); with `dlahqr`'s budget the warm fit converges, so the
    // build must report no fallback at all.
    let family = zoo(DEFAULT_SEED).into_iter().find(|f| f.name == "clipper_hard").unwrap();
    let mut train = parse_netlist(&family.train_deck).unwrap();
    let (report, _, _) = extract_model(&mut train, &family.tft, &family.rvf).unwrap();
    assert_eq!(report.diagnostics.cold_restarts, 0, "expected no warm-start fallback");
}
