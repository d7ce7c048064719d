//! Table I of the paper: RVF vs CAFFEINE on the high-speed buffer.
//!
//! ```text
//! Model | TFT RMSE | Time-Domain RMSE | Build Time | Speedup | Fully Automated
//! RVF   |  -62 dB  |      0.0098      |   2 min    |   7X    |      YES
//! CAFF  |  -22 dB  |      0.0138      |   7 min    |  12X    |      NO
//! ```
//!
//! Absolute numbers shift with the substrate (our simulator, our
//! hardware); the *shape* — RVF far more accurate on the hyperplane,
//! slightly better in time domain, faster to build, fully automated,
//! both models much faster than SPICE with the polynomial CAFFEINE
//! model evaluating fastest — is the reproduction target.
//!
//! ```sh
//! cargo run --release -p rvf-bench --bin table1_comparison
//! ```

use std::time::Instant;

use rvf_bench::{buffer_circuit, test_pattern, PaperSetup};
use rvf_caffeine::{
    build_caffeine_hammerstein, integrability, simulate, worst_stage_rmse, Integrability,
};
use rvf_circuit::{dc_operating_point, transient, DcOptions, TranOptions};
use rvf_core::{fit_frequency_stage, fit_tft, time_domain_report};
use rvf_tft::{error_surface, extract_from_circuit};

// Each table cell is formatted first so the column width pads the whole
// cell, paper value included.
#[allow(clippy::format_in_format_args)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = PaperSetup::default();

    // Shared training data (the paper trains both models on the same
    // TFT dataset).
    println!("training transient + TFT transform…");
    let mut circuit = buffer_circuit();
    let (dataset, _train) = extract_from_circuit(&mut circuit, &setup.tft)?;

    // --- RVF model ---
    println!("building RVF model…");
    let t0 = Instant::now();
    let rvf_report = fit_tft(&dataset, &setup.rvf)?;
    let rvf_build = t0.elapsed().as_secs_f64();
    let rvf_surface = error_surface(&dataset, |x, s| rvf_report.model.transfer(x, s));

    // --- CAFFEINE model: same frequency poles, GP residue regression ---
    println!("building CAFFEINE model…");
    let t0 = Instant::now();
    let s_grid = dataset.s_grid();
    let dynamic = dataset.dynamic_responses();
    let freq_stage = fit_frequency_stage(&s_grid, &dynamic, &setup.rvf)?;
    let caff_model = build_caffeine_hammerstein(&dataset, &freq_stage.fit.model, &setup.caffeine);
    let caff_build = t0.elapsed().as_secs_f64();
    let caff_surface = error_surface(&dataset, |x, s| caff_model.transfer(x, s));

    // --- time-domain validation on the 2.5 GS/s pattern ---
    println!("validating on the 2.5 GS/s bit pattern…");
    let (wave, dt, t_stop) = test_pattern();
    let mut test_ckt = rvf_circuit::high_speed_buffer(&rvf_circuit::BufferParams::default(), wave);
    let op = dc_operating_point(&mut test_ckt, &DcOptions::default())?;
    let t_ref = Instant::now();
    let tran = transient(&mut test_ckt, &op, &TranOptions { dt, t_stop, ..Default::default() })?;
    let spice_seconds = t_ref.elapsed().as_secs_f64();

    let t_m = Instant::now();
    let y_rvf = rvf_report.model.simulate(dt, &tran.inputs);
    let rvf_seconds = t_m.elapsed().as_secs_f64();
    let rvf_time = time_domain_report(&tran.outputs, &y_rvf);

    let t_m = Instant::now();
    let y_caff = simulate(&caff_model, dt, &tran.inputs)
        .expect("the polynomial-only preset guarantees closed-form stages");
    let caff_seconds = t_m.elapsed().as_secs_f64();
    let caff_time = time_domain_report(&tran.outputs, &y_caff);

    let rvf_auto = "YES"; // log-form integrals exist by construction
    let caff_auto = match integrability(&caff_model) {
        // The polynomial subset is integrable, but only because the
        // basis was *manually* restricted (as the paper did); general
        // CAFFEINE forms are not automatable.
        Integrability::Closed => "NO (manual basis restriction)",
        Integrability::ManualRequired => "NO",
    };

    println!();
    println!("Table I — comparison between the RVF and CAFFEINE model");
    println!("(paper values in parentheses; shape, not absolutes, is the target)");
    println!();
    println!(
        "{:<7} {:>16} {:>18} {:>12} {:>9}  Fully Automated",
        "Model", "TFT RMSE [dB]", "TimeDomain RMSE", "Build [s]", "Speedup"
    );
    println!(
        "{:<7} {:>16} {:>18} {:>12} {:>9}  {}",
        "RVF",
        format!("{:.1} (-62)", rvf_surface.rms_complex_db),
        format!("{:.4} (0.0098)", rvf_time.nrmse),
        format!("{:.2} (120)", rvf_build),
        format!("{:.1}x (7x)", spice_seconds / rvf_seconds),
        format!("{rvf_auto} (YES)"),
    );
    println!(
        "{:<7} {:>16} {:>18} {:>12} {:>9}  {}",
        "CAFF",
        format!("{:.1} (-22)", caff_surface.rms_complex_db),
        format!("{:.4} (0.0138)", caff_time.nrmse),
        format!("{:.2} (420)", caff_build),
        format!("{:.1}x (12x)", spice_seconds / caff_seconds),
        format!("{caff_auto} (NO)"),
    );
    println!();
    println!("details:");
    println!(
        "  RVF : {} freq poles, {} common state poles, max gain err {:.1} dB",
        rvf_report.diagnostics.n_freq_poles,
        rvf_report.diagnostics.static_pole_count,
        rvf_surface.max_gain_err_db
    );
    println!(
        "  CAFF: worst stage rmse {:.3e}, max gain err {:.1} dB",
        worst_stage_rmse(&caff_model),
        caff_surface.max_gain_err_db
    );
    println!(
        "  SPICE transient: {:.3} s for {} steps ({} Newton iters)",
        spice_seconds,
        tran.times.len() - 1,
        tran.newton_iterations
    );
    Ok(())
}
