//! Fig. 7 of the paper: the RVF model hyperplane (top) and the RMSE
//! contours of gain and phase against the TFT data (bottom).
//!
//! Paper reference points: maximum gain error ≈ −60 dB; maximum phase
//! error ≤ 150° occurring only at high frequencies where the gain is
//! negligible (< −70 dB).
//!
//! ```sh
//! cargo run --release -p rvf-bench --bin fig7_rvf_fit
//! ```

use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config};
use rvf_core::fit_tft;
use rvf_tft::{error_surface, extract_from_circuit, Hyperplane};

fn print_error_contours(name: &str, states: &[f64], freqs: &[f64], m: &rvf_numerics::Mat) {
    println!("--- {name} error contours ---");
    let srows: Vec<usize> = (0..10).map(|i| i * (states.len() - 1) / 9).collect();
    let fcols: Vec<usize> = (0..10).map(|j| j * (freqs.len() - 1) / 9).collect();
    print!("{:>8} |", "x \\ f");
    for &j in &fcols {
        print!(" {:>9.2e}", freqs[j]);
    }
    println!();
    for &i in &srows {
        print!("{:>8.3} |", states[i]);
        for &j in &fcols {
            print!(" {:>9.1}", m[(i, j)]);
        }
        println!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = buffer_circuit();
    let (dataset, _train) = extract_from_circuit(&mut circuit, &paper_tft_config())?;
    let opts = paper_rvf_options();
    let report = fit_tft(&dataset, &opts)?;
    println!(
        "RVF fit: {} frequency poles, {} common state poles (epsilon {:.0e})",
        report.diagnostics.n_freq_poles, report.diagnostics.static_pole_count, opts.epsilon
    );
    println!("(paper: 12 frequency poles, 10 state poles per residue at epsilon 1e-3;");
    println!(" this code fits one state-pole set shared by all residues)");
    println!();

    // Top of the figure: the model hyperplane.
    let model_hp = Hyperplane::of_model(&dataset, |x, s| report.model.transfer(x, s));
    println!(
        "model hyperplane: gain in [{:.1}, {:.1}] dB over {} states x {} freqs",
        model_hp.gain_db.as_slice().iter().cloned().fold(f64::INFINITY, f64::min),
        model_hp.gain_db.as_slice().iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        model_hp.states.len(),
        model_hp.freqs_hz.len()
    );
    println!();

    // Bottom of the figure: error contours.
    let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
    print_error_contours("RVF gain [dB]", &es.states, &es.freqs_hz, &es.gain_err_db);
    println!();
    print_error_contours("RVF phase [deg]", &es.states, &es.freqs_hz, &es.phase_err_deg);
    println!();
    println!("summary (paper reference):");
    println!("  max gain error           : {:.1} dB   (paper: about -60 dB)", es.max_gain_err_db);
    println!("  max phase error          : {:.1} deg  (paper: <= 150 deg)", es.max_phase_err_deg);
    println!(
        "  max phase err (gain>-70dB): {:.1} deg  (paper: negligible where gain matters)",
        es.max_phase_err_deg_significant
    );
    println!(
        "  complex RMS over surface : {:.1} dB   (Table I 'TFT RMSE': -62 dB)",
        es.rms_complex_db
    );
    Ok(())
}
