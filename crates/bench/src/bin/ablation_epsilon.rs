//! Ablation: the error bound ε drives the automatic pole-count
//! selection (paper Algorithm 1). Sweeping ε shows the accuracy floor
//! set by the quasi-static sampling noise and the overfitting regime
//! beyond it.
//!
//! ```sh
//! cargo run --release -p rvf-bench --bin ablation_epsilon
//! ```

use rvf_bench::{buffer_circuit, paper_tft_config};
use rvf_core::{fit_tft, RvfOptions};
use rvf_tft::{error_surface, extract_from_circuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config())?;
    println!(
        "{:>9} {:>6} {:>6} {:>14} {:>10}",
        "epsilon", "fpoles", "spoles", "surface RMS", "build [s]"
    );
    for &eps in &[1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5] {
        let opts = RvfOptions { epsilon: eps, max_state_poles: 20, ..Default::default() };
        let report = fit_tft(&dataset, &opts)?;
        let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
        println!(
            "{:>9.0e} {:>6} {:>6} {:>11.1} dB {:>10.3}",
            eps,
            report.diagnostics.n_freq_poles,
            report.diagnostics.static_pole_count,
            es.rms_complex_db,
            report.build_seconds
        );
    }
    println!();
    println!("reading: accuracy saturates around eps=1e-4 (the quasi-static");
    println!("sampling noise floor); tighter bounds grow the pole counts and");
    println!("eventually overfit the hysteresis noise in the trajectories.");
    Ok(())
}
