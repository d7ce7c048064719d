//! From SPICE netlist text to analytical equations — the paper's
//! automation claim, end to end: parse, simulate, extract, report.
//!
//! ```sh
//! cargo run --release -p rvf-core --example netlist_to_model
//! ```

use rvf_circuit::parse_netlist;
use rvf_core::{fit_tft, RvfOptions};
use rvf_tft::{extract_from_circuit, TftConfig};

const NETLIST: &str = "\
* Nonlinear RC chain with a diode load
Vin in 0 SINE(0.6 0.55 100k)
R1  in  a   2k
C1  a   0   40p
R2  a   out 1k
D1  out 0   IS=1e-13 N=1.1
C2  out 0   80p
RL  out 0   5k
.input Vin
.output out
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut circuit = parse_netlist(NETLIST)?;
    println!("parsed netlist: {} devices, {} nodes", circuit.n_devices(), circuit.n_nodes());

    let cfg = TftConfig {
        f_min_hz: 1.0e2,
        f_max_hz: 1.0e8,
        n_freqs: 40,
        t_train: 1.0e-5,
        steps: 1200,
        n_snapshots: 90,
        embed_depth: 1,
        threads: 4,
    };
    let (dataset, _train) = extract_from_circuit(&mut circuit, &cfg)?;
    println!("TFT: {} states x {} freqs", dataset.n_states(), dataset.n_freqs());

    let report = fit_tft(&dataset, &RvfOptions { epsilon: 1e-3, ..Default::default() })?;
    println!(
        "model: {} freq poles (err {:.2e}), {} common state poles",
        report.diagnostics.n_freq_poles,
        report.diagnostics.freq_rel_error,
        report.diagnostics.static_pole_count
    );

    // Show the extracted static transfer curve — the nonlinearity the
    // diode imprints on the DC path.
    println!("--- static transfer curve y_s(u) ---");
    for i in 0..=10 {
        let u = 0.05 + 0.11 * i as f64;
        println!("u = {:5.2} V  ->  y_s = {:7.4} V", u, report.model.static_output(u));
    }
    Ok(())
}
