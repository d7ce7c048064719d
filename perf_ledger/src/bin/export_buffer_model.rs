//! Regenerates `perf_ledger/models/buffer.rvf.txt`, the text export of
//! the paper buffer model that the serving workloads load. Run from the
//! repository root:
//!
//!   cargo run --release --offline --manifest-path perf_ledger/Cargo.toml \
//!       --bin export_buffer_model > perf_ledger/models/buffer.rvf.txt
//!
//! The serving workloads read this committed file instead of extracting
//! the model, so their numbers do not move when extraction changes.

use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config};
use rvf_core::{extract_model, text};

fn main() {
    let mut circuit = buffer_circuit();
    let (report, ..) = extract_model(&mut circuit, &paper_tft_config(), &paper_rvf_options())
        .expect("the paper buffer extracts with the paper settings");
    print!("{}", text::encode(&report.model));
}
