//! Batch-serving an extracted model: push many distinct bit patterns
//! through one compiled buffer macromodel and report throughput — the
//! deployment scenario behind the paper's Table I "Speedup".
//!
//! ```sh
//! cargo run --release --example serving_throughput
//! ```

use std::time::Instant;

use rvf::circuit::{high_speed_buffer, prbs7, BufferParams, Waveform};
use rvf::model::{extract_model, RvfOptions, SessionChunk, SimState};
use rvf::numerics::SweepPool;
use rvf::tft::TftConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Extract the analytical model once (paper §IV setup).
    let train =
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut buffer = high_speed_buffer(&BufferParams::default(), train);
    let tft_cfg = TftConfig {
        f_min_hz: 1.0,
        f_max_hz: 1.0e10,
        n_freqs: 60,
        t_train: 1.0e-5,
        steps: 2000,
        n_snapshots: 100,
        embed_depth: 1,
        threads: 0,
    };
    let opts = RvfOptions { epsilon: 1e-4, max_state_poles: 20, ..Default::default() };
    println!("extracting the buffer model…");
    let (report, _dataset, _train) = extract_model(&mut buffer, &tft_cfg, &opts)?;
    let model = report.model;

    // 2. Lower it into the compiled serving tables — once.
    let sim = model.compile();
    println!(
        "compiled: {} blocks, {} drive rows, {} shared pole features",
        sim.n_blocks(),
        sim.n_drives(),
        sim.n_pole_features()
    );

    // 3. A workload of distinct 2.5 GS/s bit patterns (different PRBS
    //    seeds), sampled at 2 ps.
    let dt = 2.0e-12;
    let n_samples = 2000;
    let stimuli: Vec<Vec<f64>> = (1..=256u32)
        .map(|seed| {
            let wave = Waveform::BitPattern {
                v0: 0.5,
                v1: 1.3,
                bits: prbs7((seed % 127 + 1) as u8, 20),
                rate_hz: 2.5e9,
                rise: 60e-12,
                delay: 0.0,
            };
            (0..n_samples).map(|i| wave.value(i as f64 * dt)).collect()
        })
        .collect();
    let total_samples = (stimuli.len() * n_samples) as f64;

    // 4. Serve: one `advance_chunks` round over fresh states fans one
    //    task per stimulus over a worker pool; a long-lived server keeps
    //    the pool, so the threads are spawned once.
    let pool = SweepPool::new(0);
    let mut outputs: Vec<Vec<f64>> = vec![vec![0.0; n_samples]; stimuli.len()];
    for round in 1..=3 {
        let start = Instant::now();
        let mut states: Vec<SimState> = stimuli.iter().map(|_| sim.new_state()).collect();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(&stimuli)
            .zip(outputs.iter_mut())
            .map(|((state, input), output)| SessionChunk { state, input, output })
            .collect();
        sim.advance_chunks(dt, &mut chunks, Some(&pool))?;
        drop(chunks);
        let secs = start.elapsed().as_secs_f64();
        let last = outputs.last().and_then(|o| o.last()).copied().unwrap_or(0.0);
        println!(
            "round {round}: {} stimuli × {n_samples} samples in {:.1} ms  \
             ({:.2} Msamples/s, last output {last:.4} V)",
            stimuli.len(),
            secs * 1e3,
            total_samples / secs / 1e6
        );
    }

    // Sanity: the batch output is bit-identical to a serial call.
    let serial = sim.simulate(dt, &stimuli[0]);
    assert!(serial.iter().zip(&outputs[0]).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("bit-identity check passed; pool ran {} sweeps", pool.sweeps());
    Ok(())
}
