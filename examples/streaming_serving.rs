//! Streaming an extracted model chunk by chunk: advance resumable
//! states of one compiled buffer macromodel as inputs "arrive",
//! checkpoint mid-stream, and advance many live sessions
//! together over a worker pool — the model-serving service tier.
//!
//! ```sh
//! cargo run --release --example streaming_serving
//! ```

use std::time::Instant;

use rvf::circuit::{high_speed_buffer, prbs7, BufferParams, Waveform};
use rvf::model::{extract_model, RvfOptions, SessionChunk, SimState};
use rvf::numerics::SweepPool;
use rvf::tft::TftConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Extract and compile the model once (paper §IV setup).
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
    let sim = report.model.compile();

    // 2. One live input stream, served in 64-sample chunks. The state
    //    carries the block registers across chunk boundaries, so the
    //    result is bit-identical to evaluating the whole stimulus at
    //    once.
    let dt = 2.0e-12;
    let wave = Waveform::BitPattern {
        v0: 0.5,
        v1: 1.3,
        bits: prbs7(1, 40),
        rate_hz: 2.5e9,
        rise: 60e-12,
        delay: 0.0,
    };
    let stream: Vec<f64> = (0..65_536).map(|i| wave.value(i as f64 * dt)).collect();

    let mut state = sim.new_state();
    let mut out = vec![0.0; 64];
    let mut streamed = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for chunk in stream.chunks(64) {
        // simulate_into reuses the caller's buffer: no allocation per
        // chunk.
        sim.simulate_into(dt, chunk, &mut state, &mut out[..chunk.len()])?;
        streamed.extend_from_slice(&out[..chunk.len()]);
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "streamed {} samples in 64-sample chunks: {:.1} ms ({:.2} Msamples/s)",
        stream.len(),
        secs * 1e3,
        stream.len() as f64 / secs / 1e6
    );
    let one_shot = sim.simulate(dt, &stream);
    assert!(streamed.iter().zip(&one_shot).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("chunked output is bit-identical to the one-shot call");

    // 3. Checkpoint / resume: clone the state mid-stream, park it, and
    //    continue later from exactly the same point.
    let mut state = sim.new_state();
    let mut resumed_out = vec![0.0; stream.len()];
    let (head, tail) = resumed_out.split_at_mut(32_768);
    sim.simulate_into(dt, &stream[..32_768], &mut state, head)?;
    let mut resumed = state.clone();
    println!("checkpointed after {} samples", resumed.samples());
    sim.simulate_into(dt, &stream[32_768..], &mut resumed, tail)?;
    assert!(resumed_out.iter().zip(&one_shot).all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("resumed state reproduced the stream bit-for-bit");

    // 4. `advance_chunks` advances many live sessions at once, one pool
    //    task per session chunk over a persistent worker pool. The
    //    caller owns the states and output buffers; worker failures come
    //    back as typed errors (ServingError), never panics, and leave
    //    every state untouched.
    let pool = SweepPool::new(0);
    let mut states: Vec<SimState> = (0..48).map(|_| sim.new_state()).collect();
    let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); states.len()];
    let start = Instant::now();
    let mut served = 0usize;
    for round in 0..16 {
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(outputs.iter_mut())
            .enumerate()
            .map(|(k, (state, output))| {
                // Sessions drift apart in chunk size, as real traffic
                // would.
                let n = 192 + 32 * ((k + round) % 3);
                let off = (round * 256) % (stream.len() - n);
                output.resize(n, 0.0);
                SessionChunk { state, input: &stream[off..off + n], output }
            })
            .collect();
        sim.advance_chunks(dt, &mut chunks, Some(&pool))?;
        served += chunks.iter().map(|c| c.output.len()).sum::<usize>();
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "advance_chunks: {} sessions, {} samples in {:.1} ms ({:.2} Msamples/s, {} pool sweeps)",
        states.len(),
        served,
        secs * 1e3,
        served as f64 / secs / 1e6,
        pool.sweeps()
    );
    Ok(())
}
