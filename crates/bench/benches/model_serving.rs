//! Criterion benchmarks of the compiled batch-serving runtime: the
//! macromodel-deployment scenario behind Table I "Speedup" — one
//! extracted buffer model, many bit-pattern stimuli.
//!
//! Rows:
//!
//! * `serving_reference_single` — the scalar oracle loop
//!   (`HammersteinModel::simulate_reference`);
//! * `serving_compiled_single` — the same stimulus through a
//!   pre-compiled [`rvf_core::CompiledSim`];
//! * `serving_compile_lowering` — the one-off model → tables lowering;
//! * `serving_changed_run{01,04,08}_x4096` / `serving_changed_all_x4096`
//!   — the whole kernel on the 46-feature buffer model the serving
//!   benchmark loads (`perf_ledger/models/buffer.rvf.txt`): one started
//!   state fed 4096 samples in which every 51-sample period opens with a
//!   run of 1, 4 or 8 samples that each change (the rest hold the last
//!   level), or in which every sample changes. Changed runs share one
//!   drive pass per 8, 4, 2 or 1 samples, so these rows show what an
//!   isolated change costs next to a run of them;
//! * `serving_held_level_x4096` — the kernel's held-run layer: one
//!   started state fed 4096 samples at the level it holds, so each
//!   sample is one first-order-hold step of the buffer model's blocks
//!   with no drive evaluation — the per-sample cost every held input
//!   pays;
//! * `serving_batch_b{001,016,256}` — batch evaluation of 1/16/256
//!   distinct bit patterns through one compiled model (serial worker:
//!   one `advance_chunks` round over fresh states, one task per
//!   stimulus);
//! * `serving_sequential_b256` — the same 256 stimuli as 256 separate
//!   single-stimulus calls, the floor the batch path's per-round
//!   bookkeeping is measured against;
//! * `serving_stream_sustained_c064` / `serving_stream_sustained_c512`
//!   — 64k samples pushed through one `SimState` via the
//!   zero-allocation `simulate_into` in 64- / 512-sample chunks: the
//!   sustained-Msamples/s figure of the streaming tier (must hold the
//!   batch path's throughput).
//!
//! Throughput = (stimuli × samples) / time.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config, test_pattern};
use rvf_circuit::Waveform;
use rvf_core::{fit_tft, text, CompiledSim, SessionChunk, SimState};
use rvf_tft::extract_from_circuit;

/// One 2.5 GS/s bit pattern, 2 ps sampling. The 20 symbols come from a
/// seeded LCG (not `prbs7`, whose 7-bit LFSR only has 127 phases), so
/// all 256 batch stimuli are genuinely distinct.
fn pattern_stimulus(seed: u64, n_samples: usize, dt: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let bits: Vec<bool> = (0..20)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 62) & 1 == 1
        })
        .collect();
    let wave =
        Waveform::BitPattern { v0: 0.5, v1: 1.3, bits, rate_hz: 2.5e9, rise: 60e-12, delay: 0.0 };
    (0..n_samples).map(|i| wave.value(i as f64 * dt)).collect()
}

fn bench_serving(c: &mut Criterion) {
    // One extracted buffer model shared by every row.
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config()).unwrap();
    let model = fit_tft(&dataset, &paper_rvf_options()).unwrap().model;
    let sim = model.compile();

    // The Fig. 9 validation stimulus for the single-stimulus rows.
    let (wave, dt, t_stop) = test_pattern();
    let inputs: Vec<f64> = {
        let n = (t_stop / dt) as usize;
        (0..=n).map(|i| wave.value(i as f64 * dt)).collect()
    };

    c.bench_function("serving_reference_single", |b| {
        b.iter(|| model.simulate_reference(dt, &inputs))
    });
    c.bench_function("serving_compiled_single", |b| b.iter(|| sim.simulate(dt, &inputs)));
    c.bench_function("serving_compile_lowering", |b| b.iter(|| model.compile()));

    // The whole kernel on the serving benchmark's 46-feature model, at
    // four densities of changed samples.
    let buffer46 = text::decode(include_str!("../../../perf_ledger/models/buffer.rvf.txt"))
        .expect("the committed buffer model decodes")
        .compile();
    assert_eq!(buffer46.n_pole_features(), 46, "the serving benchmark's log-feature basis");
    let smooth = |i: usize| 0.9 + 0.4 * (i as f64 * 0.0123).sin();
    for (id, run) in [
        ("serving_changed_run01_x4096", 1usize),
        ("serving_changed_run04_x4096", 4),
        ("serving_changed_run08_x4096", 8),
        ("serving_changed_all_x4096", 51),
    ] {
        // Each 51-sample period: `run` changed samples, then the last
        // level held.
        let input: Vec<f64> =
            (0..4096usize).map(|i| smooth(i - (i % 51).saturating_sub(run - 1))).collect();
        let mut state = buffer46.new_state();
        let mut out = vec![0.0; input.len()];
        buffer46.simulate_into(dt, &input[..1], &mut state, &mut out[..1]).unwrap();
        c.bench_function(id, |b| {
            b.iter(|| {
                buffer46.simulate_into(dt, &input, &mut state, &mut out).unwrap();
                out[input.len() - 1]
            })
        });
    }

    // The held-run layer: one started state fed 4096 samples at the
    // level it already holds, so every sample is one held-run step.
    let held = vec![0.9; 4096];
    let mut held_state = sim.new_state();
    let mut held_out = vec![0.0; held.len()];
    sim.simulate_into(dt, &held[..1], &mut held_state, &mut held_out[..1]).unwrap();
    c.bench_function("serving_held_level_x4096", |b| {
        b.iter(|| {
            sim.simulate_into(dt, &held, &mut held_state, &mut held_out).unwrap();
            held_out[held.len() - 1]
        })
    });

    // Batch serving: 256 distinct 1000-sample bit patterns.
    let stimuli: Vec<Vec<f64>> = (0..256).map(|k| pattern_stimulus(k, 1000, dt)).collect();
    let refs: Vec<&[f64]> = stimuli.iter().map(Vec::as_slice).collect();
    for batch in [1usize, 16, 256] {
        let id = format!("serving_batch_b{batch:03}");
        let slice = &refs[..batch];
        c.bench_function(&id, |b| b.iter(|| batch_round(&sim, dt, slice)));
    }
    c.bench_function("serving_sequential_b256", |b| {
        b.iter(|| refs.iter().map(|s| sim.simulate(dt, s)).collect::<Vec<_>>())
    });

    // Sustained streaming: one long stimulus through one state in
    // fixed-size chunks over the allocation-free simulate_into path.
    let stream: Vec<f64> = pattern_stimulus(999, 65_536, dt);
    for chunk in [64usize, 512] {
        let id = format!("serving_stream_sustained_c{chunk:03}");
        c.bench_function(&id, |b| {
            b.iter(|| {
                let mut state = sim.new_state();
                let mut out = vec![0.0; chunk];
                let mut acc = 0.0;
                for piece in stream.chunks(chunk) {
                    sim.simulate_into(dt, piece, &mut state, &mut out[..piece.len()]).unwrap();
                    acc += out[piece.len() - 1];
                }
                acc
            })
        });
    }
}

/// One batch: every stimulus from a fresh state in one serial
/// [`CompiledSim::advance_chunks`] round.
fn batch_round(sim: &CompiledSim, dt: f64, stimuli: &[&[f64]]) -> Vec<Vec<f64>> {
    let mut states: Vec<SimState> = stimuli.iter().map(|_| sim.new_state()).collect();
    let mut outs: Vec<Vec<f64>> = stimuli.iter().map(|s| vec![0.0; s.len()]).collect();
    let mut chunks: Vec<SessionChunk<'_>> = states
        .iter_mut()
        .zip(stimuli)
        .zip(outs.iter_mut())
        .map(|((state, input), output)| SessionChunk { state, input, output })
        .collect();
    sim.advance_chunks(dt, &mut chunks, None).unwrap();
    drop(chunks);
    outs
}

criterion_group! {
    name = benches;
    // 7 quick-mode samples (vs the global default of 3): the committed
    // baselines for this suite need a usable median ± MAD interval.
    config = Criterion::default().sample_size(10).quick_sample_size(7);
    targets = bench_serving
}
criterion_main!(benches);
