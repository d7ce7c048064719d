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
//! * `serving_drive_ln_p10_x4096` — the kernel's drive pass alone:
//!   `ln_shifted_into`, one `ln(u − pole)` per distinct state pole of
//!   the compiled buffer model (10 poles: its one common state-pole
//!   set), over 4096 smooth inputs —
//!   the per-sample transcendental cost every changed input pays;
//! * `serving_drive_ln_scalar_p10_x4096` — its control: the same
//!   features from one out-of-line `Complex::ln` call per pole, so each
//!   run shows the vector/scalar ratio;
//! * `serving_held_level_x4096` — the kernel's held-run layer: one
//!   started state fed 4096 samples at the level it holds, so each
//!   sample is one first-order-hold step of the buffer model's blocks
//!   with no drive evaluation — the per-sample cost every held input
//!   pays, next to `serving_drive_ln_p10_x4096`'s changed-sample cost;
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

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rvf_bench::{buffer_circuit, paper_rvf_options, paper_tft_config, test_pattern};
use rvf_circuit::Waveform;
use rvf_core::{fit_tft, CompiledSim, SessionChunk, SimState};
use rvf_numerics::{ln_shifted_into, Complex};
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

    // The drive pass: the distinct state poles of the lowered tables
    // (deduplicated by bit pattern, as `compile` does), each evaluated
    // as a log feature at every input.
    let mut poles: Vec<Complex> = Vec::new();
    for row in model.stages() {
        for t in &row.terms {
            let bits = |z: &Complex| (z.re.to_bits(), z.im.to_bits());
            if !poles.iter().any(|p| bits(p) == bits(&t.pole)) {
                poles.push(t.pole);
            }
        }
    }
    assert_eq!(poles.len(), sim.n_pole_features());
    assert_eq!(poles.len(), 10, "the buffer model's log-feature basis");
    let drive_inputs: Vec<f64> =
        (0..4096).map(|i| 0.9 + 0.4 * (f64::from(i) * 0.0123).sin()).collect();
    let (mut lr, mut li) = (vec![0.0; poles.len()], vec![0.0; poles.len()]);
    c.bench_function("serving_drive_ln_p10_x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &drive_inputs {
                ln_shifted_into(u, &poles, &mut lr, &mut li);
                acc += lr[0] + li[poles.len() - 1];
            }
            acc
        })
    });
    // Called through an opaque pointer, so the compiler can neither
    // inline nor vectorise it: one out-of-line `Complex::ln` per pole.
    let scalar_ln: fn(Complex) -> Complex = black_box(Complex::ln);
    c.bench_function("serving_drive_ln_scalar_p10_x4096", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &u in &drive_inputs {
                for ((r, i), &pole) in lr.iter_mut().zip(li.iter_mut()).zip(&poles) {
                    let z = scalar_ln(Complex::from_re(u) - pole);
                    (*r, *i) = (z.re, z.im);
                }
                acc += lr[0] + li[poles.len() - 1];
            }
            acc
        })
    });

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
