//! Criterion benchmarks of model *evaluation* (Table I "Speedup" and
//! Fig. 9): the transistor-level transient against the extracted RVF
//! and CAFFEINE models on the same 2.5 GS/s bit-pattern stimulus.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rvf_bench::{
    buffer_circuit, caffeine_options, paper_rvf_options, paper_tft_config, test_pattern,
};
use rvf_caffeine::{build_caffeine_hammerstein, simulate};
use rvf_circuit::{
    dc_operating_point, high_speed_buffer, transient, BufferParams, DcOptions, TranOptions,
};
use rvf_core::{fit_frequency_stage, fit_tft};
use rvf_tft::extract_from_circuit;

fn bench_simulation(c: &mut Criterion) {
    // Build the models once.
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config()).unwrap();
    let rvf_opts = paper_rvf_options();
    let rvf = fit_tft(&dataset, &rvf_opts).unwrap();
    let s_grid = dataset.s_grid();
    let dynamic = dataset.dynamic_responses();
    let freq_stage = fit_frequency_stage(&s_grid, &dynamic, &rvf_opts).unwrap();
    let caff = build_caffeine_hammerstein(&dataset, &freq_stage.fit.model, &caffeine_options());

    // The stimulus (shared): 4000 input samples at 2 ps.
    let (wave, dt, t_stop) = test_pattern();
    let inputs: Vec<f64> = {
        let n = (t_stop / dt) as usize;
        (0..=n).map(|i| wave.value(i as f64 * dt)).collect()
    };

    c.bench_function("spice_bit_pattern_transient", |b| {
        b.iter_batched(
            || {
                let mut ckt = high_speed_buffer(&BufferParams::default(), wave.clone());
                let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
                (ckt, op)
            },
            |(mut ckt, op)| {
                transient(&mut ckt, &op, &TranOptions { dt, t_stop, ..Default::default() }).unwrap()
            },
            BatchSize::LargeInput,
        )
    });

    c.bench_function("rvf_model_bit_pattern", |b| b.iter(|| rvf.model.simulate(dt, &inputs)));

    c.bench_function("caffeine_model_bit_pattern", |b| {
        b.iter(|| simulate(&caff, dt, &inputs).unwrap())
    });
}

criterion_group! {
    name = benches;
    // The SPICE transient row is ~40 ms/sample; 5 quick samples keep
    // the CI quick pass cheap while giving bench_diff a usable MAD
    // (3 samples collapse the noise interval to near zero width).
    config = Criterion::default().sample_size(10).quick_sample_size(5);
    targets = bench_simulation
}
criterion_main!(benches);
