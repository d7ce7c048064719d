//! Criterion benchmarks of the TFT data-generation pipeline (the
//! workload behind Fig. 6): training transient with snapshot capture
//! and the snapshot → frequency-domain transform.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rvf_bench::{buffer_circuit, paper_tft_config};
use rvf_circuit::{dc_operating_point, transient, DcOptions, TranOptions};
use rvf_tft::tft_from_snapshots;

fn bench_training_transient(c: &mut Criterion) {
    // A shortened training run (200 steps) keeps the benchmark tight
    // while exercising the same code path as the full experiment.
    c.bench_function("buffer_training_transient_200steps", |b| {
        b.iter_batched(
            || {
                let mut ckt = buffer_circuit();
                let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
                (ckt, op)
            },
            |(mut ckt, op)| {
                let opts = TranOptions {
                    dt: 1.0e-5 / 200.0,
                    t_stop: 1.0e-5 / 10.0,
                    snapshot_every: Some(2),
                };
                transient(&mut ckt, &op, &opts).unwrap()
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_tft_transform(c: &mut Criterion) {
    // Capture once; benchmark only the frequency-domain transform.
    let mut ckt = buffer_circuit();
    let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let opts = TranOptions { dt: 1.0e-5 / 400.0, t_stop: 1.0e-5 / 10.0, snapshot_every: Some(2) };
    let tran = transient(&mut ckt, &op, &opts).unwrap();
    let b_col = ckt.input_column().unwrap();
    let d_row = ckt.output_row().unwrap();
    let freqs = paper_tft_config().freq_grid();
    c.bench_function("tft_transform_20snapshots_60freqs", |b| {
        b.iter(|| tft_from_snapshots(&tran.snapshots, &b_col, &d_row, &freqs, 1, 4).unwrap())
    });
}

fn bench_dc_operating_point(c: &mut Criterion) {
    c.bench_function("buffer_dc_operating_point", |b| {
        b.iter_batched(
            buffer_circuit,
            |mut ckt| dc_operating_point(&mut ckt, &DcOptions::default()).unwrap(),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).quick_sample_size(5);
    targets = bench_dc_operating_point, bench_training_transient, bench_tft_transform
}
criterion_main!(benches);
