//! Criterion benchmarks of model *building* (Table I "Build Time"):
//! the RVF fit against the CAFFEINE GP regression on the same TFT data.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_bench::{buffer_circuit, caffeine_options, paper_rvf_options, paper_tft_config};
use rvf_caffeine::build_caffeine_hammerstein;
use rvf_caffeine::GpOptions;
use rvf_core::{fit_frequency_stage, fit_tft};
use rvf_tft::extract_from_circuit;

fn bench_builds(c: &mut Criterion) {
    // One shared dataset, as in the paper.
    let mut circuit = buffer_circuit();
    let (dataset, _) = extract_from_circuit(&mut circuit, &paper_tft_config()).unwrap();
    let rvf_opts = paper_rvf_options();

    c.bench_function("rvf_model_build_table1", |b| {
        b.iter(|| fit_tft(&dataset, &rvf_opts).unwrap())
    });

    let s_grid = dataset.s_grid();
    let dynamic = dataset.dynamic_responses();
    let freq_stage = fit_frequency_stage(&s_grid, &dynamic, &rvf_opts).unwrap();

    // Trimmed GP budget: the benchmark compares the per-iteration cost
    // shape, the table binary reports the full-budget wall time.
    let mut caff_opts = caffeine_options();
    caff_opts.gp = GpOptions { population: 32, generations: 15, ..caff_opts.gp };
    c.bench_function("caffeine_model_build_short_budget", |b| {
        b.iter(|| build_caffeine_hammerstein(&dataset, &freq_stage.fit.model, &caff_opts))
    });

    c.bench_function("frequency_stage_fit_only", |b| {
        b.iter(|| fit_frequency_stage(&s_grid, &dynamic, &rvf_opts).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).quick_sample_size(5);
    targets = bench_builds
}
criterion_main!(benches);
