//! Naive per-frequency dense LU vs the reduced-pencil fast path on the
//! 5-section RC ladder — the scaling study behind `transfer_sweep`
//! always reducing the pencil. The naive path refactors `G + s·C` at
//! every frequency (`O(L·n³)`); the reduced path pays one
//! Hessenberg–triangular reduction and then back-substitutes
//! (`O(n³ + L·n²)`), so its advantage grows linearly with the sweep
//! length `L`.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_circuit::{
    dc_operating_point, rc_ladder, transfer_at, transfer_sweep, DcOptions, ReducedTransfer,
    Waveform,
};
use rvf_numerics::{logspace, Complex, Mat};

/// The 5-section RC ladder's MNA pencil and ports at its DC operating
/// point (dim = ladder nodes + source branch).
fn ladder_pencil() -> (Mat, Mat, Vec<f64>, Vec<f64>) {
    let mut ckt = rc_ladder(5, 1.0e3, 1.0e-9, Waveform::Dc(0.5));
    // dc_operating_point finalizes the circuit, so eval is safe here.
    let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let ev = ckt.eval(&x0, 0.0, 0.0);
    let b = ckt.input_column().unwrap();
    let d = ckt.output_row().unwrap();
    (ev.g, ev.c, b, d)
}

fn s_grid(n_freqs: usize) -> Vec<Complex> {
    logspace(3.0, 8.0, n_freqs)
        .into_iter()
        .map(|f| Complex::from_im(2.0 * core::f64::consts::PI * f))
        .collect()
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let (g, cm, b, d) = ladder_pencil();
    for n_freqs in [10usize, 30, 60, 120] {
        let ss = s_grid(n_freqs);
        c.bench_function(&format!("sweep_naive_lu_{n_freqs}f"), |bch| {
            bch.iter(|| {
                ss.iter()
                    .map(|&s| transfer_at(&g, &cm, &b, &d, s).unwrap())
                    .collect::<Vec<Complex>>()
            })
        });
        c.bench_function(&format!("sweep_reduced_pencil_{n_freqs}f"), |bch| {
            bch.iter(|| {
                // Includes the per-snapshot reduction cost, as in the
                // sampler: reduce once, then evaluate every frequency.
                let rt = ReducedTransfer::new(&g, &cm, &b, &d).unwrap();
                ss.iter().map(|&s| rt.eval(s).unwrap()).collect::<Vec<Complex>>()
            })
        });
    }
}

fn bench_dispatch_heuristic(c: &mut Criterion) {
    // The production entry point at the paper's sweep length.
    let (g, cm, b, d) = ladder_pencil();
    let ss = s_grid(60);
    c.bench_function("transfer_sweep_dispatch_60f", |bch| {
        bch.iter(|| transfer_sweep(&g, &cm, &b, &d, &ss).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).quick_sample_size(5);
    targets = bench_sweep_scaling, bench_dispatch_heuristic
}
criterion_main!(benches);
