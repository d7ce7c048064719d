//! Real-arithmetic jω kernel vs the general complex Hessenberg solve
//! on a jω grid — the per-frequency-point cost of a TFT sweep after
//! the pencil reduction.
//!
//! `pencil_solve_real_jw_{L}f` runs [`rvf_numerics::HtPencil::solve_reduced_jw`]
//! (split real/imaginary planes, scalar `f64` elimination, conjugate
//! multiplies instead of complex divisions) over an L-point log grid;
//! `pencil_solve_complex_{L}f` runs the reference path
//! ([`rvf_numerics::HtPencil::solve_reduced_complex`]: complex matrix
//! assembly + complex elimination) over the same grid. Both include the
//! projected-RHS setup once, outside the loop, as the sampler does.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_numerics::{logspace, Complex, HtPencil, Mat};

/// A buffer-sized synthetic MNA pencil (n = 36): diagonally dominant
/// conductance matrix, sparse-ish capacitance diagonal.
fn buffer_pencil() -> (Mat, Mat) {
    let n = 36;
    let g =
        Mat::from_fn(
            n,
            n,
            |i, j| {
                if i == j {
                    2.0e-3
                } else {
                    1.0e-4 * ((i * 31 + j * 17) as f64).sin()
                }
            },
        );
    let c = Mat::from_fn(n, n, |i, j| if i == j { 2.0e-14 } else { 0.0 });
    (g, c)
}

fn bench_pencil_solve(c: &mut Criterion) {
    let (g, cm) = buffer_pencil();
    let p = HtPencil::reduce(&g, &cm).unwrap();
    let n = p.dim();
    let b: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let bt = p.project_input(&b).unwrap();
    for n_freqs in [30usize, 120] {
        let omegas: Vec<f64> = logspace(3.0, 10.0, n_freqs)
            .into_iter()
            .map(|f| 2.0 * core::f64::consts::PI * f)
            .collect();
        c.bench_function(&format!("pencil_solve_real_jw_{n_freqs}f"), |bch| {
            bch.iter(|| {
                omegas
                    .iter()
                    .map(|&w| p.solve_reduced_jw(w, &bt).unwrap()[n - 1])
                    .fold(Complex::ZERO, |acc, v| acc + v)
            })
        });
        c.bench_function(&format!("pencil_solve_complex_{n_freqs}f"), |bch| {
            bch.iter(|| {
                omegas
                    .iter()
                    .map(|&w| p.solve_reduced_complex(Complex::from_im(w), &bt).unwrap()[n - 1])
                    .fold(Complex::ZERO, |acc, v| acc + v)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).quick_sample_size(5);
    targets = bench_pencil_solve
}
criterion_main!(benches);
