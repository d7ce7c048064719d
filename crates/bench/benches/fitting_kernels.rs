//! Criterion microbenchmarks of the numerical kernels that dominate the
//! extraction (ablation data for DESIGN.md): the eigensolver behind
//! pole relocation, the lane-group QR compression, the complex
//! frequency solves of the TFT transform, and whole fits at the
//! frequency-stage and state-stage shapes; plus the real LU refactor
//! and solve that every Newton iteration of the training transient
//! runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_bench::buffer_circuit;
use rvf_circuit::{dc_operating_point, DcOptions};
use rvf_numerics::{
    compress_lanes_in_place, eigenvalues, factor_with_rhs_in_place, jw_grid, linspace, logspace,
    CLu, CMat, Complex, LaneBlock, Lu, Mat, Qr, Reflectors, SweepPool, LANES,
};
use rvf_vecfit::{auto_workers, fit, fit_in, VfOptions};

fn bench_eigensolver(c: &mut Criterion) {
    // Diagonal-plus-rank-one in real block form, the relocation matrix
    // shape, at the paper's pole count.
    let n = 12;
    let mut a = Mat::zeros(n, n);
    for i in 0..n / 2 {
        let w = 10f64.powi(i as i32 + 3);
        a[(2 * i, 2 * i)] = -0.01 * w;
        a[(2 * i, 2 * i + 1)] = w;
        a[(2 * i + 1, 2 * i)] = -w;
        a[(2 * i + 1, 2 * i + 1)] = -0.01 * w;
    }
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] -= 1e-2 * 10f64.powi((j / 2) as i32 + 3);
        }
    }
    c.bench_function("eigenvalues_12x12_relocation_matrix", |b| {
        b.iter(|| eigenvalues(&a).unwrap())
    });
}

fn bench_complex_solve(c: &mut Criterion) {
    // One TFT frequency point on a buffer-sized MNA system.
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
    let cc = Mat::from_fn(n, n, |i, j| if i == j { 2.0e-14 } else { 0.0 });
    let s = Complex::from_im(2.0 * core::f64::consts::PI * 1.0e9);
    let b_vec = vec![1.0; n];
    c.bench_function("complex_lu_solve_36x36_tft_point", |b| {
        b.iter(|| {
            let sys = CMat::from_real_pair(&g, s, &cc);
            let lu = CLu::factor(&sys).unwrap();
            lu.solve_real(&b_vec).unwrap()
        })
    });
}

fn bench_lu_refactor_solve(c: &mut Criterion) {
    // One Newton iteration's linear algebra in the paper buffer's
    // training transient: the trapezoidal companion Jacobian G + (2/dt)·C
    // (26×26) at the DC point, refactored and solved on a warm workspace.
    let mut ckt = buffer_circuit();
    let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let ev = ckt.eval(&op, 0.0, 1e-12);
    let dt = 1.0e-5 / 2000.0;
    let jac = ev.g.axpy(2.0 / dt, &ev.c);
    let rhs: Vec<f64> = (0..jac.rows()).map(|i| 1e-3 * ((i * 7) as f64).sin()).collect();
    let mut ws = Lu::factor(&jac).unwrap();
    let mut dx = vec![0.0; rhs.len()];
    c.bench_function("lu_refactor_solve_26x26_buffer_jacobian", |b| {
        b.iter(|| {
            ws.refactor(&jac).unwrap();
            ws.solve_into(&rhs, &mut dx).unwrap();
            dx[0]
        })
    });
}

fn bench_qr_compression(c: &mut Criterion) {
    // The per-response block QR of the fast VF formulation:
    // 120 realified rows, 13 columns.
    let m = Mat::from_fn(120, 13, |i, j| ((i * 7 + j * 13) as f64).sin());
    c.bench_function("qr_block_120x13_fast_vf", |b| {
        b.iter(|| {
            let f = Qr::factor(&m);
            f.r()
        })
    });
}

fn bench_qr_compress_response(c: &mut Criterion) {
    // One lane group's share of a relaxed relocation round, the unit a
    // round dispatches: four responses' `rows × n_sig` sigma blocks, one
    // per lane, take the shared local factor's reflectors, then each
    // lane's trailing `rows − n_loc` rows are factored. Relaxed VF
    // carries no right-hand side (it is all zero). The shapes are the
    // ones that dominate an extraction: a frequency-stage fit (24
    // frequencies, 4 poles) and a state-stage fit (101 states, 20 poles
    // plus the constant).
    for &(name, rows, n_loc, n_sig) in
        &[("qr_compress_freq_48x4x5_x4", 48, 4, 5), ("qr_compress_state_101x21x21_x4", 101, 21, 21)]
    {
        let mut local = Mat::from_fn(rows, n_loc, |i, j| ((i * 7 + j * 13) as f64).sin());
        let mut local_refl = Reflectors::default();
        factor_with_rhs_in_place(&mut local, &mut local_refl, &mut []);
        let sigma: Vec<[f64; LANES]> = (0..rows * n_sig)
            .map(|e| core::array::from_fn(|l| ((e * 5 + l * 11 + 3) as f64).cos()))
            .collect();
        let (mut buf, mut refl) = (LaneBlock::default(), Reflectors::default());
        let block = buf.resize(sigma.len());
        c.bench_function(name, |b| {
            b.iter(|| {
                block.copy_from_slice(&sigma);
                compress_lanes_in_place(&local_refl, block, n_sig, n_sig, &mut refl);
                block[n_loc * n_sig]
            })
        });
    }
}

/// Synthetic 4-pole trajectory data: `k_responses` responses whose
/// residues drift with the normalized state `k/(K-1)` — the shape of a
/// TFT dataset after the frequency stage.
fn synth_responses(k_responses: usize, samples: &[Complex]) -> Vec<Vec<Complex>> {
    let poles = [
        Complex::new(-1.0e8, 2.0e9),
        Complex::new(-1.0e8, -2.0e9),
        Complex::new(-5.0e9, 1.5e10),
        Complex::new(-5.0e9, -1.5e10),
    ];
    (0..k_responses)
        .map(|k| {
            let x = k as f64 / (k_responses - 1).max(1) as f64;
            samples
                .iter()
                .map(|&s| {
                    poles
                        .iter()
                        .enumerate()
                        .map(|(i, &a)| {
                            let r = Complex::new(1.0e9 * (1.0 + x), 2.0e8 * x * (i as f64 + 1.0));
                            let r = if a.im < 0.0 { r.conj() } else { r };
                            r * (s - a).inv()
                        })
                        .sum()
                })
                .collect()
        })
        .collect()
}

fn bench_vf_fit(c: &mut Criterion) {
    // A full common-pole VF fit at the experiment's size: 100 responses,
    // 60 frequencies, 6 poles.
    let samples = jw_grid(&logspace(0.0, 10.0, 60));
    let data = synth_responses(100, &samples);
    let opts = VfOptions::frequency(4).with_iterations(5);
    c.bench_function("vector_fit_100responses_60freqs_4poles", |b| {
        b.iter(|| fit(&samples, &data, &opts).unwrap())
    });
}

fn bench_state_stage_fit(c: &mut Criterion) {
    // The state stage's shape, its largest extraction layer: one
    // real-axis residue trajectory over 41 states at the 16-pole budget
    // ceiling of the paper's RVF options.
    let xs: Vec<Complex> = linspace(-1.0, 1.0, 41).into_iter().map(Complex::from_re).collect();
    let traj = xs.iter().map(|x| Complex::from_re((1.5 * x.re).tanh() + 0.3 * x.re * x.re));
    let data = vec![traj.collect::<Vec<_>>()];
    let opts = VfOptions::state(16).with_iterations(10);
    c.bench_function("vector_fit_state_1response_41states_16poles", |b| {
        b.iter(|| fit(&xs, &data, &opts).unwrap())
    });
}

fn bench_vf_k_scaling(c: &mut Criterion) {
    // Serial vs parallel per-response compression at growing response
    // counts. `fit` runs on a one-worker pool, the serial path; the
    // parallel rows build a pool of `auto_workers(0, K)` workers per
    // fit, one per core (but serial below the engine's 8-response
    // crossover, so K = 4 documents the dispatch heuristic). Outputs
    // are bit-identical between the two paths; only wall-clock differs.
    let samples = jw_grid(&logspace(0.0, 10.0, 60));
    let opts = VfOptions::frequency(4).with_iterations(5);
    for &k_responses in &[4usize, 16, 64, 256] {
        let data = synth_responses(k_responses, &samples);
        c.bench_function(&format!("vf_k_scaling_k{k_responses:03}_serial"), |b| {
            b.iter(|| fit(&samples, &data, &opts).unwrap())
        });
        c.bench_function(&format!("vf_k_scaling_k{k_responses:03}_parallel"), |b| {
            b.iter(|| {
                let pool = SweepPool::new(auto_workers(0, k_responses));
                fit_in(&pool, &samples, &data, &opts, None).unwrap()
            })
        });
    }
}

criterion_group! {
    name = benches;
    // Rows span ~10 µs (eigensolver) to ~27 ms (k=256 fits): cheap
    // enough that quick mode can afford 7 samples, which keeps the
    // MAD interval bench_diff builds from being degenerate on the
    // µs-scale kernel rows.
    config = Criterion::default().sample_size(10).quick_sample_size(7);
    targets = bench_eigensolver, bench_complex_solve, bench_lu_refactor_solve, bench_qr_compression,
        bench_qr_compress_response, bench_vf_fit, bench_state_stage_fit, bench_vf_k_scaling
}
criterion_main!(benches);
