//! Persistent pool vs per-round spawn at realistic relocation-round
//! counts.
//!
//! The recursive fit runs one small parallel region per relocation
//! round, per pole count, per stage — tens to low hundreds of rounds
//! per extraction. Before the pool, each region paid a spawn/join
//! cycle; with [`rvf_numerics::SweepPool`] the whole sequence pays one
//! pool construction and each region becomes an epoch handoff to parked
//! workers. This bench pits the two against each other on the same
//! task mix: `pool_reuse_pooled_r{R}` builds one pool for R rounds,
//! `pool_reuse_spawn_r{R}` builds (spawns/joins) a fresh pool per round.
//! Both time [`SweepPool::run_with`](rvf_numerics::SweepPool::run_with)
//! dispatch, the path every fitting and serving round takes.

use criterion::{criterion_group, criterion_main, Criterion};
use rvf_numerics::SweepPool;

/// Workers per round: fixed at 2 so the dispatch/spawn machinery is
/// actually exercised wherever the bench runs (on a 1-core container
/// `threads: 0` would resolve both paths to the inline loop and
/// measure nothing).
const WORKERS: usize = 2;

/// Tasks per round, sized like a per-response VF stage (the
/// diode-clipper dataset has ~40 responses).
const TASKS: usize = 40;

/// A small deterministic per-task kernel (~µs): an LCG-driven float
/// accumulation that the optimizer cannot fold away, standing in for
/// one response's block assembly + QR compression.
fn task_kernel(i: usize) -> Result<f64, ()> {
    let mut state = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut acc = 0.0f64;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        acc += ((state >> 11) as f64 / (1u64 << 53) as f64).sqrt();
    }
    Ok(acc)
}

fn bench_pool_reuse(c: &mut Criterion) {
    for rounds in [8usize, 32, 128] {
        c.bench_function(&format!("pool_reuse_pooled_r{rounds:03}"), |b| {
            b.iter(|| {
                // One construction for the whole round sequence — the
                // runtime the fitting layer now uses.
                let pool = SweepPool::new(WORKERS);
                let mut units = vec![(); WORKERS];
                let mut total = 0.0;
                for _ in 0..rounds {
                    let out = pool.run_with(TASKS, &mut units, |(), i| task_kernel(i)).unwrap();
                    total += out[TASKS - 1];
                }
                total
            })
        });
        c.bench_function(&format!("pool_reuse_spawn_r{rounds:03}"), |b| {
            b.iter(|| {
                // A fresh pool per round: spawn + join every region,
                // the pre-pool cost model.
                let mut total = 0.0;
                for _ in 0..rounds {
                    let pool = SweepPool::new(WORKERS);
                    let mut units = vec![(); WORKERS];
                    let out = pool.run_with(TASKS, &mut units, |(), i| task_kernel(i)).unwrap();
                    total += out[TASKS - 1];
                }
                total
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).quick_sample_size(5);
    targets = bench_pool_reuse
}
criterion_main!(benches);
