//! Pins the compiled serving runtime against the scalar reference loop
//! on a *real* extracted model (the diode clipper): exact per-sample
//! identity for the single-stimulus path, bit-identical batch output
//! (one `advance_chunks` round over fresh states) for every worker
//! count (owned and borrowed pools), and the pole
//! dedup that makes the compiled path cheaper than the reference.

use rvf::circuit::{diode_clipper, Waveform};
use rvf::model::serving::{CompiledSim, SessionChunk, SimState};
use rvf::model::{fit_tft, DynBlock, HammersteinModel, RvfOptions, StateFn};
use rvf::numerics::SweepPool;
use rvf::tft::{extract_from_circuit, TftConfig};

fn clipper_model() -> HammersteinModel {
    let mut ckt = diode_clipper(Waveform::Sine {
        offset: 0.0,
        amplitude: 1.5,
        freq_hz: 1.0e5,
        phase_rad: 0.0,
        delay: 0.0,
    });
    let cfg = TftConfig {
        f_min_hz: 1.0e3,
        f_max_hz: 1.0e8,
        n_freqs: 30,
        t_train: 1.0e-5,
        steps: 400,
        n_snapshots: 40,
        embed_depth: 1,
        threads: 2,
    };
    let (dataset, _) = extract_from_circuit(&mut ckt, &cfg).unwrap();
    fit_tft(&dataset, &RvfOptions { epsilon: 1e-3, ..Default::default() }).unwrap().model
}

/// A bit-pattern-flavoured stimulus (held levels + ramps) that
/// exercises both the memoized and the recompute drive paths.
fn stimulus(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut out = Vec::with_capacity(n);
    let mut level = 0.0f64;
    while out.len() < n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let next = ((state >> 40) as f64 / (1u64 << 24) as f64) * 2.4 - 1.2;
        for k in 0..4 {
            // Short linear ramp into each new level…
            out.push(level + (next - level) * (k as f64 / 4.0));
            if out.len() == n {
                return out;
            }
        }
        level = next;
        for _ in 0..9 {
            // …then a flat hold (consecutive bit-equal samples).
            out.push(level);
            if out.len() == n {
                return out;
            }
        }
    }
    out
}

#[test]
fn compiled_is_exactly_identical_to_reference_on_the_diode_clipper() {
    let model = clipper_model();
    assert!(!model.blocks.is_empty(), "want a non-trivial extracted model");
    let sim = model.compile();

    // The dedup must collapse each pair block's two responses onto one
    // pole run: distinct features < total log terms of the reference.
    let reference_terms: usize = model.stages().map(StateFn::n_terms).sum();
    let has_pairs = model.blocks.iter().any(|b| matches!(b, DynBlock::Pair { .. }));
    if has_pairs {
        assert!(
            sim.n_pole_features() < reference_terms,
            "dedup: {} features vs {} reference log terms",
            sim.n_pole_features(),
            reference_terms
        );
    } else {
        // All-real pole sets (the clipper extracts first-order blocks)
        // have nothing to share; the feature count must still not grow.
        assert!(sim.n_pole_features() <= reference_terms);
    }

    let dt = 2.0e-9;
    for (seed, n) in [(1u64, 500), (7, 1), (13, 2), (99, 137)] {
        let u = stimulus(seed, n);
        let want = model.simulate_reference(dt, &u);
        let got = sim.simulate(dt, &u);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            // Exact identity (f64 ==): the compiled kernel reproduces
            // the reference loop's operation order.
            assert!(g == w, "seed {seed}, sample {i}: {g} vs {w}");
        }
    }
    // And the public `simulate` is the compiled path.
    let u = stimulus(3, 200);
    assert_eq!(model.simulate(dt, &u), sim.simulate(dt, &u));
}

/// Runs every stimulus from a fresh state in one
/// [`CompiledSim::advance_chunks`] round on `pool`.
fn batch(sim: &CompiledSim, pool: &SweepPool, dt: f64, stimuli: &[&[f64]]) -> Vec<Vec<f64>> {
    let mut states: Vec<SimState> = stimuli.iter().map(|_| sim.new_state()).collect();
    let mut outs: Vec<Vec<f64>> = stimuli.iter().map(|s| vec![0.0; s.len()]).collect();
    let mut chunks: Vec<SessionChunk<'_>> = states
        .iter_mut()
        .zip(stimuli)
        .zip(outs.iter_mut())
        .map(|((state, input), output)| SessionChunk { state, input, output })
        .collect();
    sim.advance_chunks(dt, &mut chunks, Some(pool)).unwrap();
    drop(chunks);
    outs
}

#[test]
fn batch_output_is_bit_identical_for_every_worker_count() {
    let model = clipper_model();
    let sim = model.compile();
    let dt = 2.0e-9;
    // Mixed lengths: runs of equal length plus stragglers.
    let stims: Vec<Vec<f64>> =
        (0..13).map(|k| stimulus(k as u64 + 17, if k < 10 { 160 } else { 40 + 7 * k })).collect();
    let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
    let serial: Vec<Vec<f64>> = refs.iter().map(|s| sim.simulate(dt, s)).collect();

    let pool = SweepPool::new(4);
    for threads in [1usize, 2, 4, 0] {
        let owned = batch(&sim, &SweepPool::new(threads), dt, &refs);
        let borrowed = batch(&sim, &pool, dt, &refs);
        for (k, ((a, b), c)) in owned.iter().zip(&serial).zip(&borrowed).enumerate() {
            assert_eq!(a.len(), b.len(), "stimulus {k}, threads {threads}");
            for ((x, y), z) in a.iter().zip(b).zip(c) {
                assert_eq!(x.to_bits(), y.to_bits(), "owned vs serial, stimulus {k}");
                assert_eq!(z.to_bits(), y.to_bits(), "borrowed vs serial, stimulus {k}");
            }
        }
    }
    // One borrowed pool served four batches: rounds accumulated, no
    // respawn per batch.
    assert_eq!(pool.sweeps(), 4);
}
