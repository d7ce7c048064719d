//! The loop-until-dry poison storm on one pool, pinned against the
//! process-global `pool_constructions()` counter. It is the only test
//! in this binary, so no other test can construct a pool inside its
//! counted window.

use proptest::prelude::*;
use rvf_core::serving::SessionChunk;
use rvf_core::{CompiledSim, ServingError, SimBuilder, SimState};
use rvf_numerics::{pool_constructions, SweepPool};

fn nonlinear_sim() -> CompiledSim {
    let mut b = SimBuilder::new();
    let zero = b.drive_poly(&[0.0]);
    b.set_static_drive(zero);
    let f = b.drive_poly(&[0.0, 1.5, 0.1]);
    b.block_real(-1.0e9, f);
    b.try_build().expect("valid wiring")
}

/// One pooled [`CompiledSim::advance_chunks`] round: `states[i]`
/// absorbs `inputs[i]`, its output lands in `outs[i]`.
fn advance_round(
    sim: &CompiledSim,
    dt: f64,
    states: &mut [SimState],
    inputs: &[&[f64]],
    outs: &mut [Vec<f64>],
    pool: &SweepPool,
) -> Result<(), ServingError> {
    let mut chunks: Vec<SessionChunk<'_>> = states
        .iter_mut()
        .zip(inputs)
        .zip(outs.iter_mut())
        .map(|((state, input), out)| SessionChunk { state, input, output: out })
        .collect();
    sim.advance_chunks(dt, &mut chunks, Some(pool))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Loop-until-dry chaos: keep hammering one pool with randomly
    /// poisoned `advance_chunks` rounds until three consecutive rounds stay
    /// clean (with at least eight injected panics along the way). The
    /// pool must absorb every panic without a single hidden rebuild
    /// (`pool_constructions()` stays flat) and the surviving clean
    /// rounds must stay bit-identical to the reference batch.
    #[test]
    fn repeated_poison_rounds_until_dry_keep_pool_and_bits(seed in 1u64..(1u64 << 32)) {
        let sim = nonlinear_sim();
        let dt = 1.0e-10;
        let stims: Vec<Vec<f64>> = (0..12).map(|k| vec![0.05 * k as f64; 32]).collect();
        let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        let want: Vec<Vec<f64>> = refs.iter().map(|u| sim.simulate(dt, u)).collect();

        let pool = SweepPool::new(2);
        let constructions_before = pool_constructions();
        let mut x = seed;
        let mut injected = 0u32;
        let mut dry_streak = 0u32;
        let mut rounds = 0u32;
        while (dry_streak < 3 || injected < 8) && rounds < 200 {
            rounds += 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let poisoned = injected < 8 && x % 2 == 0;
            let mut states: Vec<SimState> = (0..12).map(|_| sim.new_state()).collect();
            let mut outs: Vec<Vec<f64>> = refs.iter().map(|u| vec![0.0; u.len()]).collect();
            if poisoned {
                injected += 1;
                dry_streak = 0;
                pool.inject_panic();
                let err = advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap_err();
                let is_panic = matches!(err, ServingError::WorkerPanicked { .. });
                prop_assert!(is_panic, "expected WorkerPanicked, got {:?}", err);
                // Nothing committed; an immediate retry on the same
                // pool recovers the full round.
                for state in &states {
                    prop_assert_eq!(state.samples(), 0);
                }
            } else {
                dry_streak += 1;
            }
            advance_round(&sim, dt, &mut states, &refs, &mut outs, &pool).unwrap();
            for (out, w) in outs.iter().zip(&want) {
                for (a, b) in out.iter().zip(w) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        prop_assert!(injected >= 8, "storm never got its panic quota ({injected})");
        prop_assert!(dry_streak >= 3, "storm never went dry (rounds {rounds})");
        prop_assert_eq!(
            pool_constructions(),
            constructions_before,
            "panic containment must not rebuild pools behind the caller's back"
        );
        prop_assert_eq!(pool.contained_panics(), injected as u64);
    }
}
