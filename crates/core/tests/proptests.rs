//! Property-based tests for the extraction core: analytic-integral
//! invariants, export robustness, and model stability.

use proptest::prelude::*;
use rvf_core::{text, DynBlock, HammersteinModel, LogTerm, SessionChunk, SimState, StateFn};
use rvf_numerics::{c, Complex, FohScalar, SweepPool};

fn statefn(pole: Complex, rho: Complex, d: f64, constant: f64) -> StateFn {
    let pole = Complex::new(pole.re, pole.im.abs().max(1e-3));
    StateFn { terms: vec![LogTerm { pole, rho }], linear: d, constant }
}

fn arb_statefn() -> impl Strategy<Value = StateFn> {
    (-2.0..2.0f64, 0.01..2.0f64, -3.0..3.0f64, -3.0..3.0f64, -2.0..2.0f64, -5.0..5.0f64)
        .prop_map(|(pre, pim, rre, rim, d, k)| statefn(c(pre, pim), c(rre, rim), d, k))
}

/// A state function with several log terms — wider coverage than
/// [`arb_statefn`] for the serving-runtime equivalence tests
/// (randomized pole counts).
fn arb_statefn_multi() -> impl Strategy<Value = StateFn> {
    (
        prop::collection::vec((-2.0..2.0f64, 0.01..2.0f64, -3.0..3.0f64, -3.0..3.0f64), 0..4),
        -2.0..2.0f64,
        -5.0..5.0f64,
    )
        .prop_map(|(terms, d, k)| {
            let terms: Vec<LogTerm> = terms
                .into_iter()
                .map(|(pre, pim, rre, rim)| LogTerm {
                    pole: c(pre, pim.max(1e-3)),
                    rho: c(rre, rim),
                })
                .collect();
            StateFn { terms, linear: d, constant: k }
        })
}

/// Mixed real/pair block structures for the serving runtime.
fn arb_serving_model() -> impl Strategy<Value = HammersteinModel> {
    (
        arb_statefn_multi(),
        prop::collection::vec(
            (
                0usize..2,
                arb_statefn_multi(),
                arb_statefn_multi(),
                -5.0e9..-1.0e6f64,
                1.0e6..5.0e9f64,
            ),
            0..4,
        ),
        -1.0..1.0f64,
        -2.0..2.0f64,
    )
        .prop_map(|(static_path, blocks, u0, y0)| HammersteinModel {
            static_path,
            blocks: blocks
                .into_iter()
                .map(|(is_pair, f1, f2, sigma, omega)| {
                    if is_pair == 1 {
                        DynBlock::Pair { sigma, omega, f1, f2 }
                    } else {
                        DynBlock::Real { a: sigma, f: f1 }
                    }
                })
                .collect(),
            u0,
            y0,
        })
}

/// A stimulus with bit-pattern-like held stretches so the memoized
/// drive path of the compiled kernel is exercised alongside the
/// recompute path.
fn arb_stimulus() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-2.5..2.5f64, 1usize..6), 0..24)
        .prop_map(|segs| segs.into_iter().flat_map(|(v, hold)| vec![v; hold]).collect())
}

/// A stimulus of 1–8 held runs of 1..=300 samples each. A run's level
/// is one of the two bit levels of the Fig. 9 pattern (so runs revisit
/// a level) or is drawn at random.
fn arb_held_runs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0usize..3, -2.5..2.5f64, 1usize..=300), 1..9).prop_map(|runs| {
        runs.into_iter().flat_map(|(pick, v, hold)| vec![[0.5, 1.3, v][pick]; hold]).collect()
    })
}

/// Whether `a` and `b` have the same bits, any NaN counting as any NaN:
/// Rust leaves the sign and payload of a NaN result unspecified, so
/// two code paths may each produce a different one.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Checks that `m`'s compiled kernel gives exactly the bits of its
/// reference loop on `u` (by [`same_bits`]): one-shot through
/// `simulate`, and streamed through `simulate_into` with chunk
/// boundaries at `cuts` (taken modulo `u.len() + 1`). Returns the first
/// mismatch.
fn held_run_mismatch(m: &HammersteinModel, dt: f64, u: &[f64], cuts: &[usize]) -> Option<String> {
    let want = m.simulate_reference(dt, u);
    let sim = m.compile();
    let first_diff = |got: &[f64]| {
        (got.len() != want.len())
            .then(|| format!("{} outputs, want {}", got.len(), want.len()))
            .or_else(|| {
                let i = got.iter().zip(&want).position(|(g, w)| !same_bits(*g, *w))?;
                let (g, w) = (got[i], want[i]);
                Some(format!(
                    "sample {i} (input {}): {g:e} ({:#x}) vs reference {w:e} ({:#x})",
                    u[i],
                    g.to_bits(),
                    w.to_bits()
                ))
            })
    };
    if let Some(e) = first_diff(&sim.simulate(dt, u)) {
        return Some(format!("simulate: {e}"));
    }
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (u.len() + 1)).collect();
    bounds.extend([0, u.len()]);
    bounds.sort_unstable();
    let mut state = sim.new_state();
    let mut got = vec![0.0; u.len()];
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        if let Err(e) = sim.simulate_into(dt, &u[a..b], &mut state, &mut got[a..b]) {
            return Some(format!("simulate_into({a}..{b}): {e}"));
        }
    }
    first_diff(&got).map(|e| format!("simulate_into cut at {bounds:?}: {e}"))
}

fn arb_model() -> impl Strategy<Value = HammersteinModel> {
    (
        arb_statefn(),
        prop::collection::vec(
            (arb_statefn(), arb_statefn(), -5.0e9..-1.0e6f64, 1.0e6..5.0e9f64),
            0..3,
        ),
        -1.0..1.0f64,
        -2.0..2.0f64,
    )
        .prop_map(|(static_path, pairs, u0, y0)| HammersteinModel {
            static_path,
            blocks: pairs
                .into_iter()
                .map(|(f1, f2, sigma, omega)| DynBlock::Pair { sigma, omega, f1, f2 })
                .collect(),
            u0,
            y0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integral_derivative_identity(f in arb_statefn(), u in -3.0..3.0f64) {
        // d/du ∫r = r for any pole/residue configuration with Im > 0.
        let h = 1e-6;
        let fd = (f.integral(u + h) - f.integral(u - h)) / (2.0 * h);
        let v = f.value(u);
        prop_assert!((fd - v).abs() < 1e-5 * v.abs().max(1.0), "fd {fd} vs {v}");
    }

    #[test]
    fn integral_is_smooth_everywhere(f in arb_statefn()) {
        // No branch-cut jumps on a dense sweep.
        let mut prev = f.integral(-4.0);
        let mut x = -4.0;
        while x < 4.0 {
            x += 0.002;
            let cur = f.integral(x);
            prop_assert!((cur - prev).abs() < 1.0, "jump at {x}");
            prev = cur;
        }
    }

    #[test]
    fn text_round_trip_any_model(m in arb_model()) {
        let back = text::decode(&text::encode(&m)).unwrap();
        prop_assert_eq!(&back, &m);
        // Behavioural identity too.
        for i in 0..5 {
            let u = -1.0 + 0.5 * i as f64;
            prop_assert_eq!(m.static_output(u), back.static_output(u));
        }
    }

    #[test]
    fn decode_never_panics_on_mutations(m in arb_model(), cut in 0usize..400, flip in 0usize..400) {
        // Corrupted serializations must produce Err, never panic.
        let mut s = text::encode(&m);
        if cut < s.len() {
            s.truncate(cut);
        }
        let _ = text::decode(&s);
        let mut s2 = text::encode(&m).into_bytes();
        if !s2.is_empty() {
            let idx = flip % s2.len();
            s2[idx] = s2[idx].wrapping_add(13);
            if let Ok(mutated) = String::from_utf8(s2) {
                let _ = text::decode(&mutated);
            }
        }
    }

    #[test]
    fn simulation_stays_finite_for_stable_models(m in arb_model(),
                                                 amp in 0.1..10.0f64) {
        // Stable poles + arbitrary bounded stimulus → bounded output.
        let inputs: Vec<f64> = (0..300)
            .map(|i| amp * ((i as f64) * 0.3).sin())
            .collect();
        let y = m.simulate(1e-10, &inputs);
        prop_assert!(y.iter().all(|v| v.is_finite()), "non-finite output");
    }

    #[test]
    fn compiled_simulate_matches_reference(m in arb_serving_model(),
                                           inputs in arb_stimulus(),
                                           dt_exp in -11.0..-9.0f64) {
        // The compiled serving kernel reproduces the reference loop's
        // operation order: outputs agree sample-for-sample under `f64`
        // comparison (far inside the 1e-12 relative pin).
        let dt = 10.0f64.powf(dt_exp);
        let want = m.simulate_reference(dt, &inputs);
        let got = m.compile().simulate(dt, &inputs);
        prop_assert_eq!(got.len(), want.len());
        let peak = want.iter().fold(0.0f64, |p, v| p.max(v.abs())).max(1.0);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g == w || (g - w).abs() <= 1e-12 * peak,
                         "sample {i}: {g} vs {w}");
        }
    }

    #[test]
    fn batch_bit_identical_to_serial_for_every_thread_count(
        m in arb_serving_model(),
        stims in prop::collection::vec(arb_stimulus(), 1..12),
        thread_pick in 0usize..4,
    ) {
        let threads = [1usize, 2, 4, 0][thread_pick];
        let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        let sim = m.compile();
        let serial: Vec<Vec<f64>> = refs.iter().map(|s| sim.simulate(1e-10, s)).collect();
        // A batch is one advance_chunks round over fresh states.
        let mut states: Vec<SimState> = refs.iter().map(|_| sim.new_state()).collect();
        let mut batch: Vec<Vec<f64>> = refs.iter().map(|s| vec![0.0; s.len()]).collect();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(refs.iter().copied())
            .zip(batch.iter_mut())
            .map(|((state, input), output)| SessionChunk { state, input, output })
            .collect();
        sim.advance_chunks(1e-10, &mut chunks, Some(&SweepPool::new(threads))).unwrap();
        drop(chunks);
        for (k, (a, b)) in batch.iter().zip(&serial).enumerate() {
            prop_assert_eq!(a.len(), b.len(), "stimulus {}", k);
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "stimulus {}", k);
            }
        }
    }

    #[test]
    fn chunked_sessions_bit_identical_to_one_shot(
        m in arb_serving_model(),
        inputs in arb_stimulus(),
        cuts in prop::collection::vec(0usize..128, 0..8),
        dt_exp in -11.0..-9.0f64,
    ) {
        // One state fed through simulate_into in any chunk split —
        // including length-1 chunks and boundaries landing inside a
        // memoized bit-equal hold (arb_stimulus emits held stretches) —
        // reproduces the one-shot bits exactly.
        let dt = 10.0f64.powf(dt_exp);
        let sim = m.compile();
        let want = sim.simulate(dt, &inputs);
        // Random cut positions → random chunk boundaries (duplicates
        // collapse; a cut at 0/len degenerates to an empty chunk,
        // which must also be a no-op).
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (inputs.len() + 1)).collect();
        bounds.push(0);
        bounds.push(inputs.len());
        bounds.sort_unstable();
        let mut state = sim.new_state();
        let mut got = vec![0.0; inputs.len()];
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            sim.simulate_into(dt, &inputs[a..b], &mut state, &mut got[a..b]).unwrap();
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {}", i);
        }
        prop_assert_eq!(state.samples(), inputs.len() as u64);
    }

    #[test]
    fn held_runs_match_the_reference_bit_for_bit(
        m in arb_serving_model(),
        quiet in 0usize..2,
        u in arb_held_runs(),
        cuts in prop::collection::vec(0usize..2400, 0..8),
        dt_exp in -11.0..-9.0f64,
    ) {
        // Every held run steps with input terms computed once per run;
        // runs start at sample 0 of a fresh state and cross chunk
        // boundaries, and the output keeps the reference's bits. In
        // half the cases the static path is zero, so the output is the
        // block sum alone and shows the last bit of every block state
        // (an O(1) static value would round those bits away).
        let mut m = m;
        if quiet == 1 {
            m.static_path = zero_statefn();
        }
        let dt = 10.0f64.powf(dt_exp);
        let mismatch = held_run_mismatch(&m, dt, &u, &cuts);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn advance_chunks_bit_identical_to_solo(
        m in arb_serving_model(),
        stims in prop::collection::vec(arb_stimulus(), 1..10),
        dt_exp in -11.0..-9.0f64,
    ) {
        // Advancing many sessions one uneven chunk each per round, over
        // several rounds, reproduces each session's solo bits on both
        // the pooled and the serial path. Session i joins at round
        // i % 3, so fresh and started states share a round; sessions
        // that have run dry ride along with empty chunks.
        let dt = 10.0f64.powf(dt_exp);
        let sim = m.compile();
        let pool = SweepPool::new(2);
        for pooled in [false, true] {
            let mut states: Vec<SimState> = stims.iter().map(|_| sim.new_state()).collect();
            let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); stims.len()];
            let mut round = 0usize;
            while streamed.iter().zip(&stims).any(|(s, u)| s.len() < u.len()) {
                let bounds: Vec<(usize, usize)> = streamed
                    .iter()
                    .zip(&stims)
                    .enumerate()
                    .map(|(i, (s, u))| {
                        let fed = s.len();
                        let end = if round < i % 3 { fed } else { (fed + 3 + (i + round) % 5).min(u.len()) };
                        (fed, end)
                    })
                    .collect();
                let mut outs: Vec<Vec<f64>> = bounds.iter().map(|&(a, b)| vec![0.0; b - a]).collect();
                let mut chunks: Vec<SessionChunk<'_>> = states
                    .iter_mut()
                    .zip(&stims)
                    .zip(&bounds)
                    .zip(outs.iter_mut())
                    .map(|(((state, u), &(a, b)), output)| SessionChunk { state, input: &u[a..b], output })
                    .collect();
                sim.advance_chunks(dt, &mut chunks, pooled.then_some(&pool)).unwrap();
                drop(chunks);
                for (s, out) in streamed.iter_mut().zip(outs) {
                    s.extend(out);
                }
                round += 1;
            }
            for (i, (got, u)) in streamed.iter().zip(&stims).enumerate() {
                let want = sim.simulate(dt, u);
                prop_assert_eq!(got.len(), want.len(), "session {} pooled={}", i, pooled);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "session {} pooled={}", i, pooled);
                }
                prop_assert_eq!(states[i].samples(), u.len() as u64);
            }
        }
    }

    #[test]
    fn transfer_hermitian_symmetry(m in arb_model(), w in 1.0..1e10f64, x in -2.0..2.0f64) {
        let s = Complex::from_im(w);
        let a = m.transfer(x, s);
        let b = m.transfer(x, s.conj());
        prop_assert!((a.conj() - b).abs() < 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn realization_forms_agree(re in -4.0..-0.1f64, im in 0.5..20.0f64,
                               rr in -3.0..3.0f64, ri in -3.0..3.0f64,
                               pr in -5.0..-0.1f64, rp in -3.0..3.0f64) {
        // The input-shifted blocks (paper eq. 14: f₁ = Re r + Im r,
        // f₂ = Re r − Im r) realize the classic pole–residue form
        // r/(s−a) + r*/(s−a*) + r_p/(s−p), both as a transfer function
        // and as the DC level a simulated step settles to.
        let (a, r) = (c(re, im), c(rr, ri));
        let constant = |v: f64| statefn(c(-1.0, 1.0), Complex::ZERO, v, 0.0);
        let m = HammersteinModel {
            static_path: constant(0.0),
            blocks: vec![
                DynBlock::Pair { sigma: re, omega: im, f1: constant(rr + ri), f2: constant(rr - ri) },
                DynBlock::Real { a: pr, f: constant(rp) },
            ],
            u0: 0.0,
            y0: 0.0,
        };
        let classic = |s: Complex| {
            r * (s - a).inv() + r.conj() * (s - a.conj()).inv() + rp * (s - c(pr, 0.0)).inv()
        };
        for i in 0..6 {
            let s = c(0.0, i as f64 * 1.7);
            let want = classic(s);
            prop_assert!((m.transfer(1.0, s) - want).abs() < 1e-10 * want.abs().max(1.0));
        }
        // Slowest pole −0.1 decays by e^{−20} over the 200 s run.
        let mut u = vec![1.0; 4000];
        u[0] = 0.0;
        let settled = *m.simulate(0.05, &u).last().unwrap();
        let want = classic(Complex::ZERO).re;
        prop_assert!((settled - want).abs() < 1e-6 * want.abs().max(1.0), "{settled} vs {want}");
    }

    #[test]
    fn verilog_and_matlab_generation_never_panics(m in arb_model()) {
        let v = rvf_core::to_verilog_a(&m, "m1");
        prop_assert!(v.contains("endmodule"));
        let mat = rvf_core::to_matlab(&m, "m1");
        prop_assert!(mat.contains("function"));
    }
}

/// The identically zero state function.
fn zero_statefn() -> StateFn {
    statefn(c(-1.0, 1.0), Complex::ZERO, 0.0, 0.0)
}

/// A state function `∫ r du` with one log term at `pole` (real or
/// complex) and a linear head.
fn log_statefn(pole: Complex, rho: Complex, linear: f64, constant: f64) -> StateFn {
    StateFn { terms: vec![LogTerm { pole, rho }], linear, constant }
}

/// Twelve blocks, lowered through `SimBuilder` by `compile`: the
/// per-block input terms live in a buffer sized by the model, so there
/// is no block-count cap. The static path is zero, so the output shows
/// every block's last bit.
#[test]
fn twelve_block_model_keeps_reference_bits_through_held_runs() {
    let blocks: Vec<DynBlock> = (0..12)
        .map(|b| {
            let k = b as f64;
            let f = |s: f64| log_statefn(c(-0.3 - 0.1 * k, 0.4 + s), c(0.2 + s, -0.1 * k), 0.5, s);
            if b % 3 == 0 {
                DynBlock::Real { a: -1.0e9 * (1.0 + k), f: f(0.1) }
            } else {
                DynBlock::Pair {
                    sigma: -0.7e9 * (1.0 + k),
                    omega: 2.0e9 + 1.0e8 * k,
                    f1: f(0.2),
                    f2: f(0.3),
                }
            }
        })
        .collect();
    let m = HammersteinModel { static_path: zero_statefn(), blocks, u0: 0.0, y0: 0.0 };
    assert_eq!(m.compile().n_blocks(), 12);
    let mut u = Vec::new();
    for (level, hold) in [(0.5, 40), (1.3, 1), (1.3, 299), (0.5, 3), (0.9, 1), (1.3, 70)] {
        u.extend(std::iter::repeat_n(level, hold));
    }
    for cuts in [vec![], vec![1], vec![20, 41, 42, 300, 341], (0..u.len()).step_by(7).collect()] {
        assert_eq!(held_run_mismatch(&m, 1e-10, &u, &cuts), None, "cuts {cuts:?}");
    }
}

/// A held level exactly on a real log-term pole: the drive there is
/// `ln 0 = −∞` scaled, so `w − w` is NaN and the blocks go non-finite.
/// The held-run step must reproduce the reference's ∞ bits and NaNs,
/// whether the pole level is the DC seed, a run reached mid-stimulus
/// (split or not by a chunk boundary), or a single changed sample.
///
/// Outputs are pinned on pair blocks. A real block's output at an
/// infinite drive is NaN in the kernel, where the reference adds ±∞:
/// its exactly-zero imaginary lane picks up 0·∞. So a real block's
/// real lane is pinned instead, against the reference step itself;
/// that is where `w − w` = NaN shows (a state seeded at the pole level
/// stays −∞ if the held run's `w − w` is taken as 0).
///
/// A model with no blocks pins the static row's head against
/// [`StateFn::integral`] at infinite and signed-zero inputs.
#[test]
fn held_level_on_a_real_pole_keeps_the_reference_bits() {
    let (pole, dt) = (0.7, 1e-10);
    let on_pole = |rho: Complex| log_statefn(c(pole, 0.0), rho, 0.3, 0.1);
    let pair = |omega, f2| DynBlock::Pair { sigma: -1.0e9, omega, f1: on_pole(c(-0.2, 0.5)), f2 };
    let finite = log_statefn(c(-0.4, 0.8), c(0.3, 0.2), 0.7, 0.0);
    let stimuli: [&[(f64, usize)]; 4] = [
        &[(pole, 5), (0.2, 3)],
        &[(0.2, 10), (pole, 25), (1.1, 4)],
        &[(1.1, 6), (pole, 1), (0.2, 8)],
        &[(0.2, 1), (pole, 300)],
    ];
    let runs_of = |runs: &[(f64, usize)]| -> Vec<f64> {
        runs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n)).collect()
    };
    for blocks in [
        vec![pair(3.0e9, finite.clone())],
        vec![pair(-3.0e9, finite.clone())],
        vec![pair(3.0e9, on_pole(c(0.8, -0.1))), pair(-3.0e9, finite)],
    ] {
        let m = HammersteinModel {
            static_path: log_statefn(c(-0.5, 0.9), c(0.4, 0.3), 1.0, 0.0),
            blocks,
            u0: 0.0,
            y0: 0.0,
        };
        for runs in stimuli {
            let u = runs_of(runs);
            let y = m.simulate_reference(dt, &u);
            assert!(
                y.iter().any(|v| !v.is_finite()),
                "{runs:?}: the pole level must reach the output"
            );
            for cuts in [vec![], vec![12, 13], (0..u.len()).collect()] {
                let mismatch = held_run_mismatch(&m, dt, &u, &cuts);
                assert_eq!(mismatch, None, "{} blocks, {runs:?}, cuts {cuts:?}", m.blocks.len());
            }
        }
    }

    let (a, f) = (-2.0e9, on_pole(c(0.6, 0.0)));
    let m = HammersteinModel {
        static_path: zero_statefn(),
        blocks: vec![DynBlock::Real { a, f: f.clone() }],
        u0: 0.0,
        y0: 0.0,
    };
    let (sim, prop) = (m.compile(), FohScalar::new(a, dt));
    for runs in stimuli {
        let u = runs_of(runs);
        let mut state = sim.new_state();
        let (mut x, mut v) = (-f.integral(u[0]) / a, f.integral(u[0]));
        for (t, &ut) in u.iter().enumerate() {
            if t > 0 {
                let v1 = f.integral(ut);
                x = prop.step(x, v, v1);
                v = v1;
            }
            sim.simulate_into(dt, &u[t..=t], &mut state, &mut [0.0]).unwrap();
            let got = state.export().sre[0];
            assert!(same_bits(got, x), "{runs:?}, sample {t}: {got} vs reference state {x}");
        }
    }

    // With no blocks the output is the static drive row itself, so the
    // head `constant + linear·u` shows its bits: at ±∞, at ±0.0, and
    // where it sums to −0.0 (`constant = −0.0`, `linear < 0`, u = +0.0).
    let negative_zero_head = StateFn { terms: vec![], linear: -1.5, constant: -0.0 };
    assert_eq!(negative_zero_head.integral(0.0).to_bits(), (-0.0f64).to_bits());
    for f in [
        negative_zero_head,
        StateFn { terms: vec![], linear: 2.0, constant: 0.25 },
        log_statefn(c(-0.5, 0.9), c(0.4, 0.3), 1.0, 0.0),
    ] {
        let m = HammersteinModel { static_path: f.clone(), blocks: vec![], u0: 0.0, y0: 0.0 };
        let sim = m.compile();
        for u in [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0] {
            let (got, want) = (sim.simulate(dt, &[u])[0], f.integral(u));
            assert!(same_bits(got, want), "{f:?} at {u}: {got:e} vs {want:e}");
            // The checked streaming path refuses a non-finite sample.
            if u.is_finite() {
                let stimulus = [u, u, 0.3, u];
                assert_eq!(held_run_mismatch(&m, dt, &stimulus, &[1, 3]), None, "{f:?} at {u}");
            }
        }
    }
}
