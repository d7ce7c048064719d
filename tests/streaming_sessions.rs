//! Pins the streaming serving tier on a *real* extracted model (the
//! diode clipper): chunked `simulate_into` output is bit-identical to
//! one-shot evaluation for arbitrary chunk splits, checkpoints (by
//! `clone` and by `export`/`import_state`) resume exactly, and
//! `CompiledSim::advance_chunks` advancing many live sessions over
//! a borrowed pool reproduces each session's solo bits at every worker
//! count.

use rvf::circuit::{diode_clipper, Waveform};
use rvf::model::serving::{SessionChunk, SimState};
use rvf::model::{fit_tft, HammersteinModel, RvfOptions};
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
            out.push(level + (next - level) * (k as f64 / 4.0));
            if out.len() == n {
                return out;
            }
        }
        level = next;
        for _ in 0..9 {
            out.push(level);
            if out.len() == n {
                return out;
            }
        }
    }
    out
}

#[test]
fn chunked_sessions_are_bit_identical_on_the_diode_clipper() {
    let model = clipper_model();
    let sim = model.compile();
    let dt = 2.0e-9;
    let u = stimulus(11, 400);
    let want = sim.simulate(dt, &u);

    // Several chunk splits, including single-sample chunks and a split
    // placed mid-way through a flat (bit-equal, memoized) hold.
    let splits: Vec<Vec<usize>> =
        vec![vec![400], vec![1, 399], vec![7; 57].into_iter().chain([1]).collect(), vec![1; 400]];
    for split in splits {
        assert_eq!(split.iter().sum::<usize>(), 400);
        let mut state = sim.new_state();
        let mut got = vec![0.0; u.len()];
        let mut off = 0;
        for len in split {
            sim.simulate_into(dt, &u[off..off + len], &mut state, &mut got[off..off + len])
                .unwrap();
            off += len;
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i}");
        }
    }

    // Checkpoint after 160 samples, by clone and by export/import into
    // a recompiled twin; each resumed state continues exactly.
    let mut state = sim.new_state();
    let mut head = vec![0.0; 160];
    sim.simulate_into(dt, &u[..160], &mut state, &mut head).unwrap();
    let twin = model.compile();
    let resumed: [(&str, &_, SimState); 2] = [
        ("clone", &sim, state.clone()),
        ("export", &twin, twin.import_state(&state.export()).unwrap()),
    ];
    for (how, sim, mut resumed) in resumed {
        assert_eq!(resumed.samples(), 160, "{how}");
        let mut tail = vec![0.0; 240];
        sim.simulate_into(dt, &u[160..], &mut resumed, &mut tail).unwrap();
        for (i, (g, w)) in head.iter().chain(&tail).zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{how}, sample {i}");
        }
    }
}

#[test]
fn session_set_matches_solo_sessions_for_every_worker_count() {
    let model = clipper_model();
    let sim = model.compile();
    let dt = 2.0e-9;
    let n_sessions = 12;
    let stims: Vec<Vec<f64>> =
        (0..n_sessions).map(|k| stimulus(200 + k as u64, 180 + 20 * (k % 3))).collect();
    let solo: Vec<Vec<f64>> = stims.iter().map(|u| sim.simulate(dt, u)).collect();

    for threads in [1usize, 2, 4, 0] {
        let pool = SweepPool::new(threads);
        let mut states: Vec<SimState> = (0..n_sessions).map(|_| sim.new_state()).collect();
        let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); n_sessions];
        // Uneven per-session chunk sizes per round; sessions that have
        // run dry ride along with empty chunks.
        let mut round = 0usize;
        while streamed.iter().zip(&stims).any(|(s, u)| s.len() < u.len()) {
            let inputs: Vec<&[f64]> = stims
                .iter()
                .zip(&streamed)
                .enumerate()
                .map(|(i, (u, s))| {
                    &u[s.len()..(s.len() + 17 + 11 * ((i + round) % 4)).min(u.len())]
                })
                .collect();
            let mut outs: Vec<Vec<f64>> = inputs.iter().map(|u| vec![0.0; u.len()]).collect();
            let mut chunks: Vec<SessionChunk<'_>> = states
                .iter_mut()
                .zip(&inputs)
                .zip(outs.iter_mut())
                .map(|((state, input), output)| SessionChunk { state, input, output })
                .collect();
            sim.advance_chunks(dt, &mut chunks, Some(&pool)).unwrap();
            drop(chunks);
            for (s, out) in streamed.iter_mut().zip(outs) {
                s.extend(out);
            }
            round += 1;
        }
        for (i, (got, want)) in streamed.iter().zip(&solo).enumerate() {
            assert_eq!(got.len(), want.len(), "session {i}, threads {threads}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "session {i}, threads {threads}");
            }
        }
    }
}
