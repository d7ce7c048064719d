//! Many independent sessions advanced one chunk each over a borrowed
//! [`SweepPool`] ([`CompiledSim::advance_chunks`]).
//!
//! A session is a caller-owned [`SimState`] plus the `dt` it runs at.
//! The bit-identity contract carries through: a round produces exactly
//! the bits each state would produce alone through
//! [`CompiledSim::simulate_into`], whatever the worker count.

use std::sync::{Mutex, PoisonError};

use rvf_numerics::{SweepError, SweepPool};

use super::compile::CompiledSim;
use super::state::{advance, SimState};
use super::{check_dt, ServingError};

/// One session's unit of work for [`CompiledSim::advance_chunks`]: the
/// session's state, its next input chunk, and the buffer its output
/// samples land in. The caller owns all three — this is the seam a
/// scheduler that holds its own session table uses to drive the
/// kernel over a pool.
#[derive(Debug)]
pub struct SessionChunk<'a> {
    /// The session's resumable state; advanced in place on success,
    /// untouched on any error.
    pub state: &'a mut SimState,
    /// The input chunk to absorb.
    pub input: &'a [f64],
    /// Receives one output sample per input sample; must have exactly
    /// `input.len()` slots.
    pub output: &'a mut [f64],
}

/// One non-empty chunk's pool task: read-only views of its state and
/// input, plus its output buffer and its slot in the carry buffer the
/// advanced registers wait in until the round commits. The sink is
/// locked exactly once, by the one task that owns this job.
struct Job<'a> {
    state: &'a SimState,
    input: &'a [f64],
    sink: Mutex<(&'a mut [f64], &'a mut [f64])>,
}

impl CompiledSim {
    /// Advances many independent sessions through one chunk each — one
    /// pool task per non-empty chunk, as one round on `pool`, or on a
    /// local one-worker pool (inline on the calling thread) when `pool`
    /// is `None`. Both produce identical bits: each chunk's output
    /// equals what [`simulate_into`](CompiledSim::simulate_into) would
    /// produce for that state alone, whatever the worker count.
    ///
    /// This is the batching seam for a scheduler that owns its session
    /// table outright (e.g. `rvf-serve`): it borrows nothing across
    /// calls, so the sessions can live in any slab keyed any way the
    /// caller likes.
    ///
    /// The advance is **transactional** for states: every chunk is
    /// validated before anything runs, each task advances a copy of its
    /// state's carried registers, and states are committed only after
    /// every task succeeded. On any error — including a worker panic on
    /// either path, surfaced as [`ServingError::WorkerPanicked`] — no
    /// state is updated. Outputs are written straight into the callers'
    /// buffers, so after a failed round their contents are unspecified.
    /// Empty chunks are allowed and absorb nothing.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadDt`], [`ServingError::OutputMismatch`] (a
    /// chunk whose output buffer length differs from its input),
    /// [`ServingError::StateMismatch`] (a state built for a different
    /// model shape), [`ServingError::BadStimulus`] (a non-finite input
    /// sample), and [`ServingError::WorkerPanicked`].
    pub fn advance_chunks(
        &self,
        dt: f64,
        chunks: &mut [SessionChunk<'_>],
        pool: Option<&SweepPool>,
    ) -> Result<(), ServingError> {
        check_dt(dt)?;
        for c in chunks.iter() {
            self.check_chunk(c.state, c.input, c.output)?;
        }
        let n_jobs = chunks.iter().filter(|c| !c.input.is_empty()).count();
        if n_jobs == 0 {
            return Ok(());
        }
        let scratch = self.new_state();
        // Never zero: every model has its static drive row.
        let carry_len = scratch.carry_len();
        let mut carry = vec![0.0; n_jobs * carry_len];
        let jobs: Vec<Job<'_>> = chunks
            .iter_mut()
            .filter(|c| !c.input.is_empty())
            .zip(carry.chunks_exact_mut(carry_len))
            .map(|(c, next)| Job {
                state: &*c.state,
                input: c.input,
                sink: Mutex::new((&mut *c.output, next)),
            })
            .collect();
        let task = |ws: &mut SimState, k: usize| {
            let job = &jobs[k];
            let mut sink = job.sink.lock().unwrap_or_else(PoisonError::into_inner);
            let (output, next) = &mut *sink;
            ws.load_carry(job.state);
            advance(self, dt, ws, job.input, output);
            Ok::<_, core::convert::Infallible>(ws.save_carry(next))
        };
        let serial;
        let pool = match pool {
            Some(pool) => pool,
            None => {
                serial = SweepPool::new(1);
                &serial
            }
        };
        let mut workspaces = vec![scratch; pool.workers()];
        let memos = pool.run_with(jobs.len(), &mut workspaces, task).map_err(|e| match e {
            SweepError::WorkerPanicked { worker } => ServingError::WorkerPanicked { worker },
            SweepError::Task { error, .. } => match error {},
        })?;
        drop(jobs);
        // Commit only after every task succeeded.
        let advanced = chunks.iter_mut().filter(|c| !c.input.is_empty());
        for ((c, next), memo) in advanced.zip(carry.chunks_exact(carry_len)).zip(memos) {
            c.state.commit_carry(next, memo, c.input.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::linear_real_sim;
    use super::*;

    fn stim(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Held stretches exercise the memo path.
                if x.is_multiple_of(5) {
                    0.5
                } else {
                    (x % 1000) as f64 / 1000.0
                }
            })
            .collect()
    }

    /// The check a serving session's open runs through the kernel:
    /// `simulate_into` on an empty chunk refuses a bad `dt` and a
    /// foreign-shape state, and touches neither state.
    #[test]
    fn session_open_errors() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let mut state = sim.new_state();
        sim.simulate_into(1e-10, &[0.25, 0.5], &mut state, &mut [0.0; 2]).unwrap();
        let before = state.export();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = sim.simulate_into(bad, &[], &mut state, &mut []).unwrap_err();
            assert!(matches!(err, ServingError::BadDt { .. }), "{bad}: {err:?}");
        }
        // A valid empty chunk passes and, at a new dt, warms no cache.
        sim.simulate_into(2e-10, &[], &mut state, &mut []).unwrap();
        assert_eq!(state.export(), before);

        let mut b = crate::SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(-1.0e9, s);
        b.block_real(-2.0e9, s);
        let other = b.try_build().unwrap();
        let mut foreign = other.new_state();
        other.simulate_into(1e-10, &[0.5], &mut foreign, &mut [0.0]).unwrap();
        let foreign_before = foreign.export();
        assert_eq!(
            sim.simulate_into(1e-10, &[], &mut foreign, &mut []),
            Err(ServingError::StateMismatch)
        );
        assert_eq!(foreign.export(), foreign_before);
    }

    #[test]
    fn chunked_session_matches_one_shot() {
        let sim = linear_real_sim(-1.2e9, 1.7);
        let u = stim(7, 120);
        let dt = 3.0e-11;
        let want = sim.simulate(dt, &u);
        let mut state = sim.new_state();
        let mut got = vec![0.0; u.len()];
        for (chunk, out) in u.chunks(7).zip(got.chunks_mut(7)) {
            sim.simulate_into(dt, chunk, &mut state, out).unwrap();
        }
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// Advances `states[i]` through `inputs[i]` in one
    /// [`CompiledSim::advance_chunks`] round and returns the outputs.
    fn advance_all(
        sim: &CompiledSim,
        dt: f64,
        states: &mut [SimState],
        inputs: &[&[f64]],
        pool: Option<&SweepPool>,
    ) -> Vec<Vec<f64>> {
        let mut outs: Vec<Vec<f64>> = inputs.iter().map(|u| vec![0.0; u.len()]).collect();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(inputs)
            .zip(outs.iter_mut())
            .map(|((state, input), output)| SessionChunk { state, input, output })
            .collect();
        sim.advance_chunks(dt, &mut chunks, pool).unwrap();
        outs
    }

    #[test]
    fn session_set_matches_individual_sessions() {
        let sim = linear_real_sim(-1.5e9, 1.1);
        let dt = 2.0e-11;
        // 11 sessions with uneven chunk lengths, several advances; the
        // sessions that have run dry ride along with empty chunks.
        let specs: Vec<Vec<f64>> =
            (0..11).map(|i| stim(100 + i as u64, 40 + 13 * (i % 3))).collect();
        let mut states: Vec<SimState> = specs.iter().map(|_| sim.new_state()).collect();
        let mut streamed: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
        for round in 0..5 {
            let inputs: Vec<&[f64]> = specs
                .iter()
                .enumerate()
                .map(|(i, u)| {
                    let fed = streamed[i].len();
                    // Session i joins at round i % 3, so fresh and
                    // started states share a round; round 4 drains.
                    let end = match round {
                        r if r < i % 3 => fed,
                        4 => u.len(),
                        _ => (fed + 5 + (i + round) % 7).min(u.len()),
                    };
                    &u[fed..end]
                })
                .collect();
            for (i, out) in
                advance_all(&sim, dt, &mut states, &inputs, None).into_iter().enumerate()
            {
                streamed[i].extend(out);
            }
        }
        for (i, u) in specs.iter().enumerate() {
            let want = sim.simulate(dt, u);
            assert_eq!(streamed[i].len(), want.len(), "session {i}");
            for (g, w) in streamed[i].iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "session {i}");
            }
            assert_eq!(states[i].samples(), u.len() as u64);
        }
    }

    #[test]
    fn bad_stimulus_rejected_without_committing_state() {
        let sim = linear_real_sim(-1.3e9, 1.2);
        let dt = 2.0e-11;
        let clean = stim(42, 30);
        // NaN/∞ in first, middle, and last chunk positions, across both
        // checked entries. The failed call must leave the state exactly
        // where it stood: the follow-up clean run stays bit-identical to
        // a state that never saw the bad chunk.
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for bad_pos in [0usize, 4, 9] {
                let mut bad = vec![0.5; 10];
                bad[bad_pos] = bad_value;

                let mut state = sim.new_state();
                let mut got = vec![0.0; clean.len()];
                sim.simulate_into(dt, &clean[..10], &mut state, &mut got[..10]).unwrap();
                let err = sim.simulate_into(dt, &bad, &mut state, &mut got[10..20]).unwrap_err();
                assert!(
                    matches!(err, ServingError::BadStimulus { index, .. } if index == bad_pos),
                    "{bad_value} at {bad_pos}: {err:?}"
                );
                assert_eq!(state.samples(), 10, "a rejected chunk commits nothing");
                sim.simulate_into(dt, &clean[10..], &mut state, &mut got[10..]).unwrap();
                for (g, w) in got.iter().zip(&sim.simulate(dt, &clean)) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{bad_value} at {bad_pos}");
                }

                // A fresh state stays fresh.
                let mut state = sim.new_state();
                let mut buf = vec![0.0; 10];
                assert!(matches!(
                    sim.simulate_into(dt, &bad, &mut state, &mut buf),
                    Err(ServingError::BadStimulus { .. })
                ));
                assert_eq!(state.samples(), 0);
                assert!(!state.is_started());

                // advance_chunks boundary: a bad chunk rejects the whole
                // round before any state (its sibling's included) moves.
                let (mut s0, mut s1) = (sim.new_state(), sim.new_state());
                let (mut o0, mut o1) = (vec![0.0; 5], vec![0.0; 10]);
                let err = sim
                    .advance_chunks(
                        dt,
                        &mut [
                            SessionChunk { state: &mut s0, input: &clean[..5], output: &mut o0 },
                            SessionChunk { state: &mut s1, input: &bad, output: &mut o1 },
                        ],
                        None,
                    )
                    .unwrap_err();
                assert!(matches!(err, ServingError::BadStimulus { .. }), "{err:?}");
                assert!([s0, s1].iter().all(|s| s.samples() == 0 && !s.is_started()));
            }
        }
    }

    #[test]
    fn advance_chunks_matches_simulate_into_on_both_paths() {
        let sim = linear_real_sim(-1.4e9, 0.8);
        let dt = 3.0e-11;
        // 11 sessions, three distinct chunk lengths, one empty chunk.
        let stims: Vec<Vec<f64>> = (0..11)
            .map(|i| stim(900 + i as u64, if i == 7 { 0 } else { 20 + 9 * (i % 3) }))
            .collect();
        let want: Vec<Vec<f64>> = stims.iter().map(|u| sim.simulate(dt, u)).collect();
        let pool = SweepPool::new(3);
        for pooled in [false, true] {
            let mut states: Vec<SimState> = (0..11).map(|_| sim.new_state()).collect();
            let mut outs: Vec<Vec<f64>> = stims.iter().map(|u| vec![0.0; u.len()]).collect();
            {
                let mut chunks: Vec<SessionChunk<'_>> = states
                    .iter_mut()
                    .zip(stims.iter())
                    .zip(outs.iter_mut())
                    .map(|((state, u), out)| SessionChunk {
                        state,
                        input: u.as_slice(),
                        output: out.as_mut_slice(),
                    })
                    .collect();
                sim.advance_chunks(dt, &mut chunks, pooled.then_some(&pool)).unwrap();
            }
            for (i, (got, w)) in outs.iter().zip(&want).enumerate() {
                assert_eq!(got.len(), w.len(), "session {i} pooled={pooled}");
                for (g, w) in got.iter().zip(w) {
                    assert_eq!(g.to_bits(), w.to_bits(), "session {i} pooled={pooled}");
                }
                assert_eq!(states[i].samples(), stims[i].len() as u64);
            }
        }
    }

    #[test]
    fn advance_chunks_validates_before_any_commit() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let dt = 1.0e-10;
        let good = [0.1, 0.2, 0.3];
        let bad = [0.1, f64::NAN, 0.3];
        let mut s0 = sim.new_state();
        let mut s1 = sim.new_state();
        let mut o0 = [0.0; 3];
        let mut o1 = [0.0; 3];
        let err = sim
            .advance_chunks(
                dt,
                &mut [
                    SessionChunk { state: &mut s0, input: &good, output: &mut o0 },
                    SessionChunk { state: &mut s1, input: &bad, output: &mut o1 },
                ],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, ServingError::BadStimulus { index: 1, .. }), "{err:?}");
        assert_eq!(s0.samples(), 0, "sibling chunk not committed either");
        assert_eq!(s1.samples(), 0);
        assert_eq!(o0, [0.0; 3]);

        let mut short = [0.0; 2];
        assert_eq!(
            sim.advance_chunks(
                dt,
                &mut [SessionChunk { state: &mut s0, input: &good, output: &mut short }],
                None,
            ),
            Err(ServingError::OutputMismatch { expected: 3, got: 2 })
        );
        assert!(matches!(sim.advance_chunks(dt, &mut [], Some(&SweepPool::new(2))), Ok(())));
        assert!(matches!(
            sim.advance_chunks(f64::NAN, &mut [], None),
            Err(ServingError::BadDt { .. })
        ));
    }

    #[test]
    fn session_set_pooled_matches_serial() {
        let sim = linear_real_sim(-1.1e9, 1.4);
        let dt = 4.0e-11;
        let stims: Vec<Vec<f64>> =
            (0..10).map(|i| stim(500 + i as u64, 30 + 10 * (i % 2))).collect();
        let inputs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        for threads in [1usize, 2, 4, 0] {
            let pool = SweepPool::new(threads);
            let mut states: Vec<SimState> = (0..10).map(|_| sim.new_state()).collect();
            let outputs = advance_all(&sim, dt, &mut states, &inputs, Some(&pool));
            assert_eq!(outputs.len(), 10);
            for (i, (out, u)) in outputs.iter().zip(&stims).enumerate() {
                let want = sim.simulate(dt, u);
                assert_eq!(out.len(), want.len());
                for (g, w) in out.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "threads {threads} session {i}");
                }
            }
        }
    }
}
