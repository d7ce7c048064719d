//! Batch evaluation: many stimuli from the fresh state.
//!
//! A batch is one [`CompiledSim::advance_chunks`] round over fresh
//! states — one pool task per non-empty stimulus. Output is
//! **bit-identical** to calling [`CompiledSim::simulate`] per stimulus,
//! for every thread count. A mid-batch worker panic surfaces as
//! [`ServingError::WorkerPanicked`] and leaves the pool usable.

use rvf_numerics::SweepPool;

use super::compile::CompiledSim;
use super::session::SessionChunk;
use super::state::SimState;
use super::ServingError;

impl CompiledSim {
    /// Runs every stimulus from a fresh state in one
    /// [`advance_chunks`](CompiledSim::advance_chunks) round.
    fn batch_core(
        &self,
        pool: Option<&SweepPool>,
        dt: f64,
        stimuli: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>, ServingError> {
        let mut states: Vec<SimState> = stimuli.iter().map(|_| self.new_state()).collect();
        let mut outs: Vec<Vec<f64>> = stimuli.iter().map(|s| vec![0.0; s.len()]).collect();
        let mut chunks: Vec<SessionChunk<'_>> = states
            .iter_mut()
            .zip(stimuli)
            .zip(outs.iter_mut())
            .map(|((state, input), output)| SessionChunk { state, input, output })
            .collect();
        self.advance_chunks(dt, &mut chunks, pool)?;
        drop(chunks);
        Ok(outs)
    }

    /// Pushes many stimuli through the model from the fresh state, one
    /// after another on the calling thread (a one-worker round; use
    /// [`try_simulate_batch_in`](CompiledSim::try_simulate_batch_in) to
    /// fan them over a pool). Outputs come back in stimulus order and
    /// are **bit-identical** to calling
    /// [`simulate`](CompiledSim::simulate) per stimulus. On error no
    /// partial output escapes.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadDt`] for a non-finite or non-positive `dt`,
    /// [`ServingError::BadStimulus`] for a stimulus with a NaN or
    /// infinite sample (checked up front — nothing runs),
    /// [`ServingError::WorkerPanicked`] if a worker's task panicked.
    pub fn try_simulate_batch(
        &self,
        dt: f64,
        stimuli: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>, ServingError> {
        self.batch_core(None, dt, stimuli)
    }

    /// [`try_simulate_batch`](CompiledSim::try_simulate_batch) on a
    /// borrowed [`SweepPool`]: the batch runs as one round on the pool's
    /// already-parked workers, one task per stimulus, so a serving
    /// process pays the spawn cost once, not per batch. Output is
    /// bit-identical for every worker count. After an
    /// [`Err(ServingError::WorkerPanicked)`](ServingError::WorkerPanicked)
    /// the pool remains usable — the panic is contained to the failed
    /// round (the [`SweepPool`] containment contract).
    ///
    /// # Errors
    ///
    /// [`ServingError::BadDt`] for a non-finite or non-positive `dt`,
    /// [`ServingError::BadStimulus`] for a stimulus with a non-finite
    /// sample, [`ServingError::WorkerPanicked`] if a pool worker's task
    /// panicked.
    pub fn try_simulate_batch_in(
        &self,
        pool: &SweepPool,
        dt: f64,
        stimuli: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>, ServingError> {
        self.batch_core(Some(pool), dt, stimuli)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::linear_real_sim;
    use super::*;

    #[test]
    fn batch_equals_serial_on_mixed_lengths() {
        let sim = linear_real_sim(-1.5e9, 2.0);
        let stims: Vec<Vec<f64>> = (0..11)
            .map(|k| (0..(5 + 13 * k % 29)).map(|i| ((i * (k + 1)) as f64 * 0.37).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        let serial: Vec<Vec<f64>> = refs.iter().map(|s| sim.simulate(2.0e-11, s)).collect();
        for threads in [1, 2, 4, 0] {
            let pool = SweepPool::new(threads);
            let got = sim.try_simulate_batch_in(&pool, 2.0e-11, &refs).unwrap();
            for (k, (a, b)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(a.len(), b.len(), "stimulus {k}, threads {threads}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "stimulus {k}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn batch_on_borrowed_pool_matches_owned() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let stims: Vec<Vec<f64>> = (0..20).map(|k| vec![0.1 * k as f64; 40]).collect();
        let refs: Vec<&[f64]> = stims.iter().map(Vec::as_slice).collect();
        let owned = sim.try_simulate_batch(1e-10, &refs).unwrap();
        let pool = SweepPool::new(3);
        let borrowed = sim.try_simulate_batch_in(&pool, 1e-10, &refs).unwrap();
        assert_eq!(owned, borrowed);
        assert!(pool.sweeps() >= 1);
    }

    #[test]
    fn batch_handles_zero_length_stimuli() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        assert!(sim.try_simulate_batch(1e-10, &[]).unwrap().is_empty());
        let out = sim.try_simulate_batch(1e-10, &[&[][..], &[1.0, 2.0][..]]).unwrap();
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 2);
    }

    #[test]
    fn try_batch_validates_dt() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let pool = SweepPool::new(2);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(sim.try_simulate_batch(bad, &[&[1.0]]), Err(ServingError::BadDt { .. })),
                "{bad}"
            );
            assert!(
                matches!(
                    sim.try_simulate_batch_in(&pool, bad, &[&[1.0]]),
                    Err(ServingError::BadDt { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn try_batch_rejects_non_finite_stimuli_up_front() {
        let sim = linear_real_sim(-1.0e9, 1.0);
        let pool = SweepPool::new(2);
        let bad = [0.5, f64::NAN];
        assert!(matches!(
            sim.try_simulate_batch(1e-10, &[&[1.0, 2.0], &bad]),
            Err(ServingError::BadStimulus { index: 1, .. })
        ));
        assert!(matches!(
            sim.try_simulate_batch_in(&pool, 1e-10, &[&bad]),
            Err(ServingError::BadStimulus { index: 1, .. })
        ));
    }
}
