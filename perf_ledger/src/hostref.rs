//! Host-speed normalisation for the end-to-end times.
//!
//! On a small shared VM the speed of a core moves by up to 2× in phases
//! of a few seconds (another tenant's thread on the same physical core),
//! so a wall-clock time taken in one run says as much about the host as
//! about the program. Every timed sample is therefore preceded by one
//! run of a fixed, benchmark-owned reference kernel, and the sample is
//! reported in units where that kernel takes [`NOMINAL_S`]:
//! `sample × NOMINAL_S / reference`. The reference runs on the same
//! thread right before the sample, so both see the same core in the
//! same phase.
//!
//! The kernel is two halves: floating point (small dense matrix-vector
//! products with `ln` and `exp`, the model kernels' mix) and integer
//! (hash mixing, data-dependent branches and stores into an L1-sized
//! table, the scheduler's mix). Contention slows the two by different
//! factors: with the floating-point half alone the worst of ten standby
//! runs read 65% high, with both halves 13%. A third, pointer-chasing
//! part hardly moved in any phase and was left out. The raw wall-clock
//! figures are printed beside the normalised ones in the workload shape.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time that normalised samples are scaled to
/// (about its time on an uncontended core of a 2-vCPU Xeon VM).
pub const NOMINAL_S: f64 = 1e-3;

/// Times one run of the reference kernel, in seconds.
pub fn time_s() -> f64 {
    let t = Instant::now();
    black_box(float_half(black_box(1.25)));
    black_box(integer_half(black_box(7)));
    t.elapsed().as_secs_f64()
}

/// `wall_s` scaled to the nominal host speed, given the reference
/// kernel's time `ref_s` measured just before it.
pub fn normalise(wall_s: f64, ref_s: f64) -> f64 {
    wall_s * NOMINAL_S / ref_s
}

/// A 16-state recurrence: a dense 16×16 matrix-vector product, then a
/// `ln` and an `exp` per state, 2000 steps.
fn float_half(seed: f64) -> f64 {
    const N: usize = 16;
    let mut a = [[0.0f64; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = 0.9 / N as f64 * (((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.4);
        }
    }
    let mut x = [seed; N];
    let mut acc = 0.0;
    for step in 0..2000 {
        let u = 0.9 + 0.4 * (step as f64 * 1e-3).sin();
        let mut y = [0.0f64; N];
        for (yi, row) in y.iter_mut().zip(&a) {
            *yi = row.iter().zip(&x).map(|(r, v)| r * v).sum::<f64>() + u;
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = (1.0 + yi.abs()).ln() * 0.5 + (-yi * yi).exp() * 0.1;
        }
        acc += x[step % N];
    }
    acc
}

/// SplitMix64-style hashing into a 32 KiB table on the stack (no heap
/// allocation, so the allocation counters do not see the reference),
/// with a branch on each slot's contents; 250 000 steps.
fn integer_half(seed: u64) -> u64 {
    let mut table = [0u64; 4096];
    let (mut s, mut acc) = (seed, 0u64);
    for _ in 0..250_000 {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let slot = &mut table[(z & 4095) as usize];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(z);
        } else {
            acc ^= *slot >> 3;
            *slot = 0;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_takes_measurable_time() {
        assert_eq!(float_half(1.25).to_bits(), float_half(1.25).to_bits());
        assert!(float_half(1.25).is_finite());
        assert_eq!(integer_half(7), integer_half(7));
        assert!(time_s() > 0.0);
    }

    #[test]
    fn normalising_scales_a_sample_by_the_host_speed() {
        // A host twice as slow doubles both times; the normalised value
        // stays put.
        assert_eq!(normalise(0.2, 1e-3), normalise(0.4, 2e-3));
        assert!((normalise(0.2, 1e-3) - 0.2).abs() < 1e-15);
    }
}
