//! Time-domain source waveforms.
//!
//! The TFT training signal is a low-frequency high-amplitude sine (one
//! period, ~100 snapshots); validation uses a spectrally rich bit pattern
//! at 2.5 GS/s (paper §IV). Both are provided here along with DC, pulse
//! and piecewise-linear stimuli.

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude·sin(2πf·(t−delay) + phase)`, clamped to the
    /// offset before `delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq_hz: f64,
        /// Phase in radians.
        phase_rad: f64,
        /// Start delay in seconds.
        delay: f64,
    },
    /// Periodic trapezoidal pulse (SPICE `PULSE` semantics).
    Pulse {
        /// Initial level.
        v0: f64,
        /// Pulsed level.
        v1: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time.
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Width of the high phase.
        width: f64,
        /// Repetition period (0 disables repetition).
        period: f64,
    },
    /// Piecewise-linear waveform through `(t, v)` breakpoints (sorted by
    /// time); clamps at the ends.
    Pwl(Vec<(f64, f64)>),
    /// Symbol stream at a fixed rate with linear transitions — the
    /// "spectrally rich bit pattern" test signal of the paper.
    BitPattern {
        /// Level for a `0` symbol.
        v0: f64,
        /// Level for a `1` symbol.
        v1: f64,
        /// The symbol sequence.
        bits: Vec<bool>,
        /// Symbol rate in symbols/second (e.g. `2.5e9`).
        rate_hz: f64,
        /// 20–80%-style linear transition time (seconds).
        rise: f64,
        /// Start delay; the first symbol begins here.
        delay: f64,
    },
}

impl Waveform {
    /// Value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine { offset, amplitude, freq_hz, phase_rad, delay } => {
                if t < *delay {
                    *offset + amplitude * phase_rad.sin()
                } else {
                    offset
                        + amplitude
                            * (2.0 * core::f64::consts::PI * freq_hz * (t - delay) + phase_rad)
                                .sin()
                }
            }
            Waveform::Pulse { v0, v1, delay, rise, fall, width, period } => {
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    if *rise == 0.0 {
                        *v1
                    } else {
                        v0 + (v1 - v0) * tau / rise
                    }
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    if *fall == 0.0 {
                        *v0
                    } else {
                        v1 + (v0 - v1) * (tau - rise - width) / fall
                    }
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("nonempty").1
            }
            Waveform::BitPattern { v0, v1, bits, rate_hz, rise, delay } => {
                if bits.is_empty() {
                    return *v0;
                }
                let level = |b: bool| if b { *v1 } else { *v0 };
                let tau = t - delay;
                if tau < 0.0 {
                    return level(bits[0]);
                }
                let ui = 1.0 / rate_hz;
                let idx = (tau / ui) as usize;
                let idx = idx.min(bits.len() - 1);
                let frac = tau - idx as f64 * ui;
                let cur = level(bits[idx]);
                // Linear transition at the start of each unit interval.
                if frac < *rise && idx > 0 {
                    let prev = level(bits[idx - 1]);
                    prev + (cur - prev) * frac / rise
                } else {
                    cur
                }
            }
        }
    }

    /// The value at `t = 0` (the DC operating-point stimulus).
    pub fn dc_value(&self) -> f64 {
        self.value(0.0)
    }
}

/// Generates a PRBS-7 pseudo-random bit sequence (polynomial
/// `x⁷ + x⁶ + 1`), the classic spectrally rich test pattern.
///
/// # Panics
///
/// Panics if `seed == 0` (the LFSR would lock up).
pub fn prbs7(seed: u8, n_bits: usize) -> Vec<bool> {
    assert!(seed != 0, "prbs seed must be non-zero");
    let mut state = seed & 0x7f;
    if state == 0 {
        state = 1;
    }
    let mut out = Vec::with_capacity(n_bits);
    for _ in 0..n_bits {
        let bit = ((state >> 6) ^ (state >> 5)) & 1;
        state = ((state << 1) | bit) & 0x7f;
        out.push(bit == 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1.5);
        assert_eq!(w.value(0.0), 1.5);
        assert_eq!(w.value(1e9), 1.5);
    }

    #[test]
    fn sine_basics() {
        let w = Waveform::Sine {
            offset: 0.9,
            amplitude: 0.5,
            freq_hz: 1.0,
            phase_rad: 0.0,
            delay: 0.0,
        };
        assert!((w.value(0.0) - 0.9).abs() < 1e-15);
        assert!((w.value(0.25) - 1.4).abs() < 1e-12);
        assert!((w.value(0.75) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn sine_holds_before_delay() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 2.0,
            freq_hz: 5.0,
            phase_rad: 0.0,
            delay: 1.0,
        };
        assert_eq!(w.value(0.5), 1.0);
    }

    #[test]
    fn pulse_phases() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
            period: 10.0,
        };
        assert_eq!(w.value(0.5), 0.0); // before delay
        assert!((w.value(1.5) - 0.5).abs() < 1e-15); // mid-rise
        assert_eq!(w.value(3.0), 1.0); // high
        assert!((w.value(4.5) - 0.5).abs() < 1e-15); // mid-fall
        assert_eq!(w.value(6.0), 0.0); // low
        assert!((w.value(11.5) - 0.5).abs() < 1e-15); // periodic repeat
    }

    #[test]
    fn pwl_interpolation_and_clamping() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, -2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 1.0).abs() < 1e-15);
        assert!((w.value(2.0) - 0.0).abs() < 1e-15);
        assert_eq!(w.value(5.0), -2.0);
    }

    #[test]
    fn bit_pattern_transitions() {
        let w = Waveform::BitPattern {
            v0: 0.4,
            v1: 1.4,
            bits: vec![false, true, true, false],
            rate_hz: 1.0e9,
            rise: 0.1e-9,
            delay: 0.0,
        };
        assert_eq!(w.value(0.5e-9), 0.4); // first bit low
        assert!((w.value(1.05e-9) - 0.9).abs() < 1e-9); // mid transition
        assert_eq!(w.value(1.5e-9), 1.4); // settled high
        assert_eq!(w.value(2.5e-9), 1.4); // consecutive one: no glitch
        assert_eq!(w.value(10.0e-9), 0.4); // clamps to last bit
    }

    #[test]
    fn prbs7_period_and_balance() {
        let bits = prbs7(0x5a, 127);
        // PRBS-7 has period 127 with 64 ones and 63 zeros.
        let ones = bits.iter().filter(|&&b| b).count();
        assert_eq!(ones, 64);
        let again = prbs7(0x5a, 254);
        assert_eq!(&again[..127], &bits[..]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn prbs7_rejects_zero_seed() {
        let _ = prbs7(0, 8);
    }
}
