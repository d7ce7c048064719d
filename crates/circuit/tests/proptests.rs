//! Property-based tests for the circuit simulator.

use proptest::prelude::*;
use rvf_circuit::devices::passive::{Capacitor, Resistor};
use rvf_circuit::devices::sources::Vsource;
use rvf_circuit::{
    ac_sweep, dc_operating_point, rc_ladder, transient, Circuit, DcOptions, TranOptions, Waveform,
};
use rvf_numerics::Complex;

proptest! {
    // Pinned case count AND rng seed: tier-1 CI must generate the exact
    // same circuit instances on every run, on every machine.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0xDA7E_2013))]

    #[test]
    fn divider_chain_dc_solution(r1 in 10.0..1e5f64, r2 in 10.0..1e5f64, v in -10.0..10.0f64) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new("V1", a, 0, Waveform::Dc(v))).unwrap();
        ckt.add(Resistor::new("R1", a, b, r1)).unwrap();
        ckt.add(Resistor::new("R2", b, 0, r2)).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let want = v * r2 / (r1 + r2);
        prop_assert!((x[b - 1] - want).abs() < 1e-9 * want.abs().max(1.0));
    }

    #[test]
    fn rc_ac_magnitude_matches_analytic(r in 100.0..1e5f64, c_exp in -12.0..-8.0f64,
                                        f_exp in 2.0..8.0f64) {
        let c = 10f64.powf(c_exp);
        let f = 10f64.powf(f_exp);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new("V1", a, 0, Waveform::Dc(0.0))).unwrap();
        ckt.add(Resistor::new("R1", a, b, r)).unwrap();
        ckt.add(Capacitor::new("C1", b, 0, c)).unwrap();
        ckt.set_input("V1").unwrap();
        ckt.set_output(b, 0);
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let h = ac_sweep(&mut ckt, &x, &[f]).unwrap()[0];
        let s = Complex::from_im(2.0 * core::f64::consts::PI * f);
        let want = (Complex::ONE + s.scale(r * c)).inv();
        prop_assert!((h - want).abs() < 1e-9 * want.abs(),
            "H mismatch: {h:?} vs {want:?}");
    }

    #[test]
    fn transient_dc_input_stays_at_operating_point(n in 1usize..5, v in 0.1..2.0f64) {
        // With a DC drive, the transient must hold the DC solution.
        let mut ckt = rc_ladder(n, 1e3, 1e-12, Waveform::Dc(v));
        let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let res = transient(
            &mut ckt,
            &x0,
            &TranOptions { dt: 1e-10, t_stop: 2e-8, ..Default::default() },
        )
        .unwrap();
        for y in &res.outputs {
            prop_assert!((y - v).abs() < 1e-6, "drifted to {y} from {v}");
        }
    }

    #[test]
    fn snapshots_capture_symmetric_linear_jacobians(n in 1usize..4) {
        // Linear RC networks have symmetric G and C node blocks.
        let mut ckt = rc_ladder(
            n,
            1e3,
            1e-9,
            Waveform::Sine { offset: 0.5, amplitude: 0.3, freq_hz: 1e4, phase_rad: 0.0, delay: 0.0 },
        );
        let x0 = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let res = transient(
            &mut ckt,
            &x0,
            &TranOptions {
                dt: 1e-7,
                t_stop: 2e-6,
                snapshot_every: Some(10),
            },
        )
        .unwrap();
        prop_assert!(!res.snapshots.is_empty());
        let nn = ckt.n_nodes();
        for s in &res.snapshots {
            for i in 0..nn {
                for j in 0..nn {
                    prop_assert!((s.g[(i, j)] - s.g[(j, i)]).abs() < 1e-12);
                    prop_assert!((s.c[(i, j)] - s.c[(j, i)]).abs() < 1e-24);
                }
            }
        }
    }

    #[test]
    fn parser_never_panics_on_garbage(text in "[ -~\n]{0,200}") {
        // Any byte soup must produce Ok or Err, never a panic.
        let _ = rvf_circuit::parse_netlist(&text);
    }

    #[test]
    fn pwl_clamps_outside_point_range(t0 in 0.0..1.0f64, span in 0.1..2.0f64,
                                      v0 in -5.0..5.0f64, v1 in -5.0..5.0f64,
                                      before in 0.0..10.0f64, after in 1e-6..10.0f64) {
        // Outside [t_first, t_last] a PWL holds the end values exactly.
        let t1 = t0 + span;
        let w = Waveform::Pwl(vec![(t0, v0), (t0 + 0.5 * span, 0.3 * (v0 + v1)), (t1, v1)]);
        prop_assert_eq!(w.value(t0 - before), v0);
        prop_assert_eq!(w.value(t1 + after), v1);
        // Inside the range the value stays within the breakpoint hull.
        let lo = v0.min(v1).min(0.3 * (v0 + v1));
        let hi = v0.max(v1).max(0.3 * (v0 + v1));
        let mid = w.value(t0 + 0.37 * span);
        prop_assert!((lo - 1e-12..=hi + 1e-12).contains(&mid), "{mid} outside [{lo}, {hi}]");
    }

    #[test]
    fn pulse_is_periodic_to_1e12(v0 in -2.0..2.0f64, v1 in -2.0..2.0f64,
                                 tau in 0.0..1.0f64, k in 1usize..5) {
        // After the delay, value(t) == value(t + k·period) to 1e-12.
        let w = Waveform::Pulse {
            v0, v1, delay: 0.5, rise: 0.1, fall: 0.2, width: 0.3, period: 1.0,
        };
        let t = 0.5 + tau;
        let a = w.value(t);
        let b = w.value(t + k as f64);
        prop_assert!((a - b).abs() < 1e-12, "pulse not periodic: {a} vs {b}");
    }

    #[test]
    fn sine_honors_delay(delay in 0.0..2.0f64, offset in -2.0..2.0f64,
                         amp in 0.1..3.0f64, frac in 0.0..1.0f64) {
        // Before the delay the sine holds its phase-0 start value; after
        // it, the waveform is the delayed copy of the zero-delay sine.
        let mk = |d: f64| Waveform::Sine {
            offset, amplitude: amp, freq_hz: 2.0, phase_rad: 0.0, delay: d,
        };
        let delayed = mk(delay);
        let reference = mk(0.0);
        prop_assert_eq!(delayed.value(frac * delay), offset);
        let t = delay + frac;
        prop_assert!((delayed.value(t) - reference.value(frac)).abs() < 1e-12);
        prop_assert_eq!(delayed.dc_value(), if delay > 0.0 { offset } else { reference.value(0.0) });
    }

    #[test]
    fn energy_dissipation_is_nonnegative(r in 100.0..1e4f64) {
        // Discharging an RC from a charged state through a resistor:
        // the capacitor voltage decays monotonically (passive network).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new("R1", a, 0, r)).unwrap();
        ckt.add(Capacitor::new("C1", a, 0, 1e-9)).unwrap();
        ckt.set_output(a, 0);
        let dim = ckt.dim();
        let mut x0 = vec![0.0; dim];
        x0[a - 1] = 1.0;
        let res = transient(
            &mut ckt,
            &x0,
            &TranOptions { dt: r * 1e-9 / 100.0, t_stop: r * 1e-9, ..Default::default() },
        )
        .unwrap();
        let vs = &res.outputs;
        for w in vs.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "capacitor voltage increased");
        }
        // Final value matches the analytic decay at the actual end time.
        let t_end = *res.times.last().unwrap();
        let want = (-t_end / (r * 1e-9)).exp();
        prop_assert!((vs.last().unwrap() - want).abs() < 1e-3);
    }
}
