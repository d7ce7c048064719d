//! Ready-made circuits: the paper's high-speed output buffer (synthetic
//! 27-transistor equivalent) plus smaller test vehicles.

use crate::devices::mosfet::{MosType, Mosfet, MosfetParams};
use crate::devices::passive::{Capacitor, Resistor};
use crate::devices::sources::Vsource;
use crate::netlist::Circuit;
use crate::waveform::Waveform;

/// Parameters of the synthetic high-speed buffer.
///
/// The defaults are sized so the buffer matches the externals reported
/// in the paper (§IV): four differential stages, 27 transistors, DC gain
/// ≈ 2, bandwidth ≈ 3 GHz, strong saturation for large inputs around the
/// 0.4–1.4 V input range.
#[derive(Debug, Clone, Copy)]
pub struct BufferParams {
    /// Supply voltage (V).
    pub(crate) vdd: f64,
    /// Reference (common-mode) input voltage for the unused side (V).
    pub(crate) vref: f64,
    /// Differential-stage load resistance (Ω).
    pub(crate) r_load: f64,
    /// Load capacitance per drain node (F).
    pub(crate) c_load: f64,
    /// Transconductance factor of the diff-pair devices (A/V²).
    pub(crate) kp_diff: f64,
    /// Transconductance factor of the tail devices (A/V²).
    pub(crate) kp_tail: f64,
    /// Transconductance factor of the source followers (A/V²).
    pub(crate) kp_follower: f64,
    /// Transconductance factor of the follower tail sinks (A/V²).
    pub(crate) kp_follower_tail: f64,
    /// Bias resistor from the supply into the diode-connected reference
    /// device (Ω).
    pub(crate) r_bias: f64,
    /// Threshold voltage of all devices (V).
    pub(crate) vt0: f64,
    /// Channel-length modulation (1/V).
    pub(crate) lambda: f64,
    /// Gate–source capacitance (F).
    pub(crate) cgs: f64,
    /// Gate–drain capacitance (F).
    pub(crate) cgd: f64,
    /// Output-node load capacitance (F).
    pub(crate) c_out: f64,
}

impl Default for BufferParams {
    fn default() -> Self {
        Self {
            vdd: 1.5,
            vref: 0.9,
            r_load: 1.0e3,
            c_load: 18e-15,
            kp_diff: 4.2e-3,
            kp_tail: 55e-3,
            kp_follower: 40e-3,
            kp_follower_tail: 27e-3,
            r_bias: 2.45e3,
            vt0: 0.4,
            lambda: 0.08,
            cgs: 8e-15,
            cgd: 2.5e-15,
            c_out: 30e-15,
        }
    }
}

impl BufferParams {
    fn mos(&self, kp: f64) -> MosfetParams {
        MosfetParams { kp, vt0: self.vt0, lambda: self.lambda, cgs: self.cgs, cgd: self.cgd }
    }
}

/// Builds the synthetic high-speed output buffer with the given input
/// stimulus.
///
/// Topology (27 transistors):
///
/// * bias: `RB` into a diode-connected reference device (1 T), gate node
///   shared with every current sink;
/// * four NMOS differential stages (2 diff + 1 tail = 3 T each, resistor
///   loads, capacitive loading);
/// * source-follower level shifters on both sides between stages
///   (2 × 2 T after stages 1–3);
/// * single-ended output source follower (2 T).
///
/// The circuit input is `Vin` (one diff input; the other side sits at
/// `vref`), the output probe is the follower output node.
///
/// # Panics
///
/// Panics only on invalid internal device parameters, which the defaults
/// cannot trigger.
pub fn high_speed_buffer(params: &BufferParams, input: Waveform) -> Circuit {
    let mut ckt = Circuit::new();
    let p = *params;
    let vdd = ckt.node("vdd");
    let nb = ckt.node("nbias");
    let inp = ckt.node("in");
    let inn = ckt.node("inref");
    let out = ckt.node("out");

    ckt.add(Vsource::new("VDD", vdd, 0, Waveform::Dc(p.vdd))).expect("fresh name");
    ckt.add(Vsource::new("Vin", inp, 0, input)).expect("fresh name");
    ckt.add(Vsource::new("Vref", inn, 0, Waveform::Dc(p.vref))).expect("fresh name");

    // Bias chain: RB + diode-connected MB.
    ckt.add(Resistor::new("RB", vdd, nb, p.r_bias)).expect("fresh name");
    ckt.add(Mosfet::new("MB", nb, nb, 0, MosType::Nmos, p.mos(p.kp_tail))).expect("fresh name");

    let mut gate_p = inp;
    let mut gate_n = inn;
    for stage in 1..=4 {
        let op = ckt.node(&format!("o{stage}p"));
        let on = ckt.node(&format!("o{stage}n"));
        let tail = ckt.node(&format!("t{stage}"));
        // Loads.
        ckt.add(Resistor::new(format!("RL{stage}P"), vdd, op, p.r_load)).expect("fresh");
        ckt.add(Resistor::new(format!("RL{stage}N"), vdd, on, p.r_load)).expect("fresh");
        ckt.add(Capacitor::new(format!("CL{stage}P"), op, 0, p.c_load)).expect("fresh");
        ckt.add(Capacitor::new(format!("CL{stage}N"), on, 0, p.c_load)).expect("fresh");
        // Differential pair: the positive input pulls its drain (on) low,
        // so v(op) − v(on) follows the input non-inverted.
        ckt.add(Mosfet::new(
            format!("M{stage}A"),
            on,
            gate_p,
            tail,
            MosType::Nmos,
            p.mos(p.kp_diff),
        ))
        .expect("fresh");
        ckt.add(Mosfet::new(
            format!("M{stage}B"),
            op,
            gate_n,
            tail,
            MosType::Nmos,
            p.mos(p.kp_diff),
        ))
        .expect("fresh");
        // Tail sink mirrored from the bias chain.
        ckt.add(Mosfet::new(format!("M{stage}T"), tail, nb, 0, MosType::Nmos, p.mos(p.kp_tail)))
            .expect("fresh");

        if stage < 4 {
            // Source-follower level shifters feeding the next stage.
            let fp = ckt.node(&format!("f{stage}p"));
            let fn_ = ckt.node(&format!("f{stage}n"));
            ckt.add(Mosfet::new(
                format!("MF{stage}P"),
                vdd,
                op,
                fp,
                MosType::Nmos,
                p.mos(p.kp_follower),
            ))
            .expect("fresh");
            ckt.add(Mosfet::new(
                format!("MF{stage}PT"),
                fp,
                nb,
                0,
                MosType::Nmos,
                p.mos(p.kp_follower_tail),
            ))
            .expect("fresh");
            ckt.add(Mosfet::new(
                format!("MF{stage}N"),
                vdd,
                on,
                fn_,
                MosType::Nmos,
                p.mos(p.kp_follower),
            ))
            .expect("fresh");
            ckt.add(Mosfet::new(
                format!("MF{stage}NT"),
                fn_,
                nb,
                0,
                MosType::Nmos,
                p.mos(p.kp_follower_tail),
            ))
            .expect("fresh");
            gate_p = fp;
            gate_n = fn_;
        } else {
            // Output follower from the positive output.
            ckt.add(Mosfet::new("MOF", vdd, op, out, MosType::Nmos, p.mos(p.kp_follower)))
                .expect("fresh");
            ckt.add(Mosfet::new("MOFT", out, nb, 0, MosType::Nmos, p.mos(p.kp_follower_tail)))
                .expect("fresh");
            ckt.add(Capacitor::new("COUT", out, 0, p.c_out)).expect("fresh");
        }
    }

    ckt.set_input("Vin").expect("Vin exists");
    ckt.set_output(out, 0);
    ckt
}

/// Counts the MOSFETs in a circuit (sanity check for the buffer: 27).
pub fn transistor_count(ckt: &Circuit) -> usize {
    ckt.devices().filter(|d| d.name().starts_with('M')).count()
}

/// An RC ladder low-pass: `n` identical RC sections between `Vin` and
/// the output — the classic linear sanity workload.
pub fn rc_ladder(n_sections: usize, r: f64, c: f64, input: Waveform) -> Circuit {
    assert!(n_sections > 0, "need at least one section");
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    ckt.add(Vsource::new("Vin", inp, 0, input)).expect("fresh");
    let mut prev = inp;
    for i in 1..=n_sections {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(format!("R{i}"), prev, node, r)).expect("fresh");
        ckt.add(Capacitor::new(format!("C{i}"), node, 0, c)).expect("fresh");
        prev = node;
    }
    ckt.set_input("Vin").expect("Vin exists");
    ckt.set_output(prev, 0);
    ckt
}

/// A resistively loaded diode clipper: mildly stiff nonlinear test
/// vehicle (series resistor, antiparallel diodes to ground).
pub fn diode_clipper(input: Waveform) -> Circuit {
    use crate::devices::diode::Diode;
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::new("Vin", inp, 0, input)).expect("fresh");
    ckt.add(Resistor::new("R1", inp, out, 1.0e3)).expect("fresh");
    ckt.add(Diode::new("D1", out, 0, 1e-14, 1.0)).expect("fresh");
    ckt.add(Diode::new("D2", 0, out, 1e-14, 1.0)).expect("fresh");
    ckt.add(Capacitor::new("C1", out, 0, 50e-12)).expect("fresh");
    ckt.add(Resistor::new("RL", out, 0, 10.0e3)).expect("fresh");
    ckt.set_input("Vin").expect("Vin exists");
    ckt.set_output(out, 0);
    ckt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::ac_sweep;
    use crate::dc::{dc_operating_point, DcOptions};
    use rvf_numerics::{db20, logspace};

    #[test]
    fn buffer_has_27_transistors() {
        let ckt = high_speed_buffer(&BufferParams::default(), Waveform::Dc(0.9));
        assert_eq!(transistor_count(&ckt), 27);
        // Netlist component census for the documentation claims.
        let n = ckt.n_devices();
        assert!(n >= 45, "buffer has {n} devices");
    }

    #[test]
    fn buffer_dc_operating_point_is_sane() {
        let mut ckt = high_speed_buffer(&BufferParams::default(), Waveform::Dc(0.9));
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        // All node voltages within the rails.
        let n_nodes = ckt.n_nodes();
        for (i, v) in x[..n_nodes].iter().enumerate() {
            assert!((-0.1..=1.6).contains(v), "node {} = {v}", i + 1);
        }
        let out = ckt.output_value(&x);
        assert!((0.3..1.2).contains(&out), "output DC {out}");
    }

    #[test]
    fn buffer_dc_gain_near_two() {
        // Gain from the DC transfer slope: ΔVout/ΔVin around 0.9 V.
        let delta = 5e-3;
        let mut lo = high_speed_buffer(&BufferParams::default(), Waveform::Dc(0.9 - delta));
        let mut hi = high_speed_buffer(&BufferParams::default(), Waveform::Dc(0.9 + delta));
        let xlo = dc_operating_point(&mut lo, &DcOptions::default()).unwrap();
        let xhi = dc_operating_point(&mut hi, &DcOptions::default()).unwrap();
        let gain = (hi.output_value(&xhi) - lo.output_value(&xlo)) / (2.0 * delta);
        assert!(
            (1.2..3.2).contains(&gain),
            "DC gain {gain} outside the calibration window (paper: 2)"
        );
    }

    #[test]
    fn buffer_bandwidth_near_3ghz() {
        let mut ckt = high_speed_buffer(&BufferParams::default(), Waveform::Dc(0.9));
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let freqs = logspace(6.0, 10.5, 200);
        let h = ac_sweep(&mut ckt, &x, &freqs).unwrap();
        let dc_gain = h[0].abs();
        let mut f3db = f64::NAN;
        for (f, v) in freqs.iter().zip(&h) {
            if v.abs() < dc_gain * core::f64::consts::FRAC_1_SQRT_2 {
                f3db = *f;
                break;
            }
        }
        assert!(
            (1.0e9..6.0e9).contains(&f3db),
            "bandwidth {f3db:.3e} Hz outside the calibration window (paper: 3 GHz); dc gain {:.3}",
            db20(dc_gain)
        );
    }

    #[test]
    fn buffer_saturates_for_large_inputs() {
        // The DC transfer curve must compress at the input extremes.
        let gains: Vec<f64> = [0.5, 0.9, 1.35]
            .iter()
            .map(|&v0| {
                let d = 5e-3;
                let mut lo = high_speed_buffer(&BufferParams::default(), Waveform::Dc(v0 - d));
                let mut hi = high_speed_buffer(&BufferParams::default(), Waveform::Dc(v0 + d));
                let xlo = dc_operating_point(&mut lo, &DcOptions::default()).unwrap();
                let xhi = dc_operating_point(&mut hi, &DcOptions::default()).unwrap();
                (hi.output_value(&xhi) - lo.output_value(&xlo)) / (2.0 * d)
            })
            .collect();
        assert!(
            gains[1] > 2.0 * gains[0].abs().max(0.05) || gains[0].abs() < 0.3,
            "no compression at low end: {gains:?}"
        );
        assert!(
            gains[1] > 2.0 * gains[2].abs().max(0.05) || gains[2].abs() < 0.3,
            "no compression at high end: {gains:?}"
        );
    }

    #[test]
    fn rc_ladder_structure() {
        let mut ckt = rc_ladder(4, 1e3, 1e-12, Waveform::Dc(1.0));
        assert_eq!(ckt.n_devices(), 9);
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        // DC: all nodes at the source value.
        assert!((ckt.output_value(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diode_clipper_clips() {
        let mut lo = diode_clipper(Waveform::Dc(0.2));
        let x = dc_operating_point(&mut lo, &DcOptions::default()).unwrap();
        let out_small = lo.output_value(&x);
        assert!(out_small > 0.15, "small signal passes: {out_small}");
        let mut hi = diode_clipper(Waveform::Dc(5.0));
        let x = dc_operating_point(&mut hi, &DcOptions::default()).unwrap();
        let out_big = hi.output_value(&x);
        assert!(out_big < 0.8, "large signal clipped: {out_big}");
    }
}
