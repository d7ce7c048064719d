//! Pins the exact bits of the circuit simulator, the extraction's input
//! and its oracle: the DC operating point, the output waveform, the
//! Newton iteration count and every Jacobian snapshot of the paper
//! buffer's training run and of each zoo family's training and
//! validation transients at `DEFAULT_SEED`.
//!
//! `extraction_pinned.rs` sees a simulator change only through the
//! fitted models; these pins see it directly, including the validation
//! waveforms no model is fitted to and the Newton effort. The constants
//! were recorded before the DC and transient Newton loops were folded
//! into one routine.

use rvf::circuit::{
    dc_operating_point, high_speed_buffer, parse_netlist, transient, BufferParams, Circuit,
    DcOptions, TranOptions, Waveform,
};
use rvf::validate::{zoo, DEFAULT_SEED};

/// FNV-1a over the `Debug` rendering: `f64` debug output is the
/// shortest round-tripping decimal, so equal hashes mean equal bits.
fn bit_checksum(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One pinned run: its Newton iterations, and the checksum of its DC
/// operating point, output waveform, Newton iterations and snapshots
/// (time, input, output, state and every entry of `G` and `C`).
type Pin = (usize, u64);

/// DC operating point, then a transient from it.
fn run(circuit: &mut Circuit, opts: &TranOptions) -> Pin {
    let op = dc_operating_point(circuit, &DcOptions::default()).unwrap();
    let tran = transient(circuit, &op, opts).unwrap();
    let snapshots: Vec<_> = tran
        .snapshots
        .iter()
        .map(|s| (s.t, s.u, s.y, &s.x, s.g.as_slice(), s.c.as_slice()))
        .collect();
    (tran.newton_iterations, bit_checksum(&(op, tran.outputs, tran.newton_iterations, snapshots)))
}

/// The training transient as `rvf_tft::extract_from_circuit` sets it up.
fn training(steps: usize, n_snapshots: usize, t_train: f64) -> TranOptions {
    TranOptions {
        dt: t_train / steps as f64,
        t_stop: t_train,
        snapshot_every: Some((steps / n_snapshots).max(1)),
    }
}

#[test]
fn paper_buffer_training_run_is_pinned() {
    // The paper's §IV training run: one 100 kHz period sweeping the
    // 0.4–1.4 V input range, 2000 steps, a snapshot every 20.
    let sine =
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut buffer = high_speed_buffer(&BufferParams::default(), sine);
    let got = run(&mut buffer, &training(2000, 100, 1.0e-5));
    assert_eq!(got, (5287, 0x810d_549e_f803_6a47));
}

#[test]
fn zoo_training_and_validation_runs_are_pinned() {
    const PINNED: &[(&str, Pin, Pin)] = &[
        ("rc_lowpass", (1000, 0xfb0f_9bba_fd08_0eaa), (2950, 0xbc13_0a5a_3009_79da)),
        ("rc_ladder_deep", (1000, 0x9333_b17b_d396_b6cd), (2950, 0xad44_1c4d_4572_9a64)),
        ("rlc_ladder", (1000, 0x40e1_2bf7_af1d_8385), (2950, 0xa709_8776_cdfc_77ba)),
        ("vcvs_chain", (1000, 0x9e4f_ef8c_81c9_7786), (2950, 0x93c9_68e3_9aee_5888)),
        ("vccs_amp", (1000, 0x65d3_5cb3_e2dd_e949), (2950, 0x88ec_24d2_6505_71d6)),
        ("cccs_mirror", (1000, 0xa10a_c4e0_405d_afad), (2950, 0xbeed_91a0_24b3_aade)),
        ("ccvs_transresistance", (1000, 0xf763_c582_f3c7_d66f), (2950, 0xa029_3539_a004_a930)),
        ("subckt_ladder", (1000, 0x9903_1dbb_86cd_21a1), (2950, 0x0d80_f3b3_23ba_703b)),
        ("clipper_soft", (1044, 0x1918_e6f8_695a_ac2a), (2299, 0xb255_5ffe_9b07_a1e3)),
        ("clipper_hard", (1298, 0x0852_42a3_5455_be9a), (3125, 0x7252_42a9_4410_bce5)),
        ("clipper_fast", (1300, 0x4ecb_fb65_5906_1da5), (3157, 0x652f_da13_78b5_0d66)),
        ("subckt_clipper", (1272, 0x0e63_3d33_2dd0_8100), (3006, 0x0c49_3c37_228e_b06f)),
        ("mos_cs_amp", (1187, 0x1171_5886_1c3b_e55e), (3202, 0x3eee_6fe9_79dd_d88a)),
        ("mos_follower", (1183, 0xa6fb_2dd8_51af_cb03), (2368, 0x8b1e_1086_1bea_f9f4)),
    ];
    let got: Vec<(&str, Pin, Pin)> = zoo(DEFAULT_SEED)
        .iter()
        .map(|family| {
            let mut train = parse_netlist(&family.train_deck).unwrap();
            let tft = &family.tft;
            let train_pin = run(&mut train, &training(tft.steps, tft.n_snapshots, tft.t_train));
            let mut valid = parse_netlist(&family.valid_deck).unwrap();
            let opts = TranOptions { dt: family.dt, t_stop: family.t_stop, ..Default::default() };
            (family.name, train_pin, run(&mut valid, &opts))
        })
        .collect();
    assert_eq!(got, PINNED);
}
