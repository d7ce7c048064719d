//! Pins the exact bits of extraction at every zoo seed CI sweeps: one
//! FNV-1a digest per seed over the 14 families' compiled fingerprints.
//!
//! `extraction_pinned.rs` pins each family at `DEFAULT_SEED` only; this
//! file holds a refactor that claims "no bit moved" to the same standard
//! at the other seeds, where the jitter gives each family different
//! component values, pole counts and relocation rounds. A declared
//! model change re-records this table together with
//! `extraction_pinned.rs` (a failing run prints the full new table).
//!
//! The sweep extracts 35 × 14 models, which takes seconds in release
//! and minutes in debug, so it is `#[ignore]`d in the debug suite and
//! run with `--include-ignored` in the release pin step.

use rvf::circuit::parse_netlist;
use rvf::model::extract_model;
use rvf::validate::zoo;

/// The zoo seeds CI sweeps: 1..=24 plus the benchmark's seeds above 24.
const SEEDS: [u64; 35] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 46, 48,
    50, 51, 59, 64, 69, 75, 78, 85, 94,
];

/// FNV-1a over the little-endian bytes of every family's compiled
/// fingerprint at `seed`, in zoo order.
fn seed_digest(seed: u64) -> u64 {
    zoo(seed).iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, family| {
        let mut train = parse_netlist(&family.train_deck).unwrap();
        let (report, _, _) = extract_model(&mut train, &family.tft, &family.rvf)
            .unwrap_or_else(|e| panic!("seed {seed}, {}: {e}", family.name));
        let fingerprint = report.model.compile().fingerprint();
        fingerprint
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
#[ignore = "35 seeds × 14 extractions: run in release with --include-ignored"]
fn zoo_fingerprints_are_pinned_at_every_swept_seed() {
    const PINNED: [(u64, u64); 35] = [
        (1, 0xf52c_5c91_4067_4ced),
        (2, 0x6e5b_15c8_a073_2688),
        (3, 0x201a_8cee_4d39_c47f),
        (4, 0x4d40_f800_0dc9_953b),
        (5, 0x3af3_054e_b46e_39a3),
        (6, 0x4ac6_7f6c_a72b_e93e),
        (7, 0x538e_8cd3_882c_e1ae),
        (8, 0xe097_9f17_0d31_267d),
        (9, 0x991a_6ed3_1f71_1657),
        (10, 0xc624_6029_6798_464c),
        (11, 0x512e_590b_8446_f63a),
        (12, 0x7fc3_480c_bd1a_7d68),
        (13, 0x0978_44a6_063d_096f),
        (14, 0xa9e0_926f_cbcc_57a9),
        (15, 0x937a_ddb5_8fd0_fc93),
        (16, 0xbcbd_73fd_f217_597a),
        (17, 0x5270_435d_2ee5_3d98),
        (18, 0xca2a_ec80_da7e_b219),
        (19, 0x34c1_2ec1_0061_7fa0),
        (20, 0x7eae_0eb3_d67f_16b4),
        (21, 0x0578_a70e_1fe2_1f3d),
        (22, 0x6245_b259_3f13_28d4),
        (23, 0xd8d4_ff32_d586_fc08),
        (24, 0x58fb_9cdc_95ec_bf97),
        (46, 0x535a_5384_b586_00ae),
        (48, 0x8d66_31f8_56cc_d4a4),
        (50, 0x7ad3_8d92_e2ac_9c63),
        (51, 0x8a4d_1c67_66af_5a62),
        (59, 0x4013_02f6_51ad_9755),
        (64, 0x30c4_2c60_2846_383d),
        (69, 0x8ab4_cf88_f4be_7e6a),
        (75, 0xfec1_0c45_9642_1dd6),
        (78, 0xa26c_5c7d_98a5_3ae3),
        (85, 0xf3bc_79c9_9257_356f),
        (94, 0xa9a0_d829_8745_5494),
    ];
    let got: Vec<(u64, u64)> = SEEDS.iter().map(|&seed| (seed, seed_digest(seed))).collect();
    let table: String = got.iter().map(|(seed, d)| format!("    ({seed}, {d:#018x}),\n")).collect();
    assert!(got == PINNED, "digests moved; the table now reads:\n{table}");
}
