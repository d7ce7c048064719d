//! The circuit zoo: a deterministic, seeded generator of parameterized
//! extraction scenarios.
//!
//! Every family is expressed as *netlist text* on purpose — each zoo run
//! exercises the full front end (parser → MNA → DC → TFT → RVF →
//! compiled serving) exactly the way a user would drive it. Families
//! cover RC/RLC ladders of varying depth, diode-clipper variants (drive
//! level and corner frequency), square-law MOSFET stages, all four
//! controlled-source kinds (E/F/G/H) and subcircuit-structured decks.
//!
//! Component values are jittered ±8% by a [`rand`]-seeded generator so
//! the contracts hold over a *family*, not one hand-tuned instance; the
//! same seed always reproduces the same decks.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rvf_core::RvfOptions;
use rvf_tft::TftConfig;

/// Default zoo seed (fixed so CI and the committed contracts agree).
pub const DEFAULT_SEED: u64 = 0x2013_0318;

/// One extraction scenario: a training deck, a held-out validation deck
/// and the extraction/validation configuration.
#[derive(Debug, Clone)]
pub struct ZooFamily {
    /// Stable family name (contract manifest key).
    pub name: &'static str,
    /// Netlist used for TFT training (extraction).
    pub train_deck: String,
    /// Netlist with a held-out stimulus; its transient is the oracle.
    pub valid_deck: String,
    /// TFT sampling configuration.
    pub tft: TftConfig,
    /// RVF fitting options.
    pub rvf: RvfOptions,
    /// Validation transient step.
    pub dt: f64,
    /// Validation transient length.
    pub t_stop: f64,
    /// Fraction of the validation window treated as model settling.
    pub settle_frac: f64,
}

impl ZooFamily {
    /// `true` if the family's decks use `.subckt`/`X` instantiation.
    pub fn uses_subckt(&self) -> bool {
        self.train_deck.to_ascii_uppercase().contains(".SUBCKT")
    }

    /// `true` if the decks use a controlled source (E/F/G/H element).
    pub fn uses_controlled_source(&self) -> bool {
        self.train_deck
            .lines()
            .map(str::trim_start)
            .any(|l| matches!(l.as_bytes().first(), Some(b'E' | b'F' | b'G' | b'H')))
    }
}

/// Per-family deterministic rng: decks don't change when families are
/// added or reordered.
fn family_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Jitters a nominal component value by ±8%.
fn jit(rng: &mut StdRng, nominal: f64) -> f64 {
    nominal * rng.gen_range(0.92..1.08)
}

/// TFT/RVF configuration for the µs-scale linear families (proven
/// accurate in the pipeline tests).
fn linear_cfg() -> (TftConfig, RvfOptions) {
    let tft = TftConfig {
        f_min_hz: 1.0e3,
        f_max_hz: 1.0e7,
        n_freqs: 24,
        t_train: 1.0e-4,
        steps: 500,
        n_snapshots: 40,
        embed_depth: 1,
        threads: 2,
    };
    (tft, RvfOptions { epsilon: 1e-4, ..Default::default() })
}

/// Configuration for the diode-clipper families (10 µs training period,
/// wide band to catch the 3 MHz corner).
fn clipper_cfg() -> (TftConfig, RvfOptions) {
    let tft = TftConfig {
        f_min_hz: 1.0e3,
        f_max_hz: 1.0e8,
        n_freqs: 30,
        t_train: 1.0e-5,
        steps: 400,
        n_snapshots: 40,
        embed_depth: 1,
        threads: 2,
    };
    (tft, RvfOptions { epsilon: 1e-3, ..Default::default() })
}

/// Configuration for the GHz-corner MOSFET stages (one 50 MHz training
/// period, band up to 5 GHz).
fn mos_cfg() -> (TftConfig, RvfOptions) {
    let tft = TftConfig {
        f_min_hz: 1.0e6,
        f_max_hz: 5.0e9,
        n_freqs: 24,
        t_train: 2.0e-8,
        steps: 400,
        n_snapshots: 40,
        embed_depth: 1,
        threads: 2,
    };
    (tft, RvfOptions { epsilon: 1e-3, ..Default::default() })
}

/// Standard held-out stimulus for the µs-scale families: a 100 kHz
/// trapezoidal pulse inside the trained 0.1–0.9 V range.
const LINEAR_VALID_SRC: &str = "Vin in 0 PULSE(0.2 0.8 1e-6 1e-7 1e-7 4e-6 1e-5)";

/// Training stimulus for the µs-scale families: one 10 kHz period
/// sweeping 0.1–0.9 V.
const LINEAR_TRAIN_SRC: &str = "Vin in 0 SINE(0.5 0.4 1e4)";

fn linear_family(name: &'static str, body: String) -> ZooFamily {
    let (tft, rvf) = linear_cfg();
    let train =
        format!("* zoo: {name} (train)\n{LINEAR_TRAIN_SRC}\n{body}.input Vin\n.output out\n.end\n");
    let valid =
        format!("* zoo: {name} (valid)\n{LINEAR_VALID_SRC}\n{body}.input Vin\n.output out\n.end\n");
    ZooFamily {
        name,
        train_deck: train,
        valid_deck: valid,
        tft,
        rvf,
        dt: 2.0e-8,
        t_stop: 3.0e-5,
        settle_frac: 0.2,
    }
}

fn clipper_family(
    name: &'static str,
    body: String,
    train_src: String,
    valid_src: String,
    dt: f64,
    t_stop: f64,
) -> ZooFamily {
    let (tft, rvf) = clipper_cfg();
    let train =
        format!("* zoo: {name} (train)\n{train_src}\n{body}.input Vin\n.output out\n.end\n");
    let valid =
        format!("* zoo: {name} (valid)\n{valid_src}\n{body}.input Vin\n.output out\n.end\n");
    ZooFamily { name, train_deck: train, valid_deck: valid, tft, rvf, dt, t_stop, settle_frac: 0.2 }
}

/// Builds the full zoo for a seed. The family list and their nominal
/// topologies are fixed; only component values jitter with the seed.
pub fn zoo(seed: u64) -> Vec<ZooFamily> {
    let mut families = Vec::new();
    let mut idx = 0u64;
    let rng = |i: &mut u64| {
        let r = family_rng(seed, *i);
        *i += 1;
        r
    };

    // 1. Single-section RC low-pass: the base linear contract.
    {
        let mut r = rng(&mut idx);
        let body =
            format!("R1 in out {:.6e}\nC1 out 0 {:.6e}\n", jit(&mut r, 1.0e3), jit(&mut r, 1.0e-9));
        families.push(linear_family("rc_lowpass", body));
    }

    // 2. Deep RC ladder: 4 cascaded sections (higher-order roll-off).
    {
        let mut r = rng(&mut idx);
        let mut body = String::new();
        let nodes = ["in", "m1", "m2", "m3", "out"];
        for k in 0..4 {
            body.push_str(&format!(
                "R{k} {} {} {:.6e}\nC{k} {} 0 {:.6e}\n",
                nodes[k],
                nodes[k + 1],
                jit(&mut r, 1.0e3),
                nodes[k + 1],
                jit(&mut r, 3.0e-10)
            ));
        }
        families.push(linear_family("rc_ladder_deep", body));
    }

    // 3. RLC ladder: 2 sections with series inductance (complex poles,
    //    near-critically damped).
    {
        let mut r = rng(&mut idx);
        let mut body = String::new();
        let nodes = ["in", "mid", "out"];
        for k in 0..2 {
            body.push_str(&format!(
                "R{k} {} x{k} {:.6e}\nL{k} x{k} {} {:.6e}\nC{k} {} 0 {:.6e}\n",
                nodes[k],
                jit(&mut r, 5.0e2),
                nodes[k + 1],
                jit(&mut r, 2.0e-4),
                nodes[k + 1],
                jit(&mut r, 1.0e-9)
            ));
        }
        families.push(linear_family("rlc_ladder", body));
    }

    // 4. VCVS (E) two-pole chain: ideal-buffer-separated RC stages with
    //    gain, exercising the voltage-controlled voltage source.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "R1 in a {:.6e}\nC1 a 0 {:.6e}\nE1 b 0 a 0 {:.6e}\nR2 b out {:.6e}\nC2 out 0 {:.6e}\n",
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-9),
            jit(&mut r, 0.8),
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-9)
        );
        families.push(linear_family("vcvs_chain", body));
    }

    // 5. VCCS (G) transconductance amplifier into an RC load.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "RI in 0 {:.6e}\nG1 out 0 in 0 {:.6e}\nRL out 0 {:.6e}\nCL out 0 {:.6e}\n",
            jit(&mut r, 1.0e4),
            jit(&mut r, 1.0e-3),
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-9)
        );
        families.push(linear_family("vccs_amp", body));
    }

    // 6. CCCS (F) current mirror: a zero-volt sense source feeds the
    //    mirrored current into an RC load.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "R1 in a {:.6e}\nVs a 0 DC 0\nF1 out 0 Vs {:.6e}\nRL out 0 {:.6e}\nCL out 0 {:.6e}\n",
            jit(&mut r, 1.0e3),
            -jit(&mut r, 1.5),
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-9)
        );
        families.push(linear_family("cccs_mirror", body));
    }

    // 7. CCVS (H) transresistance stage: branch current sensed through a
    //    zero-volt source, converted to a voltage, then RC-filtered.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "RI in s {:.6e}\nVs s 0 DC 0\nH1 m 0 Vs {:.6e}\nR2 m out {:.6e}\nC2 out 0 {:.6e}\n",
            jit(&mut r, 1.0e3),
            -jit(&mut r, 1.5e3),
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-9)
        );
        families.push(linear_family("ccvs_transresistance", body));
    }

    // 8. Subcircuit RC ladder: the deep ladder expressed as three
    //    instances of a `.subckt` section.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            ".subckt sec a b\nRs a b {:.6e}\nCs b 0 {:.6e}\n.ends\nX1 in m1 sec\nX2 m1 m2 sec\nX3 m2 out sec\n",
            jit(&mut r, 1.0e3),
            jit(&mut r, 3.0e-10)
        );
        families.push(linear_family("subckt_ladder", body));
    }

    // Diode clippers: same topology as `rvf_circuit::diode_clipper`,
    // swept over drive level and corner frequency.
    let clipper_body = |r: &mut StdRng, c_nominal: f64| {
        format!(
            "R1 in out {:.6e}\nD1 out 0 IS=1e-14 N=1\nD2 0 out IS=1e-14 N=1\nC1 out 0 {:.6e}\nRL out 0 {:.6e}\n",
            jit(r, 1.0e3),
            jit(r, c_nominal),
            jit(r, 1.0e4)
        )
    };

    // 9. Soft drive: barely reaches the knee.
    {
        let mut r = rng(&mut idx);
        let body = clipper_body(&mut r, 5.0e-11);
        families.push(clipper_family(
            "clipper_soft",
            body,
            "Vin in 0 SINE(0 0.5 1e5)".into(),
            "Vin in 0 SINE(0.1 0.35 2.5e5 1)".into(),
            1.0e-8,
            1.0e-5,
        ));
    }

    // 10. Hard drive: deep clipping on both rails.
    {
        let mut r = rng(&mut idx);
        let body = clipper_body(&mut r, 5.0e-11);
        families.push(clipper_family(
            "clipper_hard",
            body,
            "Vin in 0 SINE(0 1.5 1e5)".into(),
            "Vin in 0 SINE(0.2 1.2 2.5e5 1)".into(),
            1.0e-8,
            1.0e-5,
        ));
    }

    // 11. Fast corner: 5× smaller shunt capacitance, faster stimulus.
    {
        let mut r = rng(&mut idx);
        let body = clipper_body(&mut r, 1.0e-11);
        let (mut tft, rvf) = clipper_cfg();
        tft.t_train = 5.0e-6;
        let train = format!(
            "* zoo: clipper_fast (train)\nVin in 0 SINE(0 1.2 2e5)\n{body}.input Vin\n.output out\n.end\n"
        );
        let valid = format!(
            "* zoo: clipper_fast (valid)\nVin in 0 SINE(0.15 1.0 5e5 1)\n{body}.input Vin\n.output out\n.end\n"
        );
        families.push(ZooFamily {
            name: "clipper_fast",
            train_deck: train,
            valid_deck: valid,
            tft,
            rvf,
            dt: 5.0e-9,
            t_stop: 5.0e-6,
            settle_frac: 0.2,
        });
    }

    // 12. Subcircuit clipper: the clipping stage wrapped in a .subckt,
    //     cascaded into an RC post-filter.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            ".subckt clip a b\nRc a b {:.6e}\nD1 b 0 IS=1e-14 N=1\nD2 0 b IS=1e-14 N=1\nCc b 0 {:.6e}\nRl b 0 {:.6e}\n.ends\nX1 in mid clip\nR2 mid out {:.6e}\nC2 out 0 {:.6e}\n",
            jit(&mut r, 1.0e3),
            jit(&mut r, 5.0e-11),
            jit(&mut r, 1.0e4),
            jit(&mut r, 1.0e3),
            jit(&mut r, 5.0e-11)
        );
        families.push(clipper_family(
            "subckt_clipper",
            body,
            "Vin in 0 SINE(0 1.2 1e5)".into(),
            "Vin in 0 SINE(0.2 1.0 2.5e5 1)".into(),
            1.0e-8,
            1.0e-5,
        ));
    }

    // MOSFET square-law stages at GHz corners (buffer-like device
    // parameters from the paper's test vehicle).
    let mos_family = |name: &'static str, body: String, train_src: &str, valid_src: &str| {
        let (tft, rvf) = mos_cfg();
        ZooFamily {
            name,
            train_deck: format!(
                "* zoo: {name} (train)\nVDD vdd 0 DC 1.5\n{train_src}\n{body}.input Vin\n.output out\n.end\n"
            ),
            valid_deck: format!(
                "* zoo: {name} (valid)\nVDD vdd 0 DC 1.5\n{valid_src}\n{body}.input Vin\n.output out\n.end\n"
            ),
            tft,
            rvf,
            dt: 4.0e-11,
            t_stop: 6.4e-8,
            settle_frac: 0.2,
        }
    };

    // 13. Common-source amplifier: square-law gain stage, inverting.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "M1 out in 0 NMOS KP=2.6m VT=0.4 LAMBDA=0.08 CGS=8f CGD=2.5f\nRD vdd out {:.6e}\nCL out 0 {:.6e}\n",
            jit(&mut r, 8.0e2),
            jit(&mut r, 1.0e-12)
        );
        families.push(mos_family(
            "mos_cs_amp",
            body,
            "Vin in 0 SINE(0.9 0.25 5e7)",
            "Vin in 0 BIT(0.68 1.12 2.5e8 4e-10 0110100111010010)",
        ));
    }

    // 14. Source follower: near-unity gain, mild square-law compression.
    {
        let mut r = rng(&mut idx);
        let body = format!(
            "M1 vdd in out NMOS KP=40m VT=0.4 LAMBDA=0.08 CGS=8f CGD=2.5f\nRS out 0 {:.6e}\nCL out 0 {:.6e}\n",
            jit(&mut r, 1.0e3),
            jit(&mut r, 1.0e-12)
        );
        families.push(mos_family(
            "mos_follower",
            body,
            "Vin in 0 SINE(0.9 0.3 5e7)",
            "Vin in 0 BIT(0.65 1.15 1.25e8 1.2e-9 01011001)",
        ));
    }

    families
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_deterministic_per_seed() {
        let a = zoo(DEFAULT_SEED);
        let b = zoo(DEFAULT_SEED);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.train_deck, y.train_deck);
            assert_eq!(x.valid_deck, y.valid_deck);
        }
        // A different seed moves component values but not the topology.
        let c = zoo(DEFAULT_SEED + 1);
        assert_eq!(a.len(), c.len());
        assert_ne!(a[0].train_deck, c[0].train_deck);
    }

    #[test]
    fn zoo_meets_coverage_floor() {
        let z = zoo(DEFAULT_SEED);
        assert!(z.len() >= 12, "zoo has only {} families", z.len());
        let subckt = z.iter().filter(|f| f.uses_subckt()).count();
        let ctrl = z.iter().filter(|f| f.uses_controlled_source()).count();
        assert!(subckt >= 2, "only {subckt} subcircuit families");
        assert!(ctrl >= 2, "only {ctrl} controlled-source families");
        // Names are unique (they key the contract manifest).
        let mut names: Vec<_> = z.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), z.len());
    }

    #[test]
    fn every_deck_parses() {
        for f in zoo(DEFAULT_SEED) {
            let ckt = rvf_circuit::parse_netlist(&f.train_deck)
                .unwrap_or_else(|e| panic!("{} train deck: {e}", f.name));
            assert!(ckt.n_devices() >= 2, "{}", f.name);
            rvf_circuit::parse_netlist(&f.valid_deck)
                .unwrap_or_else(|e| panic!("{} valid deck: {e}", f.name));
        }
    }
}
