//! A warm start that trips a kernel failure and falls back to a cold
//! restart shows up in the build diagnostics; on `clipper_hard` at the
//! default seed, the warm start that once did so must now converge
//! without one.

use rvf::circuit::parse_netlist;
use rvf::model::extract_model;
use rvf::validate::{zoo, DEFAULT_SEED};

#[test]
fn clipper_hard_reports_its_warm_start_fallback() {
    // At the default seed a warm-started fit of `clipper_hard` seeds a
    // relocation eigenproblem with a ± symmetric spectrum. Under the
    // Numerical Recipes iteration budget the solver refused it and
    // `fit_in` restarted cold (counted, not passed off as a plain
    // success); with `dlahqr`'s budget the warm fit converges, so the
    // build must report no fallback at all.
    let family = zoo(DEFAULT_SEED).into_iter().find(|f| f.name == "clipper_hard").unwrap();
    let mut train = parse_netlist(&family.train_deck).unwrap();
    let (report, _, _) = extract_model(&mut train, &family.tft, &family.rvf).unwrap();
    assert_eq!(report.diagnostics.cold_restarts, 0, "expected no warm-start fallback");
}
