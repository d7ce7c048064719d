//! Pins that a fitted model pays for one log-feature run: every zoo
//! family's state functions share one state-pole set, bit for bit, so
//! `lower`'s pole-run dedup gives every drive row the same run and the
//! compiled model evaluates one `ln` per state pole pair per sample.

use rvf::circuit::parse_netlist;
use rvf::model::extract_model;
use rvf::validate::{zoo, DEFAULT_SEED};

#[test]
fn every_zoo_model_lowers_to_one_log_feature_run() {
    for family in zoo(DEFAULT_SEED) {
        let mut train = parse_netlist(&family.train_deck).unwrap();
        let (report, _, _) = extract_model(&mut train, &family.tft, &family.rvf).unwrap();
        let d = &report.diagnostics;
        assert!(d.state_pole_counts.iter().all(|&n| n == d.static_pole_count), "{}", family.name);
        // State fits hold conjugate pairs only; a feature is one pair.
        assert_eq!(
            report.model.compile().n_pole_features(),
            d.static_pole_count / 2,
            "{}: {} common state poles",
            family.name,
            d.static_pole_count
        );
    }
}
