//! Runs zoo families through the full extraction pipeline and gates
//! them against the committed contract manifest.

use std::collections::HashMap;

use rvf_circuit::{dc_operating_point, parse_netlist, transient, CircuitError, TranOptions};
use rvf_core::{extract_model, DynBlock, HammersteinModel, RvfError};

use crate::json::Json;
use crate::report::{AccuracyContract, AccuracyReport, Violation};
use crate::zoo::ZooFamily;

/// The committed per-family accuracy-contract manifest. Bounds were
/// measured with [`crate::zoo::DEFAULT_SEED`] and carry ~2–4× headroom;
/// tightening one below the measured error must fail the gate.
pub(crate) const CONTRACT_MANIFEST: &str = include_str!("../contracts/zoo.json");

/// Everything the harness knows about one executed family.
#[derive(Debug, Clone)]
pub struct FamilyRun {
    /// Family name.
    pub name: &'static str,
    /// Measured accuracy against the transient oracle.
    pub report: AccuracyReport,
    /// Frequency-stage pole count of the extracted model.
    pub n_freq_poles: usize,
    /// Warm-started fits of the build that fell back to a cold restart.
    pub(crate) cold_restarts: usize,
    /// Model build time (excluding the training transient), seconds.
    pub(crate) build_seconds: f64,
}

/// Harness errors: anything that stops a family from producing a report.
#[derive(Debug)]
pub enum ZooError {
    /// Parsing, DC or transient simulation failed.
    Circuit {
        /// Family being run.
        family: String,
        /// Underlying circuit error.
        source: CircuitError,
    },
    /// TFT sampling or RVF fitting failed.
    Extraction {
        /// Family being run.
        family: String,
        /// Underlying extraction error.
        source: RvfError,
    },
    /// An extracted model has a dynamic block whose pole is not in the
    /// open left half-plane.
    UnstableModel {
        /// Family being run.
        family: String,
        /// Index of the block in [`HammersteinModel::blocks`].
        block: usize,
        /// Real part of the block's pole.
        re: f64,
    },
    /// The contract manifest has no entry for a family.
    MissingContract {
        /// Family lacking a contract.
        family: String,
    },
    /// The contract manifest could not be parsed.
    Manifest(String),
}

impl core::fmt::Display for ZooError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Circuit { family, source } => write!(f, "family '{family}': {source}"),
            Self::Extraction { family, source } => write!(f, "family '{family}': {source}"),
            Self::UnstableModel { family, block, re } => {
                write!(f, "family '{family}': block {block} is unstable (pole real part {re:e})")
            }
            Self::MissingContract { family } => {
                write!(f, "no contract for family '{family}' in the manifest")
            }
            Self::Manifest(msg) => write!(f, "bad contract manifest: {msg}"),
        }
    }
}

impl std::error::Error for ZooError {}

/// Runs one family end to end: parse both decks, extract a model from
/// the training deck, check that it is stable, simulate the validation
/// deck at transistor level (the oracle) and score the compiled model
/// against it.
///
/// # Errors
///
/// Returns [`ZooError`] if any pipeline stage fails, and
/// [`ZooError::UnstableModel`] if the extracted model is unstable.
pub fn run_family(family: &ZooFamily) -> Result<FamilyRun, ZooError> {
    let ckt = |e: CircuitError| ZooError::Circuit { family: family.name.into(), source: e };
    let ext = |e: RvfError| ZooError::Extraction { family: family.name.into(), source: e };

    let mut train = parse_netlist(&family.train_deck).map_err(ckt)?;
    let (extraction, _dataset, _train_tran) =
        extract_model(&mut train, &family.tft, &family.rvf).map_err(ext)?;
    check_stable(family.name, &extraction.model)?;

    let mut valid = parse_netlist(&family.valid_deck).map_err(ckt)?;
    let op = dc_operating_point(&mut valid, &Default::default()).map_err(ckt)?;
    let opts = TranOptions { dt: family.dt, t_stop: family.t_stop, ..Default::default() };
    let oracle = transient(&mut valid, &op, &opts).map_err(ckt)?;

    // The compiled serving path (HammersteinModel::simulate lowers
    // through SimBuilder) against the transistor-level oracle.
    let y_model = extraction.model.simulate(family.dt, &oracle.inputs);
    let report = AccuracyReport::compare(&oracle.outputs, &y_model, family.settle_frac);
    Ok(FamilyRun {
        name: family.name,
        report,
        n_freq_poles: extraction.diagnostics.n_freq_poles,
        cold_restarts: extraction.diagnostics.cold_restarts,
        build_seconds: extraction.build_seconds,
    })
}

/// Checks that every dynamic block of `model` is stable: a real block's
/// pole `a` and a pair's real part `σ` must be negative. The frequency
/// fit flips unstable poles, so this checks that construction rather
/// than trusting it.
fn check_stable(family: &str, model: &HammersteinModel) -> Result<(), ZooError> {
    for (block, b) in model.blocks.iter().enumerate() {
        let re = match *b {
            DynBlock::Real { a, .. } => a,
            DynBlock::Pair { sigma, .. } => sigma,
        };
        if re.is_nan() || re >= 0.0 {
            return Err(ZooError::UnstableModel { family: family.into(), block, re });
        }
    }
    Ok(())
}

/// Parses a contract manifest (JSON object keyed by family name).
///
/// # Errors
///
/// Returns [`ZooError::Manifest`] on syntax errors or missing metrics.
pub(crate) fn parse_contracts(text: &str) -> Result<HashMap<String, AccuracyContract>, ZooError> {
    let doc = Json::parse(text).map_err(ZooError::Manifest)?;
    let fields =
        doc.as_obj().ok_or_else(|| ZooError::Manifest("manifest root must be an object".into()))?;
    let mut out = HashMap::new();
    for (name, entry) in fields {
        let metric = |key: &str| -> Result<f64, ZooError> {
            entry.get(key).and_then(Json::as_f64).ok_or_else(|| {
                ZooError::Manifest(format!("family '{name}' is missing numeric '{key}'"))
            })
        };
        out.insert(
            name.clone(),
            AccuracyContract {
                max_nrmse: metric("max_nrmse")?,
                max_abs_norm: metric("max_abs_norm")?,
                max_settled_nrmse: metric("max_settled_nrmse")?,
            },
        );
    }
    Ok(out)
}

/// The committed contracts, parsed.
///
/// # Panics
///
/// Panics if the committed manifest is malformed (a build defect, caught
/// by the crate tests).
pub fn builtin_contracts() -> HashMap<String, AccuracyContract> {
    parse_contracts(CONTRACT_MANIFEST).expect("committed manifest parses")
}

/// One gated family: the run plus any contract violations.
#[derive(Debug, Clone)]
pub struct GatedRun {
    /// The executed family.
    pub run: FamilyRun,
    /// The contract it was gated against.
    pub contract: AccuracyContract,
    /// Bounds exceeded (empty = pass).
    pub violations: Vec<Violation>,
}

/// Runs every family and gates it against `contracts`.
///
/// # Errors
///
/// Fails fast on pipeline errors or a family without a contract;
/// contract *violations* are data, not errors.
pub fn run_zoo(
    families: &[ZooFamily],
    contracts: &HashMap<String, AccuracyContract>,
) -> Result<Vec<GatedRun>, ZooError> {
    families
        .iter()
        .map(|family| {
            let contract = *contracts
                .get(family.name)
                .ok_or_else(|| ZooError::MissingContract { family: family.name.into() })?;
            let run = run_family(family)?;
            let violations = contract.check(&run.report);
            Ok(GatedRun { run, contract, violations })
        })
        .collect()
}

/// Renders the gated results as a JSON report artifact.
pub fn report_json(seed: u64, gated: &[GatedRun]) -> Json {
    let families = gated
        .iter()
        .map(|g| {
            let r = &g.run.report;
            let violations = g
                .violations
                .iter()
                .map(|v| {
                    Json::Obj(vec![
                        ("metric".into(), Json::Str(v.metric.into())),
                        ("measured".into(), Json::Num(v.measured)),
                        ("bound".into(), Json::Num(v.bound)),
                    ])
                })
                .collect();
            let entry = Json::Obj(vec![
                ("pass".into(), Json::Bool(g.violations.is_empty())),
                ("n_samples".into(), Json::Num(r.n_samples as f64)),
                ("swing".into(), Json::Num(r.swing)),
                ("rmse".into(), Json::Num(r.rmse)),
                ("nrmse".into(), Json::Num(r.nrmse)),
                ("max_abs".into(), Json::Num(r.max_abs)),
                ("max_abs_norm".into(), Json::Num(r.max_abs_norm)),
                ("settling_nrmse".into(), Json::Num(r.settling_nrmse)),
                ("settled_nrmse".into(), Json::Num(r.settled_nrmse)),
                ("n_freq_poles".into(), Json::Num(g.run.n_freq_poles as f64)),
                ("cold_restarts".into(), Json::Num(g.run.cold_restarts as f64)),
                ("build_seconds".into(), Json::Num(g.run.build_seconds)),
                ("violations".into(), Json::Arr(violations)),
            ]);
            (g.run.name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("n_families".into(), Json::Num(gated.len() as f64)),
        (
            "n_failed".into(),
            Json::Num(gated.iter().filter(|g| !g.violations.is_empty()).count() as f64),
        ),
        ("families".into(), Json::Obj(families)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_manifest_parses_and_covers_the_zoo() {
        let contracts = builtin_contracts();
        for family in crate::zoo::zoo(crate::zoo::DEFAULT_SEED) {
            assert!(contracts.contains_key(family.name), "no contract for '{}'", family.name);
        }
    }

    #[test]
    fn unstable_block_is_a_typed_error() {
        use rvf_core::StateFn;
        let f = || StateFn { terms: vec![], linear: 1.0, constant: 0.0 };
        let pair = |sigma| DynBlock::Pair { sigma, omega: 2.0, f1: f(), f2: f() };
        let mut model = HammersteinModel {
            static_path: f(),
            blocks: vec![pair(-1.0), DynBlock::Real { a: -3.0, f: f() }],
            u0: 0.0,
            y0: 0.0,
        };
        assert!(check_stable("hand_built", &model).is_ok());
        for (block, re) in [(1, 0.5), (1, 0.0), (0, f64::NAN)] {
            let mut unstable = model.clone();
            match &mut unstable.blocks[block] {
                DynBlock::Real { a, .. } => *a = re,
                DynBlock::Pair { sigma, .. } => *sigma = re,
            }
            let err = check_stable("hand_built", &unstable).unwrap_err();
            assert!(
                matches!(&err, ZooError::UnstableModel { family, block: b, .. }
                    if family == "hand_built" && *b == block),
                "{err:?}"
            );
            assert!(err.to_string().contains(&format!("'hand_built': block {block}")), "{err}");
        }
        model.blocks.clear();
        assert!(check_stable("no_blocks", &model).is_ok());
    }

    #[test]
    fn manifest_errors_are_typed() {
        assert!(matches!(parse_contracts("[1,2]"), Err(ZooError::Manifest(_))));
        assert!(matches!(parse_contracts("{\"f\": {}}"), Err(ZooError::Manifest(_))));
        let e = parse_contracts("nope").unwrap_err();
        assert!(e.to_string().contains("manifest"));
    }
}
