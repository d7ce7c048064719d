//! Cross-run bench comparison: diffing two `CRITERION_OUT` JSON
//! directories.
//!
//! The vendored criterion shim emits one JSON record per benchmark
//! (`{"id":…,"samples":N,"min_ns":…,"median_ns":…,…}`). This module
//! parses those records without a JSON dependency (the format is
//! shim-controlled) and produces per-bench deltas between a *baseline*
//! directory (committed, or downloaded from a previous run's artifact)
//! and a *current* one. Verdicts are **noise-aware**: each side's raw
//! nanosecond samples give a median ± MAD interval, and only deltas
//! whose intervals do not overlap count as significant — a step toward
//! real criterion's cross-run regression analysis. The `bench_diff`
//! binary wraps it for CI (warn-only: shared-runner timings are trend
//! data, not gates) and can rewrite the committed baseline from a
//! trusted run ([`update_baseline`]).

use std::fmt;
use std::io;
use std::path::Path;

/// Half-width multiplier of the noise interval: `median ± K·MAD`.
/// Three (scaled) deviations is the usual outlier convention; with the
/// quick-mode 3-sample records it degenerates gracefully because the
/// floor below keeps the interval non-empty.
const NOISE_K: f64 = 3.0;

/// Relative noise floor: the interval half-width is never narrower than
/// this fraction of the median, so tiny-MAD (or single-sample) records
/// don't declare 0.1% jitter significant.
const NOISE_FLOOR: f64 = 0.02;

/// One benchmark's summary statistics pulled from a shim JSON record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id as passed to `bench_function`.
    pub id: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Fastest sample, nanoseconds.
    pub min_ns: f64,
    /// Median sample, nanoseconds.
    pub median_ns: f64,
    /// Raw per-sample timings, nanoseconds (empty for records predating
    /// the `samples_ns` field).
    pub samples_ns: Vec<f64>,
}

impl BenchRecord {
    /// Median absolute deviation of the raw samples about their median
    /// (0 when the raw array is missing).
    pub fn mad_ns(&self) -> f64 {
        mad(&self.samples_ns)
    }
}

/// Median of a sample set (0 for an empty one).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Median absolute deviation about the median (0 for empty input).
fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|&x| (x - m).abs()).collect();
    median(&dev)
}

/// Pulls a numeric field like `"median_ns":123.4` out of a flat JSON
/// record (no nesting in the shim's format except the trailing sample
/// array, which no field name prefixes).
fn field_f64(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Pulls the (escaped) string value of `"id"`. Sufficient for the
/// shim's RFC 8259 escaping because bench ids never contain `"` in
/// practice; a record with an escaped quote is skipped, not corrupted.
fn field_id(json: &str) -> Option<String> {
    let key = "\"id\":\"";
    let start = json.find(key)? + key.len();
    let rest = &json[start..];
    let end = rest.find('"')?;
    let id = &rest[..end];
    if id.ends_with('\\') {
        return None;
    }
    Some(id.to_string())
}

/// Pulls a flat numeric array like `"samples_ns":[1,2,3]` out of a shim
/// record; `None` when the field is absent (older records), an empty
/// vector for `[]`.
fn field_array(json: &str, name: &str) -> Option<Vec<f64>> {
    let key = format!("\"{name}\":[");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest.find(']')?;
    Some(rest[..end].split(',').filter_map(|s| s.trim().parse().ok()).collect())
}

/// Parses one shim JSON record; `None` for malformed records or
/// zero-sample placeholders.
pub fn parse_record(json: &str) -> Option<BenchRecord> {
    let id = field_id(json)?;
    let samples = field_f64(json, "samples")? as u64;
    if samples == 0 {
        return None;
    }
    Some(BenchRecord {
        id,
        samples,
        min_ns: field_f64(json, "min_ns")?,
        median_ns: field_f64(json, "median_ns")?,
        samples_ns: field_array(json, "samples_ns").unwrap_or_default(),
    })
}

/// Reads every `*.json` record in a `CRITERION_OUT` directory, sorted
/// by bench id.
///
/// # Errors
///
/// Propagates directory-read failures; unreadable or malformed files
/// are skipped (a bench report must never fail on reporting).
pub fn read_dir_records(dir: &Path) -> io::Result<Vec<BenchRecord>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            if let Ok(body) = std::fs::read_to_string(&path) {
                if let Some(rec) = parse_record(&body) {
                    out.push(rec);
                }
            }
        }
    }
    out.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(out)
}

/// Noise-aware classification of one benchmark's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Current is significantly slower: the `median ± K·MAD` intervals
    /// do not overlap and the current median is higher.
    Regressed,
    /// Current is significantly faster.
    Improved,
    /// The intervals overlap — the delta is within run-to-run noise.
    WithinNoise,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::WithinNoise => "~noise",
        })
    }
}

/// One benchmark present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark id.
    pub id: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// Current median, nanoseconds.
    pub current_ns: f64,
    /// Baseline MAD of the raw samples, nanoseconds.
    pub baseline_mad_ns: f64,
    /// Current MAD of the raw samples, nanoseconds.
    pub current_mad_ns: f64,
}

impl BenchDelta {
    /// `current / baseline` median ratio (`> 1` = slower than baseline).
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns > 0.0 {
            self.current_ns / self.baseline_ns
        } else {
            f64::INFINITY
        }
    }

    /// Half-width of one side's noise interval: `K·MAD`, floored at a
    /// small fraction of the median so degenerate sample sets (MAD = 0)
    /// never declare jitter significant.
    fn spread(median_ns: f64, mad_ns: f64) -> f64 {
        (NOISE_K * mad_ns).max(NOISE_FLOOR * median_ns.abs())
    }

    /// Classifies the delta from the raw-sample statistics: significant
    /// only when the two `median ± K·MAD` intervals do not overlap.
    pub fn verdict(&self) -> Verdict {
        let sb = Self::spread(self.baseline_ns, self.baseline_mad_ns);
        let sc = Self::spread(self.current_ns, self.current_mad_ns);
        if self.current_ns - sc > self.baseline_ns + sb {
            Verdict::Regressed
        } else if self.current_ns + sc < self.baseline_ns - sb {
            Verdict::Improved
        } else {
            Verdict::WithinNoise
        }
    }
}

/// The full comparison of two bench-JSON directories.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Benchmarks present in both directories.
    pub deltas: Vec<BenchDelta>,
    /// Ids only in the baseline (removed or not run).
    pub only_baseline: Vec<String>,
    /// Ids only in the current run (new benches).
    pub only_current: Vec<String>,
}

impl BenchReport {
    /// Benchmarks whose median regressed by more than `factor`
    /// (e.g. `1.5` = 50% slower) **and** whose delta is significant
    /// under the noise-aware verdict (`median ± K·MAD` intervals
    /// disjoint), worst first. A large but noise-swamped median jump —
    /// common on shared CI runners — is not a regression.
    pub fn regressions(&self, factor: f64) -> Vec<&BenchDelta> {
        let mut out: Vec<&BenchDelta> = self
            .deltas
            .iter()
            .filter(|d| d.ratio() > factor && d.verdict() == Verdict::Regressed)
            .collect();
        out.sort_by(|a, b| b.ratio().partial_cmp(&a.ratio()).unwrap_or(core::cmp::Ordering::Equal));
        out
    }
}

/// Compares two `CRITERION_OUT` directories by bench id.
///
/// # Errors
///
/// Propagates directory-read failures from either side.
pub fn diff_dirs(baseline: &Path, current: &Path) -> io::Result<BenchReport> {
    let base = read_dir_records(baseline)?;
    let cur = read_dir_records(current)?;
    let mut report = BenchReport::default();
    let mut cur_by_id: std::collections::BTreeMap<&str, &BenchRecord> =
        cur.iter().map(|r| (r.id.as_str(), r)).collect();
    for b in &base {
        match cur_by_id.remove(b.id.as_str()) {
            Some(c) => report.deltas.push(BenchDelta {
                id: b.id.clone(),
                baseline_ns: b.median_ns,
                current_ns: c.median_ns,
                baseline_mad_ns: b.mad_ns(),
                current_mad_ns: c.mad_ns(),
            }),
            None => report.only_baseline.push(b.id.clone()),
        }
    }
    report.only_current = cur_by_id.into_keys().map(str::to_string).collect();
    Ok(report)
}

/// Outcome of a baseline rewrite: which record files were written and
/// which stale ones were removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineUpdate {
    /// Record files copied from the trusted run (new or refreshed).
    pub written: Vec<String>,
    /// Stale baseline files removed (their bench no longer exists).
    pub removed: Vec<String>,
}

/// Rewrites a committed baseline directory from a trusted
/// `CRITERION_OUT` run: every parseable record in `current` replaces
/// its baseline counterpart byte-for-byte, and baseline records whose
/// record file vanished from `current` are deleted. Malformed or
/// zero-sample files in `current` are skipped — they neither enter the
/// baseline nor delete the good record they would have replaced (an
/// interrupted bench must not silently drop coverage).
///
/// # Errors
///
/// Propagates directory-read/-write failures; the baseline directory is
/// created if missing.
pub fn update_baseline(baseline: &Path, current: &Path) -> io::Result<BaselineUpdate> {
    std::fs::create_dir_all(baseline)?;
    let mut update = BaselineUpdate::default();
    // Every record *file* present in the current run protects its
    // baseline counterpart from the stale sweep, parseable or not.
    let mut current_names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(current)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let name = path.file_name().expect("json files have names").to_string_lossy().into_owned();
        current_names.insert(name.clone());
        let Ok(body) = std::fs::read_to_string(&path) else { continue };
        if parse_record(&body).is_none() {
            continue;
        }
        std::fs::write(baseline.join(&name), &body)?;
        update.written.push(name);
    }
    for entry in std::fs::read_dir(baseline)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let name = path.file_name().expect("json files have names").to_string_lossy().into_owned();
        if !current_names.contains(&name) {
            std::fs::remove_file(&path)?;
            update.removed.push(name);
        }
    }
    update.written.sort();
    update.removed.sort();
    Ok(update)
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<48} {:>12} {:>12} {:>9} {:>10}",
            "benchmark", "baseline", "current", "delta", "verdict"
        )?;
        for d in &self.deltas {
            let pct = (d.ratio() - 1.0) * 100.0;
            writeln!(
                f,
                "{:<48} {:>12} {:>12} {:>+8.1}% {:>10}",
                d.id,
                fmt_ns(d.baseline_ns),
                fmt_ns(d.current_ns),
                pct,
                d.verdict()
            )?;
        }
        for id in &self.only_baseline {
            writeln!(f, "{id:<48} {:>12} {:>12}", "(baseline)", "missing")?;
        }
        for id in &self.only_current {
            writeln!(f, "{id:<48} {:>12} {:>12}", "missing", "(new)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = "{\"id\":\"qr_block_120x13_fast_vf\",\"samples\":10,\
        \"min_ns\":23000,\"mean_ns\":24100.5,\"median_ns\":23500,\
        \"stddev_ns\":800,\"max_ns\":27000,\"samples_ns\":[23000,27000]}\n";

    #[test]
    fn parses_shim_record() {
        let r = parse_record(RECORD).unwrap();
        assert_eq!(r.id, "qr_block_120x13_fast_vf");
        assert_eq!(r.samples, 10);
        assert_eq!(r.min_ns, 23000.0);
        assert_eq!(r.median_ns, 23500.0);
        assert_eq!(r.samples_ns, vec![23000.0, 27000.0]);
        // MAD of {23000, 27000}: median 25000, deviations {2000, 2000}.
        assert_eq!(r.mad_ns(), 2000.0);
    }

    #[test]
    fn records_without_raw_samples_degrade_to_zero_mad() {
        let r = parse_record("{\"id\":\"x\",\"samples\":3,\"min_ns\":1,\"median_ns\":2}").unwrap();
        assert!(r.samples_ns.is_empty());
        assert_eq!(r.mad_ns(), 0.0);
    }

    #[test]
    fn rejects_empty_and_malformed_records() {
        assert!(parse_record("{\"id\":\"x\",\"samples\":0}").is_none());
        assert!(parse_record("not json at all").is_none());
        assert!(parse_record("{\"samples\":3,\"median_ns\":1}").is_none());
    }

    fn delta(id: &str, base: f64, cur: f64, mad_b: f64, mad_c: f64) -> BenchDelta {
        BenchDelta {
            id: id.into(),
            baseline_ns: base,
            current_ns: cur,
            baseline_mad_ns: mad_b,
            current_mad_ns: mad_c,
        }
    }

    #[test]
    fn delta_ratio_and_regressions() {
        let report = BenchReport {
            deltas: vec![
                delta("a", 100.0, 100.0, 1.0, 1.0),
                delta("b", 100.0, 250.0, 1.0, 1.0),
                delta("c", 100.0, 160.0, 1.0, 1.0),
            ],
            ..Default::default()
        };
        let regs = report.regressions(1.5);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].id, "b"); // worst first
        assert!((regs[0].ratio() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn verdict_uses_median_mad_interval_overlap() {
        // Tight samples, clear jump: significant both directions.
        assert_eq!(delta("t", 100.0, 160.0, 1.0, 1.0).verdict(), Verdict::Regressed);
        assert_eq!(delta("t", 160.0, 100.0, 1.0, 1.0).verdict(), Verdict::Improved);
        // The same 1.6× jump drowned in noise (MAD 30ns): inconclusive.
        assert_eq!(delta("t", 100.0, 160.0, 30.0, 30.0).verdict(), Verdict::WithinNoise);
        // Equal medians are never significant, whatever the MAD.
        assert_eq!(delta("t", 100.0, 100.0, 0.0, 0.0).verdict(), Verdict::WithinNoise);
        // MAD = 0 falls back to the relative noise floor instead of
        // flagging sub-percent jitter.
        assert_eq!(delta("t", 100.0, 101.0, 0.0, 0.0).verdict(), Verdict::WithinNoise);
        assert_eq!(delta("t", 100.0, 150.0, 0.0, 0.0).verdict(), Verdict::Regressed);
    }

    #[test]
    fn noisy_regressions_are_filtered_from_the_gate() {
        let report = BenchReport {
            deltas: vec![
                delta("noisy", 100.0, 200.0, 40.0, 40.0), // 2× but MAD-swamped
                delta("real", 100.0, 200.0, 2.0, 2.0),    // 2× and significant
            ],
            ..Default::default()
        };
        let regs = report.regressions(1.5);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "real");
    }

    #[test]
    fn diff_dirs_matches_by_id_and_tracks_missing() {
        let tmp = std::env::temp_dir().join(format!("bench-compare-test-{}", std::process::id()));
        let (base, cur) = (tmp.join("base"), tmp.join("cur"));
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&cur).unwrap();
        let rec = |id: &str, median: f64| {
            format!(
                "{{\"id\":\"{id}\",\"samples\":3,\"min_ns\":1,\"mean_ns\":1,\
                 \"median_ns\":{median},\"stddev_ns\":0,\"max_ns\":2,\"samples_ns\":[1,2]}}"
            )
        };
        std::fs::write(base.join("a.json"), rec("a", 100.0)).unwrap();
        std::fs::write(base.join("gone.json"), rec("gone", 5.0)).unwrap();
        std::fs::write(cur.join("a.json"), rec("a", 150.0)).unwrap();
        std::fs::write(cur.join("new.json"), rec("new", 7.0)).unwrap();
        let report = diff_dirs(&base, &cur).unwrap();
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.deltas[0].id, "a");
        assert!((report.deltas[0].ratio() - 1.5).abs() < 1e-12);
        assert_eq!(report.only_baseline, vec!["gone".to_string()]);
        assert_eq!(report.only_current, vec!["new".to_string()]);
        let shown = report.to_string();
        assert!(shown.contains("+50.0%"), "{shown}");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn update_baseline_rewrites_adds_and_removes() {
        let tmp =
            std::env::temp_dir().join(format!("bench-baseline-update-{}", std::process::id()));
        let (base, cur) = (tmp.join("base"), tmp.join("cur"));
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&cur).unwrap();
        let rec = |id: &str, median: f64| {
            format!(
                "{{\"id\":\"{id}\",\"samples\":3,\"min_ns\":1,\"mean_ns\":1,\
                 \"median_ns\":{median},\"stddev_ns\":0,\"max_ns\":2,\"samples_ns\":[1,2]}}"
            )
        };
        std::fs::write(base.join("stale.json"), rec("stale", 9.0)).unwrap();
        std::fs::write(base.join("kept.json"), rec("kept", 100.0)).unwrap();
        std::fs::write(base.join("covered.json"), rec("covered", 33.0)).unwrap();
        std::fs::write(base.join("notes.txt"), "not a record").unwrap();
        std::fs::write(cur.join("kept.json"), rec("kept", 50.0)).unwrap();
        std::fs::write(cur.join("fresh.json"), rec("fresh", 7.0)).unwrap();
        std::fs::write(cur.join("broken.json"), "{\"id\":\"broken\",\"samples\":0}").unwrap();
        // An interrupted bench: the current file exists but is a
        // zero-sample placeholder — the committed record must survive.
        std::fs::write(cur.join("covered.json"), "{\"id\":\"covered\",\"samples\":0}").unwrap();

        let update = update_baseline(&base, &cur).unwrap();
        assert_eq!(update.written, vec!["fresh.json".to_string(), "kept.json".to_string()]);
        assert_eq!(update.removed, vec!["stale.json".to_string()]);
        // The refreshed baseline matches the trusted run byte-for-byte…
        let records = read_dir_records(&base).unwrap();
        let ids: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["covered", "fresh", "kept"]);
        assert_eq!(records[0].median_ns, 33.0, "placeholder must not clobber the old record");
        assert_eq!(records[2].median_ns, 50.0);
        // …zero-sample placeholders never enter it, and non-JSON files
        // are untouched.
        assert!(!base.join("broken.json").exists());
        assert!(base.join("notes.txt").exists());
        // Idempotent: a second pass writes the same set, removes nothing.
        let again = update_baseline(&base, &cur).unwrap();
        assert_eq!(again.written, update.written);
        assert!(again.removed.is_empty());
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
