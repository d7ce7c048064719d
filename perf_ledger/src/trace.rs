//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the ledger around its calls into each
//! crate's public API; nothing inside the program is instrumented. Every
//! span carries its name, start and end (ns since the recorder was
//! created), its parent span, and the pass, round or request id it
//! belongs to. Spans stay in memory and are written out as JSON when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or structural) name, e.g. `core.freq_stage` or `pass`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass, round or request id the span belongs to.
    pub id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open span.
    pub fn close(&mut self, index: usize) {
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: one thread records).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Index of the outermost ancestor of every span.
    fn roots(&self) -> Vec<usize> {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always opened (and so recorded) before children.
            let r = s.parent.map_or(i, |p| root[p]);
            root.push(r);
        }
        root
    }

    /// For every root span named `root`, the summed self time (ms) of
    /// the spans named `layer` beneath it: one value per pass or round.
    pub fn per_root_ms(&self, root: &str, layer: &str) -> Vec<f64> {
        let selfs = self.self_ns();
        let roots = self.roots();
        let mut acc: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                acc.entry(i).or_insert(0);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == layer {
                if let Some(v) = acc.get_mut(&roots[i]) {
                    *v += selfs[i];
                }
            }
        }
        acc.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-6).collect()
    }

    /// Share of the root spans named `root` that layer spans account
    /// for: the summed self time of every span beneath those roots whose
    /// name is not in `structural`, over the roots' summed duration.
    pub fn coverage(&self, root: &str, structural: &[&str]) -> f64 {
        let selfs = self.self_ns();
        let roots = self.roots();
        let mut total = 0u64;
        let mut covered = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let under = self.spans[roots[i]].name == root && self.spans[roots[i]].parent.is_none();
            if !under {
                continue;
            }
            if s.parent.is_none() {
                total += s.dur_ns();
            }
            if s.name != root && !structural.contains(&s.name) {
                covered += selfs[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Summed self time (ms) per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-6;
        }
        out
    }

    /// Writes the spans (at most `max_spans` of them, in open order) and
    /// the per-name self-time totals to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_json(
        &self,
        path: &Path,
        header: &[(&str, String)],
        max_spans: usize,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let written = self.spans.len().min(max_spans);
        let _ = writeln!(out, "  \"spans_total\": {},", self.spans.len());
        let _ = writeln!(out, "  \"spans_written\": {written},");
        out.push_str("  \"self_ms\": {");
        let by_name = self.self_ms_by_name();
        for (k, (name, ms)) in by_name.iter().enumerate() {
            let sep = if k + 1 == by_name.len() { "" } else { "," };
            let _ = write!(out, "\"{name}\": {ms:.6}{sep}");
        }
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().take(written).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 == written { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"i\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("  ]\n}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Tracer {
        // pass(0..100) ⊃ model(10..90) ⊃ {a(10..40), b(50..80)}; a
        // second pass(200..300) ⊃ a(210..290).
        let mk = |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, id: 0 };
        Tracer {
            epoch: Instant::now(),
            spans: vec![
                mk("pass", 0, 100, None),
                mk("model", 10, 90, Some(0)),
                mk("a", 10, 40, Some(1)),
                mk("b", 50, 80, Some(1)),
                mk("pass", 200, 300, None),
                mk("a", 210, 290, Some(4)),
            ],
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = synthetic();
        assert_eq!(t.self_ns(), vec![20, 20, 30, 30, 20, 80]);
    }

    #[test]
    fn coverage_counts_layer_self_time_under_roots() {
        let t = synthetic();
        // Layers a and b cover 30 + 30 + 80 of 200 ns.
        let c = t.coverage("pass", &["model"]);
        assert!((c - 0.7).abs() < 1e-12, "{c}");
        let ns = |layer| -> Vec<f64> {
            t.per_root_ms("pass", layer).iter().map(|ms| (ms * 1e6).round()).collect()
        };
        assert_eq!(ns("a"), vec![30.0, 80.0]);
        assert_eq!(ns("b"), vec![30.0, 0.0]);
    }

    #[test]
    fn live_spans_nest_and_close_in_order() {
        let mut t = Tracer::new();
        let outer = t.open("pass", 7);
        let v = t.span("layer", 7, || 41 + 1);
        t.close(outer);
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!((0.0..=1.0).contains(&t.coverage("pass", &[])));
    }
}
