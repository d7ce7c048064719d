//! SPICE-flavoured netlist parser.
//!
//! The extraction flow starts "from the netlist of a nonlinear analog
//! circuit" (paper abstract); this module accepts a compact SPICE-like
//! text format:
//!
//! ```text
//! * comment
//! VDD vdd 0 DC 1.5
//! Vin in 0 SINE(0.9 0.5 50meg)
//! R1  in  mid 1k
//! C1  mid 0   1p
//! L1  mid out 1n
//! D1  out 0   IS=1e-14 N=1
//! M1  d g s   NMOS KP=6.5m VT=0.4 LAMBDA=0.08 CGS=8f CGD=2.5f
//! G1  out 0 in 0 1m
//! .subckt lpf a b
//! Rs a b 1k
//! Cs b 0 10p
//! .ends
//! X1 out filt lpf
//! .input Vin
//! .output out 0
//! .end
//! ```
//!
//! Supported value suffixes: `t g meg k mil m u n p f` (case-insensitive,
//! longest match first so `1meg` is 1e6 while `1m` is 1e-3); trailing
//! unit letters after a recognized suffix are ignored (`10pF`, `1kOhm`),
//! any other trailing garbage is rejected.
//! Waveforms: `DC v`, `SINE(off ampl freq [phase_deg] [delay])`,
//! `PULSE(v0 v1 delay rise fall width period)`, `PWL(t1 v1 t2 v2 …)`,
//! `BIT(v0 v1 rate rise pattern)` with `pattern` a string of 0/1.
//! Controlled sources: `E`/`G` (voltage-controlled, `name p n cp cn k`)
//! and `F`/`H` (current-controlled, `name p n vsource k`; the named
//! source may appear anywhere in the deck).
//! Subcircuits: `.subckt NAME port…` / `.ends` definitions and
//! `Xname node… NAME` instantiation (flattened; internal nodes and
//! device names get the `Xname.` prefix, `F`/`H` controls resolve
//! within the instance). Continuation lines start with `+`.

use std::collections::HashMap;

use crate::devices::bjt::{Bjt, BjtParams, BjtType};
use crate::devices::diode::Diode;
use crate::devices::mosfet::{MosType, Mosfet, MosfetParams};
use crate::devices::passive::{Capacitor, Inductor, Resistor};
use crate::devices::sources::{Cccs, Ccvs, Isource, Vccs, Vcvs, Vsource};
use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::waveform::Waveform;

/// Maximum subcircuit instantiation depth (guards against recursive
/// definitions).
const MAX_SUBCKT_DEPTH: usize = 8;

/// A parsed `.subckt` definition awaiting instantiation.
struct SubcktDef {
    /// Line of the `.subckt` header (for dangling-definition errors).
    line: usize,
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Name-resolution scope: empty prefix at top level, `"X1."` etc.
/// inside a flattened subcircuit instance.
struct Scope {
    prefix: String,
    ports: HashMap<String, usize>,
}

impl Scope {
    fn top() -> Self {
        Self { prefix: String::new(), ports: HashMap::new() }
    }

    fn dev_name(&self, raw: &str) -> String {
        if self.prefix.is_empty() {
            raw.to_string()
        } else {
            format!("{}{raw}", self.prefix)
        }
    }
}

/// CCCS/CCVS lines are added after the rest of the deck so the named
/// controlling source may appear anywhere in the netlist.
enum PendingControlled {
    Cccs { name: String, p: usize, n: usize, control: String, gain: f64 },
    Ccvs { name: String, p: usize, n: usize, control: String, r: f64 },
}

/// Parses a netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with the offending line number for
/// any malformed content, and construction errors (duplicate devices,
/// missing control sources) verbatim.
pub fn parse_netlist(text: &str) -> Result<Circuit, CircuitError> {
    let mut ckt = Circuit::new();
    // Join continuation lines, remembering original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix('+') {
            if let Some(last) = logical.last_mut() {
                last.1.push(' ');
                last.1.push_str(rest.trim());
                continue;
            }
        }
        logical.push((idx + 1, line.to_string()));
    }
    // Pass 1: strip comments, collect `.subckt` definitions, keep the
    // rest as main-deck lines.
    let mut defs: HashMap<String, SubcktDef> = HashMap::new();
    let mut main: Vec<(usize, String)> = Vec::new();
    let mut open: Option<(String, SubcktDef)> = None;
    for (line_no, line) in logical {
        let body = match line.split(['*', ';']).next() {
            Some(b) => b.trim(),
            None => "",
        };
        if body.is_empty() {
            continue;
        }
        let tokens = tokenize(body);
        let head = tokens[0].to_ascii_uppercase();
        if head == ".SUBCKT" {
            if let Some((name, _)) = &open {
                return Err(err(
                    line_no,
                    format!("nested .subckt inside '{name}' is not supported"),
                ));
            }
            if tokens.len() < 3 {
                return Err(err(line_no, ".subckt needs: name port…"));
            }
            let name = tokens[1].to_ascii_uppercase();
            if defs.contains_key(&name) {
                return Err(err(line_no, format!("duplicate subcircuit '{name}'")));
            }
            let ports: Vec<String> = tokens[2..].to_vec();
            for (i, p) in ports.iter().enumerate() {
                if p == "0" || p.eq_ignore_ascii_case("gnd") {
                    return Err(err(line_no, "subcircuit port may not be ground"));
                }
                if ports[..i].contains(p) {
                    return Err(err(line_no, format!("duplicate subcircuit port '{p}'")));
                }
            }
            open = Some((name, SubcktDef { line: line_no, ports, body: Vec::new() }));
        } else if head == ".ENDS" {
            let Some((name, def)) = open.take() else {
                return Err(err(line_no, ".ends without a matching .subckt"));
            };
            if let Some(arg) = tokens.get(1) {
                if arg.to_ascii_uppercase() != name {
                    return Err(err(line_no, format!(".ends '{arg}' does not close '{name}'")));
                }
            }
            defs.insert(name, def);
        } else if let Some((name, def)) = open.as_mut() {
            // Reject directives at definition time so the error does not
            // depend on whether the subcircuit is ever instantiated.
            if let Some(d) = head.strip_prefix('.') {
                return Err(err(
                    line_no,
                    format!("directive '.{d}' not allowed inside .subckt '{name}'"),
                ));
            }
            def.body.push((line_no, body.to_string()));
        } else {
            main.push((line_no, body.to_string()));
        }
    }
    if let Some((name, def)) = open {
        return Err(err(def.line, format!("missing .ends for subcircuit '{name}'")));
    }
    // Pass 2: stamp the main deck (instantiating subcircuits), then the
    // deferred current-controlled sources.
    let mut pending: Vec<PendingControlled> = Vec::new();
    let scope = Scope::top();
    for (line_no, body) in main {
        parse_line(&mut ckt, &defs, &scope, &mut pending, 0, line_no, &body)?;
    }
    for p in pending {
        match p {
            PendingControlled::Cccs { name, p, n, control, gain } => {
                ckt.add(Cccs::new(name, p, n, control, gain))?;
            }
            PendingControlled::Ccvs { name, p, n, control, r } => {
                ckt.add(Ccvs::new(name, p, n, control, r))?;
            }
        }
    }
    Ok(ckt)
}

fn err(line: usize, message: impl Into<String>) -> CircuitError {
    CircuitError::Parse { line, message: message.into() }
}

/// Resolves a node name in `scope`: ground, a subcircuit port, or a
/// (possibly prefixed) named node.
fn resolve_node(ckt: &mut Circuit, scope: &Scope, raw: &str) -> usize {
    if raw == "0" || raw.eq_ignore_ascii_case("gnd") {
        return 0;
    }
    if let Some(&id) = scope.ports.get(raw) {
        return id;
    }
    if scope.prefix.is_empty() {
        ckt.node(raw)
    } else {
        ckt.node(&format!("{}{raw}", scope.prefix))
    }
}

fn parse_line(
    ckt: &mut Circuit,
    defs: &HashMap<String, SubcktDef>,
    scope: &Scope,
    pending: &mut Vec<PendingControlled>,
    depth: usize,
    line: usize,
    body: &str,
) -> Result<(), CircuitError> {
    let tokens = tokenize(body);
    if tokens.is_empty() {
        return Ok(());
    }
    let head = tokens[0].to_ascii_uppercase();
    if let Some(directive) = head.strip_prefix('.') {
        if !scope.prefix.is_empty() {
            return Err(err(line, format!("directive '.{directive}' not allowed inside .subckt")));
        }
        return parse_directive(ckt, line, directive, &tokens[1..]);
    }
    let kind = head.chars().next().expect("nonempty token");
    let name = scope.dev_name(&tokens[0]);
    match kind {
        'R' | 'C' | 'L' => {
            if tokens.len() != 4 {
                return Err(err(line, format!("{kind} element needs: name node node value")));
            }
            let p = resolve_node(ckt, scope, &tokens[1]);
            let n = resolve_node(ckt, scope, &tokens[2]);
            let v = parse_value(&tokens[3]).ok_or_else(|| err(line, "bad value"))?;
            match kind {
                'R' => ckt.add(Resistor::new(name, p, n, v))?,
                'C' => ckt.add(Capacitor::new(name, p, n, v))?,
                _ => ckt.add(Inductor::new(name, p, n, v))?,
            }
            Ok(())
        }
        'V' | 'I' => {
            if tokens.len() < 4 {
                return Err(err(line, "source needs: name node node waveform"));
            }
            let p = resolve_node(ckt, scope, &tokens[1]);
            let n = resolve_node(ckt, scope, &tokens[2]);
            let w = parse_waveform(line, &tokens[3..])?;
            if kind == 'V' {
                ckt.add(Vsource::new(name, p, n, w))?;
            } else {
                // SPICE convention: current flows p → n through the source.
                ckt.add(Isource::new(name, p, n, w))?;
            }
            Ok(())
        }
        'G' | 'E' => {
            if tokens.len() != 6 {
                return Err(err(line, "controlled source needs: name p n cp cn value"));
            }
            let p = resolve_node(ckt, scope, &tokens[1]);
            let n = resolve_node(ckt, scope, &tokens[2]);
            let cp = resolve_node(ckt, scope, &tokens[3]);
            let cn = resolve_node(ckt, scope, &tokens[4]);
            let v = parse_value(&tokens[5]).ok_or_else(|| err(line, "bad value"))?;
            if kind == 'G' {
                ckt.add(Vccs::new(name, p, n, cp, cn, v))?;
            } else {
                ckt.add(Vcvs::new(name, p, n, cp, cn, v))?;
            }
            Ok(())
        }
        'F' | 'H' => {
            if tokens.len() != 5 {
                return Err(err(line, "current-controlled source needs: name p n vsource value"));
            }
            let p = resolve_node(ckt, scope, &tokens[1]);
            let n = resolve_node(ckt, scope, &tokens[2]);
            let control = scope.dev_name(&tokens[3]);
            let v = parse_value(&tokens[4]).ok_or_else(|| err(line, "bad value"))?;
            // Deferred: the controlling source may be defined later in
            // the deck (or later in this subcircuit body).
            if kind == 'F' {
                pending.push(PendingControlled::Cccs { name, p, n, control, gain: v });
            } else {
                pending.push(PendingControlled::Ccvs { name, p, n, control, r: v });
            }
            Ok(())
        }
        'Q' => {
            if tokens.len() < 5 {
                return Err(err(line, "bjt needs: name c b e NPN|PNP [params]"));
            }
            let cn = resolve_node(ckt, scope, &tokens[1]);
            let bn = resolve_node(ckt, scope, &tokens[2]);
            let en = resolve_node(ckt, scope, &tokens[3]);
            let ty = match tokens[4].to_ascii_uppercase().as_str() {
                "NPN" => BjtType::Npn,
                "PNP" => BjtType::Pnp,
                other => return Err(err(line, format!("unknown bjt type '{other}'"))),
            };
            let kv = parse_kv(line, &tokens[5..])?;
            let defaults = BjtParams::default();
            let params = BjtParams {
                is: kv_get(&kv, "IS").unwrap_or(defaults.is),
                beta_f: kv_get(&kv, "BF").unwrap_or(defaults.beta_f),
                beta_r: kv_get(&kv, "BR").unwrap_or(defaults.beta_r),
                cje: kv_get(&kv, "CJE").unwrap_or(defaults.cje),
                cjc: kv_get(&kv, "CJC").unwrap_or(defaults.cjc),
            };
            ckt.add(Bjt::new(name, cn, bn, en, ty, params))?;
            Ok(())
        }
        'D' => {
            if tokens.len() < 3 {
                return Err(err(line, "diode needs: name p n [IS=..] [N=..]"));
            }
            let p = resolve_node(ckt, scope, &tokens[1]);
            let n = resolve_node(ckt, scope, &tokens[2]);
            let kv = parse_kv(line, &tokens[3..])?;
            let is = kv_get(&kv, "IS").unwrap_or(1e-14);
            let ni = kv_get(&kv, "N").unwrap_or(1.0);
            ckt.add(Diode::new(name, p, n, is, ni))?;
            Ok(())
        }
        'M' => {
            if tokens.len() < 5 {
                return Err(err(line, "mosfet needs: name d g s NMOS|PMOS [params]"));
            }
            let d = resolve_node(ckt, scope, &tokens[1]);
            let g = resolve_node(ckt, scope, &tokens[2]);
            let s = resolve_node(ckt, scope, &tokens[3]);
            let ty = match tokens[4].to_ascii_uppercase().as_str() {
                "NMOS" => MosType::Nmos,
                "PMOS" => MosType::Pmos,
                other => return Err(err(line, format!("unknown mosfet type '{other}'"))),
            };
            let kv = parse_kv(line, &tokens[5..])?;
            let defaults = MosfetParams::default();
            let params = MosfetParams {
                kp: kv_get(&kv, "KP").unwrap_or(defaults.kp),
                vt0: kv_get(&kv, "VT").unwrap_or(defaults.vt0),
                lambda: kv_get(&kv, "LAMBDA").unwrap_or(defaults.lambda),
                cgs: kv_get(&kv, "CGS").unwrap_or(defaults.cgs),
                cgd: kv_get(&kv, "CGD").unwrap_or(defaults.cgd),
            };
            ckt.add(Mosfet::new(name, d, g, s, ty, params))?;
            Ok(())
        }
        'X' => {
            if tokens.len() < 3 {
                return Err(err(line, "subcircuit instance needs: name node… subckt-name"));
            }
            let sub = tokens.last().expect("len checked").to_ascii_uppercase();
            let def =
                defs.get(&sub).ok_or_else(|| err(line, format!("unknown subcircuit '{sub}'")))?;
            let conn = &tokens[1..tokens.len() - 1];
            if conn.len() != def.ports.len() {
                return Err(err(
                    line,
                    format!(
                        "subcircuit '{sub}' has {} ports, instance connects {}",
                        def.ports.len(),
                        conn.len()
                    ),
                ));
            }
            if depth >= MAX_SUBCKT_DEPTH {
                return Err(err(
                    line,
                    format!(
                        "subcircuit nesting exceeds {MAX_SUBCKT_DEPTH} (recursive definition?)"
                    ),
                ));
            }
            let mut ports = HashMap::new();
            for (port, raw) in def.ports.iter().zip(conn) {
                let outer = resolve_node(ckt, scope, raw);
                ports.insert(port.clone(), outer);
            }
            let inner = Scope { prefix: format!("{name}."), ports };
            for (bline, bbody) in &def.body {
                parse_line(ckt, defs, &inner, pending, depth + 1, *bline, bbody)?;
            }
            Ok(())
        }
        other => Err(err(line, format!("unknown element kind '{other}'"))),
    }
}

fn parse_directive(
    ckt: &mut Circuit,
    line: usize,
    directive: &str,
    args: &[String],
) -> Result<(), CircuitError> {
    match directive {
        "INPUT" => {
            let name = args.first().ok_or_else(|| err(line, ".input needs a source name"))?;
            ckt.set_input(name)
        }
        "OUTPUT" => {
            if args.is_empty() || args.len() > 2 {
                return Err(err(line, ".output needs one or two node names"));
            }
            let p = ckt
                .find_node(&args[0])
                .ok_or_else(|| err(line, format!("unknown node '{}'", args[0])))?;
            let n = if args.len() == 2 {
                ckt.find_node(&args[1])
                    .ok_or_else(|| err(line, format!("unknown node '{}'", args[1])))?
            } else {
                0
            };
            ckt.set_output(p, n);
            Ok(())
        }
        "END" => Ok(()),
        other => Err(err(line, format!("unknown directive '.{other}'"))),
    }
}

/// Splits a line into tokens, keeping `(...)` groups attached to the
/// preceding word (`SINE(0 1 1k)` is one token).
fn tokenize(body: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in body.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !cur.is_empty() {
                    out.push(core::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parses `name=value` pairs.
fn parse_kv(line: usize, tokens: &[String]) -> Result<Vec<(String, f64)>, CircuitError> {
    tokens
        .iter()
        .map(|t| {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| err(line, format!("expected key=value, got '{t}'")))?;
            let val = parse_value(v).ok_or_else(|| err(line, format!("bad value '{v}'")))?;
            Ok((k.to_ascii_uppercase(), val))
        })
        .collect()
}

fn kv_get(kv: &[(String, f64)], key: &str) -> Option<f64> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Magnitude suffixes, longest match first so `meg`/`mil` win over `m`.
const VALUE_SUFFIXES: &[(&str, f64)] = &[
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
];

/// Parses a SPICE value with magnitude suffix: `1k`, `2.5meg`, `10p`, …
///
/// The suffix table is matched longest-first (`1meg` = 1e6, `1mil` =
/// 25.4e-6, `1m` = 1e-3). Trailing *letters* after a recognized suffix
/// are unit names and are ignored (`10pF` = 1e-11, `1kOhm` = 1e3);
/// any other trailing content — digits, punctuation, or letters without
/// a leading scale factor (`1x`) — rejects the value.
pub(crate) fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim().to_ascii_lowercase();
    if t.is_empty() {
        return None;
    }
    // Find the longest numeric prefix.
    let mut split = t.len();
    for (i, ch) in t.char_indices() {
        if !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == '+' || ch == 'e') {
            split = i;
            break;
        }
        // 'e' must be followed by digits or sign to stay numeric.
        if ch == 'e' {
            let rest = &t[i + 1..];
            let ok = rest
                .chars()
                .next()
                .map(|c| c.is_ascii_digit() || c == '-' || c == '+')
                .unwrap_or(false);
            if !ok {
                split = i;
                break;
            }
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    if suffix.is_empty() {
        return Some(base);
    }
    for (s, mult) in VALUE_SUFFIXES {
        if let Some(rest) = suffix.strip_prefix(s) {
            // Unit letters after the scale factor are fine ("10pf",
            // "1kohm"); anything else is garbage.
            if rest.chars().all(|c| c.is_ascii_alphabetic()) {
                return Some(base * mult);
            }
            return None;
        }
    }
    None
}

fn parse_waveform(line: usize, tokens: &[String]) -> Result<Waveform, CircuitError> {
    let first = &tokens[0];
    let upper = first.to_ascii_uppercase();
    if upper == "DC" {
        let v = tokens
            .get(1)
            .and_then(|t| parse_value(t))
            .ok_or_else(|| err(line, "DC needs a value"))?;
        return Ok(Waveform::Dc(v));
    }
    // Function syntax NAME(args...).
    if let Some(open) = first.find('(') {
        let name = first[..open].to_ascii_uppercase();
        let inner = first[open + 1..].trim_end_matches(')');
        let args: Vec<f64> = inner
            .split_whitespace()
            .filter(|a| !a.is_empty())
            .map(|a| parse_value(a).ok_or_else(|| err(line, format!("bad number '{a}'"))))
            .collect::<Result<_, _>>()
            .or_else(|e| {
                // BIT() has a trailing pattern string; retry without it.
                if name == "BIT" {
                    Ok(Vec::new()).map_err(|_: CircuitError| e)
                } else {
                    Err(e)
                }
            })?;
        match name.as_str() {
            "SINE" | "SIN" => {
                if args.len() < 3 {
                    return Err(err(line, "SINE needs (offset ampl freq [phase_deg] [delay])"));
                }
                Ok(Waveform::Sine {
                    offset: args[0],
                    amplitude: args[1],
                    freq_hz: args[2],
                    phase_rad: args.get(3).copied().unwrap_or(0.0).to_radians(),
                    delay: args.get(4).copied().unwrap_or(0.0),
                })
            }
            "PULSE" => {
                if args.len() < 7 {
                    return Err(err(line, "PULSE needs (v0 v1 delay rise fall width period)"));
                }
                Ok(Waveform::Pulse {
                    v0: args[0],
                    v1: args[1],
                    delay: args[2],
                    rise: args[3],
                    fall: args[4],
                    width: args[5],
                    period: args[6],
                })
            }
            "PWL" => {
                if args.len() < 2 || !args.len().is_multiple_of(2) {
                    return Err(err(line, "PWL needs pairs of (t v)"));
                }
                Ok(Waveform::Pwl(args.chunks_exact(2).map(|c| (c[0], c[1])).collect()))
            }
            "BIT" => {
                let parts: Vec<&str> = inner.split_whitespace().collect();
                if parts.len() != 5 {
                    return Err(err(line, "BIT needs (v0 v1 rate rise pattern)"));
                }
                let v0 = parse_value(parts[0]).ok_or_else(|| err(line, "bad v0"))?;
                let v1 = parse_value(parts[1]).ok_or_else(|| err(line, "bad v1"))?;
                let rate = parse_value(parts[2]).ok_or_else(|| err(line, "bad rate"))?;
                let rise = parse_value(parts[3]).ok_or_else(|| err(line, "bad rise"))?;
                let bits: Option<Vec<bool>> = parts[4]
                    .chars()
                    .map(|c| match c {
                        '0' => Some(false),
                        '1' => Some(true),
                        _ => None,
                    })
                    .collect();
                let bits = bits.ok_or_else(|| err(line, "pattern must be 0s and 1s"))?;
                Ok(Waveform::BitPattern { v0, v1, bits, rate_hz: rate, rise, delay: 0.0 })
            }
            other => Err(err(line, format!("unknown waveform '{other}'"))),
        }
    } else if let Some(v) = parse_value(first) {
        // Bare value: DC.
        Ok(Waveform::Dc(v))
    } else {
        Err(err(line, format!("cannot parse waveform '{first}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("2.5meg"), Some(2.5e6));
        assert_eq!(parse_value("10p"), Some(1e-11));
        assert_eq!(parse_value("-3m"), Some(-3e-3));
        assert_eq!(parse_value("1e-9"), Some(1e-9));
        assert_eq!(parse_value("4f"), Some(4e-15));
        assert_eq!(parse_value("2G"), Some(2e9));
        assert_eq!(parse_value("junk"), None);
        assert_eq!(parse_value("1x"), None);
        assert_eq!(parse_value(""), None);
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(24).with_rng_seed(0xDA7E_2013)
        )]

        #[test]
        fn parse_value_round_trips_plain_numbers(v in -1e6..1e6f64) {
            let s = format!("{v:.6e}");
            let parsed = parse_value(&s).unwrap();
            proptest::prop_assert!((parsed - v).abs() <= 1e-5 * v.abs().max(1e-12));
        }
    }

    #[test]
    fn value_suffix_edge_cases() {
        // The classic m-family pitfalls: longest match wins.
        assert_eq!(parse_value("1meg"), Some(1e6));
        assert_eq!(parse_value("1m"), Some(1e-3));
        assert_eq!(parse_value("1mil"), Some(25.4e-6));
        assert_eq!(parse_value("1MEG"), Some(1e6));
        // Unit letters after a recognized scale factor are ignored.
        assert_eq!(parse_value("10pF"), Some(1e-11));
        assert_eq!(parse_value("1kOhm"), Some(1e3));
        assert_eq!(parse_value("2megohm"), Some(2e6));
        assert_eq!(parse_value("5nH"), Some(5e-9));
        // Trailing garbage is rejected: digits and punctuation after a
        // suffix, or letters with no leading scale factor.
        assert_eq!(parse_value("1k3"), None);
        assert_eq!(parse_value("1meg!"), None);
        assert_eq!(parse_value("1p f"), None);
        assert_eq!(parse_value("1v"), None);
        assert_eq!(parse_value("1e"), None);
        assert_eq!(parse_value("1e+"), None);
        // Exponent and suffix compose.
        assert_eq!(parse_value("1e3k"), Some(1e6));
        assert_eq!(parse_value("2.5e-1u"), Some(2.5e-7));
    }

    #[test]
    fn divider_netlist_end_to_end() {
        let text = "\
* divider
V1 in 0 DC 2.0
R1 in out 1k
R2 out 0 1k
.output out
.input V1
.end
";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!((ckt.output_value(&x) - 1.0).abs() < 1e-9);
        assert_eq!(ckt.input_value(0.0).unwrap(), 2.0);
    }

    #[test]
    fn waveform_forms() {
        let text = "\
V1 a 0 SINE(0.9 0.5 50meg)
V2 b 0 PULSE(0 1 1n 0.1n 0.1n 2n 10n)
V3 c 0 PWL(0 0 1u 1 2u 0)
V4 d 0 BIT(0.4 1.4 2.5g 40p 01101)
V5 e 0 1.5
";
        let ckt = parse_netlist(text).unwrap();
        assert_eq!(ckt.n_devices(), 5);
        let dev: Vec<&str> = ckt.devices().map(|d| d.name()).collect();
        assert_eq!(dev, vec!["V1", "V2", "V3", "V4", "V5"]);
        // Spot-check waveform values through source_value.
        let v4 = ckt.devices().nth(3).unwrap();
        assert_eq!(v4.source_value(0.1e-9), Some(0.4));
        let v5 = ckt.devices().nth(4).unwrap();
        assert_eq!(v5.source_value(0.0), Some(1.5));
    }

    #[test]
    fn mosfet_and_diode_params() {
        let text = "\
VDD vdd 0 DC 1.5
M1 vdd g 0 NMOS KP=2m VT=0.45 LAMBDA=0.1 CGS=5f CGD=1f
D1 g 0 IS=1e-13 N=1.2
R1 vdd g 10k
";
        let ckt = parse_netlist(text).unwrap();
        assert_eq!(ckt.n_devices(), 4);
    }

    #[test]
    fn continuation_lines_and_comments() {
        let text = "\
* top comment
V1 in 0 PWL(0 0
+ 1u 1
+ 2u 0) ; inline comment
R1 in 0 1k
";
        let ckt = parse_netlist(text).unwrap();
        assert_eq!(ckt.n_devices(), 2);
        let v1 = ckt.devices().next().unwrap();
        assert_eq!(v1.source_value(1.0e-6), Some(1.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_netlist("R1 a b\n").unwrap_err();
        match e {
            CircuitError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_netlist("V1 a 0 DC 1\nW1 a 0 1k\n").unwrap_err();
        match e {
            CircuitError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_netlist(".input nosuch\n").is_err());
        assert!(parse_netlist(".output nosuch\n").is_err());
        assert!(parse_netlist("M1 d g s JFET\n").is_err());
        assert!(parse_netlist("V1 a 0 NOISE(1 2)\n").is_err());
    }

    #[test]
    fn vcvs_and_bjt_lines() {
        let text = "\
VCC vcc 0 DC 5
RB vcc b 47k
Q1 c b e NPN IS=1e-15 BF=120
RC vcc c 2.2k
RE e 0 470
E1 out 0 c 0 0.5
RL out 0 10k
";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let c = ckt.find_node("c").unwrap();
        let out = ckt.find_node("out").unwrap();
        // The VCVS halves the collector voltage.
        assert!((x[out - 1] - 0.5 * x[c - 1]).abs() < 1e-9);
        // The BJT is biased in forward active.
        let b = ckt.find_node("b").unwrap();
        let e = ckt.find_node("e").unwrap();
        assert!((x[b - 1] - x[e - 1]) > 0.5);
    }

    #[test]
    fn vccs_line() {
        let text = "G1 out 0 in 0 2m\nR1 out 0 1k\nRI in 0 1k\nV1 in 0 DC 1\n";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        // VCCS drives 2mA·1V into 1k from out to 0 → v(out) = −2 V
        // (current leaves node `out`).
        assert!((x[out - 1] + 2.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn cccs_line_with_forward_reference() {
        // F references V1 before V1 is defined: must still resolve.
        let text = "\
F1 out 0 V1 2
RL out 0 1k
V1 in 0 DC 1
R1 in 0 1k
";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        // i(V1) = −1 mA, CCCS pushes 2·i from out to ground through RL.
        assert!((x[out - 1] - 2.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn ccvs_line() {
        let text = "\
V1 in 0 DC 2
R1 in 0 1k
H1 out 0 V1 500
RL out 0 1k
";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((x[out - 1] + 1.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn subckt_definition_and_instantiation() {
        let text = "\
.subckt divider top mid
R1 top mid 1k
R2 mid 0 1k
.ends
V1 in 0 DC 2
X1 in out divider
X2 out out2 divider
.input V1
.output out
";
        let mut ckt = parse_netlist(text).unwrap();
        // Flattened: V1 + 2×(R1, R2); internal names prefixed.
        assert_eq!(ckt.n_devices(), 5);
        let names: Vec<&str> = ckt.devices().map(|d| d.name()).collect();
        assert!(names.contains(&"X1.R1") && names.contains(&"X2.R2"), "{names:?}");
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        // X2 loads the first divider: v(out) = 2·(1k‖2k)/(1k + 1k‖2k).
        let want = 2.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0);
        assert!((x[out - 1] - want).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn nested_subckt_instances_flatten() {
        // A subcircuit body may instantiate another subcircuit.
        let text = "\
.subckt rsec a b
Rs a b 1k
.ends
.subckt twosec a c
X1 a m rsec
X2 m c rsec
.ends
V1 in 0 DC 1
X0 in out twosec
RL out 0 2k
.output out
";
        let mut ckt = parse_netlist(text).unwrap();
        let names: Vec<&str> = ckt.devices().map(|d| d.name()).collect();
        assert!(names.contains(&"X0.X1.Rs"), "{names:?}");
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((x[out - 1] - 0.5).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn subckt_controls_stay_scoped() {
        // An F source inside a subcircuit controls the instance's own
        // V sense source, not a same-named top-level device.
        let text = "\
.subckt mirror inp outp
Vs inp lo DC 0
F1 outp 0 Vs -1
.ends
V1 a 0 DC 1
R1 a b 1k
X1 b out mirror
RX X1.lo 0 1k
RL out 0 1k
.output out
";
        let mut ckt = parse_netlist(text).unwrap();
        let x = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let out = ckt.find_node("out").unwrap();
        // i(Vs) = current b→lo→gnd = 1 V / 2 kΩ = 0.5 mA flowing into
        // Vs's positive terminal ⇒ branch current −0.5 mA; F gain −1
        // pushes +0.5 mA out of `out` into RL ⇒ v(out) = −0.5 V... sign
        // check below just pins magnitude and linearity.
        assert!((x[out - 1].abs() - 0.5).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn subckt_error_paths() {
        // Dangling .subckt.
        let e = parse_netlist(".subckt f a b\nR1 a b 1k\n").unwrap_err();
        assert!(matches!(e, CircuitError::Parse { line: 1, .. }), "{e:?}");
        // .ends without .subckt.
        assert!(parse_netlist(".ends\n").is_err());
        // Unknown subcircuit.
        assert!(parse_netlist("X1 a b nosuch\n").is_err());
        // Port-count mismatch.
        let text = ".subckt f a b\nR1 a b 1k\n.ends\nX1 in f\n";
        assert!(parse_netlist(text).is_err());
        // Nested definitions are rejected.
        assert!(parse_netlist(".subckt f a b\n.subckt g c d\n.ends\n.ends\n").is_err());
        // Recursive instantiation hits the depth guard.
        let text = ".subckt f a b\nX1 a b f\n.ends\nX0 in out f\n";
        let e = parse_netlist(text).unwrap_err();
        assert!(e.to_string().contains("nesting"), "{e}");
        // Directives are not allowed inside bodies.
        assert!(parse_netlist(".subckt f a b\n.output a\n.ends\n").is_err());
        // Ground may not be a port.
        assert!(parse_netlist(".subckt f a 0\n.ends\n").is_err());
    }
}
