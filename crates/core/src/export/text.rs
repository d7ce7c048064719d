//! Lossless plain-text serialization of [`HammersteinModel`].
//!
//! The format is line-oriented and versioned:
//!
//! ```text
//! rvf-hammerstein v1
//! anchor <u0> <y0>
//! static <d> 0 <const> <n_pairs>
//! pair <pole_re> <pole_im> <rho_re> <rho_im>
//! …
//! blocks <n>
//! real <a>
//! fn <d> 0 <const> <n_pairs>
//! pair …
//! pair_block <sigma> <omega>
//! fn …        (component 1)
//! fn …        (component 2)
//! end
//! ```
//!
//! `<d>` is a state function's `linear` coefficient and `<const>` its
//! integration constant. The second column held the coefficient of a
//! `u²/2` term that no fit produces: v1 keeps the column, the encoder
//! writes zero there and the decoder refuses any other value.

use core::str::SplitWhitespace;

use rvf_numerics::Complex;

use crate::error::RvfError;
use crate::hammerstein::{DynBlock, HammersteinModel};
use crate::integrated::{LogTerm, StateFn};

/// Serializes a model to the versioned text format.
pub fn encode(model: &HammersteinModel) -> String {
    let mut out = String::new();
    out.push_str("rvf-hammerstein v1\n");
    out.push_str(&format!("anchor {:.17e} {:.17e}\n", model.u0, model.y0));
    out.push_str("static ");
    encode_statefn(&mut out, &model.static_path);
    out.push_str(&format!("blocks {}\n", model.blocks.len()));
    for b in &model.blocks {
        match b {
            DynBlock::Real { a, .. } => out.push_str(&format!("real {a:.17e}\n")),
            DynBlock::Pair { sigma, omega, .. } => {
                out.push_str(&format!("pair_block {sigma:.17e} {omega:.17e}\n"));
            }
        }
        for f in b.stages() {
            out.push_str("fn ");
            encode_statefn(&mut out, f);
        }
    }
    out.push_str("end\n");
    out
}

fn encode_statefn(out: &mut String, f: &StateFn) {
    // The second column is v1's always-zero `u²/2` coefficient.
    out.push_str(&format!(
        "{:.17e} 0.00000000000000000e0 {:.17e} {}\n",
        f.linear,
        f.constant,
        f.terms.len()
    ));
    for term in &f.terms {
        out.push_str(&format!(
            "pair {:.17e} {:.17e} {:.17e} {:.17e}\n",
            term.pole.re, term.pole.im, term.rho.re, term.rho.im
        ));
    }
}

struct Lines<'a> {
    iter: core::iter::Enumerate<core::str::Lines<'a>>,
    /// Length of the whole text. A count can deliver no more items than
    /// the text has bytes, so capping a reservation here keeps a lying
    /// count from sizing an allocation.
    bytes: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Result<(usize, &'a str), RvfError> {
        for (i, raw) in self.iter.by_ref() {
            let line = raw.trim();
            if !line.is_empty() {
                return Ok((i + 1, line));
            }
        }
        Err(RvfError::Decode { line: 0, message: "unexpected end of input".into() })
    }

    /// The next line, which must start with `word`: its line number and
    /// the words after `word`.
    fn keyword(&mut self, word: &str) -> Result<(usize, SplitWhitespace<'a>), RvfError> {
        let (ln, line) = self.next()?;
        let mut it = line.split_whitespace();
        if it.next() == Some(word) {
            Ok((ln, it))
        } else {
            Err(RvfError::Decode { line: ln, message: format!("expected '{word}'") })
        }
    }
}

/// A finite number: a model with a non-finite coefficient would
/// simulate to NaN or ±∞.
fn parse_f64(line: usize, tok: Option<&str>) -> Result<f64, RvfError> {
    tok.and_then(|t| t.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or(RvfError::Decode { line, message: "expected a finite number".into() })
}

/// Reads one state function: a `<word> <d> 0 <const> <n_pairs>` line,
/// then its `pair` lines.
fn decode_statefn(lines: &mut Lines<'_>, word: &str) -> Result<StateFn, RvfError> {
    let (first_line, mut it) = lines.keyword(word)?;
    let d = parse_f64(first_line, it.next())?;
    if parse_f64(first_line, it.next())? != 0.0 {
        return Err(RvfError::Decode {
            line: first_line,
            message: "second column must be 0".into(),
        });
    }
    let constant = parse_f64(first_line, it.next())?;
    let n: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(RvfError::Decode { line: first_line, message: "expected a pair count".into() })?;
    let mut terms = Vec::with_capacity(n.min(lines.bytes));
    for _ in 0..n {
        let (ln, mut it) = lines.keyword("pair")?;
        let pre = parse_f64(ln, it.next())?;
        let pim = parse_f64(ln, it.next())?;
        // A log term's pole lies in the upper half-plane (`LogTerm`).
        if pim <= 0.0 {
            return Err(RvfError::Decode { line: ln, message: "pole must have Im > 0".into() });
        }
        let rre = parse_f64(ln, it.next())?;
        let rim = parse_f64(ln, it.next())?;
        terms.push(LogTerm { pole: Complex::new(pre, pim), rho: Complex::new(rre, rim) });
    }
    Ok(StateFn { terms, linear: d, constant })
}

/// Parses a model from the text format produced by [`encode`].
///
/// # Errors
///
/// Returns [`RvfError::Decode`] with the offending line for malformed
/// input.
pub fn decode(text: &str) -> Result<HammersteinModel, RvfError> {
    let mut lines = Lines { iter: text.lines().enumerate(), bytes: text.len() };
    let (ln, header) = lines.next()?;
    if header != "rvf-hammerstein v1" {
        return Err(RvfError::Decode { line: ln, message: format!("bad header '{header}'") });
    }
    let (ln, mut it) = lines.keyword("anchor")?;
    let u0 = parse_f64(ln, it.next())?;
    let y0 = parse_f64(ln, it.next())?;

    let static_path = decode_statefn(&mut lines, "static")?;

    let (ln, mut it) = lines.keyword("blocks")?;
    let n_blocks: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(RvfError::Decode { line: ln, message: "expected 'blocks <n>'".into() })?;
    let mut blocks = Vec::with_capacity(n_blocks.min(lines.bytes));
    for _ in 0..n_blocks {
        let (ln, head) = lines.next()?;
        let mut it = head.split_whitespace();
        match it.next() {
            Some("real") => {
                let a = parse_f64(ln, it.next())?;
                blocks.push(DynBlock::Real { a, f: decode_statefn(&mut lines, "fn")? });
            }
            Some("pair_block") => blocks.push(DynBlock::Pair {
                sigma: parse_f64(ln, it.next())?,
                omega: parse_f64(ln, it.next())?,
                f1: decode_statefn(&mut lines, "fn")?,
                f2: decode_statefn(&mut lines, "fn")?,
            }),
            other => {
                return Err(RvfError::Decode {
                    line: ln,
                    message: format!("unknown block kind {other:?}"),
                })
            }
        }
    }
    let (ln, end) = lines.next()?;
    if end != "end" {
        return Err(RvfError::Decode { line: ln, message: "expected 'end'".into() });
    }
    Ok(HammersteinModel { static_path, blocks, u0, y0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_numerics::c;

    fn toy_statefn(seed: f64) -> StateFn {
        let pole = c(0.5 + seed, 0.25);
        let rho = c(1.0 - seed, 0.5 * seed);
        StateFn { terms: vec![LogTerm { pole, rho }], linear: 0.3 * seed, constant: seed }
    }

    fn toy_model() -> HammersteinModel {
        HammersteinModel {
            static_path: toy_statefn(0.1),
            blocks: vec![
                DynBlock::Real { a: -2.0e9, f: toy_statefn(0.2) },
                DynBlock::Pair {
                    sigma: -1.0e9,
                    omega: 6.0e9,
                    f1: toy_statefn(0.3),
                    f2: toy_statefn(0.4),
                },
            ],
            u0: 0.9,
            y0: 0.72,
        }
    }

    #[test]
    fn round_trip_exact() {
        let m = toy_model();
        let text = encode(&m);
        let back = decode(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let m = toy_model();
        let back = decode(&encode(&m)).unwrap();
        for &u in &[0.4, 0.9, 1.4] {
            assert_eq!(m.static_output(u), back.static_output(u));
            let s = c(0.0, 1.0e9);
            assert_eq!(m.transfer(u, s), back.transfer(u, s));
        }
    }

    #[test]
    fn decode_errors_are_located() {
        assert!(matches!(decode("wrong header\n"), Err(RvfError::Decode { line: 1, .. })));
        let mut text = encode(&toy_model());
        text = text.replace("blocks 2", "blocks two");
        assert!(matches!(decode(&text), Err(RvfError::Decode { .. })));
        // Truncation after every line.
        let text = encode(&toy_model());
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            let cut: String = lines[..n].iter().map(|l| format!("{l}\n")).collect();
            assert!(matches!(decode(&cut), Err(RvfError::Decode { .. })), "{n} lines");
        }
    }

    #[test]
    fn non_finite_numbers_and_real_axis_poles_are_refused() {
        let head = "rvf-hammerstein v1\nanchor 0.9 0.5\nstatic 0 0 0 1\n";
        let model = |pair: &str, tail: &str| format!("{head}{pair}\nblocks 1\n{tail}end\n");
        let block = "real -1e9\nfn 0 0 0 1\npair 0.9 0.25 1.0 0.0\n";
        assert!(decode(&model("pair 0.9 0.25 1.0 0.0", block)).is_ok());
        let cases = [
            (model("pair 0.9 0.0 1.0 0.0", block), 4),
            (model("pair 0.9 -0.25 1.0 0.0", block), 4),
            (model("pair 0.9 0.25 1.0 0.0", "real -1e9\nfn 0 0 0 1\npair 0.9 0.0 1.0 0.0\n"), 8),
            (model("pair 0.9 NaN 1.0 0.0", block), 4),
            (model("pair 0.9 inf 1.0 0.0", block), 4),
            (model("pair 0.9 0.25 1.0 -inf", block), 4),
            (model("pair 0.9 0.25 1.0 0.0", "real NaN\nfn 0 0 0 1\npair 0.9 0.25 1.0 0.0\n"), 6),
            (model("pair 0.9 0.25 1.0 0.0", "real -1e9\nfn 0 inf 0 0\n"), 7),
            ("rvf-hammerstein v1\nanchor inf NaN\nstatic 0 0 0 0\nblocks 0\nend\n".into(), 2),
        ];
        for (text, line) in cases {
            let got = decode(&text);
            assert!(
                matches!(got, Err(RvfError::Decode { line: l, .. }) if l == line),
                "{text}: {got:?}"
            );
        }
    }

    #[test]
    fn second_column_must_be_zero() {
        let model = |stat: &str, fun: &str| {
            format!("rvf-hammerstein v1\nanchor 0.9 0.5\nstatic {stat}\nblocks 1\nreal -1e9\nfn {fun}\nend\n")
        };
        for zero in ["0", "-0.0", "0.00000000000000000e0", "-0.00000000000000000e0"] {
            let text = model(&format!("0.5 {zero} 0.1 0"), &format!("1 {zero} 0 0"));
            assert!(decode(&text).is_ok(), "{zero}");
        }
        for (text, line) in
            [(model("0.5 0.25 0.1 0", "1 0 0 0"), 3), (model("0.5 0 0.1 0", "1 -1e-300 0 0"), 6)]
        {
            let got = decode(&text);
            assert!(
                matches!(got, Err(RvfError::Decode { line: l, .. }) if l == line),
                "{text}: {got:?}"
            );
        }
    }

    #[test]
    fn committed_ledger_model_round_trips_byte_for_byte() {
        let text = include_str!("../../../../perf_ledger/models/buffer.rvf.txt");
        assert_eq!(encode(&decode(text).unwrap()), text);
    }

    #[test]
    fn lying_counts_run_out_of_input_instead_of_allocating() {
        let head = "rvf-hammerstein v1\nanchor 0 0\n";
        for tail in [
            "static 0 0 0 99999999999999\n".to_string(),
            format!("static 0 0 0 {}\n", usize::MAX),
            "static 0 0 0 0\nblocks 99999999999999\n".to_string(),
        ] {
            let got = decode(&format!("{head}{tail}"));
            assert!(matches!(got, Err(RvfError::Decode { .. })), "{tail}");
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let text = encode(&toy_model());
        let padded: String = text.lines().map(|l| format!("  {l}  \n\n")).collect();
        assert_eq!(decode(&padded).unwrap(), toy_model());
    }
}
