//! Netlist parser fuzz over the zoo's own decks: the parser is an input
//! boundary like the wire decoder, so every mutant of a valid deck must
//! come back as a circuit or a typed `CircuitError`, never a panic.
//!
//! The mutants are every char-boundary truncation and every
//! single-token deletion of each zoo train and validation deck (seeds
//! 1–3), plus `.subckt` instances that connect one port too few or too
//! many, which must be refused.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rvf_circuit::{parse_netlist, Circuit, CircuitError};
use rvf_validate::zoo;

/// Every deck of the zoo at seeds 1–3, named.
fn decks() -> Vec<(String, String)> {
    let mut decks = Vec::new();
    for seed in 1..=3 {
        for f in zoo(seed) {
            decks.push((format!("{} seed {seed} (train)", f.name), f.train_deck));
            decks.push((format!("{} seed {seed} (valid)", f.name), f.valid_deck));
        }
    }
    decks
}

/// Parses `deck`, failing the test with the deck's text if the parser
/// panics rather than returning.
fn parse(what: &str, deck: &str) -> Result<Circuit, CircuitError> {
    catch_unwind(AssertUnwindSafe(|| parse_netlist(deck)))
        .unwrap_or_else(|_| panic!("{what}: the parser panicked on\n{deck}"))
}

/// Byte ranges of the whitespace-separated tokens of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (start, c.is_whitespace()) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

#[test]
fn truncated_and_token_deleted_zoo_decks_never_panic() {
    let mut parsed = 0usize;
    for (what, deck) in decks() {
        assert!(parse(&what, &deck).is_ok(), "{what}: the unmutated deck must parse");
        for (cut, _) in deck.char_indices() {
            let _ = parse(&format!("{what}, cut at byte {cut}"), &deck[..cut]);
            parsed += 1;
        }
        for (start, end) in token_spans(&deck) {
            let mutant = format!("{}{}", &deck[..start], &deck[end..]);
            let _ = parse(&format!("{what}, token {:?} deleted", &deck[start..end]), &mutant);
            parsed += 1;
        }
    }
    assert!(parsed > 10_000, "only {parsed} mutants: the zoo decks shrank");
}

#[test]
fn subckt_instances_with_a_lying_port_count_are_refused() {
    let mut instances = 0usize;
    for (what, deck) in decks() {
        let lines: Vec<&str> = deck.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if !line.starts_with(['X', 'x']) || tokens.len() < 3 {
                continue;
            }
            instances += 1;
            let (head, sub) = tokens.split_at(tokens.len() - 1);
            let fewer = [&head[..head.len() - 1], sub].concat().join(" ");
            let more = [head, &["extra_port"], sub].concat().join(" ");
            for lie in [fewer, more] {
                let mut mutant = lines.clone();
                mutant[i] = &lie;
                let mutant = mutant.join("\n");
                match parse(&what, &mutant) {
                    Err(CircuitError::Parse { line, message }) => {
                        assert_eq!(line, i + 1, "{what}: `{lie}` refused on the wrong line");
                        assert!(message.contains("ports"), "{what}: `{lie}`: {message}");
                    }
                    other => panic!("{what}: `{lie}` was not refused: {other:?}"),
                }
            }
        }
    }
    assert!(instances >= 12, "only {instances} subcircuit instances in the zoo decks");
}
