//! Netlist parser fuzz over the zoo's own decks: the parser is an input
//! boundary like the wire decoder, so every mutant of a valid deck must
//! come back as a circuit or a typed `CircuitError`, never a panic.
//!
//! The mutants are every char-boundary truncation and every
//! single-token deletion of each zoo train and validation deck (seeds
//! 1–3), every swap of two adjacent lines and every duplicated line of
//! those decks, plus `.subckt` instances that connect one port too few
//! or too many, which must be refused. A duplicated element line must be
//! refused too: a netlist names each device once.

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

/// The device a netlist line defines, if it is an element line: its
/// first token, unless the line is blank, a comment or a dot command.
fn element_name(line: &str) -> Option<&str> {
    let name = line.split_whitespace().next()?;
    (!name.starts_with(['*', '.'])).then_some(name)
}

#[test]
fn swapped_and_duplicated_lines_never_panic() {
    let (mut swaps, mut duplicates) = (0usize, 0usize);
    for (what, deck) in decks() {
        let lines: Vec<&str> = deck.lines().collect();
        for i in 0..lines.len().saturating_sub(1) {
            let mut mutant = lines.clone();
            mutant.swap(i, i + 1);
            let _ = parse(
                &format!("{what}, lines {} and {} swapped", i + 1, i + 2),
                &mutant.join("\n"),
            );
            swaps += 1;
        }
        for (i, line) in lines.iter().enumerate() {
            let mut mutant = lines.clone();
            mutant.insert(i + 1, line);
            let got = parse(&format!("{what}, line {} duplicated", i + 1), &mutant.join("\n"));
            duplicates += 1;
            let Some(name) = element_name(line) else { continue };
            match got {
                // Inside a subcircuit the repeated name is the instance's
                // copy (`X1.Rc`); a repeated instance clashes on its first
                // expanded device (`X1.Rs`).
                Err(CircuitError::DuplicateDevice { name: dup }) => {
                    let (dup, name) = (dup.to_ascii_uppercase(), name.to_ascii_uppercase());
                    assert!(
                        dup == name
                            || dup.ends_with(&format!(".{name}"))
                            || dup.starts_with(&format!("{name}.")),
                        "{what}: duplicated `{line}` refused as a duplicate of '{dup}'"
                    );
                }
                Err(CircuitError::Parse { message, .. }) if message.contains(name) => {}
                other => panic!("{what}: duplicated `{line}` was not refused: {other:?}"),
            }
        }
    }
    assert!(swaps > 500 && duplicates > 500, "only {swaps} swaps, {duplicates} duplicates");
}
