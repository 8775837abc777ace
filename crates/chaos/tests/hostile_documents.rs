//! A reproducer is outside input. Whatever one edit does to a valid
//! document — a byte deleted, a token replaced, a number widened — every
//! family's reader answers `Err` or a spec that re-serialises to the fields
//! the document had. It never panics and never reinterprets.

use std::sync::OnceLock;

use proptest::prelude::*;
use vampos_chaos::json::{parse_value, Json};
use vampos_chaos::{
    parse_spec, ComponentFamily, Family, FleetFamily, MeshFamily, RecursiveFamily, WorkloadKind,
};
use vampos_cluster::FaultClass;
use vampos_mesh::MeshFaultClass;
use vampos_sim::derive_seed;

/// Documents of every class (or workload) and every plant of a family.
fn documents<F: Family>(family: &F) -> Vec<String> {
    let mut specs = family.specs(9, 2);
    for (i, plant) in (0..).zip(family.plants()) {
        specs.push((plant.spec)(derive_seed(9, i), i));
    }
    specs.iter().map(F::write_spec).collect()
}

/// Valid documents per family, generated once (component specs are probed
/// against a live system as they are generated).
fn valid() -> &'static [Vec<String>; 4] {
    static VALID: OnceLock<[Vec<String>; 4]> = OnceLock::new();
    VALID.get_or_init(|| {
        [
            documents(&ComponentFamily {
                workloads: WorkloadKind::ALL.to_vec(),
                budget: 6,
                plant: true,
            }),
            documents(&FleetFamily {
                instances: 3,
                budget: 2,
            }),
            documents(&RecursiveFamily {
                classes: FaultClass::ALL.to_vec(),
            }),
            documents(&MeshFamily {
                classes: MeshFaultClass::ALL.to_vec(),
            }),
        ]
    })
}

/// Splits a document into JSON tokens (strings, numbers and literals,
/// punctuation), dropping whitespace.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'-';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i += 1;
        match bytes[start] {
            b if b.is_ascii_whitespace() => continue,
            b'"' => {
                while bytes[i] != b'"' {
                    i += 1 + usize::from(bytes[i] == b'\\');
                }
                i += 1;
            }
            b if word(b) => i += bytes[i..].iter().take_while(|&&b| word(b)).count(),
            _ => {}
        }
        out.push((start, i));
    }
    out
}

const REPLACEMENTS: [&str; 10] = [
    "0", "-1", "1.5", "65537", "\"\"", "\"none\"", "null", "true", "[]", "{}",
];
const WIDE: [&str; 5] = [
    "65537",
    "4294967296",
    "4294967297",
    "18446744073709551615",
    "18446744073709551616",
];

/// One hostile edit of a valid document.
fn mutated(valid: &[String], pick: usize, mutation: u8, at: usize) -> String {
    let mut text = valid[pick % valid.len()].clone();
    let mut toks = tokens(&text);
    match mutation {
        0 => {
            text.remove(at % text.len());
        }
        1 => {
            let (start, end) = toks[at % toks.len()];
            text.replace_range(start..end, REPLACEMENTS[at % REPLACEMENTS.len()]);
        }
        _ => {
            toks.retain(|&(start, _)| text.as_bytes()[start].is_ascii_digit());
            let (start, end) = toks[at % toks.len()];
            text.replace_range(start..end, WIDE[at % WIDE.len()]);
        }
    }
    text
}

/// Whether every value of `written` is the value `doc` has in the same
/// place (numbers compared as numbers: `07` is 7).
fn agrees(written: &Json, doc: &Json) -> bool {
    match (written, doc) {
        (Json::Obj(fields), _) => fields
            .iter()
            .all(|(key, value)| doc.get(key).is_ok_and(|had| agrees(value, had))),
        (Json::Arr(items), Json::Arr(had)) => {
            items.len() == had.len() && items.iter().zip(had).all(|(a, b)| agrees(a, b))
        }
        (Json::Num(_), Json::Num(_)) => written.as_u64() == doc.as_u64(),
        _ => written == doc,
    }
}

/// A document that is read must have been read *as written*: every field
/// of the re-serialised spec carries the value the document had.
fn survives<F: Family>(text: &str) {
    let Ok(doc) = parse_value(text) else { return };
    if let Ok(spec) = parse_spec::<F>(&doc) {
        let written = parse_value(&F::write_spec(&spec)).expect("specs serialise to JSON");
        assert!(agrees(&written, &doc), "reinterpreted: {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn mutated_documents_are_refused_or_read_but_never_panic(
        family in 0usize..4,
        pick in any::<usize>(),
        mutation in 0u8..3,
        at in any::<usize>(),
    ) {
        let text = mutated(&valid()[family], pick, mutation, at);
        match family {
            0 => survives::<ComponentFamily>(&text),
            1 => survives::<FleetFamily>(&text),
            2 => survives::<RecursiveFamily>(&text),
            _ => survives::<MeshFamily>(&text),
        }
    }
}

/// Bytes as the text `parse_value` is handed: a file read with
/// `read_to_string` is UTF-8 or was refused before the parser saw it.
fn as_text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// What hostile JSON is made of; raw random bytes rarely get past the
/// first token.
const ALPHABET: &[u8] = b"{}[]\",:\\/untfrale0123456789-+.E \n\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn the_parser_answers_any_bytes_without_panicking(
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        jsonish in proptest::collection::vec(0usize..ALPHABET.len(), 0..64),
    ) {
        let _ = parse_value(&as_text(&raw));
        let jsonish: Vec<u8> = jsonish.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse_value(&as_text(&jsonish));
    }

    #[test]
    fn one_flipped_byte_is_parsed_or_refused_but_never_panics(
        family in 0usize..4,
        pick in any::<usize>(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let documents = &valid()[family];
        let mut bytes = documents[pick % documents.len()].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = parse_value(&as_text(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn bracket_runs_of_any_depth_never_overflow_the_stack(
        depth in 1usize..=100_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let mut text = open.repeat(depth);
        if closed {
            text.push('0');
            text.push_str(&close.repeat(depth));
        }
        match parse_value(&text) {
            Ok(_) => prop_assert!(closed && depth <= 64, "depth {depth} parsed"),
            Err(e) if depth > 64 => prop_assert!(e.starts_with("nesting deeper than 64 at byte "), "{e}"),
            Err(e) => prop_assert!(!closed && e == "unexpected end of input", "{e}"),
        }
    }
}
