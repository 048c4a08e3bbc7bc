//! Property tests of `serde_json::from_str::<ScenarioSpec>` on mutations of
//! a committed spec: truncated, byte-flipped or spliced JSON parses or
//! fails with an error, never panics, and whatever parses re-serializes to
//! a fixed point.

use experiments::ScenarioSpec;
use proptest::prelude::*;

const SPEC: &str = include_str!("../../../examples/specs/synth_smoke.json");

/// JSON fragments spliced into the spec: structure, escapes, numbers at
/// and past the integer bounds, multibyte text and enum tags.
const FRAGMENTS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    ",",
    ":",
    "null",
    "-",
    "1e999",
    "-0",
    "18446744073709551616",
    "-9223372036854775809",
    "0.5",
    "é",
    "\"Paper1\"",
    "{\"Paper1\":{\"num_cores\":0}}",
    "[[[[[[[[",
];

/// Parses `text`; if it is a spec, checks that its JSON form is a fixed
/// point of parse + serialize.
fn check(text: &str) -> Result<(), String> {
    if let Ok(spec) = serde_json::from_str::<ScenarioSpec>(text) {
        let once = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        let again: ScenarioSpec = serde_json::from_str(&once)
            .map_err(|e| format!("serialized spec does not parse: {e}\n{once}"))?;
        let twice = serde_json::to_string(&again).map_err(|e| e.to_string())?;
        prop_assert_eq!(once, twice);
    }
    Ok(())
}

#[test]
fn the_committed_spec_parses() {
    assert!(serde_json::from_str::<ScenarioSpec>(SPEC).is_ok());
    check(SPEC).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every prefix of the spec.
    #[test]
    fn truncations_never_panic(cut in 0usize..SPEC.len()) {
        check(&String::from_utf8_lossy(&SPEC.as_bytes()[..cut]))?;
    }

    /// One to four bytes overwritten with arbitrary values.
    #[test]
    fn byte_flips_never_panic(
        flips in prop::collection::vec((0usize..SPEC.len(), 0u8..=255), 1..5),
    ) {
        let mut bytes = SPEC.as_bytes().to_vec();
        for (at, value) in flips {
            bytes[at] = value;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// A byte range replaced by one to three fragments.
    #[test]
    fn splices_never_panic(
        (start, len) in (0usize..SPEC.len(), 0usize..12),
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 1..4),
    ) {
        let end = (start + len).min(SPEC.len());
        let mut bytes = SPEC.as_bytes()[..start].to_vec();
        for pick in picks {
            bytes.extend_from_slice(FRAGMENTS[pick].as_bytes());
        }
        bytes.extend_from_slice(&SPEC.as_bytes()[end..]);
        check(&String::from_utf8_lossy(&bytes))?;
    }
}
