//! The file parsers never panic: seeded truncations, splices and byte flips
//! of a recorded COPHY-TRACE (`data/smoke.trace`) and of the golden MPS
//! export (`cophy-bip`'s `tests/data/small.mps`) each parse or fail with an
//! error — the same mutations `protocol.rs::mutated_request_lines_never_panic`
//! applies to request lines.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cophy_bip::{lint_mps, parse_mps};
use cophy_catalog::TpchGen;
use cophy_optimizer::TraceReplay;

const TRACE: &str = include_str!("data/smoke.trace");
const GOLDEN_MPS: &str = include_str!("../../bip/tests/data/small.mps");

/// `cases` seeded mutants of `text`, cycling through the three kinds:
/// a truncation, a splice of two cut points (a line repeated or dropped), and
/// one to three flipped bits.  Lossy decoding keeps a mutant a `&str`.
fn mutants(text: &str, seed: u64, cases: usize) -> impl Iterator<Item = String> + '_ {
    // SplitMix64: no random-number dependency.
    let mut state = seed;
    let mut next = move |bound: usize| -> usize {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let valid = text.as_bytes();
    (0..cases).map(move |case| {
        let mut bytes = valid.to_vec();
        match case % 3 {
            0 => bytes.truncate(next(bytes.len() + 1)),
            1 => {
                bytes.truncate(next(bytes.len() + 1));
                bytes.extend_from_slice(&valid[next(valid.len() + 1)..]);
            }
            _ => {
                for _ in 0..1 + next(3) {
                    let at = next(bytes.len());
                    bytes[at] ^= 1 << next(8);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

#[test]
fn mutated_traces_never_panic() {
    let schema = TpchGen::default().schema();
    assert!(TraceReplay::parse(schema.clone(), TRACE).is_ok());
    let mut refused = 0;
    for (case, text) in mutants(TRACE, 0x7ace_5eed, 3000).enumerate() {
        let parsed = catch_unwind(AssertUnwindSafe(|| TraceReplay::parse(schema.clone(), &text)));
        match parsed {
            Ok(r) => refused += usize::from(r.is_err()),
            Err(_) => panic!("case {case}: TraceReplay::parse panicked on {text:?}"),
        }
    }
    // Nearly every mutant breaks a record or the final `end` line (2 834).
    assert!(refused > 2500, "only {refused} of 3000 mutants refused");
}

#[test]
fn mutated_mps_never_panics() {
    assert_eq!(lint_mps(GOLDEN_MPS), Ok((3, 3)));
    let mut refused = 0;
    for (case, text) in mutants(GOLDEN_MPS, 0x3b5_5eed, 6000).enumerate() {
        let outcome = catch_unwind(|| (parse_mps(&text).is_ok(), lint_mps(&text).is_ok()));
        match outcome {
            Ok((parsed, linted)) => {
                assert_eq!(parsed, linted, "case {case}: the lint disagrees with the parser");
                refused += usize::from(!parsed);
            }
            Err(_) => panic!("case {case}: parse_mps panicked on {text:?}"),
        }
    }
    // Most mutants break a field or the `ENDATA` line (5 416).
    assert!(refused > 5000, "only {refused} of 6000 mutants refused");
}
