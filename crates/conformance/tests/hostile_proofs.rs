//! Hostile proofs across the whole campaign registry: a verifier must
//! reject a forged proof, never panic on it, whatever bits it holds.
//!
//! Every `campaign_registry()` entry × family × polarity is built at a
//! small size and opened as a churn cell. Node by node, its proof is
//! rewritten with random bit strings and with strings of γ-coded
//! values up to `u64::MAX − 1` (the values a verifier's arithmetic
//! sees). After each rewrite the incremental `reverify()` and the
//! from-scratch `full_check()` must both return, and agree on the
//! verdict.
//!
//! Then the cell's node labels are forged: each round relabels a random
//! node with every label type the registry uses, the sealed scheme
//! keeping the one of its own type, with values from the honest range
//! and from the top of `u64`. After each relabel `reverify()` and
//! `full_check()` must return and agree, and the ground truth
//! `holds_now()` must return.

use lcp_conformance::campaign_registry;
use lcp_core::{BitString, BitWriter, CellMutationError};
use lcp_dynamic::DynamicInstance;
use lcp_schemes::registry::{CellRequest, Polarity};
use lcp_schemes::StMark;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: usize = 14;
const ROUNDS: usize = 200;

/// A γ-codable value (`≤ u64::MAX − 1`), drawn to hit both the honest
/// range and the top of `u64`, where sums and products overflow.
fn hostile_value(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..4u32) {
        0 => rng.random_range(0..2 * N as u64),
        1 => u64::MAX - 1 - rng.random_range(0..2 * N as u64),
        2 => (1 << 63) + rng.random_range(0..2 * N as u64),
        _ => rng.random_range(0..u64::MAX),
    }
}

/// One forged proof string: random bits, or one to four γ-coded
/// values.
fn hostile_string(rng: &mut StdRng) -> BitString {
    if rng.random_bool(0.3) {
        let len = rng.random_range(0..48usize);
        return BitString::from_bits((0..len).map(|_| rng.random_bool(0.5)));
    }
    let values = if rng.random_bool(0.5) {
        1
    } else {
        rng.random_range(2..=4usize)
    };
    let mut w = BitWriter::new();
    for _ in 0..values {
        w.write_gamma(hostile_value(rng));
    }
    w.finish()
}

/// A forged node-label value: the honest range or the top of `u64`.
fn hostile_label(rng: &mut StdRng) -> u64 {
    if rng.random_bool(0.5) {
        rng.random_range(0..2 * N as u64)
    } else {
        u64::MAX - rng.random_range(0..2 * N as u64)
    }
}

/// Relabels node `v` with one value of every node-label type the
/// registry uses; returns how many the cell accepted (the others are
/// refused as [`CellMutationError::LabelType`]).
fn relabel(dynamic: &mut DynamicInstance, v: usize, rng: &mut StdRng) -> usize {
    let value = hostile_label(rng);
    let mark = [StMark::S, StMark::T, StMark::Plain][rng.random_range(0..3usize)];
    let attempts = [
        dynamic.set_node_label(v, ()),
        dynamic.set_node_label(v, rng.random_bool(0.5)),
        dynamic.set_node_label(v, value),
        dynamic.set_node_label(v, value as usize),
        dynamic.set_node_label(v, mark),
    ];
    attempts
        .into_iter()
        .filter(|attempt| match attempt {
            Ok(_) => true,
            Err(CellMutationError::LabelType) => false,
            Err(e) => panic!("relabelling node {v}: {e}"),
        })
        .count()
}

/// Runs `reverify()` and `full_check()` and requires them to agree.
fn check_agreement(dynamic: &mut DynamicInstance, what: &str) {
    let out = dynamic.reverify();
    let full = dynamic.full_check();
    assert_eq!(
        out.accepted,
        full.accepted(),
        "{what}: reverify and full_check disagree"
    );
    assert_eq!(
        out.witness,
        full.rejecting().first().copied(),
        "{what}: first rejecting node differs"
    );
}

#[test]
fn forged_proofs_never_panic_and_reverify_agrees_with_full_check() {
    let mut failures = Vec::new();
    let mut cells = 0;
    for entry in campaign_registry() {
        for &family in entry.families {
            for polarity in [Polarity::Yes, Polarity::No] {
                let req = CellRequest {
                    family,
                    n: N,
                    seed: 7,
                    polarity,
                };
                let Some(cell) = entry.build(&req) else {
                    continue;
                };
                cells += 1;
                let label = format!("{} / {} / {polarity:?}", entry.id, family.name());
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut rng = StdRng::seed_from_u64(cells);
                    let mut dynamic = DynamicInstance::from_cell(cell.dynamic_cell());
                    let n = dynamic.n();
                    for round in 0..ROUNDS {
                        let v = rng.random_range(0..n);
                        dynamic
                            .rewrite_proof(v, &hostile_string(&mut rng))
                            .expect("node in range");
                        check_agreement(&mut dynamic, &format!("round {round}"));
                    }
                    for round in 0..ROUNDS {
                        let v = rng.random_range(0..n);
                        let accepted = relabel(&mut dynamic, v, &mut rng);
                        assert_eq!(accepted, 1, "label round {round}: label types accepted");
                        check_agreement(&mut dynamic, &format!("label round {round}"));
                        let _ = dynamic.holds_now();
                    }
                }));
                if let Err(payload) = outcome {
                    let why = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    failures.push(format!("{label}: {why}"));
                }
            }
        }
    }
    assert!(cells > 100, "only {cells} cells were built");
    assert!(
        failures.is_empty(),
        "{} of {cells} cells failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
