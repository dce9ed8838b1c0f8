//! Property tests: `BitString ↔ Proof` slots round-trip exactly.
//!
//! A proof packs every node's bits into shared `u64` words, so the
//! dangerous lengths are the word boundaries (63/64/65) and the
//! shrink-then-read case where a slot's final word still carries stale
//! bits from a longer previous value. Random walks over slot writes must
//! always read back the logical bits, bit for bit.

use lcp_core::{AsBits, BitString, Proof};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random bit string of the given length, derived from a seed.
fn bitstring(len: usize, seed: u64) -> BitString {
    let mut rng = StdRng::seed_from_u64(seed);
    BitString::from_bits((0..len).map(|_| rng.random_bool(0.5)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slot_roundtrips_any_length(len in 0usize..200, seed in any::<u64>()) {
        let s = bitstring(len, seed);
        let proof = Proof::from_strings(vec![s.clone()]);
        prop_assert_eq!(proof.get(0).to_bitstring(), s.clone());
        prop_assert_eq!(proof.get(0), s.as_bits());
        prop_assert_eq!(proof.get(0).len(), len);
    }

    #[test]
    fn random_walk_of_writes_reads_back_exactly(
        n in 1usize..6,
        writes in 1usize..24,
        seed in any::<u64>(),
    ) {
        // Mirror every slot write in a Vec<BitString> and compare after
        // each step: overwrite shorter, longer, empty — all shapes.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proof = Proof::with_capacity(n, 8);
        let mut shadow = vec![BitString::new(); n];
        for step in 0..writes {
            let v = rng.random_range(0..n);
            let len = rng.random_range(0..130usize);
            let s = bitstring(len, seed ^ (step as u64) << 7);
            proof.set(v, &s);
            shadow[v] = s;
            for u in 0..n {
                prop_assert_eq!(
                    proof.get(u).to_bitstring(),
                    shadow[u].clone(),
                    "slot {} drifted after writing slot {}", u, v
                );
            }
        }
        prop_assert_eq!(proof.size(), shadow.iter().map(BitString::len).max().unwrap());
        prop_assert_eq!(proof.total_bits(), shadow.iter().map(BitString::len).sum::<usize>());
    }

    #[test]
    fn proof_matches_its_string_form(lens in prop::collection::vec(0usize..100, 0..8), seed in any::<u64>()) {
        let strings: Vec<BitString> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| bitstring(len, seed ^ i as u64))
            .collect();
        let packed = Proof::from_strings(strings.clone());
        let rebuilt = Proof::from_fn(strings.len(), |v| strings[v].clone());
        prop_assert_eq!(&packed, &rebuilt);
        for (v, s) in strings.iter().enumerate() {
            prop_assert_eq!(packed.get(v).to_bitstring(), s.clone());
        }
    }
}

#[test]
fn word_boundary_lengths_roundtrip() {
    // The explicit boundary cases: lengths that end exactly at, one
    // short of, and one past a 64-bit lane.
    for len in [0, 1, 62, 63, 64, 65, 126, 127, 128, 129] {
        let s = bitstring(len, 0x1234 + len as u64);
        let mut proof = Proof::with_capacity(2, 129);
        proof.set(1, &s);
        assert_eq!(proof.get(1).to_bitstring(), s, "len {len}");
        assert_eq!(
            proof.get(1).iter().collect::<Vec<_>>(),
            s.iter().collect::<Vec<_>>(),
            "len {len}"
        );
        // Shrink to a boundary-1 length and confirm stale bits masked.
        let shorter = bitstring(len.saturating_sub(1), 0x9876 + len as u64);
        proof.set(1, &shorter);
        assert_eq!(proof.get(1).to_bitstring(), shorter, "shrunk from {len}");
    }
}

#[test]
fn equality_and_flips_across_boundaries() {
    let s = bitstring(65, 42);
    let mut proof = Proof::from_strings(vec![s.clone()]);
    assert_eq!(proof.get(0), s.as_bits());
    proof.flip(0, 64); // the first bit of the second word
    assert_ne!(proof.get(0), s.as_bits());
    proof.flip(0, 64);
    assert_eq!(proof.get(0), s.as_bits());
}
