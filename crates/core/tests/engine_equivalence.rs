//! Property tests: the cached engine is observationally identical to the
//! naive `View::extract`-based executor.
//!
//! For random graphs, radii 0–3, and random proofs, a verifier that
//! fingerprints *everything* it can see (topology, identifiers,
//! distances, neighbour order, proof bits) must produce the same
//! node-for-node outputs whether its views are freshly extracted or bound
//! from a [`PreparedInstance`]'s cached skeletons — including across
//! incremental single-node re-bindings.

use lcp_core::engine::PreparedInstance;
use lcp_core::harness::random_proof;
use lcp_core::{evaluate, evaluate_until_reject, Deadline, Instance, Proof, Scheme, View};
use lcp_graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A verifier whose output depends on every observable part of the view,
/// with a configurable radius.
struct Fingerprint {
    radius: usize,
}

impl Scheme for Fingerprint {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        format!("fingerprint-r{}", self.radius)
    }
    fn radius(&self) -> usize {
        self.radius
    }
    fn holds(&self, _: &Instance) -> bool {
        true
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        Some(Proof::empty(inst.n()))
    }
    fn verify(&self, view: &View) -> bool {
        let mut h: u64 = view.center() as u64 ^ (view.radius() as u64) << 8;
        for u in view.nodes() {
            h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
            h = h.wrapping_mul(31).wrapping_add(view.dist(u) as u64);
            for b in view.proof(u).iter() {
                h = h.wrapping_mul(2).wrapping_add(b as u64);
            }
            for &w in view.neighbors(u) {
                h = h.wrapping_mul(131).wrapping_add(view.id(w).0);
            }
        }
        !h.is_multiple_of(5)
    }
}

/// Strategy: a connected random graph plus a seed for proof bits.
fn instance_radius_seed() -> impl Strategy<Value = (Instance, usize, u64)> {
    (3usize..14, 0usize..10, 0usize..4, any::<u64>()).prop_map(|(n, extra, radius, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        (Instance::unlabeled(g), radius, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_verdict_equals_naive_node_for_node((inst, radius, seed) in instance_radius_seed()) {
        let scheme = Fingerprint { radius };
        let prep = PreparedInstance::new(&inst, radius);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for bits in 0..4 {
            let proof = random_proof(inst.n(), bits, &mut rng);
            let naive = evaluate(&scheme, &inst, &proof);
            let cached = prep.evaluate(&scheme, &proof, &Deadline::none()).unwrap();
            prop_assert_eq!(naive.outputs(), cached.outputs(), "outputs diverged at radius {}", radius);
        }
    }

    #[test]
    fn bound_views_equal_extracted_views((inst, radius, seed) in instance_radius_seed()) {
        let prep = PreparedInstance::new(&inst, radius);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let proof = random_proof(inst.n(), 3, &mut rng);
        for v in 0..inst.n() {
            prop_assert_eq!(
                prep.bind(v, &proof),
                View::extract(&inst, &proof, v, radius),
                "view mismatch at node {}", v
            );
        }
    }

    #[test]
    fn until_reject_equals_first_rejecting((inst, radius, seed) in instance_radius_seed()) {
        let scheme = Fingerprint { radius };
        let prep = PreparedInstance::new(&inst, radius);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let proof = random_proof(inst.n(), 2, &mut rng);
        let first = prep.evaluate_until_reject(&scheme, &proof, &Deadline::none()).unwrap();
        let naive_first = evaluate_until_reject(&scheme, &inst, &proof);
        let full = evaluate(&scheme, &inst, &proof);
        prop_assert_eq!(first, full.rejecting().first().copied());
        prop_assert_eq!(first, naive_first);
    }

    #[test]
    fn in_place_arena_mutations_track_the_naive_executor((inst, radius, seed) in instance_radius_seed()) {
        // The arena-vs-BitString equivalence case: one proof is mutated
        // in place inside its word-packed arena (the search-loop path),
        // a shadow proof is rebuilt from owned BitStrings after every
        // step (the legacy representation) — the cached engine on the
        // former must match the naive executor on the latter
        // node-for-node, including after shrinking writes that leave
        // stale bits in the arena words.
        let scheme = Fingerprint { radius };
        let prep = PreparedInstance::new(&inst, radius);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut proof = random_proof(inst.n(), 2, &mut rng);
        let mut shadow: Vec<lcp_core::BitString> =
            proof.iter().map(|r| r.to_bitstring()).collect();
        for _ in 0..12 {
            let v = rng.random_range(0..inst.n());
            let bits = lcp_core::BitString::from_bits(
                (0..rng.random_range(0..4usize)).map(|_| rng.random_bool(0.5)),
            );
            proof.set(v, &bits);
            shadow[v] = bits;
            let rebuilt = Proof::from_strings(shadow.clone());
            prop_assert_eq!(&proof, &rebuilt, "arena content drifted at node {}", v);
            let cached = prep.evaluate(&scheme, &proof, &Deadline::none()).unwrap();
            let naive = evaluate(&scheme, &inst, &rebuilt);
            prop_assert_eq!(cached.outputs(), naive.outputs(), "outputs diverged at node {}", v);
        }
        // Bound views of the mutated arena equal fresh extractions.
        for v in 0..inst.n() {
            prop_assert_eq!(
                prep.bind(v, &proof),
                View::extract(&inst, &proof, v, radius),
                "view mismatch at node {}", v
            );
        }
    }

    #[test]
    fn dependents_are_exactly_the_containing_balls((inst, radius, _seed) in instance_radius_seed()) {
        let prep = PreparedInstance::new(&inst, radius);
        for v in 0..inst.n() {
            let mut deps: Vec<usize> = prep.dependents(v).collect();
            deps.sort_unstable();
            // Balls are symmetric in an undirected graph: u ∈ ball(w, r)
            // iff w ∈ ball(u, r), so dependents(v) must equal ball(v, r).
            let expected = lcp_graph::traversal::ball(inst.graph(), v, radius);
            prop_assert_eq!(deps, expected, "dependency table wrong at node {}", v);
        }
    }
}
