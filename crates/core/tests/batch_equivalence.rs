//! Property tests: the batched search loops are observationally
//! identical to the scalar ones.
//!
//! The batch layer ([`lcp_core::BatchPolicy::Auto`]) may change *how*
//! candidates are evaluated — 64 proofs per word through the block
//! odometer and the chunked bit-flip search — but never *what* the
//! harness reports. For random connected graphs, radii, string budgets,
//! and seeds these tests pin the full contract against the scalar
//! loops:
//!
//! * exhaustive: same verdict, same `tried` count on `Holds`, and the
//!   same **first** violating proof (which pins the enumeration order,
//!   not just the verdict — a trap scheme that accepts exactly one
//!   random target proof must surface that exact proof first under
//!   both policies);
//! * adversarial: identical `Option<Proof>` incumbents and an
//!   identical RNG stream position afterwards, so downstream draws in
//!   a campaign are unaffected by the routing.
//!
//! Both the kernel path (a scheme with `verify_batch`) and the
//! kernel-free path (scalar fills into the block mask tables) are
//! exercised.

use lcp_core::engine::PreparedInstance;
use lcp_core::harness::{adversarial_proof_search, check_soundness_exhaustive, Run, Soundness};
use lcp_core::{BatchPolicy, BatchView, BitString, Instance, Proof, Scheme, View};
use lcp_graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// 1-bit bipartiteness with a bit-sliced kernel: the canonical
/// kernel-capable scheme (odd cycles and odd-cycle-containing random
/// graphs are its no-instances).
struct Bipartite;

impl Scheme for Bipartite {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "bipartite".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::traversal::is_bipartite(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = lcp_graph::traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([colors[v] == 1])
        }))
    }
    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let mine = view.proof(c).first();
        mine.is_some()
            && view
                .neighbors(c)
                .iter()
                .all(|&u| view.proof(u).first().is_some_and(|b| Some(b) != mine))
    }
    fn supports_batch(&self) -> bool {
        true
    }
    fn verify_batch(&self, view: &BatchView) -> u64 {
        let c = view.center();
        let mut acc = view.has_bit(c, 0);
        for &u in view.neighbors(c) {
            acc &= view.has_bit(u, 0) & (view.bit(c, 0) ^ view.bit(u, 0));
        }
        acc
    }
}

/// Kernel-free verifier whose output depends on every proof bit it can
/// see: routes through the block odometer's *scalar-fill* mask tables
/// under `Auto` and stresses them with an irregular accept/reject
/// pattern.
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
        false
    }
    fn prove(&self, _: &Instance) -> Option<Proof> {
        None
    }
    fn verify(&self, view: &View) -> bool {
        let mut h: u64 = view.center() as u64 ^ (view.radius() as u64) << 8;
        for u in view.nodes() {
            h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
            for b in view.proof(u).iter() {
                h = h.wrapping_mul(2).wrapping_add(b as u64 + 1);
            }
        }
        h.is_multiple_of(7)
    }
}

/// Accepts exactly one target proof (radius covers the whole graph, so
/// every verifier sees every node; keyed by `NodeId`, which need not
/// equal the vertex index). The exhaustive search must report the
/// target as the first — indeed only — violation; agreement on it
/// under both policies pins the enumeration *order*, not just the
/// verdict.
struct Trap {
    target: std::collections::HashMap<u64, BitString>,
}

impl Scheme for Trap {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "trap".into()
    }
    fn radius(&self) -> usize {
        64
    }
    fn holds(&self, _: &Instance) -> bool {
        false
    }
    fn prove(&self, _: &Instance) -> Option<Proof> {
        None
    }
    fn verify(&self, view: &View) -> bool {
        view.nodes()
            .all(|u| view.proof(u).to_bitstring() == self.target[&view.id(u).0])
    }
}

/// Strategy: a connected random graph plus an independent seed.
fn instance_seed(max_n: usize) -> impl Strategy<Value = (Instance, u64)> {
    (3usize..max_n, 0usize..8, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        (Instance::unlabeled(g), seed)
    })
}

/// Exhaustive soundness under both policies; results must be equal.
fn exhaustive_both<S: Scheme<Node = (), Edge = ()>>(
    scheme: &S,
    inst: &Instance,
    max_bits: usize,
) -> (Soundness, Soundness) {
    let prep = PreparedInstance::new(inst, scheme.radius());
    let batch = check_soundness_exhaustive(scheme, &prep, max_bits, &Run::default()).unwrap();
    let scalar = check_soundness_exhaustive(scheme, &prep, max_bits, &scalar_run()).unwrap();
    (batch, scalar)
}

/// The scalar oracle's options: no deadline, batching off.
fn scalar_run() -> Run {
    Run {
        policy: BatchPolicy::Scalar,
        ..Run::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_odometer_equals_scalar((inst, _) in instance_seed(8), max_bits in 0usize..3) {
        // Kernel path. Soundness checks require a no-instance; the
        // scheme is sound, so `Holds` counts are what gets compared.
        prop_assume!(!lcp_graph::traversal::is_bipartite(inst.graph()));
        let (batch, scalar) = exhaustive_both(&Bipartite, &inst, max_bits);
        prop_assert_eq!(batch, scalar);
    }

    #[test]
    fn scalar_fill_odometer_equals_scalar((inst, _) in instance_seed(6), radius in 0usize..3, max_bits in 0usize..3) {
        // Kernel-free path: `Auto` still block-enumerates, filling mask
        // tables from the scalar verifier.
        let scheme = Fingerprint { radius };
        let (batch, scalar) = exhaustive_both(&scheme, &inst, max_bits);
        prop_assert_eq!(batch, scalar);
    }

    #[test]
    fn first_violation_is_the_same_proof((inst, seed) in instance_seed(6), max_bits in 0usize..3) {
        // Plant a random target proof; both policies must walk the
        // odometer in the same order and stop at that exact proof.
        let strings = lcp_core::harness::all_bitstrings_up_to(max_bits).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab);
        let target: Vec<BitString> = (0..inst.n())
            .map(|_| strings[rng.random_range(0..strings.len())].clone())
            .collect();
        let scheme = Trap {
            target: (0..inst.n())
                .map(|v| (inst.graph().id(v).0, target[v].clone()))
                .collect(),
        };
        let (batch, scalar) = exhaustive_both(&scheme, &inst, max_bits);
        let expected = Proof::from_strings(target);
        prop_assert_eq!(&batch, &scalar);
        match batch {
            Soundness::Violated(p) => prop_assert_eq!(p, expected),
            Soundness::Holds(t) => prop_assert!(false, "trap never sprung after {} proofs", t),
        }
    }

    #[test]
    fn adversarial_matches_scalar_incumbent_and_stream((inst, seed) in instance_seed(10), budget in 1usize..3, iters in 0usize..500) {
        // Chunked 64-lane search vs the scalar bit-flip loop: same
        // returned proof, and the RNG must sit at the same stream
        // position afterwards (campaigns draw from it next).
        prop_assume!(!lcp_graph::traversal::is_bipartite(inst.graph()));
        let prep = PreparedInstance::new(&inst, 1);
        let mut rng_batch = StdRng::seed_from_u64(seed ^ 0x51ee);
        let mut rng_scalar = rng_batch.clone();
        let batch = adversarial_proof_search(
            &Bipartite, &prep, budget, iters, &mut rng_batch, &Run::default(),
        );
        let scalar = adversarial_proof_search(
            &Bipartite, &prep, budget, iters, &mut rng_scalar, &scalar_run(),
        );
        prop_assert_eq!(batch, scalar);
        prop_assert_eq!(
            rng_batch.random_range(0..u64::MAX),
            rng_scalar.random_range(0..u64::MAX),
            "RNG stream positions diverged"
        );
    }
}
