//! Property tests: the block odometer is observationally identical to
//! the scalar one.
//!
//! The block odometer ([`lcp_core::BatchPolicy::Auto`]) may change *how*
//! exhaustive candidates are evaluated — up to 64 proofs per word op,
//! decided from mask tables filled by spread scalar verifier calls —
//! but never *what* the harness reports. For random connected graphs,
//! radii, and string budgets these tests pin the contract against the
//! scalar odometer: same verdict, same `tried` count on `Holds`, and the
//! same **first** violating proof (which pins the enumeration order,
//! not just the verdict — a trap scheme that accepts exactly one random
//! target proof must surface that exact proof first under both
//! policies).
//!
//! The block odometer takes every search shape, so three shapes pin
//! its edges: one string per node (`max_bits` 0), more strings than a
//! 64-lane block holds (127 strings, `max_bits` 6), and a graph whose
//! full-width mask tables outgrow the table budget. Each must agree
//! with the scalar odometer on the verdict, the first violating proof,
//! the `tried` count and the deadline-poll grid.

use lcp_core::deadline::CHECK_INTERVAL;
use lcp_core::engine::PreparedInstance;
use lcp_core::harness::{check_soundness_exhaustive, Run, Soundness, SoundnessError};
use lcp_core::{AsBits, BatchPolicy, BitString, Deadline, Instance, Proof, Scheme, View};
use lcp_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// 1-bit bipartiteness: a sound scheme (odd cycles and
/// odd-cycle-containing random graphs are its no-instances), so its
/// searches enumerate the whole space and compare `Holds` counts.
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
            && view.neighbors(c).iter().all(|&u| {
                view.proof(u as usize)
                    .first()
                    .is_some_and(|b| Some(b) != mine)
            })
    }
}

/// A verifier whose output depends on every proof bit it can see:
/// stresses the block odometer's mask tables with an irregular
/// accept/reject pattern.
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
        // A sound radius-1 verifier on n < 8. Soundness checks require a
        // no-instance; every candidate is rejected, so whole-space
        // `Holds` counts are what gets compared.
        prop_assume!(!lcp_graph::traversal::is_bipartite(inst.graph()));
        let (batch, scalar) = exhaustive_both(&Bipartite, &inst, max_bits);
        prop_assert_eq!(batch, scalar);
    }

    #[test]
    fn scalar_fill_odometer_equals_scalar((inst, _) in instance_seed(6), radius in 0usize..3, max_bits in 0usize..3) {
        // An irregular verifier over radii 0..3 on n < 6.
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
}

/// Radius-1 trap: node `v` accepts iff its own string is `target[v]`,
/// so the target is the only fully accepted proof.
struct LocalTrap {
    target: Vec<BitString>,
}

impl Scheme for LocalTrap {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "local-trap".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, _: &Instance) -> bool {
        false
    }
    fn prove(&self, _: &Instance) -> Option<Proof> {
        None
    }
    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        view.proof(c) == self.target[view.id(c).0 as usize - 1].as_bits()
    }
}

/// Exhaustive soundness under both policies, unbounded and with an
/// already expired deadline; each pair must agree exactly (verdict,
/// witness, `tried`, and the `DeadlineExpired { tried }` grid point).
/// Returns the unbounded and the expired results.
fn agree<S: Scheme<Node = (), Edge = ()>>(
    scheme: &S,
    inst: &Instance,
    max_bits: usize,
) -> (
    Result<Soundness, SoundnessError>,
    Result<Soundness, SoundnessError>,
) {
    let prep = PreparedInstance::new(inst, scheme.radius());
    let run = |policy, deadline| {
        let run = Run { deadline, policy };
        check_soundness_exhaustive(scheme, &prep, max_bits, &run)
    };
    let expired = || Deadline::after(Duration::ZERO);
    let unbounded = run(BatchPolicy::Auto, Deadline::none());
    assert_eq!(unbounded, run(BatchPolicy::Scalar, Deadline::none()));
    let cut = run(BatchPolicy::Auto, expired());
    assert_eq!(cut, run(BatchPolicy::Scalar, expired()));
    (unbounded, cut)
}

/// Plants a `LocalTrap` whose target at node `v` is entry `digits[v]`
/// of the `max_bits` string table, and checks both policies find it
/// — cut at the first poll when the target lies past it.
fn trap_agrees(inst: &Instance, max_bits: usize, digits: &[usize]) {
    let strings = lcp_core::harness::all_bitstrings_up_to(max_bits).unwrap();
    let target: Vec<BitString> = digits.iter().map(|&d| strings[d].clone()).collect();
    let expected = Proof::from_strings(target.clone());
    let (found, cut) = agree(&LocalTrap { target }, inst, max_bits);
    assert_eq!(found, Ok(Soundness::Violated(expected)));
    // The target's odometer position (1-based `tried`); node 0 is the
    // fastest digit.
    let radix = strings.len() as u64;
    let position = digits
        .iter()
        .rev()
        .fold(0, |acc, &d| acc * radix + d as u64)
        + 1;
    if position < CHECK_INTERVAL {
        assert_eq!(cut, found);
    } else {
        let tried = CHECK_INTERVAL;
        assert_eq!(cut, Err(SoundnessError::DeadlineExpired { tried }));
    }
}

#[test]
fn one_string_per_node_agrees() {
    // max_bits 0: the only proof is all-ε, a one-candidate space.
    let odd = Instance::unlabeled(generators::cycle(5));
    let (holds, cut) = agree(&Bipartite, &odd, 0);
    assert_eq!(holds, Ok(Soundness::Holds(1)));
    assert_eq!(cut, holds, "one candidate never reaches a poll");
    trap_agrees(&odd, 0, &[0; 5]);
}

#[test]
fn more_strings_than_block_lanes_agrees() {
    // max_bits 6: 127 strings per node, more than one 64-lane block.
    // A 7-bit target is out of budget, so the whole 127² space holds.
    let edge = Instance::unlabeled(generators::path(2));
    let long = BitString::from_bits([false; 7]);
    let unreachable = LocalTrap {
        target: vec![long.clone(), long],
    };
    let (holds, cut) = agree(&unreachable, &edge, 6);
    assert_eq!(holds, Ok(Soundness::Holds(127 * 127)));
    assert_eq!(cut, holds, "127² < CHECK_INTERVAL: no poll fires");

    // On a triangle the space (127³) crosses the first poll; one target
    // sits before it, one after.
    let triangle = Instance::unlabeled(generators::cycle(3));
    trap_agrees(&triangle, 6, &[5, 100, 0]);
    trap_agrees(&triangle, 6, &[3, 2, 1]);
}

#[test]
fn mask_tables_over_budget_agree() {
    // Three strings per node (max_bits 1) give 3³ = 27-lane blocks over
    // nodes 0..3. Node 2 is a hub with twelve higher-indexed neighbours,
    // so at that width its own mask table alone has 3¹² = 531,441
    // entries — over the 4 MiB table budget — and the block narrows
    // until the tables fit. Node 3 links the hub to nodes 0–1.
    let mut g = Graph::from_ids((1..=15).map(NodeId)).unwrap();
    g.add_edge(0, 1).unwrap();
    g.add_edge(1, 3).unwrap();
    for leaf in 3..15 {
        g.add_edge(2, leaf).unwrap();
    }
    let hub = Instance::unlabeled(g);
    trap_agrees(&hub, 1, &[2, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    trap_agrees(&hub, 1, &[1, 2, 0, 1, 2, 0, 1, 2, 1, 1, 0, 0, 0, 0, 0]);
}
