//! The dynamic-instance acceptance suite: for random mutation sequences
//! on registry schemes, incremental re-verification is observationally
//! identical to re-preparing and fully evaluating from scratch —
//! verdicts, per-node outputs, *and* the rejecting-node witness — and
//! the dirty set always contains every node whose output changed.
//!
//! The strategy draws real cells from the scheme registry (the same
//! builders the conformance campaign sweeps), opens a mutable copy, and
//! churns it with a seeded stream, cross-checking after every single
//! mutation.

use lcp_core::{BitString, Instance, Proof, Scheme, View};
use lcp_dynamic::churn::{ChurnConfig, ChurnStream};
use lcp_dynamic::DynamicInstance;
use lcp_schemes::registry::{self, CellRequest, Polarity};
use proptest::prelude::*;

/// Draws `(registry entry, family, n, seed, steps)` coordinates; the
/// polarity rides along in a seed bit (the vendored proptest implements
/// tuple strategies up to arity 5).
fn cell_coords() -> impl Strategy<Value = (usize, usize, usize, u64, usize)> {
    let entries = registry::all().len();
    (0..entries, 0usize..8, 6usize..20, any::<u64>(), 1usize..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every mutation: (a) the set of nodes whose from-scratch
    /// output changed is contained in the dirty set, and (b) after
    /// `reverify`, the cached outputs and witness equal the from-scratch
    /// evaluation of the mutated instance.
    #[test]
    fn registry_churn_matches_from_scratch_evaluation(
        (entry_idx, family_idx, n, seed, steps) in cell_coords()
    ) {
        let entries = registry::all();
        let entry = &entries[entry_idx];
        let family = entry.families[family_idx % entry.families.len()];
        let polarity = if seed & 1 == 0 { Polarity::Yes } else { Polarity::No };
        let req = CellRequest { family, n, seed, polarity };
        let Some(cell) = entry.build(&req) else {
            // Polarity unrealizable on this family — nothing to churn.
            return Ok(());
        };
        // Huge cells make per-step full checks pointless; the campaign
        // covers those via its clamped sizes.
        prop_assume!(cell.n() <= 64);

        let mut dynamic = DynamicInstance::from_cell(cell.dynamic_cell());
        let first = dynamic.reverify();
        let reference = dynamic.full_check();
        prop_assert_eq!(first.accepted, reference.accepted());
        prop_assert_eq!(first.witness, reference.rejecting().first().copied());

        let mut stream = ChurnStream::new(ChurnConfig::new(seed ^ 0xc0ffee));
        let mut previous = reference;
        for step in 0..steps {
            let Some(mutation) = stream.propose(&dynamic) else { break };
            let impact = dynamic.apply(&mutation).unwrap();
            let fresh = dynamic.full_check();

            // (a) Dirty-containment: every node whose from-scratch output
            // changed must be awaiting re-verification.
            let dirty = dynamic.dirty_nodes();
            for v in 0..dynamic.n() {
                if previous.outputs()[v] != fresh.outputs()[v] {
                    prop_assert!(
                        dirty.binary_search(&v).is_ok(),
                        "step {}: output of node {} changed ({:?}) without being dirtied \
                         (dirty = {:?}, impact = {:?})",
                        step, v, mutation, dirty, impact
                    );
                }
            }

            // (b) Equivalence: incremental == from scratch, node for node.
            let outcome = dynamic.reverify();
            prop_assert_eq!(outcome.accepted, fresh.accepted(), "step {}", step);
            prop_assert_eq!(
                outcome.witness,
                fresh.rejecting().first().copied(),
                "witness diverged at step {}",
                step
            );
            let cached = dynamic.cached_verdict().expect("clean after reverify");
            prop_assert_eq!(&cached, &fresh, "outputs diverged at step {}", step);
            previous = fresh;
        }
    }
}

/// A label-sensitive radius-1 scheme for typed label-churn coverage:
/// accepts iff the centre's label equals the parity of its proof bits
/// and no neighbour carries a larger label.
struct LabelledParity;
impl Scheme for LabelledParity {
    type Node = u8;
    type Edge = ();
    fn name(&self) -> String {
        "labelled-parity".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, _: &Instance<u8>) -> bool {
        true
    }
    fn prove(&self, inst: &Instance<u8>) -> Option<Proof> {
        Some(Proof::empty(inst.n()))
    }
    fn verify(&self, view: &View<u8>) -> bool {
        let c = view.center();
        let parity = (view.proof(c).iter().filter(|&b| b).count() % 2) as u8;
        *view.node_label(c) % 2 == parity
            && view
                .neighbors(c)
                .iter()
                .all(|&u| *view.node_label(u as usize) <= *view.node_label(c) + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Typed path: interleaved label changes, proof rewrites, and edge
    /// churn on a labelled scheme stay equivalent to from-scratch
    /// evaluation.
    #[test]
    fn labelled_churn_matches_from_scratch(seed in any::<u64>(), steps in 1usize..30) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = lcp_graph::generators::random_connected(10, 4, &mut rng);
        let labels: Vec<u8> = (0..10).map(|_| rng.random_range(0..4u8)).collect();
        let inst = Instance::with_node_data(g, labels);
        let mut dynamic = DynamicInstance::seal(LabelledParity, inst);
        dynamic.reverify();

        for step in 0..steps {
            match rng.random_range(0..4u32) {
                0 => {
                    let v = rng.random_range(0..10);
                    let _ = dynamic.set_node_label(v, rng.random_range(0..4u8)).unwrap();
                }
                1 => {
                    let v = rng.random_range(0..10);
                    let len = rng.random_range(0..4usize);
                    let bits = BitString::from_bits((0..len).map(|_| rng.random_bool(0.5)));
                    dynamic.rewrite_proof(v, &bits).unwrap();
                }
                2 => {
                    let (u, v) = (rng.random_range(0..10), rng.random_range(0..10));
                    if u != v && !dynamic.graph().has_edge(u, v) {
                        dynamic.insert_edge(u, v).unwrap();
                    }
                }
                _ => {
                    let u = rng.random_range(0..10);
                    if dynamic.graph().degree(u) > 0 {
                        let v = dynamic.graph().neighbors(u)
                            [rng.random_range(0..dynamic.graph().degree(u))];
                        dynamic.delete_edge(u, v).unwrap();
                    }
                }
            }
            let outcome = dynamic.reverify();
            let fresh = dynamic.full_check();
            prop_assert_eq!(outcome.accepted, fresh.accepted(), "step {}", step);
            prop_assert_eq!(outcome.witness, fresh.rejecting().first().copied());
            prop_assert_eq!(&dynamic.cached_verdict().unwrap(), &fresh, "step {}", step);
        }
    }
}
