//! Weak proof labelling schemes (§7.2).
//!
//! For graph *problems* the paper distinguishes:
//!
//! * **strong** schemes — the adversary picks the input *and* the
//!   solution, the prover must certify it (our labelled schemes:
//!   [`crate::leader::LeaderElection`], [`crate::spanning_tree::SpanningTree`],
//!   …, all tested against adversarial solutions);
//! * **weak** schemes — the adversary picks the input, the *prover*
//!   picks a convenient solution and encodes it in the proof.
//!
//! §7.2 observes that for the problems studied here the two cost the
//! same `Θ(log n)`; this module provides the weak variant of leader
//! election so the claim is executable: the solution (who leads) lives
//! entirely inside the proof, and the §5.4 lower-bound argument still
//! applies because the gluing attack inherits proofs — and with them the
//! encoded solutions — from the donors.

use lcp_core::components::TreeCert;
use lcp_core::{BitReader, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::traversal;

/// Weak leader election: the input carries no labels; the proof itself
/// designates the leader (the root of its spanning-tree certificate) and
/// certifies uniqueness.
///
/// Soundness statement (weak form): any proof accepted by every node
/// decodes — via [`WeakLeaderElection::decode_leaders`] — to exactly one
/// leader per connected component; under the connectedness promise,
/// exactly one leader.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WeakLeaderElection;

impl WeakLeaderElection {
    /// Reads the solution out of a proof: the nodes claiming distance 0.
    pub fn decode_leaders(proof: &Proof) -> Vec<usize> {
        (0..proof.n())
            .filter(|&v| {
                let mut r = BitReader::new(proof.get(v));
                TreeCert::decode(&mut r).is_ok_and(|c| c.dist == 0)
            })
            .collect()
    }
}

impl Scheme for WeakLeaderElection {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "weak-leader-election".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        // Weak problems: a certifiable solution exists iff the instance
        // is in the family (some node can always be elected).
        inst.n() > 0 && traversal::is_connected(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        // The prover's privilege: pick the most convenient solution —
        // the smallest-identifier node.
        let g = inst.graph();
        let leader = g.nodes().min_by_key(|&v| g.id(v)).expect("nonempty");
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, leader);
        let certs = TreeCert::prove(g, &tree);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        TreeCert::verify_at_center(view, |c| c, |_, _, _| true).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::all_bitstrings_up_to;
    use lcp_core::Label;
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prover_chooses_and_certifies_a_leader() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..6 {
            let g = generators::random_connected(12, 8, &mut rng);
            let inst = Instance::unlabeled(g);
            let proof = WeakLeaderElection.prove(&inst).unwrap();
            assert!(evaluate(&WeakLeaderElection, &inst, &proof).accepted());
            let leaders = WeakLeaderElection::decode_leaders(&proof);
            assert_eq!(leaders.len(), 1, "weak scheme elects exactly one");
        }
    }

    #[test]
    fn weak_soundness_every_accepted_proof_has_one_leader() {
        // Exhaustively on P2 up to 10 bits per node. The verifier rejects
        // any node whose string does not decode cleanly to a TreeCert, so
        // restricting the enumeration to decodable strings loses nothing
        // — and makes the exhaustive check instant.
        let inst = Instance::unlabeled(generators::path(2));
        let decodable: Vec<_> = all_bitstrings_up_to(10)
            .expect("10-bit table is in budget")
            .into_iter()
            .filter(|s| <TreeCert as Label>::decode(s.into()).is_some())
            .collect();
        assert!(decodable.len() > 10, "enough certificate shapes to try");
        let mut accepted = 0u32;
        for a in &decodable {
            for b in &decodable {
                let proof = Proof::from_strings(vec![a.clone(), b.clone()]);
                if evaluate(&WeakLeaderElection, &inst, &proof).accepted() {
                    accepted += 1;
                    assert_eq!(
                        WeakLeaderElection::decode_leaders(&proof).len(),
                        1,
                        "accepted proof with ≠1 leader: {proof:?}"
                    );
                }
            }
        }
        assert!(accepted > 0, "some proof should be accepted");
    }

    #[test]
    fn weak_and_strong_sizes_match_within_constants() {
        // §7.2: the weak scheme saves no more than a constant factor.
        use crate::leader::LeaderElection;
        for n in [8usize, 64, 512] {
            let g = generators::cycle(n);
            let weak = WeakLeaderElection
                .prove(&Instance::unlabeled(g.clone()))
                .unwrap()
                .size();
            let labels: Vec<bool> = (0..n).map(|v| v == 0).collect();
            let strong = LeaderElection
                .prove(&Instance::with_node_data(g, labels))
                .unwrap()
                .size();
            assert!(
                weak <= strong + 2 && strong <= weak + 2,
                "n={n}: {weak} vs {strong}"
            );
        }
    }

    #[test]
    fn disconnected_input_is_outside_the_family() {
        let g = lcp_graph::ops::disjoint_union(
            &generators::cycle(3),
            &lcp_graph::ops::shift_ids(&generators::cycle(3), 10),
        )
        .unwrap();
        let inst = Instance::unlabeled(g);
        assert!(!WeakLeaderElection.holds(&inst));
    }
}
