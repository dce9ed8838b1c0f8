//! Leader election (§5.1, Table 1(b)): `Θ(log n)` on connected graphs.

use lcp_core::components::TreeCert;
use lcp_core::{BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::traversal;

/// The leader-election verification scheme: the input labels mark
/// leaders (`true`); the solution is correct iff exactly one node is
/// marked. The proof is a spanning-tree certificate rooted at the leader,
/// and each node checks `leader ⟺ dist = 0`.
///
/// This is a *strong* scheme in the §7.2 sense: whatever node the
/// adversary marks, the prover can root the tree there.
///
/// Family promise: connected graphs (Table 1(b) row "leader election,
/// conn."); §5.4's gluing attack shows the matching `Ω(log n)` bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaderElection;

impl Scheme for LeaderElection {
    type Node = bool;
    type Edge = ();

    fn name(&self) -> String {
        "leader-election".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<bool>) -> bool {
        traversal::is_connected(inst.graph())
            && inst.node_labels().iter().filter(|&&l| l).count() == 1
    }

    fn prove(&self, inst: &Instance<bool>) -> Option<Proof> {
        if !traversal::is_connected(inst.graph()) {
            return None;
        }
        let mut leaders = inst.node_labels().iter().enumerate().filter(|(_, &l)| l);
        let (leader, _) = leaders.next()?;
        if leaders.next().is_some() {
            return None;
        }
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), leader);
        let certs = TreeCert::prove(inst.graph(), &tree);
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }

    fn verify(&self, view: &View<bool>) -> bool {
        TreeCert::verify_at_center(view, |c| c, |_, _, _| true)
            .is_some_and(|mine| *view.node_label(view.center()) == (mine.dist == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, classify_growth,
        measure_sizes, GrowthClass, Run, Soundness,
    };
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn with_leader(g: lcp_graph::Graph, leader: usize) -> Instance<bool> {
        let labels = (0..g.n()).map(|v| v == leader).collect();
        Instance::with_node_data(g, labels)
    }

    #[test]
    fn any_leader_choice_is_certifiable() {
        // Strong scheme: the adversary picks the leader, the prover copes.
        let mut rng = StdRng::seed_from_u64(10);
        let mut instances = Vec::new();
        for _ in 0..8 {
            let g = generators::random_connected(10, 6, &mut rng);
            let leader = rng.random_range(0..g.n());
            instances.push(with_leader(g, leader));
        }
        check_completeness(
            &LeaderElection,
            &lcp_core::engine::prepare_sweep(&LeaderElection, &instances),
        )
        .unwrap();
    }

    #[test]
    fn proof_size_logarithmic() {
        let instances: Vec<Instance<bool>> = [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&n| with_leader(generators::cycle(n), n / 2))
            .collect();
        let points = measure_sizes(
            &LeaderElection,
            &lcp_core::engine::prepare_sweep(&LeaderElection, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Logarithmic);
    }

    #[test]
    fn two_leaders_rejected() {
        let g = generators::cycle(4);
        let labels = vec![true, false, true, false];
        let inst = Instance::with_node_data(g, labels);
        assert!(!LeaderElection.holds(&inst));
        assert!(LeaderElection.prove(&inst).is_none());
        match check_soundness_exhaustive(
            &LeaderElection,
            &lcp_core::engine::prepare(&LeaderElection, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("two leaders certified by {p:?}"),
        }
    }

    #[test]
    fn zero_leaders_resist_forgery() {
        let g = generators::cycle(8);
        let inst = Instance::with_node_data(g, vec![false; 8]);
        assert!(!LeaderElection.holds(&inst));
        let mut rng = StdRng::seed_from_u64(11);
        assert!(adversarial_proof_search(
            &LeaderElection,
            &lcp_core::engine::prepare(&LeaderElection, &inst),
            8,
            600,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn leader_must_be_the_root() {
        let inst = with_leader(generators::path(5), 2);
        let proof = LeaderElection.prove(&inst).unwrap();
        assert!(evaluate(&LeaderElection, &inst, &proof).accepted());
        // Re-rooting the tree at a non-leader makes the leader check fail.
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
        let certs = TreeCert::prove(inst.graph(), &tree);
        let wrong = Proof::from_fn(5, |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
        assert!(!evaluate(&LeaderElection, &inst, &wrong).accepted());
    }
}
