//! Bipartiteness: the paper's introductory 1-bit scheme (§1.2).

use lcp_core::{BitString, Instance, Proof, Scheme, View};
use lcp_graph::traversal;

/// The 1-bit scheme for bipartite graphs: the proof is a 2-colouring and
/// each node checks that all neighbours differ from it.
///
/// Every node must actually *carry* a colour bit — an empty string at any
/// node is rejected, which is what puts bipartiteness in `LCP(1)` but not
/// `LCP(0)` (§1.2 shows the property is not locally checkable without
/// proofs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bipartite;

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
        traversal::is_bipartite(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([colors[v] == 1])
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let Some(mine) = view.proof(c).first() else {
            return false;
        };
        view.neighbors(c)
            .iter()
            .all(|&u| view.proof(u as usize).first().is_some_and(|b| b != mine))
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
    use rand::SeedableRng;

    #[test]
    fn completeness_and_constant_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut instances: Vec<Instance> = (2..8)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k)))
            .collect();
        instances.push(Instance::unlabeled(generators::grid(4, 5)));
        instances.push(Instance::unlabeled(generators::random_bipartite(
            8, 9, 0.4, &mut rng,
        )));
        check_completeness(
            &Bipartite,
            &lcp_core::engine::prepare_sweep(&Bipartite, &instances),
        )
        .unwrap();
        let points = measure_sizes(
            &Bipartite,
            &lcp_core::engine::prepare_sweep(&Bipartite, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Constant);
        assert!(points.iter().all(|p| p.bits == 1));
    }

    #[test]
    fn odd_cycle_soundness_exhaustive() {
        for n in [3usize, 5] {
            let inst = Instance::unlabeled(generators::cycle(n));
            match check_soundness_exhaustive(
                &Bipartite,
                &lcp_core::engine::prepare(&Bipartite, &inst),
                1,
                &Run::default(),
            )
            .unwrap()
            {
                Soundness::Holds(tried) => assert_eq!(tried, 3u64.pow(n as u32)),
                Soundness::Violated(p) => panic!("C{n} certified bipartite by {p:?}"),
            }
        }
    }

    #[test]
    fn odd_cycle_resists_adversarial_search() {
        let inst = Instance::unlabeled(generators::cycle(9));
        let mut rng = StdRng::seed_from_u64(2);
        assert!(adversarial_proof_search(
            &Bipartite,
            &lcp_core::engine::prepare(&Bipartite, &inst),
            3,
            1000,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn missing_bit_rejected() {
        let inst = Instance::unlabeled(generators::cycle(4));
        let mut proof = Bipartite.prove(&inst).unwrap();
        proof.set(1, BitString::new());
        let verdict = evaluate(&Bipartite, &inst, &proof);
        assert!(verdict.rejecting().contains(&1));
    }

    #[test]
    fn verifier_works_distributively() {
        let inst = Instance::unlabeled(generators::complete_bipartite(3, 4));
        let proof = Bipartite.prove(&inst).unwrap();
        let (verdict, stats) = lcp_sim::run_distributed(&Bipartite, &inst, &proof);
        assert!(verdict.accepted());
        assert_eq!(stats.rounds, 1);
    }
}
