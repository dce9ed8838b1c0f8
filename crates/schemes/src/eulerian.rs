//! Eulerian graphs: the paper's first `LCP(0)` example (§1.1).

use lcp_core::{Instance, Proof, Scheme, View};

/// The `LCP(0)` scheme for Eulerian graphs on the connected family: no
/// proof at all; each node accepts iff its degree is even.
///
/// ```
/// use lcp_core::{evaluate, Instance, Scheme};
/// use lcp_graph::generators;
/// use lcp_schemes::eulerian::Eulerian;
///
/// let inst = Instance::unlabeled(generators::cycle(5));
/// let proof = Eulerian.prove(&inst).unwrap();
/// assert_eq!(proof.size(), 0);
/// assert!(evaluate(&Eulerian, &inst, &proof).accepted());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Eulerian;

impl Scheme for Eulerian {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "eulerian".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        // Family promise: connected graphs; the local part is the degrees.
        lcp_graph::euler::all_degrees_even(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        self.holds(inst).then(|| Proof::empty(inst.n()))
    }

    fn verify(&self, view: &View) -> bool {
        view.degree(view.center()).is_multiple_of(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{check_completeness, check_soundness_exhaustive, Run, Soundness};
    use lcp_graph::generators;

    #[test]
    fn completeness_on_eulerian_families() {
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::cycle(3)),
            Instance::unlabeled(generators::cycle(10)),
            Instance::unlabeled(generators::complete(5)),
            Instance::unlabeled(generators::complete(7)),
        ];
        let sizes = check_completeness(
            &Eulerian,
            &lcp_core::engine::prepare_sweep(&Eulerian, &instances),
        )
        .unwrap();
        assert!(sizes.iter().all(|&s| s == 0), "LCP(0): empty proofs");
    }

    #[test]
    fn odd_degree_node_rejects() {
        let inst = Instance::unlabeled(generators::path(4));
        let verdict = evaluate(&Eulerian, &inst, &Proof::empty(4));
        assert_eq!(verdict.rejecting(), vec![0, 3]);
    }

    #[test]
    fn no_proof_can_help_a_non_eulerian_graph() {
        let inst = Instance::unlabeled(generators::star(3));
        match check_soundness_exhaustive(
            &Eulerian,
            &lcp_core::engine::prepare(&Eulerian, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("Eulerian scheme ignores proofs, got {p:?}"),
        }
    }
}
