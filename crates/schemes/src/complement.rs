//! The §7.3 complement adapter: `coLCP(0) ⊆ LogLCP` on connected graphs.
//!
//! Given *any* proof-less (`LCP(0)`) scheme, the adapter certifies the
//! **complement** property with `O(log n)` bits: root a spanning tree at
//! a node where the inner verifier rejects the empty proof, and let the
//! root re-run the inner verifier locally.

use lcp_core::components::TreeCert;
use lcp_core::{evaluate, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::traversal;

/// Wraps an `LCP(0)` scheme `S` and decides its complement on connected
/// graphs with `O(log n)`-bit proofs (§7.3).
///
/// Proof: a [`TreeCert`] rooted at a rejecting node `a`. Every node
/// checks the tree; the root additionally simulates the inner verifier on
/// its own radius-`r` view *with the empty proof* and demands rejection.
///
/// * Completeness: `G ∉ P` ⟹ some node rejects the empty proof ⟹ root
///   the tree there.
/// * Soundness: `G ∈ P` ⟹ the inner verifier accepts everywhere, so
///   whatever root the forged tree selects, the root's simulation
///   accepts and the root's check fails.
///
/// The inner scheme must genuinely be `LCP(0)` — its verifier may not
/// read proofs. This is enforced at *construction time* by checking the
/// prover emits empty proofs, and at *verification time* by handing the
/// inner verifier a proof-stripped view.
pub struct Complement<S> {
    inner: S,
}

impl<S> Complement<S>
where
    S: Scheme,
{
    /// Wraps an inner `LCP(0)` scheme.
    pub fn new(inner: S) -> Self {
        Complement { inner }
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S> Scheme for Complement<S>
where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    type Node = S::Node;
    type Edge = S::Edge;

    fn name(&self) -> String {
        format!("co[{}]", self.inner.name())
    }

    fn radius(&self) -> usize {
        self.inner.radius().max(1)
    }

    fn holds(&self, inst: &Instance<S::Node, S::Edge>) -> bool {
        traversal::is_connected(inst.graph()) && inst.n() > 0 && !self.inner.holds(inst)
    }

    fn prove(&self, inst: &Instance<S::Node, S::Edge>) -> Option<Proof> {
        if !traversal::is_connected(inst.graph()) || inst.n() == 0 {
            return None;
        }
        // Find a node rejecting the empty proof.
        let verdict = evaluate(&self.inner, inst, &Proof::empty(inst.n()));
        let root = *verdict.rejecting().first()?;
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), root);
        let certs = TreeCert::prove(inst.graph(), &tree);
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }

    fn verify(&self, view: &View<S::Node, S::Edge>) -> bool {
        let Some(mine) = TreeCert::verify_at_center(view, |c| c, |_, _, _| true) else {
            return false;
        };
        if mine.dist != 0 {
            return true;
        }
        // I am the root: simulate the inner verifier on my inner-radius
        // view with the empty proof — it must REJECT.
        let restricted = view.restrict(self.inner.radius().min(view.radius()));
        let inner_view = restricted.with_proofs_cleared();
        !self.inner.verify(&inner_view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eulerian::Eulerian;
    use crate::line_graph::LineGraph;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, classify_growth, measure_sizes, GrowthClass,
        Run,
    };
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn non_eulerian_graphs_certified() {
        let scheme = Complement::new(Eulerian);
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::path(5)),
            Instance::unlabeled(generators::star(3)),
            Instance::unlabeled(generators::complete(4)),
            Instance::unlabeled(generators::grid(2, 4)),
        ];
        check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
    }

    #[test]
    fn eulerian_graphs_resist_complement_forgery() {
        let scheme = Complement::new(Eulerian);
        let inst = Instance::unlabeled(generators::cycle(8));
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
        let mut rng = StdRng::seed_from_u64(41);
        assert!(adversarial_proof_search(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            10,
            700,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn non_line_graphs_certified() {
        let scheme = Complement::new(LineGraph);
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(lcp_graph::line_graph::claw()),
            Instance::unlabeled(generators::complete_bipartite(2, 3)),
            Instance::unlabeled(generators::star(5)),
        ];
        check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
    }

    #[test]
    fn proof_size_logarithmic() {
        let scheme = Complement::new(Eulerian);
        let instances: Vec<Instance> = [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&n| Instance::unlabeled(generators::path(n)))
            .collect();
        let points = measure_sizes(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Logarithmic);
    }

    #[test]
    fn root_must_be_a_rejecting_node() {
        // Rooting the tree at an accepting node must fail at the root.
        let scheme = Complement::new(Eulerian);
        let inst = Instance::unlabeled(generators::path(4)); // endpoints reject
                                                             // Root at node 1 (degree 2: inner verifier accepts there).
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 1);
        let certs = TreeCert::prove(inst.graph(), &tree);
        let proof = Proof::from_fn(4, |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
        let verdict = evaluate(&scheme, &inst, &proof);
        assert!(!verdict.accepted());
        assert!(verdict.rejecting().contains(&1), "the root itself rejects");
    }
}
