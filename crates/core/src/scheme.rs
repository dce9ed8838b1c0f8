//! The [`Scheme`] trait (prover + verifier + ground truth) and the
//! acceptance semantics of the model.

use crate::instance::Instance;
use crate::proof::Proof;
use crate::view::View;

/// A proof labelling scheme `(f, A)` for one graph property or problem
/// (§2.2): a prover that labels yes-instances, a constant-radius local
/// verifier, and — for the conformance harness — the centralized ground
/// truth.
///
/// Contract (checked empirically by [`crate::harness`]):
///
/// * **Completeness**: if `holds(G)` then `prove(G)` returns a proof that
///   every node accepts.
/// * **Soundness**: if `!holds(G)` then *every* proof is rejected by at
///   least one node (and `prove` is expected to return `None`).
/// * **Locality**: `verify` sees only the extracted radius-[`Scheme::radius`]
///   view.
///
/// Schemes may rely on a *family promise* (§2.2's `F`): e.g. the cycle
/// schemes assume the input is a cycle. The harness only feeds instances
/// from the scheme's family.
pub trait Scheme {
    /// Per-node input labels (`()` for pure graph properties).
    type Node: Clone;
    /// Per-edge input labels (`()` when presence alone matters).
    type Edge: Clone;

    /// Human-readable name, used in harness and bench reports.
    fn name(&self) -> String;

    /// The verifier's local horizon `r` (a constant per scheme).
    fn radius(&self) -> usize;

    /// Centralized ground truth: does the instance have the property /
    /// is the labelled solution correct?
    fn holds(&self, inst: &Instance<Self::Node, Self::Edge>) -> bool;

    /// The prover `f`: a proof for a yes-instance, `None` when the
    /// instance cannot be certified (in particular on no-instances).
    fn prove(&self, inst: &Instance<Self::Node, Self::Edge>) -> Option<Proof>;

    /// The verifier `A` at one node, given its extracted local view.
    fn verify(&self, view: &View<Self::Node, Self::Edge>) -> bool;
}

/// The outcome of running a verifier at every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    outputs: Vec<bool>,
}

impl Verdict {
    /// Builds a verdict from per-node outputs (index order).
    ///
    /// Exists for alternative executors — notably the message-passing
    /// simulator in `lcp-sim`, which must report through the same type as
    /// [`evaluate`].
    pub fn from_outputs(outputs: Vec<bool>) -> Self {
        Verdict { outputs }
    }

    /// Whether all nodes accepted — the paper's global accept condition.
    ///
    /// An empty graph is vacuously accepted.
    pub fn accepted(&self) -> bool {
        self.outputs.iter().all(|&b| b)
    }

    /// Indices of rejecting nodes (the "alarm raisers").
    pub fn rejecting(&self) -> Vec<usize> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(v, &b)| (!b).then_some(v))
            .collect()
    }

    /// Per-node outputs in index order.
    pub fn outputs(&self) -> &[bool] {
        &self.outputs
    }
}

/// Runs the verifier of `scheme` at every node of `inst` with `proof`.
///
/// This is the centralized **reference** executor: it re-extracts every
/// view from scratch on each call. `lcp-sim` provides the message-passing
/// executor, and [`crate::engine::PreparedInstance::evaluate`] the cached
/// fast path; all three must agree (property-tested in `lcp-sim` and
/// `tests/engine_equivalence.rs`). Prefer the engine when the same
/// instance is evaluated against more than one proof.
///
/// # Panics
///
/// Panics if `proof.n()` does not match the instance.
pub fn evaluate<S: Scheme>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    proof: &Proof,
) -> Verdict {
    let r = scheme.radius();
    let outputs = inst
        .graph()
        .nodes()
        .map(|v| scheme.verify(&View::extract(inst, proof, v, r)))
        .collect();
    Verdict { outputs }
}

/// Runs the verifier node by node and stops at the first rejection,
/// returning the rejecting node — or `None` when every node accepts.
///
/// Callers that only need the global accept/reject bit (the `∃` rejecting
/// node quantifier) should use this instead of [`evaluate`]: it skips the
/// remaining extractions as soon as an alarm is raised. The cached
/// counterpart is
/// [`crate::engine::PreparedInstance::evaluate_until_reject`].
///
/// # Panics
///
/// Panics if `proof.n()` does not match the instance.
pub fn evaluate_until_reject<S: Scheme>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    proof: &Proof,
) -> Option<usize> {
    let r = scheme.radius();
    inst.graph()
        .nodes()
        .find(|&v| !scheme.verify(&View::extract(inst, proof, v, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use lcp_graph::generators;

    /// Toy scheme: "every node has even degree", radius 0, no proof.
    struct EvenDegrees;

    impl Scheme for EvenDegrees {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "even-degrees".into()
        }
        fn radius(&self) -> usize {
            1 // need to see incident edges
        }
        fn holds(&self, inst: &Instance) -> bool {
            lcp_graph::euler::all_degrees_even(inst.graph())
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            self.holds(inst).then(|| Proof::empty(inst.n()))
        }
        fn verify(&self, view: &View) -> bool {
            view.degree(view.center()).is_multiple_of(2)
        }
    }

    #[test]
    fn evaluate_accepts_yes_instance() {
        let inst = Instance::unlabeled(generators::cycle(5));
        let proof = EvenDegrees.prove(&inst).unwrap();
        let verdict = evaluate(&EvenDegrees, &inst, &proof);
        assert!(verdict.accepted());
        assert!(verdict.rejecting().is_empty());
        assert_eq!(verdict.outputs().len(), 5);
    }

    #[test]
    fn evaluate_pinpoints_rejecting_nodes() {
        let inst = Instance::unlabeled(generators::path(4));
        let verdict = evaluate(&EvenDegrees, &inst, &Proof::empty(4));
        assert!(!verdict.accepted());
        // The two endpoints have odd degree.
        assert_eq!(verdict.rejecting(), vec![0, 3]);
    }

    #[test]
    fn empty_graph_is_vacuously_accepted() {
        let inst = Instance::unlabeled(lcp_graph::Graph::new());
        let verdict = evaluate(&EvenDegrees, &inst, &Proof::empty(0));
        assert!(verdict.accepted());
    }

    #[test]
    fn proofs_are_visible_to_verifier() {
        /// Radius-1 scheme whose verifier insists every node holds bit 1.
        struct AllOnes;
        impl Scheme for AllOnes {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "all-ones".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                Some(Proof::from_fn(inst.n(), |_| BitString::from_bits([true])))
            }
            fn verify(&self, view: &View) -> bool {
                view.nodes().all(|u| view.proof(u).first() == Some(true))
            }
        }
        let inst = Instance::unlabeled(generators::cycle(4));
        let good = AllOnes.prove(&inst).unwrap();
        assert!(evaluate(&AllOnes, &inst, &good).accepted());
        let mut bad = good.clone();
        bad.set(2, BitString::from_bits([false]));
        let verdict = evaluate(&AllOnes, &inst, &bad);
        // Node 2 and both its neighbours see the bad bit.
        assert_eq!(verdict.rejecting(), vec![1, 2, 3]);
    }
}
