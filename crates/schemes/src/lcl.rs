//! The LCL framework (§3): locally checkable labellings in the sense of
//! Naor–Stockmeyer, generalized to `LCP(0)`.
//!
//! An [`LclProblem`] is a solution-verification problem whose correctness
//! is a pure radius-`r` condition on the labelled neighbourhood — no
//! proof bits at all. The paper identifies the (generalized) class `LCL`
//! with `LCP(0)` and the `LD` class of Fraigniaud–Korman–Peleg with
//! `LCP′(0)`; this module realizes both as a reusable constructor plus
//! the classical instances.

use lcp_core::{Instance, Proof, Scheme, View};
use std::sync::Arc;

/// An `LCP(0)` problem defined by a local acceptance predicate: the
/// verifier is the predicate itself and proofs are always empty.
///
/// `check` receives the radius-`r` labelled view; `truth` is the
/// centralized ground truth used by the conformance harness.
#[derive(Clone)]
pub struct LclProblem<N: Clone + 'static> {
    name: String,
    radius: usize,
    check: Arc<dyn Fn(&View<N, ()>) -> bool + Send + Sync>,
    truth: Arc<dyn Fn(&Instance<N, ()>) -> bool + Send + Sync>,
}

impl<N: Clone> std::fmt::Debug for LclProblem<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LclProblem({}, r={})", self.name, self.radius)
    }
}

impl<N: Clone + 'static> LclProblem<N> {
    /// Defines an LCL problem from its local predicate and ground truth.
    pub fn new<C, T>(name: impl Into<String>, radius: usize, check: C, truth: T) -> Self
    where
        C: Fn(&View<N, ()>) -> bool + Send + Sync + 'static,
        T: Fn(&Instance<N, ()>) -> bool + Send + Sync + 'static,
    {
        LclProblem {
            name: name.into(),
            radius,
            check: Arc::new(check),
            truth: Arc::new(truth),
        }
    }
}

impl<N: Clone + 'static> Scheme for LclProblem<N> {
    type Node = N;
    type Edge = ();

    fn name(&self) -> String {
        format!("lcl:{}", self.name)
    }

    fn radius(&self) -> usize {
        self.radius
    }

    fn holds(&self, inst: &Instance<N, ()>) -> bool {
        (self.truth)(inst)
    }

    fn prove(&self, inst: &Instance<N, ()>) -> Option<Proof> {
        (self.truth)(inst).then(|| Proof::empty(inst.n()))
    }

    fn verify(&self, view: &View<N, ()>) -> bool {
        (self.check)(view)
    }
}

/// Maximal independent set as an LCL: nodes labelled `true` form an
/// independent set, and every unlabelled node has a labelled neighbour.
pub fn mis() -> LclProblem<bool> {
    LclProblem::new(
        "maximal-independent-set",
        1,
        |view| {
            let c = view.center();
            let mine = *view.node_label(c);
            if mine {
                view.neighbors(c).iter().all(|&u| !*view.node_label(u))
            } else {
                view.neighbors(c).iter().any(|&u| *view.node_label(u))
            }
        },
        |inst| {
            let g = inst.graph();
            g.nodes().all(|v| {
                let mine = *inst.node_label(v);
                if mine {
                    g.neighbors(v).iter().all(|&u| !*inst.node_label(u))
                } else {
                    g.neighbors(v).iter().any(|&u| *inst.node_label(u))
                }
            })
        },
    )
}

/// Proper-colouring validity as an LCL: labels are colours `< k` and no
/// edge is monochromatic.
pub fn proper_coloring(k: usize) -> LclProblem<usize> {
    LclProblem::new(
        format!("proper-{k}-coloring"),
        1,
        move |view| {
            let c = view.center();
            let mine = *view.node_label(c);
            mine < k
                && view
                    .neighbors(c)
                    .iter()
                    .all(|&u| *view.node_label(u) != mine)
        },
        move |inst| {
            inst.node_labels().iter().all(|&c| c < k)
                && inst
                    .graph()
                    .edges()
                    .all(|(u, v)| inst.node_label(u) != inst.node_label(v))
        },
    )
}

/// The agreement problem of §3.2 (Korman–Kutten–Peleg's Lemma 2.1
/// example): all nodes carry the same label.
///
/// In the *LCP* model this is solvable with zero proof bits and radius 1
/// — each node compares itself with its neighbours — precisely the point
/// the paper makes when contrasting `LCP(0)` with proof labelling
/// schemes, where the verifier cannot see neighbours' input labels and
/// the problem needs nonzero proofs.
pub fn agreement() -> LclProblem<u64> {
    LclProblem::new(
        "agreement",
        1,
        |view| {
            let c = view.center();
            let mine = *view.node_label(c);
            view.neighbors(c)
                .iter()
                .all(|&u| *view.node_label(u) == mine)
        },
        |inst| {
            // Agreement within every component.
            let g = inst.graph();
            g.edges()
                .all(|(u, v)| inst.node_label(u) == inst.node_label(v))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{check_completeness, check_soundness_exhaustive, Run, Soundness};
    use lcp_graph::generators;

    #[test]
    fn greedy_mis_accepted() {
        let g = generators::grid(3, 4);
        let mut in_set = vec![false; g.n()];
        let mut blocked = vec![false; g.n()];
        for v in g.nodes() {
            if !blocked[v] {
                in_set[v] = true;
                blocked[v] = true;
                for &u in g.neighbors(v) {
                    blocked[u] = true;
                }
            }
        }
        let inst = Instance::with_node_data(g, in_set);
        let sizes =
            check_completeness(&mis(), &lcp_core::engine::prepare_sweep(&mis(), &[inst])).unwrap();
        assert_eq!(sizes, vec![0]);
    }

    #[test]
    fn non_maximal_set_rejected() {
        // Empty set on a path: nothing dominates.
        let inst = Instance::with_node_data(generators::path(4), vec![false; 4]);
        assert!(!mis().holds(&inst));
        match check_soundness_exhaustive(
            &mis(),
            &lcp_core::engine::prepare(&mis(), &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("LCL fooled by proof {p:?} — it must ignore proofs"),
        }
    }

    #[test]
    fn dependent_set_rejected_locally() {
        let inst = Instance::with_node_data(generators::path(3), vec![true, true, false]);
        let verdict = evaluate(&mis(), &inst, &Proof::empty(3));
        assert!(verdict.rejecting().contains(&0));
        assert!(verdict.rejecting().contains(&1));
    }

    #[test]
    fn coloring_lcl() {
        let g = generators::cycle(6);
        let inst = Instance::with_node_data(g, vec![0usize, 1, 0, 1, 0, 1]);
        check_completeness(
            &proper_coloring(2),
            &lcp_core::engine::prepare_sweep(&proper_coloring(2), &[inst]),
        )
        .unwrap();
        let bad = Instance::with_node_data(generators::cycle(5), vec![0, 1, 0, 1, 0]);
        assert!(!proper_coloring(2).holds(&bad));
        let verdict = evaluate(&proper_coloring(2), &bad, &Proof::empty(5));
        assert!(!verdict.accepted());
    }

    #[test]
    fn out_of_palette_color_rejected() {
        let inst = Instance::with_node_data(generators::path(2), vec![0usize, 7]);
        assert!(!proper_coloring(3).holds(&inst));
        let verdict = evaluate(&proper_coloring(3), &inst, &Proof::empty(2));
        assert!(verdict.rejecting().contains(&1));
    }

    #[test]
    fn agreement_is_lcp_zero_here() {
        let inst = Instance::with_node_data(generators::cycle(5), vec![42u64; 5]);
        let sizes = check_completeness(
            &agreement(),
            &lcp_core::engine::prepare_sweep(&agreement(), &[inst]),
        )
        .unwrap();
        assert_eq!(sizes, vec![0]);
        let bad = Instance::with_node_data(generators::cycle(5), vec![1, 1, 2, 1, 1]);
        assert!(!agreement().holds(&bad));
        let verdict = evaluate(&agreement(), &bad, &Proof::empty(5));
        assert!(!verdict.accepted());
    }
}
