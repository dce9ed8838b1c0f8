//! Schemes on the **cycle family** (promise: the input graph is a single
//! cycle): parity of `n(G)` and maximum matchings.
//!
//! These rows are the paper's running examples for the `LCP(O(1))` vs
//! `LogLCP` separation: *even* `n` needs one bit (a 2-colouring), *odd*
//! `n` needs `Θ(log n)` (a counting spanning tree), and the gluing attack
//! of §5.3 shows both lower bounds — see `lcp-lower-bounds`.

use lcp_core::components::CountingTreeCert;
use lcp_core::{BitReader, BitString, BitWriter, Instance, Label, Proof, ProofRef, Scheme, View};
use lcp_graph::traversal;

/// Whether the graph is a single cycle.
fn is_cycle(g: &lcp_graph::Graph) -> bool {
    g.n() >= 3 && g.nodes().all(|u| g.degree(u) == 2) && traversal::is_connected(g)
}

/// "Even `n(G)` on cycles": 1 bit per node, a proper 2-colouring.
///
/// A cycle is 2-colourable iff its length is even, so the colouring *is*
/// the parity certificate (Table 1(a), `LCP(O(1))`). Every verifier also
/// checks the family promise it can see locally (degree 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvenCycle;

impl Scheme for EvenCycle {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "even-cycle".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        is_cycle(inst.graph()) && inst.n() % 2 == 0
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !is_cycle(inst.graph()) {
            return None;
        }
        let colors = traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([colors[v] == 1])
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        if view.degree(c) != 2 {
            return false; // family promise violated visibly
        }
        let Some(mine) = view.proof(c).first() else {
            return false;
        };
        view.neighbors(c)
            .iter()
            .all(|&u| view.proof(u).first().is_some_and(|b| b != mine))
    }
}

/// "Odd `n(G)` on cycles": `Θ(log n)` bits — a counting spanning-tree
/// certificate whose agreed node count must be odd.
///
/// The §5.3 gluing attack shows `o(log n)` bits cannot do this; the bench
/// harness runs that attack against truncated variants of this very
/// scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OddCycle;

impl Scheme for OddCycle {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "odd-cycle".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        is_cycle(inst.graph()) && inst.n() % 2 == 1
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        self.holds(inst).then(|| {
            let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
            let certs = CountingTreeCert::prove(inst.graph(), &tree);
            Proof::from_fn(inst.n(), |v| {
                let mut w = BitWriter::new();
                certs[v].encode(&mut w);
                w.finish()
            })
        })
    }

    fn verify(&self, view: &View) -> bool {
        if view.degree(view.center()) != 2 {
            return false;
        }
        CountingTreeCert::verify_at_center(view, |c| c, |_, _, _| true)
            .is_some_and(|mine| mine.n_claim % 2 == 1)
    }
}

/// Maximum matching on cycles (Table 1(b), `Θ(log n)`): the labelled
/// edges must form a matching of size `⌊n/2⌋`.
///
/// Certificate: a counting tree extended with a second counter — the
/// number of *unmatched* nodes in each subtree. The root checks that the
/// total equals `n mod 2` (0 unmatched nodes on even cycles, exactly 1 on
/// odd ones), which characterizes maximum matchings on cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxMatchingCycle;

#[derive(Clone, Copy, Debug)]
struct MmCert {
    count: CountingTreeCert,
    unmatched_subtree: u64,
}

impl Label for MmCert {
    fn decode(proof: ProofRef<'_>) -> Option<MmCert> {
        let mut r = BitReader::new(proof);
        let count = CountingTreeCert::decode(&mut r).ok()?;
        let unmatched_subtree = r.read_gamma().ok()?;
        r.is_exhausted().then_some(MmCert {
            count,
            unmatched_subtree,
        })
    }
}

impl Scheme for MaxMatchingCycle {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "max-matching-cycle".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        let g = inst.graph();
        if !is_cycle(g) {
            return false;
        }
        let m = inst.labelled_edges();
        lcp_graph::matching::is_matching(g, &m) && m.len() == g.n() / 2
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        let covered: Vec<bool> = g
            .nodes()
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .any(|&u| inst.edge_label(v, u).is_some())
            })
            .collect();
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, 0);
        let counts = CountingTreeCert::prove(g, &tree);
        // Unmatched-node counters: aggregate up the tree.
        let sizes = tree.subtree_sizes();
        let _ = sizes;
        let mut unmatched = vec![0u64; g.n()];
        let mut order: Vec<usize> = g.nodes().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(tree.depth(v)));
        for v in order {
            unmatched[v] += u64::from(!covered[v]);
            if let Some(p) = tree.parent(v) {
                unmatched[p] += unmatched[v];
            }
        }
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            counts[v].encode(&mut w);
            w.write_gamma(unmatched[v]);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        if view.degree(c) != 2 {
            return false;
        }
        // Matching validity at the centre: at most one incident labelled
        // edge.
        let incident = view
            .neighbors(c)
            .iter()
            .filter(|&&u| view.edge_label(c, u).is_some())
            .count();
        if incident > 1 {
            return false;
        }
        // Counting equation for the unmatched counter, summed (checked:
        // counters are prover-supplied) in the counting check's pass.
        let my_id = view.id(c).0;
        let mut child_sum = Some(0u64);
        let children = |mine: &MmCert, _, cu: &MmCert| {
            if cu.count.tree.parent_id == my_id && cu.count.tree.dist == mine.count.tree.dist + 1 {
                child_sum = child_sum.and_then(|s| s.checked_add(cu.unmatched_subtree));
            }
            true
        };
        let Some(mine) = CountingTreeCert::verify_at_center(view, |m: &MmCert| &m.count, children)
        else {
            return false;
        };
        let unmatched = child_sum.and_then(|s| s.checked_add(u64::from(incident == 0)));
        // Root decides optimality: unmatched total must be n mod 2.
        unmatched == Some(mine.unmatched_subtree)
            && (mine.count.tree.dist != 0 || mine.unmatched_subtree == mine.count.n_claim % 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        check_completeness, check_soundness_exhaustive, classify_growth, measure_sizes,
        GrowthClass, Run, Soundness,
    };
    use lcp_graph::generators;

    #[test]
    fn parity_schemes_complete() {
        let evens: Vec<Instance> = (2..8)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k)))
            .collect();
        let sizes = check_completeness(
            &EvenCycle,
            &lcp_core::engine::prepare_sweep(&EvenCycle, &evens),
        )
        .unwrap();
        assert!(sizes.iter().all(|&s| s == 1));

        let odds: Vec<Instance> = (1..7)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k + 3)))
            .collect();
        check_completeness(
            &OddCycle,
            &lcp_core::engine::prepare_sweep(&OddCycle, &odds),
        )
        .unwrap();
    }

    #[test]
    fn parity_size_separation() {
        // Even: constant; odd: logarithmic — the Table 1(a) separation.
        let evens: Vec<Instance> = [8usize, 32, 128, 512]
            .iter()
            .map(|&n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        assert_eq!(
            classify_growth(&measure_sizes(
                &EvenCycle,
                &lcp_core::engine::prepare_sweep(&EvenCycle, &evens)
            )),
            GrowthClass::Constant
        );
        let odds: Vec<Instance> = [9usize, 17, 33, 65, 129, 257, 513]
            .iter()
            .map(|&n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        assert_eq!(
            classify_growth(&measure_sizes(
                &OddCycle,
                &lcp_core::engine::prepare_sweep(&OddCycle, &odds)
            )),
            GrowthClass::Logarithmic
        );
    }

    #[test]
    fn odd_cycle_rejects_even_cycles_exhaustively() {
        let inst = Instance::unlabeled(generators::cycle(4));
        let c5 = Instance::unlabeled(generators::cycle(5));
        match check_soundness_exhaustive(
            &EvenCycle,
            &lcp_core::engine::prepare(&EvenCycle, &c5),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("C5 certified even by {p:?}"),
        }
        // OddCycle on C4: certificates don't fit in 2 bits, so this mainly
        // smoke-tests the harness; the real lower bound is the §5.3 attack.
        match check_soundness_exhaustive(
            &OddCycle,
            &lcp_core::engine::prepare(&OddCycle, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("C4 certified odd by {p:?}"),
        }
    }

    fn alternating_matching(n: usize) -> Vec<(usize, usize)> {
        (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn maximum_matchings_on_cycles_certified() {
        for n in [6usize, 7, 10, 11] {
            let g = generators::cycle(n);
            let inst = Instance::unlabeled(g).with_edge_set(alternating_matching(n));
            assert!(MaxMatchingCycle.holds(&inst), "n = {n}");
            let proof = MaxMatchingCycle.prove(&inst).unwrap();
            assert!(
                evaluate(&MaxMatchingCycle, &inst, &proof).accepted(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn submaximal_matching_rejected() {
        // C6 with only two matched edges (max is 3).
        let g = generators::cycle(6);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (3, 4)]);
        assert!(!MaxMatchingCycle.holds(&inst));
        assert!(MaxMatchingCycle.prove(&inst).is_none());
        match check_soundness_exhaustive(
            &MaxMatchingCycle,
            &lcp_core::engine::prepare(&MaxMatchingCycle, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("submaximal matching certified by {p:?}"),
        }
    }

    #[test]
    fn overflowing_unmatched_counters_reject_without_panicking() {
        // Both children of the root claim 2⁶³ unmatched nodes under the
        // honest counting tree: the root's sum overflows u64.
        let inst = Instance::unlabeled(generators::cycle(6)).with_edge_set(alternating_matching(6));
        let mut proof = MaxMatchingCycle.prove(&inst).unwrap();
        for child in [1, 5] {
            let cert = MmCert::decode(proof.get(child)).unwrap();
            let mut w = BitWriter::new();
            cert.count.encode(&mut w);
            w.write_gamma(1 << 63);
            proof.set(child, w.finish());
        }
        assert!(!evaluate(&MaxMatchingCycle, &inst, &proof).accepted());
    }

    #[test]
    fn invalid_matching_rejected_locally() {
        // Two adjacent matched edges share node 1.
        let g = generators::cycle(5);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (1, 2)]);
        assert!(!MaxMatchingCycle.holds(&inst));
        let fake = Proof::empty(5);
        let verdict = evaluate(&MaxMatchingCycle, &inst, &fake);
        assert!(verdict.rejecting().contains(&1));
    }

    #[test]
    fn non_cycles_are_outside_the_family() {
        let inst = Instance::unlabeled(generators::path(5));
        assert!(!EvenCycle.holds(&inst));
        assert!(EvenCycle.prove(&inst).is_none());
        assert!(!OddCycle.holds(&inst));
        // The degree check also fires at verification time.
        let verdict = evaluate(&EvenCycle, &inst, &Proof::empty(5));
        assert!(!verdict.accepted());
    }
}
