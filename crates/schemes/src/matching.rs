//! Matching verification (§2.3): maximal (`LCP(0)`), maximum on
//! bipartite graphs (König, `Θ(1)`), and maximum-weight on bipartite
//! graphs (LP duality, `O(log W)`).

use lcp_core::{BitReader, BitString, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::matching as gm;
use lcp_graph::traversal;

/// Maximal matching: `LCP(0)` (Table 1(b)). No proof; a radius-2
/// verifier checks validity (my labelled degree ≤ 1) and maximality (if
/// I am unmatched, every neighbour is matched — their matched edges are
/// visible at radius 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaximalMatching;

impl Scheme for MaximalMatching {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "maximal-matching".into()
    }

    fn radius(&self) -> usize {
        2
    }

    fn holds(&self, inst: &Instance) -> bool {
        gm::is_maximal_matching(inst.graph(), &inst.labelled_edges())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        self.holds(inst).then(|| Proof::empty(inst.n()))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let labelled_degree = |u: usize| {
            view.neighbors(u)
                .iter()
                .filter(|&&w| view.edge_label(u, w).is_some())
                .count()
        };
        match labelled_degree(c) {
            0 => view.neighbors(c).iter().all(|&u| labelled_degree(u) >= 1),
            1 => true,
            _ => false,
        }
    }
}

/// Maximum-cardinality matching on **bipartite** graphs: `Θ(1)` via
/// König's theorem (§2.3).
///
/// Proof: one bit per node — membership in a minimum vertex cover `C`.
/// The verifier checks: the labelled edges form a matching; `C` covers
/// every edge; every matched edge has exactly one endpoint in `C`; every
/// `C`-node is matched. Together these force `|C| = |M|`, and weak
/// duality makes both optimal.
///
/// Family promise: bipartite graphs (König's theorem needs it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaximumMatchingBipartite;

impl Scheme for MaximumMatchingBipartite {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "maximum-matching-bipartite".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        let g = inst.graph();
        let Some(side) = traversal::bipartition(g) else {
            return false;
        };
        let m = inst.labelled_edges();
        gm::is_matching(g, &m) && m.len() == gm::maximum_bipartite_matching(g, &side).size()
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        let side = traversal::bipartition(g).expect("bipartite by holds()");
        let maximum = gm::maximum_bipartite_matching(g, &side);
        let cover = gm::koenig_vertex_cover(g, &side, &maximum);
        Some(Proof::from_fn(g.n(), |v| BitString::from_bits([cover[v]])))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let Some(in_cover) = view.proof(c).first() else {
            return false;
        };
        let matched_nbrs: Vec<usize> = view
            .neighbors(c)
            .iter()
            .copied()
            .filter(|&u| view.edge_label(c, u).is_some())
            .collect();
        // Validity: at most one matched edge at me.
        if matched_nbrs.len() > 1 {
            return false;
        }
        // C-nodes must be matched.
        if in_cover && matched_nbrs.is_empty() {
            return false;
        }
        for &u in view.neighbors(c) {
            let Some(u_cover) = view.proof(u).first() else {
                return false;
            };
            // Cover condition on every incident edge.
            if !in_cover && !u_cover {
                return false;
            }
            // Matched edges: exactly one endpoint in C.
            if view.edge_label(c, u).is_some() && in_cover == u_cover {
                return false;
            }
        }
        true
    }
}

/// Per-edge data for the weighted problem: integer weight plus matched
/// flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WeightedEdge {
    /// Nonnegative integer edge weight (`0..=W`).
    pub weight: u64,
    /// Whether the edge is in the claimed matching.
    pub matched: bool,
}

// Artifact codec (tag space 100+, see `docs/FORMAT.md`): two words per
// edge — weight, then matched as 0/1. Any other second word is rejected
// so a corrupted artifact can never decode to a valid-looking label.
impl lcp_core::frozen::PortableLabel for WeightedEdge {
    const TAG: u64 = 102;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.weight);
        out.push(u64::from(self.matched));
    }

    fn decode(r: &mut lcp_core::frozen::WordReader<'_>) -> Option<Self> {
        let weight = r.next()?;
        let matched = match r.next()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(WeightedEdge { weight, matched })
    }
}

/// Maximum-**weight** matching on bipartite graphs: `O(log W)` bits via
/// LP duality (§2.3).
///
/// Proof: the integral optimal dual `y_v ∈ {0..W}`, γ-coded. The verifier
/// checks per node: matching validity; dual feasibility `y_u + y_v ≥ w`
/// on every incident edge; complementary slackness (`y_u + y_v = w` on
/// matched edges, `y_v > 0` only on matched nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxWeightMatchingBipartite;

impl Scheme for MaxWeightMatchingBipartite {
    type Node = ();
    type Edge = WeightedEdge;

    fn name(&self) -> String {
        "max-weight-matching-bipartite".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<(), WeightedEdge>) -> bool {
        let g = inst.graph();
        let Some(side) = traversal::bipartition(g) else {
            return false;
        };
        let matched: Vec<(usize, usize)> = inst
            .edge_labels()
            .iter()
            .filter(|(_, e)| e.matched)
            .map(|(&k, _)| k)
            .collect();
        if !gm::is_matching(g, &matched) {
            return false;
        }
        let weights: gm::EdgeWeightMap = inst
            .edge_labels()
            .iter()
            .map(|(&k, e)| (k, e.weight))
            .collect();
        let claimed: u64 = matched
            .iter()
            .map(|&(u, v)| inst.edge_label(u, v).map_or(0, |e| e.weight))
            .sum();
        let best = gm::max_weight_bipartite_matching(g, &side, &weights).weight;
        claimed == best
    }

    fn prove(&self, inst: &Instance<(), WeightedEdge>) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        let side = traversal::bipartition(g).expect("bipartite by holds()");
        let weights: gm::EdgeWeightMap = inst
            .edge_labels()
            .iter()
            .map(|(&k, e)| (k, e.weight))
            .collect();
        let sol = gm::max_weight_bipartite_matching(g, &side, &weights);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            w.write_gamma(sol.duals[v]);
            w.finish()
        }))
    }

    fn verify(&self, view: &View<(), WeightedEdge>) -> bool {
        let dual = |u: usize| -> Option<u64> {
            let mut r = BitReader::new(view.proof(u));
            let y = r.read_gamma().ok()?;
            r.is_exhausted().then_some(y)
        };
        let c = view.center();
        let Some(my_y) = dual(c) else {
            return false;
        };
        let mut matched_count = 0;
        for &u in view.neighbors(c) {
            let Some(edge) = view.edge_label(c, u) else {
                return false; // weighted instances label every edge
            };
            let Some(u_y) = dual(u) else {
                return false;
            };
            // Honest duals are at most W, so a sum past u64 is forged;
            // a wrapped sum could pass both checks below.
            let Some(sum) = my_y.checked_add(u_y) else {
                return false;
            };
            // Dual feasibility.
            if sum < edge.weight {
                return false;
            }
            if edge.matched {
                matched_count += 1;
                // Tightness on matched edges.
                if sum != edge.weight {
                    return false;
                }
            }
        }
        if matched_count > 1 {
            return false; // matching validity
        }
        // Slackness: positive dual only on matched nodes.
        !(my_y > 0 && matched_count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, Run, Soundness,
    };
    use lcp_core::EdgeMap;
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn greedy_maximal_matchings_accepted() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut instances = Vec::new();
        for _ in 0..8 {
            let g = generators::gnp(10, 0.35, &mut rng);
            let m = gm::greedy_maximal_matching(&g);
            instances.push(Instance::unlabeled(g).with_edge_set(m));
        }
        let sizes = check_completeness(
            &MaximalMatching,
            &lcp_core::engine::prepare_sweep(&MaximalMatching, &instances),
        )
        .unwrap();
        assert!(sizes.iter().all(|&s| s == 0), "LCP(0)");
    }

    #[test]
    fn non_maximal_matching_rejected_without_proof_help() {
        // P4 with nothing labelled: the empty matching is not maximal.
        let inst = Instance::unlabeled(generators::path(4));
        assert!(!MaximalMatching.holds(&inst));
        match check_soundness_exhaustive(
            &MaximalMatching,
            &lcp_core::engine::prepare(&MaximalMatching, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("empty matching certified maximal by {p:?}"),
        }
    }

    #[test]
    fn overlapping_edges_rejected() {
        let g = generators::path(3);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (1, 2)]);
        assert!(!MaximalMatching.holds(&inst));
        let verdict = evaluate(&MaximalMatching, &inst, &Proof::empty(3));
        assert!(verdict.rejecting().contains(&1));
    }

    fn kuhn_instance(g: lcp_graph::Graph) -> Instance {
        let side = traversal::bipartition(&g).unwrap();
        let m = gm::maximum_bipartite_matching(&g, &side);
        Instance::unlabeled(g).with_edge_set(m.edges())
    }

    #[test]
    fn koenig_certificates_accepted() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut instances = Vec::new();
        for _ in 0..10 {
            instances.push(kuhn_instance(generators::random_bipartite(
                6, 6, 0.4, &mut rng,
            )));
        }
        let sizes = check_completeness(
            &MaximumMatchingBipartite,
            &lcp_core::engine::prepare_sweep(&MaximumMatchingBipartite, &instances),
        )
        .unwrap();
        assert!(sizes.iter().all(|&s| s == 1), "Θ(1): one bit");
    }

    #[test]
    fn submaximum_matching_rejected_exhaustively() {
        // K2,2 with a single matched edge (max is 2).
        let g = generators::complete_bipartite(2, 2);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 2)]);
        assert!(!MaximumMatchingBipartite.holds(&inst));
        match check_soundness_exhaustive(
            &MaximumMatchingBipartite,
            &lcp_core::engine::prepare(&MaximumMatchingBipartite, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("submaximum matching certified by {p:?}"),
        }
    }

    #[test]
    fn empty_matching_on_star_rejected() {
        let inst = Instance::unlabeled(generators::star(4));
        assert!(!MaximumMatchingBipartite.holds(&inst));
        let mut rng = StdRng::seed_from_u64(33);
        assert!(adversarial_proof_search(
            &MaximumMatchingBipartite,
            &lcp_core::engine::prepare(&MaximumMatchingBipartite, &inst),
            1,
            400,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    fn weighted_instance(seed: u64) -> Instance<(), WeightedEdge> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_bipartite(5, 5, 0.5, &mut rng);
        let side = traversal::bipartition(&g).unwrap();
        let weights: gm::EdgeWeightMap = g
            .edges()
            .map(|(u, v)| ((u, v), rng.random_range(0..10u64)))
            .collect();
        let sol = gm::max_weight_bipartite_matching(&g, &side, &weights);
        let matched: std::collections::BTreeSet<(usize, usize)> = sol.edges().into_iter().collect();
        let mut data = EdgeMap::new();
        for (k, w) in weights {
            data.insert(
                k,
                WeightedEdge {
                    weight: w,
                    matched: matched.contains(&k),
                },
            );
        }
        Instance::with_data(g, vec![(); 10], data)
    }

    #[test]
    fn lp_dual_certificates_accepted() {
        let instances: Vec<Instance<(), WeightedEdge>> = (0..10).map(weighted_instance).collect();
        let sizes = check_completeness(
            &MaxWeightMatchingBipartite,
            &lcp_core::engine::prepare_sweep(&MaxWeightMatchingBipartite, &instances),
        )
        .unwrap();
        // γ-coded duals ≤ W = 9: at most 2·⌊log₂ 10⌋ + 1 = 7 bits.
        assert!(sizes.iter().all(|&s| s <= 7), "O(log W) bits: {sizes:?}");
    }

    #[test]
    fn suboptimal_weighted_matching_rejected() {
        // Path a-b-c with weights 2 and 5; matching {a-b} is suboptimal.
        let g = generators::path(3);
        let mut data = EdgeMap::new();
        data.insert(
            (0, 1),
            WeightedEdge {
                weight: 2,
                matched: true,
            },
        );
        data.insert(
            (1, 2),
            WeightedEdge {
                weight: 5,
                matched: false,
            },
        );
        let inst = Instance::with_data(g, vec![(); 3], data);
        assert!(!MaxWeightMatchingBipartite.holds(&inst));
        match check_soundness_exhaustive(
            &MaxWeightMatchingBipartite,
            &lcp_core::engine::prepare(&MaxWeightMatchingBipartite, &inst),
            3,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("suboptimal matching certified by {p:?}"),
        }
    }

    #[test]
    fn overflowing_forged_duals_reject_without_panicking() {
        // Path a-b-c with w(ab) = 1, w(bc) = 10 and the claimed matching
        // {ab}, which is not maximum. The duals (2⁶⁴ − 9, 10, 0) wrap
        // y_a + y_b to 1, so wrapping arithmetic would find ab tight and
        // accept at every node.
        let g = generators::path(3);
        let mut data = EdgeMap::new();
        data.insert(
            (0, 1),
            WeightedEdge {
                weight: 1,
                matched: true,
            },
        );
        data.insert(
            (1, 2),
            WeightedEdge {
                weight: 10,
                matched: false,
            },
        );
        let inst = Instance::with_data(g, vec![(); 3], data);
        assert!(!MaxWeightMatchingBipartite.holds(&inst));
        let duals = [u64::MAX - 8, 10, 0];
        let proof = Proof::from_fn(3, |v| {
            let mut w = BitWriter::new();
            w.write_gamma(duals[v]);
            w.finish()
        });
        let verdict = evaluate(&MaxWeightMatchingBipartite, &inst, &proof);
        assert_eq!(verdict.rejecting(), vec![0, 1]);
    }

    #[test]
    fn equal_weight_alternative_matchings_both_certifiable() {
        // Strong scheme sanity: the dual certifies *any* optimal matching.
        let g = generators::cycle(4); // bipartite 4-cycle
        for matched_pair in [[(0usize, 1usize), (2, 3)], [(1, 2), (0, 3)]] {
            let mut data = EdgeMap::new();
            for (u, v) in g.edges() {
                data.insert(
                    (u, v),
                    WeightedEdge {
                        weight: 1,
                        matched: matched_pair.contains(&(u, v)),
                    },
                );
            }
            let inst = Instance::with_data(g.clone(), vec![(); 4], data);
            assert!(MaxWeightMatchingBipartite.holds(&inst));
            let proof = MaxWeightMatchingBipartite.prove(&inst).unwrap();
            assert!(
                evaluate(&MaxWeightMatchingBipartite, &inst, &proof).accepted(),
                "matching {matched_pair:?} should be certifiable"
            );
        }
    }
}
