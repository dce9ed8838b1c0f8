//! The universal `O(n²)` scheme (§6): "encode the structure of `G` and
//! the unique node identifiers in `O(n²)` bits; the nodes can verify that
//! their neighbours agree on the structure of `G`, and then they can
//! solve the problem by brute force."
//!
//! Section 6 shows this brute-force ceiling is essentially tight for
//! *symmetric graphs* (Ω(n²), §6.1) and *non-3-colourability*
//! (Ω(n²/log n), §6.3) — both instantiated here as [`Universal`]
//! schemes, with the matching attacks in `lcp-lower-bounds`.

use lcp_core::{BitReader, BitString, BitWriter, Instance, Proof, ProofRef, Scheme, View};
use lcp_graph::{coloring, iso, traversal, Graph, NodeId};

/// The universal scheme for an arbitrary computable property of
/// connected graphs.
///
/// Every node's proof is the same string: `n`, the sorted identifier
/// list, and the adjacency upper triangle in identifier order. Each node
/// checks that (a) all neighbours carry the identical string, (b) its own
/// row of the encoded adjacency matches its true neighbourhood, and (c)
/// the decision function accepts the decoded graph. On connected inputs,
/// (a)+(b) force the encoding to *be* the input graph.
pub struct Universal<F> {
    name: String,
    decide: F,
}

impl<F> Universal<F>
where
    F: Fn(&Graph) -> bool,
{
    /// Builds the universal scheme for `decide` (the computable property).
    pub fn new(name: impl Into<String>, decide: F) -> Self {
        Universal {
            name: name.into(),
            decide,
        }
    }

    fn encode(g: &Graph) -> BitString {
        let mut ids: Vec<NodeId> = g.ids().to_vec();
        ids.sort_unstable();
        let pos: std::collections::HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let n = g.n();
        let mut w = BitWriter::new();
        w.write_gamma(n as u64);
        for &id in &ids {
            w.write_gamma(id.0);
        }
        // Upper triangle in sorted-identifier order.
        let mut matrix = vec![false; n * n];
        for (u, v) in g.edges() {
            let (i, j) = (pos[&g.id(u)], pos[&g.id(v)]);
            matrix[i * n + j] = true;
            matrix[j * n + i] = true;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                w.write_bit(matrix[i * n + j]);
            }
        }
        w.finish()
    }

    fn decode(s: ProofRef<'_>) -> Option<Graph> {
        let mut r = BitReader::new(s);
        let n = r.read_gamma().ok()? as usize;
        if n > 100_000 {
            return None; // refuse absurd claims
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(NodeId(r.read_gamma().ok()?));
        }
        // Identifiers must arrive sorted and distinct.
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mut g = Graph::from_ids(ids).ok()?;
        for i in 0..n {
            for j in (i + 1)..n {
                if r.read_bit().ok()? {
                    g.add_edge(i, j).ok()?;
                }
            }
        }
        r.is_exhausted().then_some(g)
    }
}

impl<F> Scheme for Universal<F>
where
    F: Fn(&Graph) -> bool,
{
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        format!("universal:{}", self.name)
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        inst.n() > 0 && traversal::is_connected(inst.graph()) && (self.decide)(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let enc = Self::encode(inst.graph());
        Some(Proof::from_fn(inst.n(), |_| enc.clone()))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let mine = view.proof(c);
        // (a) Neighbour agreement on the exact string.
        if view
            .neighbors(c)
            .iter()
            .any(|&u| view.proof(u as usize) != mine)
        {
            return false;
        }
        let Some(decoded) = Self::decode(mine) else {
            return false;
        };
        // (b) My row matches my true neighbourhood.
        let Some(me) = decoded.index_of(view.id(c)) else {
            return false;
        };
        let mut claimed: Vec<NodeId> = decoded
            .neighbors(me)
            .iter()
            .map(|&u| decoded.id(u))
            .collect();
        claimed.sort_unstable();
        let mut actual: Vec<NodeId> = view
            .neighbors(c)
            .iter()
            .map(|&u| view.id(u as usize))
            .collect();
        actual.sort_unstable();
        if claimed != actual {
            return false;
        }
        // (c) Brute force the property on the decoded graph.
        (self.decide)(&decoded)
    }
}

/// §6.1: the *symmetric graphs* property (has a nontrivial
/// automorphism) through the universal scheme — `Θ(n²)` is optimal.
pub fn symmetric_graph() -> Universal<impl Fn(&Graph) -> bool> {
    Universal::new("symmetric-graph", iso::is_symmetric)
}

/// §6.3: non-3-colourability through the universal scheme; the fooling
/// attack shows `Ω(n²/log n)` is necessary, so brute force is near
/// optimal.
pub fn non_three_colorable() -> Universal<impl Fn(&Graph) -> bool> {
    Universal::new("chromatic>3", |g: &Graph| !coloring::is_k_colorable(g, 3))
}

/// An arbitrary "computable property" exemplar for the Table 1(a) row:
/// `n(G)` is prime (hard for any sub-counting certificate, trivial for
/// the universal one).
pub fn prime_order() -> Universal<impl Fn(&Graph) -> bool> {
    Universal::new("prime-n", |g: &Graph| {
        let n = g.n();
        n >= 2
            && (2..n)
                .take_while(|d| d * d <= n)
                .all(|d| !n.is_multiple_of(d))
    })
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
    fn symmetric_graphs_certified() {
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::cycle(6)),
            Instance::unlabeled(generators::complete(4)),
            Instance::unlabeled(generators::star(3)),
            Instance::unlabeled(generators::complete_bipartite(2, 3)),
        ];
        check_completeness(
            &symmetric_graph(),
            &lcp_core::engine::prepare_sweep(&symmetric_graph(), &instances),
        )
        .unwrap();
    }

    #[test]
    fn asymmetric_graph_rejected() {
        // The 7-node asymmetric spider.
        let mut g = Graph::with_contiguous_ids(7);
        for (u, v) in [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)] {
            g.add_edge(u, v).unwrap();
        }
        let inst = Instance::unlabeled(g);
        let scheme = symmetric_graph();
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
    }

    #[test]
    fn proof_size_quadratic() {
        let scheme = prime_order();
        let instances: Vec<Instance> = [5usize, 11, 23, 47]
            .iter()
            .map(|&n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        let points = measure_sizes(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Quadratic);
    }

    #[test]
    fn non_three_colorable_k5() {
        let scheme = non_three_colorable();
        let yes = Instance::unlabeled(generators::complete(5));
        let proof = scheme.prove(&yes).unwrap();
        assert!(evaluate(&scheme, &yes, &proof).accepted());
        let no = Instance::unlabeled(generators::cycle(5)); // 3-colourable
        assert!(!scheme.holds(&no));
        assert!(scheme.prove(&no).is_none());
    }

    #[test]
    fn wrong_graph_encoding_rejected() {
        // Encode a *different* graph (with the right ids) and check the
        // row check fires.
        let inst = Instance::unlabeled(generators::cycle(4));
        let scheme = prime_order();
        let _ = scheme; // prime(4) is false anyway; use a thinner decide:
        let any = Universal::new("anything", |_: &Graph| true);
        let fake_graph = generators::path(4); // same ids 1..4, other edges
        let enc = Universal::<fn(&Graph) -> bool>::encode(&fake_graph);
        let proof = Proof::from_fn(4, |_| enc.clone());
        let verdict = evaluate(&any, &inst, &proof);
        assert!(!verdict.accepted(), "row consistency must catch the lie");
    }

    #[test]
    fn tiny_no_instances_resist_all_small_proofs() {
        // prime-n on a 4-cycle (4 is composite): nothing of ≤ 2 bits helps
        // (a valid encoding of a 4-node graph needs ≥ 4 + 6 bits anyway).
        let inst = Instance::unlabeled(generators::cycle(4));
        match check_soundness_exhaustive(
            &prime_order(),
            &lcp_core::engine::prepare(&prime_order(), &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("prime-n forged by {p:?}"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for g in [
            generators::cycle(5),
            generators::complete(4),
            generators::grid(2, 3),
            lcp_graph::ops::shift_ids(&generators::path(4), 100),
        ] {
            let enc = Universal::<fn(&Graph) -> bool>::encode(&g);
            let dec = Universal::<fn(&Graph) -> bool>::decode((&enc).into()).unwrap();
            assert_eq!(dec.n(), g.n());
            assert_eq!(dec.m(), g.m());
            for (u, v) in g.edges() {
                let du = dec.index_of(g.id(u)).unwrap();
                let dv = dec.index_of(g.id(v)).unwrap();
                assert!(dec.has_edge(du, dv));
            }
        }
    }
}
