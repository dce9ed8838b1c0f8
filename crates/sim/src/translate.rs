//! The §7.1 model translations, as scheme combinators.
//!
//! Model `M1` has unique identifiers; model `M2` has only a port
//! numbering and a designated leader. §7.1 proves that `LogLCP` is the
//! *same* class in both models by translating proof labelling schemes
//! back and forth with `O(log n)` overhead:
//!
//! * `M2 → M1` ([`IdentifiedFromAnonymous`]): append a spanning-tree
//!   certificate that designates a leader; the `M1` verifier checks the
//!   tree with identifiers, then strips them and runs the anonymous
//!   verifier on a [`PortView`].
//! * `M1 → M2` ([`AnonymousFromIdentified`]): *generate identifiers
//!   inside the proof* — DFS discovery/finish intervals over a rooted
//!   spanning tree, locally checkable for global uniqueness
//!   ([`crate::port::verify_dfs_intervals`]'s conditions, re-checked here
//!   on anonymous views) — then simulate the identifier-based verifier on
//!   the synthesized identifiers.

use crate::port::PortView;
use lcp_core::components::TreeCert;
use lcp_core::{
    BitReader, BitString, BitWriter, EdgeMap, Instance, Label, Proof, ProofRef, Scheme, Verdict,
    View,
};
use lcp_graph::NodeId;

/// A proof labelling scheme in model `M2`: anonymous network with a port
/// numbering and one designated leader.
///
/// The verifier receives a [`PortView`] whose node data is
/// `(N, is_leader)` — identifiers are unreachable by construction.
/// The prover may inspect the full instance (provers are omniscient in
/// both models) and must succeed for *any* choice of leader on a
/// yes-instance (the leader is part of the model, not of the property).
pub trait AnonymousScheme {
    /// Per-node input labels.
    type Node: Clone;
    /// Per-edge input labels.
    type Edge: Clone;

    /// Human-readable name.
    fn name(&self) -> String;

    /// Local horizon.
    fn radius(&self) -> usize;

    /// Ground truth (a graph property — leader-independent).
    fn holds(&self, inst: &Instance<Self::Node, Self::Edge>) -> bool;

    /// Prover, given the designated leader.
    fn prove(&self, inst: &Instance<Self::Node, Self::Edge>, leader: usize) -> Option<Proof>;

    /// Anonymous verifier.
    fn verify(&self, view: &PortView<(Self::Node, bool), Self::Edge>) -> bool;
}

/// Evaluates an anonymous scheme at every node of an instance with a
/// designated leader — the `M2` counterpart of `lcp_core::evaluate`.
pub fn evaluate_anonymous<S: AnonymousScheme>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    leader: usize,
    proof: &Proof,
) -> Verdict {
    let flagged = flag_leader(inst, leader);
    let outputs = flagged
        .graph()
        .nodes()
        .map(|v| {
            let view = View::extract(&flagged, proof, v, scheme.radius());
            scheme.verify(&PortView::from_view(&view))
        })
        .collect();
    Verdict::from_outputs(outputs)
}

fn flag_leader<N: Clone, E: Clone>(inst: &Instance<N, E>, leader: usize) -> Instance<(N, bool), E> {
    let labels: Vec<(N, bool)> = inst
        .graph()
        .nodes()
        .map(|v| (inst.node_label(v).clone(), v == leader))
        .collect();
    Instance::with_data(inst.graph().clone(), labels, inst.edge_labels().clone())
}

// ---------------------------------------------------------------------
// Direction M2 → M1
// ---------------------------------------------------------------------

/// One node's `M1` proof, decoded: the tree certificate, then the inner
/// `M2` proof (γ-coded length, then its bits), which runs to the end of
/// the string from bit `inner_start` on.
#[derive(Clone, Copy, Debug)]
struct M1Cert {
    tree: TreeCert,
    inner_start: usize,
}

impl Label for M1Cert {
    fn decode(proof: ProofRef<'_>) -> Option<M1Cert> {
        let mut r = BitReader::new(proof);
        let tree = TreeCert::decode(&mut r).ok()?;
        let len = r.read_gamma().ok()?;
        (r.remaining() as u64 == len).then_some(M1Cert {
            tree,
            inner_start: proof.len() - r.remaining(),
        })
    }
}

/// Wraps an `M2` scheme into an `M1` scheme (§7.1, first direction): the
/// proof gains a spanning-tree certificate whose root plays the leader.
pub struct IdentifiedFromAnonymous<S> {
    inner: S,
}

impl<S: AnonymousScheme> IdentifiedFromAnonymous<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        IdentifiedFromAnonymous { inner }
    }
}

impl<S> Scheme for IdentifiedFromAnonymous<S>
where
    S: AnonymousScheme,
{
    type Node = S::Node;
    type Edge = S::Edge;

    fn name(&self) -> String {
        format!("m1[{}]", self.inner.name())
    }

    fn radius(&self) -> usize {
        self.inner.radius().max(1)
    }

    fn holds(&self, inst: &Instance<S::Node, S::Edge>) -> bool {
        lcp_graph::traversal::is_connected(inst.graph()) && inst.n() > 0 && self.inner.holds(inst)
    }

    fn prove(&self, inst: &Instance<S::Node, S::Edge>) -> Option<Proof> {
        if !lcp_graph::traversal::is_connected(inst.graph()) || inst.n() == 0 {
            return None;
        }
        // Pick the smallest-identifier node as the leader.
        let g = inst.graph();
        let leader = g.nodes().min_by_key(|&v| g.id(v)).expect("nonempty");
        let inner = self.inner.prove(inst, leader)?;
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, leader);
        let certs = TreeCert::prove(g, &tree);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.write_gamma(inner.get(v).len() as u64);
            for b in inner.get(v).iter() {
                w.write_bit(b);
            }
            w.finish()
        }))
    }

    fn verify(&self, view: &View<S::Node, S::Edge>) -> bool {
        if TreeCert::verify_at_center(view, |c: &M1Cert| &c.tree, |_, _, _| true).is_none() {
            return false;
        }
        // Rebuild the anonymous view: leader flag = (dist == 0), proofs =
        // the inner payload, identifiers erased. The restricted view has
        // its own indices, so its labels are read through it.
        let restricted = view.restrict(self.inner.radius().min(view.radius()));
        let n = restricted.n();
        let mut labels: Vec<(S::Node, bool)> = Vec::with_capacity(n);
        let mut proofs: Vec<BitString> = Vec::with_capacity(n);
        for u in restricted.nodes() {
            let Some(cert) = restricted.label::<M1Cert>(u) else {
                return false;
            };
            labels.push((restricted.node_label(u).clone(), cert.tree.dist == 0));
            proofs.push(BitString::from_bits(
                restricted.proof(u).iter().skip(cert.inner_start),
            ));
        }
        let mut edge_data: EdgeMap<S::Edge> = EdgeMap::new();
        for (u, w) in restricted.edges() {
            if let Some(l) = restricted.edge_label(u, w) {
                edge_data.insert((u, w), l.clone());
            }
        }
        let anon_view = View::from_parts(
            restricted.center(),
            restricted.radius(),
            restricted.nodes().map(|u| restricted.id(u)).collect(),
            restricted
                .nodes()
                .map(|u| {
                    let nbrs = restricted.neighbors(u);
                    nbrs.iter().map(|&w| w as usize).collect()
                })
                .collect(),
            restricted.nodes().map(|u| restricted.dist(u)).collect(),
            labels,
            edge_data,
            proofs,
        );
        self.inner.verify(&PortView::from_view(&anon_view))
    }
}

// ---------------------------------------------------------------------
// Direction M1 → M2
// ---------------------------------------------------------------------

/// Wraps an `M1` scheme into an `M2` scheme (§7.1, second direction):
/// the proof carries DFS-interval identifiers, checked for global
/// uniqueness by local conditions, plus the inner `M1` proof computed on
/// the graph *relabelled with those identifiers*.
///
/// Per-node proof layout: `γ(x) γ(y) γ(parent_port) γ(len) inner_bits`,
/// where `parent_port = 0` marks the root.
///
/// The wrapped property must be closed under identifier re-assignment
/// (§2.2 requires that of every graph property anyway) — the inner
/// verifier runs on synthesized identifiers `id(v) = (x(v), y(v))`.
pub struct AnonymousFromIdentified<S> {
    inner: S,
}

impl<S: Scheme> AnonymousFromIdentified<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        AnonymousFromIdentified { inner }
    }
}

/// Packs a DFS interval into a synthesized identifier via the Cantor
/// pairing function: injective, and with `x, y ≤ 2n` the identifier stays
/// `O(n²)` — i.e. `O(log n)` bits, preserving the model's identifier-size
/// assumption and the translation's `O(log n)` overhead.
fn interval_id(x: u64, y: u64) -> NodeId {
    NodeId((x + y) * (x + y + 1) / 2 + y + 1)
}

#[derive(Clone, Debug)]
struct M2Cert {
    x: u64,
    y: u64,
    /// 1-based port of the tree parent; 0 at the root.
    parent_port: u64,
    inner: BitString,
}

fn decode_m2(proof: &BitString) -> Option<M2Cert> {
    let mut r = BitReader::new(proof);
    let x = r.read_gamma().ok()?;
    let y = r.read_gamma().ok()?;
    let parent_port = r.read_gamma().ok()?;
    let len = r.read_gamma().ok()? as usize;
    let mut inner = BitString::new();
    for _ in 0..len {
        inner.push(r.read_bit().ok()?);
    }
    (r.is_exhausted() && x >= 1 && x < y).then_some(M2Cert {
        x,
        y,
        parent_port,
        inner,
    })
}

impl<S> AnonymousScheme for AnonymousFromIdentified<S>
where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    type Node = S::Node;
    type Edge = S::Edge;

    fn name(&self) -> String {
        format!("m2[{}]", self.inner.name())
    }

    fn radius(&self) -> usize {
        // One extra hop: the DFS checks read *port indices* of the
        // centre's children, which are only meaningful when the
        // children's full neighbour lists are inside the view.
        self.inner.radius().max(1) + 1
    }

    fn holds(&self, inst: &Instance<S::Node, S::Edge>) -> bool {
        lcp_graph::traversal::is_connected(inst.graph()) && inst.n() > 0 && self.inner.holds(inst)
    }

    fn prove(&self, inst: &Instance<S::Node, S::Edge>, leader: usize) -> Option<Proof> {
        let g = inst.graph();
        if !lcp_graph::traversal::is_connected(g) || g.n() == 0 {
            return None;
        }
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, leader);
        let labels = crate::port::dfs_interval_labels(g, &tree);
        // Relabel the graph with the synthesized identifiers and run the
        // inner prover there — that is the world the M2 verifier rebuilds.
        let relabeled = g
            .relabel(|id| {
                let v = g.index_of(id).expect("own id");
                interval_id(labels[v].0 as u64, labels[v].1 as u64)
            })
            .expect("DFS intervals are unique");
        let inner_inst = Instance::with_data(
            relabeled,
            inst.node_labels().to_vec(),
            inst.edge_labels().clone(),
        );
        let inner = self.inner.prove(&inner_inst)?;
        // Port of the parent: ports are identifier-ordered in the
        // *original* graph (the canonical M1→M2 port assignment).
        let pn = crate::port::PortNumbering::from_graph(g);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            w.write_gamma(labels[v].0 as u64);
            w.write_gamma(labels[v].1 as u64);
            let pp = tree
                .parent(v)
                .map(|p| pn.port_to(v, p).expect("parent is a neighbour") as u64)
                .unwrap_or(0);
            w.write_gamma(pp);
            w.write_gamma(inner.get(v).len() as u64);
            for b in inner.get(v).iter() {
                w.write_bit(b);
            }
            w.finish()
        }))
    }

    fn verify(&self, pv: &PortView<(S::Node, bool), S::Edge>) -> bool {
        let c = pv.center();
        let Some(mine) = decode_m2(pv.proof(c)) else {
            return false;
        };
        // Decode the certificates of every visible node.
        let mut certs: Vec<Option<M2Cert>> = Vec::with_capacity(pv.n());
        for u in 0..pv.n() {
            certs.push(decode_m2(pv.proof(u)));
        }
        let get = |u: usize| certs[u].as_ref();
        // --- Local DFS-interval conditions (cf. port::verify_dfs_intervals).
        let is_leader = pv.node_label(c).1;
        // Root ⇔ leader ⇔ parent_port = 0 ⇔ x = 1.
        if is_leader != (mine.parent_port == 0) || is_leader != (mine.x == 1) {
            return false;
        }
        // Parent must exist behind the claimed port.
        if mine.parent_port != 0 {
            let p = mine.parent_port as usize;
            if p > pv.neighbors(c).len() {
                return false;
            }
            let parent = pv.neighbors(c)[p - 1];
            let Some(pc) = get(parent) else {
                return false;
            };
            // My interval nests strictly inside my parent's.
            if !(pc.x < mine.x && mine.y < pc.y) {
                return false;
            }
        }
        // Children: neighbours whose parent port points back at me.
        let mut children: Vec<&M2Cert> = Vec::new();
        for (port_idx, &u) in pv.neighbors(c).iter().enumerate() {
            let _ = port_idx;
            let Some(cu) = get(u) else {
                return false;
            };
            if cu.parent_port != 0 {
                let p = cu.parent_port as usize;
                if p <= pv.neighbors(u).len() && pv.neighbors(u)[p - 1] == c {
                    children.push(cu);
                }
            }
        }
        children.sort_by_key(|cert| cert.x);
        if children.is_empty() {
            if mine.y != mine.x + 1 {
                return false;
            }
        } else {
            if children[0].x != mine.x + 1 {
                return false;
            }
            for w in children.windows(2) {
                if w[1].x != w[0].y + 1 {
                    return false;
                }
            }
            if mine.y != children[children.len() - 1].y + 1 {
                return false;
            }
        }
        // --- Simulate the inner M1 verifier on synthesized identifiers.
        let radius = self.inner.radius().min(pv.radius());
        let keep: Vec<usize> = (0..pv.n()).filter(|&u| pv.dist(u) <= radius).collect();
        let mut old_to_new = vec![usize::MAX; pv.n()];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old] = new;
        }
        let mut ids = Vec::with_capacity(keep.len());
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); keep.len()];
        let mut labels: Vec<S::Node> = Vec::with_capacity(keep.len());
        let mut proofs: Vec<BitString> = Vec::with_capacity(keep.len());
        let mut edge_data: EdgeMap<S::Edge> = EdgeMap::new();
        for (new_u, &old_u) in keep.iter().enumerate() {
            let Some(cu) = get(old_u) else {
                return false;
            };
            ids.push(interval_id(cu.x, cu.y));
            labels.push(pv.node_label(old_u).0.clone());
            proofs.push(cu.inner.clone());
            for &old_w in pv.neighbors(old_u) {
                let new_w = old_to_new[old_w];
                if new_w == usize::MAX {
                    continue;
                }
                adj[new_u].push(new_w);
                if new_u < new_w {
                    if let Some(l) = pv.edge_label(old_u, old_w) {
                        edge_data.insert((new_u, new_w), l.clone());
                    }
                }
            }
        }
        // Identifiers must be pairwise distinct within the view (global
        // uniqueness follows from the interval conditions; local
        // duplicates are rejected outright).
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        let dist: Vec<usize> = keep.iter().map(|&u| pv.dist(u)).collect();
        let view = View::from_parts(
            old_to_new[c],
            radius,
            ids,
            adj,
            dist,
            labels,
            edge_data,
            proofs,
        );
        self.inner.verify(&view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_graph::{generators, traversal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An anonymous 1-bit bipartiteness scheme — uses no identifiers.
    struct AnonBipartite;
    impl AnonymousScheme for AnonBipartite {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "anon-bipartite".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn holds(&self, inst: &Instance) -> bool {
            traversal::is_bipartite(inst.graph())
        }
        fn prove(&self, inst: &Instance, _leader: usize) -> Option<Proof> {
            let colors = traversal::bipartition(inst.graph())?;
            Some(Proof::from_fn(inst.n(), |v| {
                BitString::from_bits([colors[v] == 1])
            }))
        }
        fn verify(&self, view: &PortView<((), bool), ()>) -> bool {
            let c = view.center();
            let Some(mine) = view.proof(c).first() else {
                return false;
            };
            view.neighbors(c)
                .iter()
                .all(|&u| view.proof(u).first().is_some_and(|b| b != mine))
        }
    }

    /// A radius-0 anonymous scheme: each node's proof bit repeats its own
    /// input bit, so a verifier handed another node's proof rejects.
    struct OwnBit;
    impl AnonymousScheme for OwnBit {
        type Node = bool;
        type Edge = ();
        fn name(&self) -> String {
            "own-bit".into()
        }
        fn radius(&self) -> usize {
            0
        }
        fn holds(&self, _: &Instance<bool>) -> bool {
            true
        }
        fn prove(&self, inst: &Instance<bool>, _leader: usize) -> Option<Proof> {
            Some(Proof::from_fn(inst.n(), |v| {
                BitString::from_bits([*inst.node_label(v)])
            }))
        }
        fn verify(&self, view: &PortView<(bool, bool), ()>) -> bool {
            let c = view.center();
            view.proof(c).first() == Some(view.node_label(c).0)
        }
    }

    #[test]
    fn a_radius_zero_inner_verifier_reads_its_own_centre() {
        // The M1 view has radius 1 for the tree check; the inner view is
        // the centre alone, and its proof must be the centre's, not that
        // of the ball's first node.
        let inst = Instance::with_node_data(
            generators::path(6),
            vec![true, false, true, true, false, false],
        );
        let scheme = IdentifiedFromAnonymous::new(OwnBit);
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn m2_to_m1_translation_roundtrip() {
        let scheme = IdentifiedFromAnonymous::new(AnonBipartite);
        let yes = Instance::unlabeled(generators::grid(3, 4));
        let proof = scheme.prove(&yes).unwrap();
        assert!(evaluate(&scheme, &yes, &proof).accepted());
        // Tampering with the appended tree certificate is caught.
        let mut forged = proof.clone();
        forged.set(0, proof.get(5));
        assert!(!evaluate(&scheme, &yes, &forged).accepted());
        // No-instances refuse.
        let no = Instance::unlabeled(generators::cycle(5));
        assert!(!scheme.holds(&no));
        assert!(scheme.prove(&no).is_none());
    }

    /// An M1 scheme that genuinely reads identifiers: the §5.1 leaderless
    /// tree certificate (root = smallest-identifier rule is *not* checked
    /// — only consistency), certifying "n is odd" via counting.
    struct OddN;
    impl Scheme for OddN {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "odd-n".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn holds(&self, inst: &Instance) -> bool {
            traversal::is_connected(inst.graph()) && inst.n() % 2 == 1
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            if !self.holds(inst) {
                return None;
            }
            let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
            let certs = lcp_core::components::CountingTreeCert::prove(inst.graph(), &tree);
            Some(Proof::from_fn(inst.n(), |v| {
                let mut w = BitWriter::new();
                certs[v].encode(&mut w);
                w.finish()
            }))
        }
        fn verify(&self, view: &View) -> bool {
            use lcp_core::components::CountingTreeCert;
            CountingTreeCert::verify_at_center(view, |c| c, |_, _, _| true)
                .is_some_and(|mine| mine.n_claim % 2 == 1)
        }
    }

    #[test]
    fn m1_to_m2_translation_certifies_with_synthesized_ids() {
        let scheme = AnonymousFromIdentified::new(OddN);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let g = generators::random_connected(9, 5, &mut rng);
            let inst = Instance::unlabeled(g);
            assert!(scheme.holds(&inst));
            for leader in [0usize, 4, 8] {
                let proof = scheme.prove(&inst, leader).unwrap();
                let verdict = evaluate_anonymous(&scheme, &inst, leader, &proof);
                assert!(
                    verdict.accepted(),
                    "leader {leader} rejected at {:?}",
                    verdict.rejecting()
                );
            }
        }
    }

    #[test]
    fn m1_to_m2_rejects_even_n() {
        let scheme = AnonymousFromIdentified::new(OddN);
        let inst = Instance::unlabeled(generators::cycle(8));
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst, 0).is_none());
    }

    #[test]
    fn m1_to_m2_rejects_forged_intervals() {
        let scheme = AnonymousFromIdentified::new(OddN);
        let inst = Instance::unlabeled(generators::cycle(7));
        let proof = scheme.prove(&inst, 2).unwrap();
        assert!(evaluate_anonymous(&scheme, &inst, 2, &proof).accepted());
        // Swap two nodes' whole certificates: interval chaining breaks.
        let mut forged = proof.clone();
        let p3 = proof.get(3);
        forged.set(3, proof.get(5));
        forged.set(5, p3);
        assert!(!evaluate_anonymous(&scheme, &inst, 2, &forged).accepted());
    }

    #[test]
    fn m1_to_m2_rejects_wrong_leader_binding() {
        // The proof was rooted at node 2; presenting leader 0 must fail
        // (the root's leader flag is checked).
        let scheme = AnonymousFromIdentified::new(OddN);
        let inst = Instance::unlabeled(generators::cycle(7));
        let proof = scheme.prove(&inst, 2).unwrap();
        assert!(!evaluate_anonymous(&scheme, &inst, 0, &proof).accepted());
    }

    #[test]
    fn m1_to_m2_overhead_is_logarithmic() {
        let scheme = AnonymousFromIdentified::new(OddN);
        let mut sizes = Vec::new();
        for n in [9usize, 33, 129] {
            let inst = Instance::unlabeled(generators::cycle(n));
            let proof = scheme.prove(&inst, 0).unwrap();
            sizes.push(proof.size());
        }
        // Roughly +O(log n) per 4× growth; certainly not linear.
        assert!(
            sizes[2] < sizes[0] * 4,
            "overhead must stay logarithmic: {sizes:?}"
        );
    }

    #[test]
    fn translated_scheme_is_really_anonymous() {
        // Re-assigning identifiers must not change the verdict, because
        // the M2 verifier only ever sees ports and proofs.
        let scheme = AnonymousFromIdentified::new(OddN);
        let g = generators::cycle(9);
        let inst = Instance::unlabeled(g.clone());
        let proof = scheme.prove(&inst, 3).unwrap();
        let relabeled = g.relabel(|id| lcp_graph::NodeId(id.0 + 1000)).unwrap();
        let inst2 = Instance::unlabeled(relabeled);
        // Ports are identifier-ordered; a uniform shift preserves order,
        // so the same proof must still be accepted.
        let v1 = evaluate_anonymous(&scheme, &inst, 3, &proof);
        let v2 = evaluate_anonymous(&scheme, &inst2, 3, &proof);
        assert_eq!(v1.accepted(), v2.accepted());
        assert!(v1.accepted());
    }

    #[test]
    fn m2_to_m1_completeness_via_harness() {
        let scheme = IdentifiedFromAnonymous::new(AnonBipartite);
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::cycle(6)),
            Instance::unlabeled(generators::grid(2, 5)),
            Instance::unlabeled(generators::complete_bipartite(3, 4)),
        ];
        lcp_core::harness::check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
    }

    #[test]
    fn synthesized_ids_are_plausible_m1_ids() {
        // The DFS-interval identifiers of a translated proof are unique
        // and polynomially bounded — a legal M1 identifier assignment.
        let g = generators::random_connected(12, 7, &mut StdRng::seed_from_u64(9));
        let tree = lcp_graph::spanning::bfs_spanning_tree(&g, 0);
        let labels = crate::port::dfs_interval_labels(&g, &tree);
        let ids: std::collections::HashSet<NodeId> = labels
            .iter()
            .map(|&(x, y)| interval_id(x as u64, y as u64))
            .collect();
        assert_eq!(ids.len(), g.n());
        let relabeled: Result<Graph, _> = g.relabel(|id| {
            let v = g.index_of(id).unwrap();
            interval_id(labels[v].0 as u64, labels[v].1 as u64)
        });
        assert!(relabeled.is_ok());
    }
}
