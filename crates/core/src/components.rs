//! Reusable certificate components.
//!
//! §5.1: "a locally checkable, rooted spanning tree is a versatile tool".
//! [`TreeCert`] is that tool — root identity + parent pointer + distance,
//! optionally extended with subtree counters so every node can be
//! convinced of `n(G)` (the paper's node-counter trick). Schemes embed it
//! at the front of their per-node proof strings and verify it through
//! [`TreeCert::verify_at_center`].

use crate::bits::{BitReader, BitWriter, CodecError};
use crate::view::View;
use lcp_graph::spanning::RootedTree;
use lcp_graph::Graph;

/// One node's share of a rooted-spanning-tree certificate (§5.1).
///
/// The plain certificate (`root_id`, `parent_id`, `dist`) proves that the
/// graph is connected and that exactly one node — the root — is special:
/// every node's parent pointer decreases `dist` by one, so all paths lead
/// to the unique node with `dist = 0`, which must carry `root_id`.
///
/// With [`CountingTreeCert`] the certificate additionally carries subtree
/// sizes and a global node-count claim, letting the *root* verify
/// `n(G) = n_claim` while every node checks one local counting equation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeCert {
    /// Identifier of the root, agreed by all nodes.
    pub root_id: u64,
    /// Identifier of the tree parent; the root points at itself.
    pub parent_id: u64,
    /// Distance to the root along the tree.
    pub dist: u64,
}

impl TreeCert {
    /// Builds the per-node certificates for a rooted spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree does not cover all of `g`.
    pub fn prove(g: &Graph, tree: &RootedTree) -> Vec<TreeCert> {
        assert_eq!(tree.size(), g.n(), "tree must span the graph");
        let root_id = g.id(tree.root()).0;
        g.nodes()
            .map(|v| TreeCert {
                root_id,
                parent_id: tree.parent(v).map_or(root_id, |p| g.id(p).0),
                dist: tree.depth(v).expect("tree spans g") as u64,
            })
            .collect()
    }

    /// Appends this certificate to a proof string (γ-coded fields).
    pub fn encode(&self, w: &mut BitWriter) {
        w.write_gamma(self.root_id);
        w.write_gamma(self.parent_id);
        w.write_gamma(self.dist);
    }

    /// Reads a certificate from a proof string.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; verifiers treat them as rejection.
    pub fn decode(r: &mut BitReader<'_>) -> Result<TreeCert, CodecError> {
        Ok(TreeCert {
            root_id: r.read_gamma()?,
            parent_id: r.read_gamma()?,
            dist: r.read_gamma()?,
        })
    }

    /// The §5.1 local check at the view's centre. `certs(u)` must decode
    /// node `u`'s certificate (returning `None` rejects — malformed proofs
    /// are invalid proofs).
    ///
    /// Requires view radius ≥ 1. Accepting at *every* node implies that
    /// **each connected component** carries a consistent rooted spanning
    /// tree: within a component all nodes agree on `root_id`, the unique
    /// `dist = 0` node carries that identifier, and every other node has a
    /// tree edge to a parent at `dist − 1`. Under the connectedness family
    /// promise (the `F` of the paper's `conn.` rows) the tree therefore
    /// spans the whole graph — but note that *without* that promise a
    /// disconnected graph can certify one tree per component, which is
    /// exactly why "connected graph" on the general family is unclassified
    /// ("—") in Table 1(a).
    pub fn verify_at_center<N, E, F>(view: &View<N, E>, certs: F) -> bool
    where
        F: Fn(usize) -> Option<TreeCert>,
    {
        let c = view.center();
        let Some(mine) = certs(c) else {
            return false;
        };
        let my_id = view.id(c).0;
        // Root self-consistency.
        if mine.dist == 0 {
            if my_id != mine.root_id || mine.parent_id != my_id {
                return false;
            }
        } else {
            // Parent must be a *neighbour* with dist − 1 and the claimed id.
            let parent_ok = view.neighbors(c).iter().any(|&u| {
                view.id(u).0 == mine.parent_id
                    && certs(u).is_some_and(|cu| cu.dist + 1 == mine.dist)
            });
            if !parent_ok {
                return false;
            }
            if my_id == mine.root_id {
                return false; // non-root node impersonating the root id
            }
        }
        // Neighbour agreement on the root identity.
        view.neighbors(c)
            .iter()
            .all(|&u| certs(u).is_some_and(|cu| cu.root_id == mine.root_id))
    }
}

/// A [`TreeCert`] extended with the §5.1 node counters: `subtree` is the
/// number of nodes in the sender's subtree, and `n_claim` is the global
/// node count every node asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountingTreeCert {
    /// The underlying spanning-tree certificate.
    pub tree: TreeCert,
    /// Nodes in this node's subtree (inclusive).
    pub subtree: u64,
    /// Claimed `n(G)`, agreed by all nodes and checked by the root.
    pub n_claim: u64,
}

impl CountingTreeCert {
    /// Builds counting certificates for a rooted spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree does not cover all of `g`.
    pub fn prove(g: &Graph, tree: &RootedTree) -> Vec<CountingTreeCert> {
        let base = TreeCert::prove(g, tree);
        let sizes = tree.subtree_sizes();
        let n = g.n() as u64;
        base.into_iter()
            .enumerate()
            .map(|(v, t)| CountingTreeCert {
                tree: t,
                subtree: sizes[v] as u64,
                n_claim: n,
            })
            .collect()
    }

    /// Appends this certificate to a proof string.
    pub fn encode(&self, w: &mut BitWriter) {
        self.tree.encode(w);
        w.write_gamma(self.subtree);
        w.write_gamma(self.n_claim);
    }

    /// Reads a certificate from a proof string.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; verifiers treat them as rejection.
    pub fn decode(r: &mut BitReader<'_>) -> Result<CountingTreeCert, CodecError> {
        Ok(CountingTreeCert {
            tree: TreeCert::decode(r)?,
            subtree: r.read_gamma()?,
            n_claim: r.read_gamma()?,
        })
    }

    /// The counting extension of the §5.1 check. On top of
    /// [`TreeCert::verify_at_center`], the centre checks its counting
    /// equation (`subtree = 1 + Σ children`), neighbour agreement on
    /// `n_claim`, and — at the root — `subtree = n_claim`.
    ///
    /// All nodes accepting implies every node's `n_claim` equals the size
    /// of its *component* (the counters telescope up the certified tree);
    /// under the connectedness promise that is the true `n(G)` — the
    /// paper's "every node can be convinced of the value of n(G)".
    pub fn verify_at_center<N, E, F>(view: &View<N, E>, certs: F) -> bool
    where
        F: Fn(usize) -> Option<CountingTreeCert>,
    {
        if !TreeCert::verify_at_center(view, |u| certs(u).map(|c| c.tree)) {
            return false;
        }
        let c = view.center();
        let mine = certs(c).expect("checked by tree verification");
        let my_id = view.id(c).0;
        // Children: neighbours whose parent pointer names me, one level down.
        let mut child_sum = 0u64;
        for &u in view.neighbors(c) {
            let Some(cu) = certs(u) else {
                return false;
            };
            if cu.n_claim != mine.n_claim {
                return false;
            }
            if cu.tree.parent_id == my_id && cu.tree.dist == mine.tree.dist + 1 {
                child_sum += cu.subtree;
            }
        }
        if mine.subtree != 1 + child_sum {
            return false;
        }
        if mine.tree.dist == 0 && mine.subtree != mine.n_claim {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::proof::Proof;
    use crate::scheme::{evaluate, Scheme};
    use lcp_graph::spanning::bfs_spanning_tree;
    use lcp_graph::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimal scheme wrapping the plain tree certificate (≈ the §5
    /// leader-election certificate without the leader labels).
    struct TreeCertScheme;
    impl Scheme for TreeCertScheme {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "tree-cert".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn holds(&self, inst: &Instance) -> bool {
            inst.n() > 0 && lcp_graph::traversal::is_connected(inst.graph())
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            self.holds(inst).then(|| {
                let tree = bfs_spanning_tree(inst.graph(), 0);
                let certs = TreeCert::prove(inst.graph(), &tree);
                Proof::from_fn(inst.n(), |v| {
                    let mut w = BitWriter::new();
                    certs[v].encode(&mut w);
                    w.finish()
                })
            })
        }
        fn verify(&self, view: &View) -> bool {
            TreeCert::verify_at_center(view, |u| {
                TreeCert::decode(&mut BitReader::new(view.proof(u))).ok()
            })
        }
    }

    /// Counting variant.
    struct CountScheme;
    impl Scheme for CountScheme {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "counting-tree-cert".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn holds(&self, inst: &Instance) -> bool {
            inst.n() > 0 && lcp_graph::traversal::is_connected(inst.graph())
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            self.holds(inst).then(|| {
                let tree = bfs_spanning_tree(inst.graph(), inst.n() / 2);
                let certs = CountingTreeCert::prove(inst.graph(), &tree);
                Proof::from_fn(inst.n(), |v| {
                    let mut w = BitWriter::new();
                    certs[v].encode(&mut w);
                    w.finish()
                })
            })
        }
        fn verify(&self, view: &View) -> bool {
            CountingTreeCert::verify_at_center(view, |u| {
                CountingTreeCert::decode(&mut BitReader::new(view.proof(u))).ok()
            })
        }
    }

    #[test]
    fn honest_tree_certificates_are_accepted() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let g = generators::random_connected(15, 10, &mut rng);
            let inst = Instance::unlabeled(g);
            let proof = TreeCertScheme.prove(&inst).unwrap();
            assert!(evaluate(&TreeCertScheme, &inst, &proof).accepted());
        }
    }

    #[test]
    fn corrupted_certificate_rejected() {
        let conn = Instance::unlabeled(generators::cycle(6));
        let mut proof = TreeCertScheme.prove(&conn).unwrap();
        let mut w = BitWriter::new();
        TreeCert {
            root_id: 99,
            parent_id: 99,
            dist: 0,
        }
        .encode(&mut w);
        proof.set(2, w.finish());
        assert!(!evaluate(&TreeCertScheme, &conn, &proof).accepted());
    }

    #[test]
    fn per_component_trees_fool_the_certificate_without_the_promise() {
        // The caveat documented on `verify_at_center`: a disconnected
        // graph certifies one tree per component, so the bare certificate
        // does NOT prove global connectivity — Table 1(a) leaves
        // "connected graph / general" unclassified for exactly this reason.
        let g = lcp_graph::ops::disjoint_union(
            &generators::cycle(3),
            &lcp_graph::ops::shift_ids(&generators::cycle(3), 8),
        )
        .unwrap();
        let inst = Instance::unlabeled(g.clone());
        // Build per-component certificates by hand.
        let t1 = bfs_spanning_tree(&g, 0); // covers component A only
        let t2 = bfs_spanning_tree(&g, 3); // covers component B only
        let proof = Proof::from_fn(6, |v| {
            let t = if v < 3 { &t1 } else { &t2 };
            let cert = TreeCert {
                root_id: g.id(t.root()).0,
                parent_id: t.parent(v).map_or(g.id(t.root()).0, |p| g.id(p).0),
                dist: t.depth(v).unwrap() as u64,
            };
            let mut w = BitWriter::new();
            cert.encode(&mut w);
            w.finish()
        });
        let verdict = evaluate(&TreeCertScheme, &inst, &proof);
        assert!(
            verdict.accepted(),
            "per-component trees must pass the local checks"
        );
    }

    #[test]
    fn second_root_is_detected() {
        let g = generators::path(5);
        let inst = Instance::unlabeled(g);
        let proof = TreeCertScheme.prove(&inst).unwrap();
        // Forge node 4 claiming to be a root of its own.
        let mut forged = proof.clone();
        let mut w = BitWriter::new();
        TreeCert {
            root_id: 5,
            parent_id: 5,
            dist: 0,
        }
        .encode(&mut w);
        forged.set(4, w.finish());
        assert!(!evaluate(&TreeCertScheme, &inst, &forged).accepted());
    }

    #[test]
    fn counting_certificates_count() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let g = generators::random_connected(12, 4, &mut rng);
            let inst = Instance::unlabeled(g);
            let proof = CountScheme.prove(&inst).unwrap();
            assert!(evaluate(&CountScheme, &inst, &proof).accepted());
        }
    }

    #[test]
    fn inflated_count_rejected() {
        let g = generators::cycle(5);
        let inst = Instance::unlabeled(g);
        let tree = bfs_spanning_tree(inst.graph(), 0);
        let mut certs = CountingTreeCert::prove(inst.graph(), &tree);
        for c in &mut certs {
            c.n_claim += 1; // everyone lies consistently about n
        }
        let proof = Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
        // The root's subtree count cannot match the inflated claim.
        assert!(!evaluate(&CountScheme, &inst, &proof).accepted());
    }

    #[test]
    fn truncated_certificates_rejected() {
        let g = generators::cycle(4);
        let inst = Instance::unlabeled(g);
        let mut proof = TreeCertScheme.prove(&inst).unwrap();
        proof.set(1, crate::bits::BitString::from_bits([true]));
        assert!(!evaluate(&TreeCertScheme, &inst, &proof).accepted());
    }

    #[test]
    fn exhaustive_soundness_on_tiny_disconnected_instance() {
        // K2 + K1: no proof of ≤ 2 bits/node convinces the tree scheme.
        let mut g = Graph::from_ids([NodeId(1), NodeId(2), NodeId(7)]).unwrap();
        g.add_edge(0, 1).unwrap();
        let inst = Instance::unlabeled(g);
        let prep = crate::engine::prepare(&TreeCertScheme, &inst);
        match crate::harness::check_soundness_exhaustive(
            &TreeCertScheme,
            &prep,
            2,
            &crate::harness::Run::default(),
        )
        .unwrap()
        {
            crate::harness::Soundness::Holds(tried) => assert_eq!(tried, 7u64.pow(3)),
            crate::harness::Soundness::Violated(p) => panic!("fooled by {p:?}"),
        }
    }

    use lcp_graph::Graph;

    /// Ablation (DESIGN.md §7): counting *requires* the parent pointers.
    /// A parentless variant that sums every deeper neighbour's counter
    /// double-counts diamonds, so its honest proofs are rejected — the
    /// parent binding is load-bearing, not decorative.
    #[test]
    fn ablation_counting_needs_parent_pointers() {
        // Diamond: root 0; 1, 2 at depth 1; 3 at depth 2 adjacent to both.
        let mut g = Graph::with_contiguous_ids(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v).unwrap();
        }
        let inst = Instance::unlabeled(g);
        let tree = bfs_spanning_tree(inst.graph(), 0);
        let certs = CountingTreeCert::prove(inst.graph(), &tree);
        let proof = Proof::from_fn(4, |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
        // The real rule (children = deeper neighbours whose parent
        // pointer names me) accepts the honest proof...
        assert!(evaluate(&CountScheme, &inst, &proof).accepted());
        // ...while the parentless rule (children = all deeper neighbours)
        // rejects it: node 3's counter reaches the root through both arms.
        let parentless_ok = inst.graph().nodes().all(|v| {
            let view = crate::view::View::extract(&inst, &proof, v, 1);
            let certs =
                |u: usize| CountingTreeCert::decode(&mut BitReader::new(view.proof(u))).ok();
            let c = view.center();
            let Some(mine) = certs(c) else { return false };
            let mut child_sum = 0;
            for &u in view.neighbors(c) {
                let cu = certs(u).expect("honest proof decodes");
                if cu.tree.dist == mine.tree.dist + 1 {
                    child_sum += cu.subtree; // no parent check: the bug
                }
            }
            mine.subtree == 1 + child_sum && (mine.tree.dist != 0 || mine.subtree == mine.n_claim)
        });
        assert!(
            !parentless_ok,
            "the parentless counting rule must fail on diamonds"
        );
    }

    /// Ablation (DESIGN.md §7): detection power of exhaustive vs
    /// randomized soundness search on the same broken scheme.
    #[test]
    fn ablation_exhaustive_vs_randomized_soundness() {
        use crate::harness::{
            adversarial_proof_search, check_soundness_exhaustive, Run, Soundness,
        };
        /// Accepts iff every node holds the bit pattern `10`.
        struct Pattern;
        impl Scheme for Pattern {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "pattern".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, _: &Instance) -> bool {
                false
            }
            fn prove(&self, _: &Instance) -> Option<Proof> {
                None
            }
            fn verify(&self, view: &crate::view::View) -> bool {
                let p = view.proof(view.center());
                p.len() == 2 && p.get(0) == Some(true) && p.get(1) == Some(false)
            }
        }
        let inst = Instance::unlabeled(generators::cycle(5));
        let prep = crate::engine::prepare(&Pattern, &inst);
        // Exhaustive search finds the violation with certainty.
        let Ok(Soundness::Violated(_)) =
            check_soundness_exhaustive(&Pattern, &prep, 2, &Run::default())
        else {
            panic!("exhaustive search must find the magic pattern");
        };
        // Randomized hill-climbing also finds it (the score gradient
        // leads straight there), with a fraction of the evaluations.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(
            adversarial_proof_search(&Pattern, &prep, 2, 2000, &mut rng, &Run::default()).is_some()
        );
    }

    #[test]
    fn certificate_encoding_roundtrips() {
        let c = CountingTreeCert {
            tree: TreeCert {
                root_id: 123,
                parent_id: 45,
                dist: 6,
            },
            subtree: 7,
            n_claim: 89,
        };
        let mut w = BitWriter::new();
        c.encode(&mut w);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(CountingTreeCert::decode(&mut r).unwrap(), c);
        assert!(r.is_exhausted());
    }
}
