//! Reusable certificate components.
//!
//! §5.1: "a locally checkable, rooted spanning tree is a versatile tool".
//! [`TreeCert`] is that tool — root identity + parent pointer + distance,
//! optionally extended with subtree counters so every node can be
//! convinced of `n(G)` (the paper's node-counter trick). Schemes embed it
//! in their per-node proof strings and verify it through
//! [`TreeCert::verify_at_center`] / [`CountingTreeCert::verify_at_center`]:
//! one pass that reads the centre's and each neighbour's decoded proof
//! (a [`Label`]) once, runs the scheme's own per-neighbour clause on the
//! decoded pair, and hands the centre's decoded proof back for the
//! scheme's remaining centre checks. The labels come from
//! [`View::label`], so on a view bound to a whole proof each node's proof
//! is decoded once for as long as its bits stand (the proof keeps the
//! decoded label), not once per view that sees it.

use crate::bits::{BitReader, BitWriter, CodecError, ProofRef};
use crate::view::{Label, View};
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

    /// The §5.1 local check at the view's centre, in one pass that reads
    /// each visible proof once as a `C` ([`View::label`]; `None` rejects
    /// — malformed proofs are invalid proofs): the centre's, then each
    /// neighbour's. `tree` finds the certificate inside a decoded proof.
    /// `clause(mine, u, theirs)`, the scheme's own check on the edge to
    /// neighbour `u`, runs on each decoded pair in the same pass (`false`
    /// rejects); it may run before the centre's own checks pass, so it
    /// must not rely on them. On acceptance the centre's decoded proof
    /// is returned, so no caller decodes it again. Every clause is a
    /// conjunct: the verdict is that of running the checks separately.
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
    pub fn verify_at_center<N, E, C: Label>(
        view: &View<N, E>,
        tree: impl Fn(&C) -> &TreeCert,
        mut clause: impl FnMut(&C, usize, &C) -> bool,
    ) -> Option<C> {
        let c = view.center();
        let my_id = view.id(c).0;
        let mine = view.label::<C>(c)?;
        let t = tree(&mine);
        // Root self-consistency: `dist = 0` exactly at the node carrying
        // `root_id`, which points at itself — so no non-root impersonates it.
        if (t.dist == 0) != (my_id == t.root_id) || (t.dist == 0 && t.parent_id != my_id) {
            return None;
        }
        // A non-root's parent must be a *neighbour* with dist − 1 and the
        // claimed id; every neighbour must agree on the root identity.
        let mut parent_ok = t.dist == 0;
        for &u in view.neighbors(c) {
            let u = u as usize;
            let theirs = view.label::<C>(u)?;
            let tu = tree(&theirs);
            if tu.root_id != t.root_id || !clause(&mine, u, &theirs) {
                return None;
            }
            parent_ok |= view.id(u).0 == t.parent_id && tu.dist + 1 == t.dist;
        }
        parent_ok.then_some(mine)
    }
}

impl Label for TreeCert {
    /// Decodes a proof string that holds exactly one certificate.
    fn decode(proof: ProofRef<'_>) -> Option<TreeCert> {
        let mut r = BitReader::new(proof);
        let c = TreeCert::decode(&mut r).ok()?;
        r.is_exhausted().then_some(c)
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

    /// The counting extension of the §5.1 check, in the same single pass
    /// and under the same contract as [`TreeCert::verify_at_center`]
    /// (`count` finds the counting certificate in a decoded proof). On
    /// top of the tree clauses, each neighbour must agree on `n_claim`,
    /// the children's `subtree` counters are summed as they are decoded,
    /// and the centre then checks its counting equation
    /// (`subtree = 1 + Σ children`) and — at the root — `subtree =
    /// n_claim`. Counter sums are checked: a forged counter that
    /// overflows `u64` rejects like any other malformed proof.
    ///
    /// All nodes accepting implies every node's `n_claim` equals the size
    /// of its *component* (the counters telescope up the certified tree);
    /// under the connectedness promise that is the true `n(G)` — the
    /// paper's "every node can be convinced of the value of n(G)".
    pub fn verify_at_center<N, E, C: Label>(
        view: &View<N, E>,
        count: impl Fn(&C) -> &CountingTreeCert,
        mut clause: impl FnMut(&C, usize, &C) -> bool,
    ) -> Option<C> {
        let my_id = view.id(view.center()).0;
        // Children: neighbours whose parent pointer names me, one level down.
        let mut child_sum = Some(0u64);
        let mine = TreeCert::verify_at_center(
            view,
            |c| &count(c).tree,
            |mine, u, theirs| {
                let (m, cu) = (count(mine), count(theirs));
                if cu.tree.parent_id == my_id && cu.tree.dist == m.tree.dist + 1 {
                    child_sum = child_sum.and_then(|s| s.checked_add(cu.subtree));
                }
                cu.n_claim == m.n_claim && clause(mine, u, theirs)
            },
        )?;
        let m = count(&mine);
        let counted = child_sum.and_then(|s| s.checked_add(1)) == Some(m.subtree);
        (counted && (m.tree.dist != 0 || m.subtree == m.n_claim)).then_some(mine)
    }
}

impl Label for CountingTreeCert {
    /// Decodes a proof string that holds exactly one certificate.
    fn decode(proof: ProofRef<'_>) -> Option<CountingTreeCert> {
        let mut r = BitReader::new(proof);
        let c = CountingTreeCert::decode(&mut r).ok()?;
        r.is_exhausted().then_some(c)
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
            TreeCert::verify_at_center(view, |c| c, |_, _, _| true).is_some()
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
            CountingTreeCert::verify_at_center(view, |c| c, |_, _, _| true).is_some()
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
    fn overflowing_child_counters_reject_without_panicking() {
        // A star rooted at its centre: both leaves claim a subtree of
        // 2⁶³ under the honest tree and `n_claim`, so the centre's
        // child sum overflows u64 — a forged proof, not a panic.
        let g = generators::star(2);
        let inst = Instance::unlabeled(g);
        let tree = bfs_spanning_tree(inst.graph(), 0);
        let mut certs = CountingTreeCert::prove(inst.graph(), &tree);
        for c in &mut certs[1..] {
            c.subtree = 1 << 63;
        }
        let proof = Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
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
                let u = u as usize;
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
