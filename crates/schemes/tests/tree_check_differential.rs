//! Differential test for the single-pass §5.1 tree check.
//!
//! `TreeCert::verify_at_center` and `CountingTreeCert::verify_at_center`
//! read each visible certificate once (`View::label`) and fold the schemes' own
//! per-neighbour rules into that pass. This file keeps a reference copy
//! of the multi-decode rules they replaced — the two tree checks plus
//! `SpanningTree::verify` and `LeaderElection::verify` written as
//! separate passes that re-decode on every query — and asserts that the
//! migrated verifiers give the same output at every node, on honest
//! proofs, 1- and 2-bit flips of them, and certificates drawn from small
//! id/dist ranges (so root agreement sometimes holds by accident).

use lcp_core::components::{CountingTreeCert, TreeCert};
use lcp_core::{BitString, BitWriter, Instance, Label, Proof, Scheme, View};
use lcp_graph::{generators, spanning, Graph};
use lcp_schemes::leader::LeaderElection;
use lcp_schemes::spanning_tree::SpanningTree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Reference: the multi-decode §5.1 check, calling `certs` per query.
fn ref_tree<N, E>(view: &View<N, E>, certs: impl Fn(usize) -> Option<TreeCert>) -> bool {
    let c = view.center();
    let Some(mine) = certs(c) else {
        return false;
    };
    let my_id = view.id(c).0;
    if mine.dist == 0 {
        if my_id != mine.root_id || mine.parent_id != my_id {
            return false;
        }
    } else {
        let parent_ok = view.neighbors(c).iter().any(|&u| {
            view.id(u as usize).0 == mine.parent_id
                && certs(u as usize).is_some_and(|cu| cu.dist + 1 == mine.dist)
        });
        if !parent_ok {
            return false;
        }
        if my_id == mine.root_id {
            return false;
        }
    }
    view.neighbors(c)
        .iter()
        .all(|&u| certs(u as usize).is_some_and(|cu| cu.root_id == mine.root_id))
}

/// Reference: the counting extension, run as a second pass.
fn ref_counting<N, E>(
    view: &View<N, E>,
    certs: impl Fn(usize) -> Option<CountingTreeCert>,
) -> bool {
    if !ref_tree(view, |u| certs(u).map(|c| c.tree)) {
        return false;
    }
    let c = view.center();
    let mine = certs(c).expect("the reference decodes the centre again");
    let my_id = view.id(c).0;
    let mut child_sum = 0u64;
    for &u in view.neighbors(c) {
        let u = u as usize;
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
    !(mine.tree.dist == 0 && mine.subtree != mine.n_claim)
}

/// Reference: `SpanningTree::verify` as the tree check plus a second
/// edge loop that decodes every neighbour again.
fn ref_spanning_tree(view: &View) -> bool {
    let certs = |u: usize| <TreeCert as Label>::decode(view.proof(u));
    if !ref_tree(view, certs) {
        return false;
    }
    let c = view.center();
    let mine = certs(c).expect("the reference decodes the centre again");
    let my_id = view.id(c).0;
    for &u in view.neighbors(c) {
        let u = u as usize;
        let Some(cu) = certs(u) else {
            return false;
        };
        let labelled = view.edge_label(c, u).is_some();
        let u_is_my_parent =
            mine.dist > 0 && view.id(u).0 == mine.parent_id && cu.dist + 1 == mine.dist;
        let i_am_us_parent = cu.dist > 0 && cu.parent_id == my_id && mine.dist + 1 == cu.dist;
        if labelled != (u_is_my_parent || i_am_us_parent) {
            return false;
        }
    }
    true
}

/// Reference: `LeaderElection::verify` re-decoding the centre.
fn ref_leader(view: &View<bool>) -> bool {
    let certs = |u: usize| <TreeCert as Label>::decode(view.proof(u));
    if !ref_tree(view, certs) {
        return false;
    }
    let c = view.center();
    let mine = certs(c).expect("the reference decodes the centre again");
    *view.node_label(c) == (mine.dist == 0)
}

fn encoded<T>(cert: &T, encode: fn(&T, &mut BitWriter)) -> BitString {
    let mut w = BitWriter::new();
    encode(cert, &mut w);
    w.finish()
}

fn proof_of<T>(certs: &[T], encode: fn(&T, &mut BitWriter)) -> Proof {
    Proof::from_fn(certs.len(), |v| encoded(&certs[v], encode))
}

fn random_tree_cert(n: usize, rng: &mut StdRng) -> TreeCert {
    TreeCert {
        root_id: rng.random_range(1..=2),
        parent_id: rng.random_range(1..=n as u64),
        dist: rng.random_range(0..=2),
    }
}

fn random_counting_cert(n: usize, rng: &mut StdRng) -> CountingTreeCert {
    CountingTreeCert {
        tree: random_tree_cert(n, rng),
        subtree: rng.random_range(0..=3),
        n_claim: rng.random_range(1..=3),
    }
}

/// The honest proof, 1- and 2-bit flips of it, honest proofs with a few
/// nodes replaced by random certificates, and all-random proofs.
fn variants(
    honest: &Proof,
    rng: &mut StdRng,
    random: impl Fn(&mut StdRng) -> BitString,
) -> Vec<Proof> {
    let n = honest.n();
    let mut out = vec![honest.clone()];
    for flips in [1, 1, 1, 2, 2, 2] {
        let mut p = honest.clone();
        for _ in 0..flips {
            let v = rng.random_range(0..n);
            let mut s = p.get(v).to_bitstring();
            s.flip(rng.random_range(0..s.len()));
            p.set(v, s);
        }
        out.push(p);
    }
    for replaced in [1, 2, 3] {
        let mut p = honest.clone();
        for _ in 0..replaced {
            let v = rng.random_range(0..n);
            p.set(v, random(rng));
        }
        out.push(p);
    }
    for _ in 0..3 {
        out.push(Proof::from_strings((0..n).map(|_| random(rng)).collect()));
    }
    out
}

fn graphs(rng: &mut StdRng) -> Vec<Graph> {
    let mut gs = vec![
        generators::path(7),
        generators::cycle(9),
        generators::star(5),
        generators::grid(5, 5),
    ];
    for _ in 0..4 {
        gs.push(generators::random_connected(10, 6, rng));
    }
    gs
}

/// Tallies the node outputs compared, so the test can insist that both
/// verdicts were exercised — acceptance on tampered proofs included.
#[derive(Default)]
struct Tally {
    tampered_accepted: usize,
    rejected: usize,
}

impl Tally {
    fn same<N, E>(
        &mut self,
        inst: &Instance<N, E>,
        proof: &Proof,
        tampered: bool,
        what: &str,
        migrated: impl Fn(&View<N, E>) -> bool,
        reference: impl Fn(&View<N, E>) -> bool,
    ) where
        N: Clone,
        E: Clone,
    {
        for v in inst.graph().nodes() {
            let view = View::extract(inst, proof, v, 1);
            let got = migrated(&view);
            assert_eq!(
                got,
                reference(&view),
                "{what} differs at node {v} on {proof:?}"
            );
            self.tampered_accepted += usize::from(got && tampered);
            self.rejected += usize::from(!got);
        }
    }

    fn exercised(&self, what: &str) {
        assert!(
            self.tampered_accepted > 0 && self.rejected > 0,
            "{what}: {} accepted on tampered proofs, {} rejected",
            self.tampered_accepted,
            self.rejected
        );
    }
}

#[test]
fn single_pass_tree_checks_match_the_multi_decode_rules() {
    let mut rng = StdRng::seed_from_u64(19);
    let (mut plain, mut counting) = (Tally::default(), Tally::default());
    for g in graphs(&mut rng) {
        let n = g.n();
        let root = rng.random_range(0..n);
        let tree = spanning::bfs_spanning_tree(&g, root);
        let inst = Instance::unlabeled(g);

        let honest = proof_of(&TreeCert::prove(inst.graph(), &tree), TreeCert::encode);
        let random = |rng: &mut StdRng| encoded(&random_tree_cert(n, rng), TreeCert::encode);
        for (i, proof) in variants(&honest, &mut rng, random).iter().enumerate() {
            plain.same(
                &inst,
                proof,
                i > 0,
                "TreeCert::verify_at_center",
                |view| {
                    let mine = TreeCert::verify_at_center(view, |c| c, |_, _, _| true);
                    // The returned certificate is the centre's own.
                    assert!(mine.is_none() || mine == view.label(view.center()));
                    mine.is_some()
                },
                |view| ref_tree(view, |u| <TreeCert as Label>::decode(view.proof(u))),
            );
        }

        let honest = proof_of(
            &CountingTreeCert::prove(inst.graph(), &tree),
            CountingTreeCert::encode,
        );
        let random =
            |rng: &mut StdRng| encoded(&random_counting_cert(n, rng), CountingTreeCert::encode);
        for (i, proof) in variants(&honest, &mut rng, random).iter().enumerate() {
            counting.same(
                &inst,
                proof,
                i > 0,
                "CountingTreeCert::verify_at_center",
                |view| {
                    let mine = CountingTreeCert::verify_at_center(view, |c| c, |_, _, _| true);
                    assert!(mine.is_none() || mine == view.label(view.center()));
                    mine.is_some()
                },
                |view| ref_counting(view, |u| <CountingTreeCert as Label>::decode(view.proof(u))),
            );
        }
    }
    plain.exercised("TreeCert");
    counting.exercised("CountingTreeCert");
}

#[test]
fn spanning_tree_and_leader_verifiers_match_the_multi_decode_rules() {
    let mut rng = StdRng::seed_from_u64(20);
    let (mut span, mut leader) = (Tally::default(), Tally::default());
    for g in graphs(&mut rng) {
        let n = g.n();
        let tree = spanning::bfs_spanning_tree(&g, rng.random_range(0..n));
        let random = |rng: &mut StdRng| encoded(&random_tree_cert(n, rng), TreeCert::encode);

        // Spanning tree: the labelled edges are a BFS tree, that tree
        // with one edge dropped, or with one extra graph edge.
        let mut edges: Vec<(usize, usize)> = g
            .nodes()
            .filter_map(|v| tree.parent(v).map(|p| (v, p)))
            .collect();
        let all_edges = g.edges().collect::<Vec<_>>();
        for labelled in [edges.clone(), edges[1..].to_vec(), {
            edges.push(all_edges[rng.random_range(0..all_edges.len())]);
            edges.clone()
        }] {
            let inst = Instance::unlabeled(g.clone()).with_edge_set(labelled);
            let honest = SpanningTree
                .prove(&inst)
                .unwrap_or_else(|| proof_of(&TreeCert::prove(&g, &tree), TreeCert::encode));
            for (i, proof) in variants(&honest, &mut rng, random).iter().enumerate() {
                span.same(
                    &inst,
                    proof,
                    i > 0,
                    "SpanningTree::verify",
                    |view| SpanningTree.verify(view),
                    ref_spanning_tree,
                );
            }
        }

        // Leader election: one leader, or two.
        let first = rng.random_range(0..n);
        let second = (first + 1 + rng.random_range(0..n - 1)) % n;
        for leaders in [vec![first], vec![first, second]] {
            let labels = (0..n).map(|v| leaders.contains(&v)).collect();
            let inst = Instance::with_node_data(g.clone(), labels);
            let honest = LeaderElection.prove(&inst).unwrap_or_else(|| {
                let tree = spanning::bfs_spanning_tree(&g, first);
                proof_of(&TreeCert::prove(&g, &tree), TreeCert::encode)
            });
            for (i, proof) in variants(&honest, &mut rng, random).iter().enumerate() {
                leader.same(
                    &inst,
                    proof,
                    i > 0,
                    "LeaderElection::verify",
                    |view| LeaderElection.verify(view),
                    ref_leader,
                );
            }
        }
    }
    span.exercised("SpanningTree");
    leader.exercised("LeaderElection");
}
