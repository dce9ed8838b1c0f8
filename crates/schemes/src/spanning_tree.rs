//! Spanning-tree verification and acyclicity (§5.1).

use lcp_core::components::TreeCert;
use lcp_core::{BitReader, BitWriter, Instance, Label, Proof, ProofRef, Scheme, View};
use lcp_graph::spanning;
use lcp_graph::traversal;

/// Spanning-tree verification (Table 1(b), `Θ(log n)`): edges labelled
/// `1` must form a spanning tree of the connected input graph.
///
/// Certificate: a [`TreeCert`] rooted anywhere in the *given* tree, with
/// parent pointers following labelled edges. The verifier additionally
/// pins the labelled edge set to the parent-pointer set: each labelled
/// incident edge must be the tree edge to my parent or to one of my
/// children. (Strong scheme: works for any spanning tree the adversary
/// supplies.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanningTree;

impl Scheme for SpanningTree {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "spanning-tree".into()
    }

    fn radius(&self) -> usize {
        1
    }

    /// A spanning tree already connects the graph: `n − 1` graph edges,
    /// acyclic, every node in one class. So no separate connectivity
    /// pass runs.
    fn holds(&self, inst: &Instance) -> bool {
        inst.n() > 0
            && spanning::is_spanning_tree(inst.graph(), &inst.labelled_edges()).unwrap_or(false)
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        // Root the *given* tree at the node with the smallest identifier.
        let root = g
            .nodes()
            .min_by_key(|&v| g.id(v))
            .expect("nonempty by holds()");
        let tree = spanning::root_edge_subset(g, &inst.labelled_edges(), root)?;
        let certs = TreeCert::prove(g, &tree);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let my_id = view.id(c).0;
        // Labelled edges are exactly the parent/child tree edges.
        let tree_edges = |mine: &TreeCert, u: usize, cu: &TreeCert| {
            let labelled = view.edge_label(c, u).is_some();
            let u_is_my_parent =
                mine.dist > 0 && view.id(u).0 == mine.parent_id && cu.dist + 1 == mine.dist;
            let i_am_us_parent = cu.dist > 0 && cu.parent_id == my_id && mine.dist + 1 == cu.dist;
            labelled == (u_is_my_parent || i_am_us_parent)
        };
        TreeCert::verify_at_center(view, |c| c, tree_edges).is_some()
    }
}

/// Acyclicity ("the graph is a forest"): every component certifies a
/// rooted tree over **all** of its edges (§5.1: spanning trees prove a
/// graph is acyclic by showing each component is a tree).
///
/// Per node: `(root_id, dist)`. Local checks: neighbours agree on
/// `root_id`; every incident edge changes `dist` by exactly ±1; exactly
/// one neighbour is one step closer to the root (the parent) unless
/// `dist = 0`; `dist = 0` iff the node carries `root_id`. Any cycle
/// would force an equal-`dist` edge or a second parent somewhere.
///
/// Works on the *general* family (no connectivity promise needed): the
/// certificate is per-component by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acyclic;

#[derive(Clone, Copy, Debug)]
struct AcyclicCert {
    root_id: u64,
    dist: u64,
}

impl Label for AcyclicCert {
    fn decode(proof: ProofRef<'_>) -> Option<AcyclicCert> {
        let mut r = BitReader::new(proof);
        let root_id = r.read_gamma().ok()?;
        let dist = r.read_gamma().ok()?;
        r.is_exhausted().then_some(AcyclicCert { root_id, dist })
    }
}

impl Scheme for Acyclic {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "acyclic".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::tree::is_forest(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        let comp = traversal::connected_components(g);
        // Root each component at its lowest-index node.
        let mut root_of_comp: Vec<Option<usize>> = vec![None; g.n()];
        for v in g.nodes() {
            if root_of_comp[comp[v]].is_none() {
                root_of_comp[comp[v]] = Some(v);
            }
        }
        let mut cert: Vec<AcyclicCert> = vec![
            AcyclicCert {
                root_id: 0,
                dist: 0
            };
            g.n()
        ];
        for v in g.nodes() {
            let root = root_of_comp[comp[v]].expect("every component has a root");
            let dist = traversal::bfs_distances(g, root)[v].expect("same component");
            cert[v] = AcyclicCert {
                root_id: g.id(root).0,
                dist: dist as u64,
            };
        }
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            w.write_gamma(cert[v].root_id);
            w.write_gamma(cert[v].dist);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let Some(mine) = view.label::<AcyclicCert>(c) else {
            return false;
        };
        let my_id = view.id(c).0;
        if (mine.dist == 0) != (my_id == mine.root_id) {
            return false;
        }
        let mut parents = 0;
        for &u in view.neighbors(c) {
            let Some(cu) = view.label::<AcyclicCert>(u) else {
                return false;
            };
            if cu.root_id != mine.root_id {
                return false;
            }
            if cu.dist + 1 == mine.dist {
                parents += 1;
            } else if cu.dist != mine.dist + 1 {
                return false; // equal or far-apart dist across an edge
            }
        }
        (mine.dist == 0 && parents == 0) || (mine.dist > 0 && parents == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, classify_growth,
        measure_sizes, GrowthClass, Run, Soundness,
    };
    use lcp_graph::{generators, ops};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    fn spanning_tree_instance(g: lcp_graph::Graph, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = lcp_graph::spanning::random_spanning_tree(&g, 0, &mut rng);
        let edges = tree.edges();
        Instance::unlabeled(g).with_edge_set(edges.iter().map(|&(c, p)| (c, p)))
    }

    /// `holds` as it read with its own connectivity pass.
    fn holds_with_connectivity_pass(inst: &Instance) -> bool {
        traversal::is_connected(inst.graph())
            && inst.n() > 0
            && spanning::is_spanning_tree(inst.graph(), &inst.labelled_edges()).unwrap_or(false)
    }

    /// The spanning-tree test as it was before union by size: naive
    /// linking, then a final pass that finds every node's root.
    fn union_find_with_root_pass(n: usize, edges: &[(usize, usize)]) -> bool {
        if n == 0 || edges.len() != n - 1 {
            return n == 0 && edges.is_empty();
        }
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        for &(u, v) in edges {
            let (ru, rv) = (find(&mut uf, u), find(&mut uf, v));
            if ru == rv {
                return false;
            }
            uf[ru] = rv;
        }
        let r0 = find(&mut uf, 0);
        (1..n).all(|u| find(&mut uf, u) == r0)
    }

    #[test]
    fn holds_needs_no_separate_connectivity_pass() {
        let mut rng = StdRng::seed_from_u64(29);
        let connected = [
            generators::path(6),
            generators::cycle(7),
            generators::grid(3, 4),
            generators::random_connected(12, 6, &mut rng),
        ];
        // Two halves side by side, the second's identifiers shifted out of
        // the way: the registry's canonical disconnected instance.
        let halves = |a: &lcp_graph::Graph, b: &lcp_graph::Graph| {
            ops::disjoint_union(a, &ops::shift_ids(b, 1_000_000)).unwrap()
        };
        let disconnected = [
            halves(&generators::cycle(4), &generators::cycle(4)),
            halves(&generators::path(3), &generators::grid(2, 3)),
            halves(&generators::cycle(5), &generators::path(1)),
        ];
        let (mut trees, mut others) = (0, 0);
        for g in connected.iter().chain(&disconnected) {
            let all: Vec<(usize, usize)> = g.edges().collect();
            let bfs = spanning::bfs_spanning_tree(g, 0).edges();
            // One BFS tree per component, rooted at its first node.
            let comp = traversal::connected_components(g);
            let forest: Vec<(usize, usize)> = g
                .nodes()
                .filter(|&v| g.nodes().position(|u| comp[u] == comp[v]) == Some(v))
                .flat_map(|root| spanning::bfs_spanning_tree(g, root).edges())
                .collect();
            let random = spanning::random_spanning_tree(g, 0, &mut rng).edges();
            let in_bfs = |&(u, v): &(usize, usize)| {
                bfs.iter()
                    .any(|&(c, p)| lcp_graph::norm_edge(c, p) == lcp_graph::norm_edge(u, v))
            };
            let mut plus_chord = bfs.clone();
            plus_chord.extend(all.iter().find(|e| !in_bfs(e)));
            let mut minus_one = bfs.clone();
            minus_one.pop();
            // The first `n − 1` edges: a tree on some graphs; on others,
            // and on both halves of a split graph, a cycle that leaves
            // some node out.
            let mut first_edges: Vec<(usize, usize)> = all.clone();
            first_edges.truncate(g.n() - 1);
            for edges in [
                all,
                bfs,
                forest,
                random,
                plus_chord,
                minus_one,
                first_edges,
                vec![],
            ] {
                let inst = Instance::unlabeled(g.clone()).with_edge_set(edges.clone());
                let want = holds_with_connectivity_pass(&inst);
                assert_eq!(SpanningTree.holds(&inst), want, "{g:?} with {edges:?}");
                if want {
                    trees += 1;
                } else {
                    others += 1;
                }
            }
        }
        assert!(trees >= 8 && others >= 30, "{trees} trees, {others} others");

        // Random edge sets, mostly of the n − 1 edges a tree needs, so
        // the cycle and the component outcomes both occur often.
        let (mut trees, mut others) = (0, 0);
        for g in connected.iter().chain(&disconnected) {
            let all: Vec<(usize, usize)> = g.edges().collect();
            for _ in 0..200 {
                let mut edges = all.clone();
                edges.shuffle(&mut rng);
                let len = match rng.random_range(0..4usize) {
                    0 => rng.random_range(0..=all.len()),
                    _ => (g.n() - 1).min(all.len()),
                };
                edges.truncate(len);
                let want = union_find_with_root_pass(g.n(), &edges);
                assert_eq!(
                    spanning::is_spanning_tree(g, &edges).unwrap(),
                    want,
                    "{g:?} with {edges:?}"
                );
                if want {
                    trees += 1;
                } else {
                    others += 1;
                }
            }
        }
        assert!(
            trees >= 100 && others >= 100,
            "{trees} trees, {others} others"
        );
    }

    #[test]
    fn random_spanning_trees_certified() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut instances = Vec::new();
        for seed in 0..8 {
            let g = generators::random_connected(12, 8, &mut rng);
            instances.push(spanning_tree_instance(g, seed));
        }
        check_completeness(
            &SpanningTree,
            &lcp_core::engine::prepare_sweep(&SpanningTree, &instances),
        )
        .unwrap();
    }

    #[test]
    fn proof_size_logarithmic() {
        let instances: Vec<Instance> = [8usize, 16, 32, 64, 128]
            .iter()
            .map(|&n| spanning_tree_instance(generators::complete(n.min(64)), n as u64))
            .collect();
        let points = measure_sizes(
            &SpanningTree,
            &lcp_core::engine::prepare_sweep(&SpanningTree, &instances),
        );
        // Sizes grow with log of id-range; on these sweeps that reads as
        // logarithmic or constant-ish — it must NOT be linear.
        assert_ne!(classify_growth(&points), GrowthClass::Linear);
        assert_ne!(classify_growth(&points), GrowthClass::Quadratic);
    }

    #[test]
    fn forest_solution_rejected() {
        // C4 with two non-adjacent labelled edges: a forest, not a tree.
        let g = generators::cycle(4);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (2, 3)]);
        assert!(!SpanningTree.holds(&inst));
        match check_soundness_exhaustive(
            &SpanningTree,
            &lcp_core::engine::prepare(&SpanningTree, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("forest certified as tree by {p:?}"),
        }
    }

    #[test]
    fn cycle_solution_rejected() {
        // All edges of C5 labelled: contains a cycle.
        let g = generators::cycle(5);
        let all: Vec<(usize, usize)> = g.edges().collect();
        let inst = Instance::unlabeled(g).with_edge_set(all);
        assert!(!SpanningTree.holds(&inst));
        let mut rng = StdRng::seed_from_u64(21);
        assert!(adversarial_proof_search(
            &SpanningTree,
            &lcp_core::engine::prepare(&SpanningTree, &inst),
            8,
            600,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn unlabeled_tree_edge_detected() {
        // Honest proof, then un-label one tree edge: its endpoints notice.
        let inst = spanning_tree_instance(generators::grid(3, 3), 3);
        let proof = SpanningTree.prove(&inst).unwrap();
        assert!(evaluate(&SpanningTree, &inst, &proof).accepted());
        let mut edges = inst.labelled_edges();
        edges.pop();
        let tampered = Instance::unlabeled(inst.graph().clone()).with_edge_set(edges);
        assert!(!evaluate(&SpanningTree, &tampered, &proof).accepted());
    }

    #[test]
    fn forests_certified_acyclic() {
        let mut instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::path(7)),
            Instance::unlabeled(generators::star(5)),
            Instance::unlabeled(generators::complete_binary_tree(4)),
        ];
        // A genuine forest with two components.
        instances.push(Instance::unlabeled(
            ops::disjoint_union(
                &generators::path(4),
                &ops::shift_ids(&generators::star(3), 10),
            )
            .unwrap(),
        ));
        check_completeness(
            &Acyclic,
            &lcp_core::engine::prepare_sweep(&Acyclic, &instances),
        )
        .unwrap();
    }

    #[test]
    fn cycles_rejected_exhaustively() {
        let inst = Instance::unlabeled(generators::cycle(3));
        match check_soundness_exhaustive(
            &Acyclic,
            &lcp_core::engine::prepare(&Acyclic, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("triangle certified acyclic by {p:?}"),
        }
    }

    #[test]
    fn larger_cycles_resist_adversarial_search() {
        let inst = Instance::unlabeled(generators::cycle(7));
        let mut rng = StdRng::seed_from_u64(22);
        assert!(adversarial_proof_search(
            &Acyclic,
            &lcp_core::engine::prepare(&Acyclic, &inst),
            8,
            800,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }
}
