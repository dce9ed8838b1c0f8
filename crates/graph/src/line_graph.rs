//! Line graphs: the `L(G)` constructor, Krausz-partition recognition, and
//! Beineke's nine minimal forbidden induced subgraphs (§1.1).
//!
//! The paper's radius-2 verifier for "is a line graph" checks that no
//! forbidden subgraph of Beineke's characterisation appears in the local
//! view. The nine graphs ship as literal edge lists. A test re-derives
//! them: it enumerates all graphs on ≤ 6 nodes, tests each for the
//! Krausz clique-partition condition, keeps the minimal non-line graphs,
//! and asserts that exactly this table survives — so the derivation
//! still doubles as a reproduction of the characterisation itself.

use crate::{Graph, NodeId};
use std::sync::OnceLock;

/// The line graph `L(G)`: one node per edge of `g` (identifier `i + 1` for
/// the `i`-th edge in sorted order), adjacent iff the edges share an
/// endpoint.
pub fn line_graph(g: &Graph) -> Graph {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut lg = Graph::with_contiguous_ids(edges.len());
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let (a, b) = edges[i];
            let (c, d) = edges[j];
            if a == c || a == d || b == c || b == d {
                lg.add_edge(i, j).expect("fresh pair");
            }
        }
    }
    lg
}

/// Whether `g` is a line graph, by the Krausz condition: the edge set
/// partitions into cliques such that every node lies in at most two
/// cliques.
///
/// Exhaustive backtracking — intended for small graphs (the Beineke
/// derivation and test ground truth), not for large inputs.
pub fn is_line_graph(g: &Graph) -> bool {
    let n = g.n();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut covered = vec![false; edges.len()];
    let mut clique_count = vec![0u8; n];
    // Edge index lookup for cover marking.
    let edge_index = |u: usize, v: usize| -> Option<usize> {
        let key = crate::norm_edge(u, v);
        edges.binary_search(&key).ok()
    };
    fn rec(
        g: &Graph,
        edges: &[(usize, usize)],
        edge_index: &dyn Fn(usize, usize) -> Option<usize>,
        covered: &mut Vec<bool>,
        clique_count: &mut Vec<u8>,
    ) -> bool {
        let Some(first) = covered.iter().position(|&c| !c) else {
            return true; // all edges covered
        };
        let (u, v) = edges[first];
        if clique_count[u] >= 2 || clique_count[v] >= 2 {
            return false;
        }
        // Candidates that could join a clique containing {u, v}: common
        // neighbours with spare clique capacity whose edges to u, v are
        // uncovered.
        let candidates: Vec<usize> = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&w| {
                w != v
                    && g.has_edge(w, v)
                    && clique_count[w] < 2
                    && !covered[edge_index(u, w).expect("edge exists")]
                    && !covered[edge_index(v, w).expect("edge exists")]
            })
            .collect();
        // Enumerate all cliques {u, v} ∪ S with S ⊆ candidates mutually
        // adjacent via uncovered edges.
        let mut chosen: Vec<usize> = Vec::new();
        fn enumerate(
            g: &Graph,
            edges: &[(usize, usize)],
            edge_index: &dyn Fn(usize, usize) -> Option<usize>,
            covered: &mut Vec<bool>,
            clique_count: &mut Vec<u8>,
            u: usize,
            v: usize,
            candidates: &[usize],
            from: usize,
            chosen: &mut Vec<usize>,
        ) -> bool {
            // Try the clique {u, v} ∪ chosen as one block.
            let mut block = vec![u, v];
            block.extend_from_slice(chosen);
            let mut marked = Vec::new();
            let mut ok = true;
            'mark: for i in 0..block.len() {
                for j in (i + 1)..block.len() {
                    let e = edge_index(block[i], block[j]).expect("clique edges exist");
                    if covered[e] {
                        ok = false;
                        break 'mark;
                    }
                    covered[e] = true;
                    marked.push(e);
                }
            }
            if ok {
                for &w in &block {
                    clique_count[w] += 1;
                }
                if rec(g, edges, edge_index, covered, clique_count) {
                    return true;
                }
                for &w in &block {
                    clique_count[w] -= 1;
                }
            }
            for e in marked {
                covered[e] = false;
            }
            // Extend the clique with further candidates.
            for (i, &w) in candidates.iter().enumerate().skip(from) {
                if chosen
                    .iter()
                    .all(|&x| g.has_edge(x, w) && !covered[edge_index(x, w).expect("edge")])
                {
                    chosen.push(w);
                    if enumerate(
                        g,
                        edges,
                        edge_index,
                        covered,
                        clique_count,
                        u,
                        v,
                        candidates,
                        i + 1,
                        chosen,
                    ) {
                        return true;
                    }
                    chosen.pop();
                }
            }
            false
        }
        enumerate(
            g,
            edges,
            &edge_index,
            covered,
            clique_count,
            u,
            v,
            &candidates,
            0,
            &mut chosen,
        )
    }
    rec(g, &edges, &edge_index, &mut covered, &mut clique_count)
}

/// Searches for an induced embedding of `pattern` into `host`, returning
/// the image vertices (`map[i]` = host vertex for pattern vertex `i`).
///
/// Induced means adjacency *and* non-adjacency are preserved. Exhaustive
/// backtracking; `pattern` is expected to be small (≤ 6 nodes here).
pub fn find_induced_subgraph(host: &Graph, pattern: &Graph) -> Option<Vec<usize>> {
    let pn = pattern.n();
    if pn > host.n() {
        return None;
    }
    let mut map = vec![usize::MAX; pn];
    let mut used = vec![false; host.n()];
    fn rec(host: &Graph, pattern: &Graph, i: usize, map: &mut [usize], used: &mut [bool]) -> bool {
        if i == pattern.n() {
            return true;
        }
        for h in host.nodes() {
            if used[h] || host.degree(h) < pattern.degree(i) {
                continue;
            }
            let consistent = (0..i).all(|j| pattern.has_edge(j, i) == host.has_edge(map[j], h));
            if !consistent {
                continue;
            }
            map[i] = h;
            used[h] = true;
            if rec(host, pattern, i + 1, map, used) {
                return true;
            }
            used[h] = false;
            map[i] = usize::MAX;
        }
        false
    }
    rec(host, pattern, 0, &mut map, &mut used).then_some(map)
}

/// Beineke's nine graphs as `(node count, edges)`: node `i` has
/// identifier `i + 1`. The order is the derivation's — by node count,
/// then by the ≤ 6-node catalogue's order.
#[rustfmt::skip]
const BEINEKE: [(u64, &[(usize, usize)]); 9] = [
    (4, &[(0, 1), (0, 2), (0, 3)]),
    (5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
    (5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    (6, &[(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)]),
    (6, &[(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (6, &[(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)]),
    (6, &[(0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)]),
    (6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)]),
    (6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)]),
];

/// Beineke's nine minimal forbidden induced subgraphs, built once from
/// a literal table.
///
/// A graph is a line graph **iff** it contains none of these as an induced
/// subgraph.
pub fn beineke_graphs() -> &'static [Graph] {
    static CACHE: OnceLock<Vec<Graph>> = OnceLock::new();
    CACHE.get_or_init(|| {
        BEINEKE
            .iter()
            .map(|&(n, edges)| {
                let mut g = Graph::from_ids((1..=n).map(NodeId)).expect("ids unique");
                for &(u, v) in edges {
                    g.add_edge(u, v).expect("fresh");
                }
                g
            })
            .collect()
    })
}

/// Whether `g` is a line graph, decided through Beineke's forbidden
/// subgraphs rather than the Krausz partition.
///
/// Agreement between this and [`is_line_graph`] is itself a reproduction
/// of Beineke's theorem (tested on the full ≤ 6-node catalogue).
pub fn is_line_graph_beineke(g: &Graph) -> bool {
    beineke_graphs()
        .iter()
        .all(|h| find_induced_subgraph(g, h).is_none())
}

/// The claw `K_{1,3}`, smallest of the forbidden subgraphs; exposed
/// because several tests and docs want it by name.
pub fn claw() -> Graph {
    let mut g = Graph::from_ids((1..=4).map(NodeId)).expect("ids unique");
    g.add_edge(0, 1).expect("fresh");
    g.add_edge(0, 2).expect("fresh");
    g.add_edge(0, 3).expect("fresh");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn line_graph_of_path_is_shorter_path() {
        let lg = line_graph(&generators::path(5));
        assert_eq!(lg.n(), 4);
        assert_eq!(lg.m(), 3);
        assert!(crate::iso::is_isomorphic(&lg, &generators::path(4)).unwrap());
    }

    #[test]
    fn line_graph_of_claw_is_triangle() {
        let lg = line_graph(&claw());
        assert!(crate::iso::is_isomorphic(&lg, &generators::cycle(3)).unwrap());
    }

    #[test]
    fn krausz_accepts_line_graphs() {
        for g in [
            generators::path(4),
            generators::cycle(5),
            generators::complete(3),
            line_graph(&generators::complete(4)),
            line_graph(&generators::star(4)),
            Graph::new(),
        ] {
            assert!(is_line_graph(&g), "expected a line graph: {g:?}");
        }
    }

    #[test]
    fn krausz_rejects_claw_and_friends() {
        assert!(!is_line_graph(&claw()));
        assert!(!is_line_graph(&generators::star(3)));
        assert!(!is_line_graph(&generators::complete_bipartite(1, 4)));
        // K_{2,3} contains an induced claw.
        assert!(!is_line_graph(&generators::complete_bipartite(2, 3)));
    }

    #[test]
    fn beineke_family_has_nine_members() {
        let family = beineke_graphs();
        assert_eq!(family.len(), 9, "Beineke's theorem: nine minimal graphs");
        // The claw is among them.
        assert!(family
            .iter()
            .any(|h| crate::iso::is_isomorphic(h, &claw()).unwrap()));
        // Known size distribution: one on 4 nodes, two on 5, six on 6.
        let mut by_n = [0usize; 7];
        for h in family {
            by_n[h.n()] += 1;
        }
        assert_eq!(&by_n[4..=6], &[1, 2, 6]);
    }

    #[test]
    fn beineke_table_is_the_derived_minimal_non_line_graphs() {
        // The minimal non-line graphs among all graphs on ≤ 6 nodes, in
        // catalogue order, must be exactly the shipped table.
        let mut derived = Vec::new();
        for k in 1..=6 {
            for g in crate::enumerate::all_graphs_up_to_iso(k).expect("k <= 6") {
                if is_line_graph(&g) {
                    continue;
                }
                // Minimal: every vertex-deleted induced subgraph is a line
                // graph.
                let minimal = g.nodes().all(|v| {
                    let keep: Vec<usize> = g.nodes().filter(|&u| u != v).collect();
                    is_line_graph(&g.induced(&keep).0)
                });
                if minimal {
                    derived.push(g);
                }
            }
        }
        assert_eq!(derived, beineke_graphs());
    }

    #[test]
    fn beineke_graphs_have_radius_at_most_two() {
        // This justifies the radius-2 local verifier of §1.1: every
        // occurrence of a forbidden graph fits inside the view of one of
        // its nodes.
        for h in beineke_graphs() {
            let radius = h
                .nodes()
                .map(|v| {
                    crate::traversal::bfs_distances(h, v)
                        .into_iter()
                        .map(|d| d.expect("forbidden graphs are connected"))
                        .max()
                        .expect("nonempty")
                })
                .min()
                .expect("nonempty");
            assert!(radius <= 2, "forbidden graph with radius {radius}: {h:?}");
        }
    }

    #[test]
    fn beineke_agrees_with_krausz_on_small_catalogue() {
        for k in 1..=5 {
            for g in crate::enumerate::all_graphs_up_to_iso(k).unwrap() {
                assert_eq!(
                    is_line_graph(&g),
                    is_line_graph_beineke(&g),
                    "disagreement on {g:?}"
                );
            }
        }
    }

    #[test]
    fn induced_search_respects_non_edges() {
        // P3 is induced in P4 but not in K3 (K3's triangle has an extra edge).
        let p3 = generators::path(3);
        assert!(find_induced_subgraph(&generators::path(4), &p3).is_some());
        assert!(find_induced_subgraph(&generators::complete(3), &p3).is_none());
    }

    #[test]
    fn induced_search_finds_claw_in_star() {
        let m = find_induced_subgraph(&generators::star(5), &claw()).unwrap();
        assert_eq!(m[0], 0, "claw centre must map to the hub");
    }
}
