//! Instance generators: the deterministic families and seeded random models
//! used by tests, examples, and the Table 1 / Figure 1 harnesses.
//!
//! All generators assign contiguous identifiers `1..=n` unless stated
//! otherwise; use [`crate::Graph::relabel`] or the `*_with_ids`
//! constructors for custom identifier patterns (the §5.3 construction needs
//! them).
//!
//! [`path`], [`cycle`] and [`grid`] know every node's neighbours up front
//! and write each sorted list once; the other generators add their edges
//! one at a time.

use crate::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;

/// The path `P_n` on `n ≥ 1` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs at least 1 node");
    Graph::path_with_ids((1..=n as u64).map(NodeId)).expect("contiguous ids are unique")
}

/// The cycle `C_n` on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    Graph::cycle_with_ids((1..=n as u64).map(NodeId)).expect("contiguous ids are unique")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_contiguous_ids(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v).expect("distinct indices");
        }
    }
    g
}

/// The complete bipartite graph `K_{a,b}`; the first `a` indices form one
/// side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::with_contiguous_ids(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            g.add_edge(u, v).expect("distinct indices");
        }
    }
    g
}

/// The star `K_{1,n}`; index 0 is the centre.
pub fn star(leaves: usize) -> Graph {
    let mut g = Graph::with_contiguous_ids(leaves + 1);
    for v in 1..=leaves {
        g.add_edge(0, v).expect("distinct indices");
    }
    g
}

/// The `rows × cols` grid graph; node `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1, "grid needs positive dimensions");
    Graph::with_contiguous_ids(rows * cols).with_sorted_neighbors(|u| {
        let (r, c) = (u / cols, u % cols);
        [
            (r > 0).then(|| u - cols),
            (c > 0).then(|| u - 1),
            (c + 1 < cols).then(|| u + 1),
            (r + 1 < rows).then(|| u + cols),
        ]
        .into_iter()
        .flatten()
    })
}

/// Erdős–Rényi `G(n, p)`: every pair becomes an edge independently with
/// probability `p`.
pub fn gnp(n: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut g = Graph::with_contiguous_ids(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v).expect("distinct indices");
            }
        }
    }
    g
}

/// Uniform random tree on `n ≥ 1` nodes (random attachment: node `i` picks
/// a uniformly random earlier parent, then indices are shuffled by
/// relabelling positions).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, rng: &mut StdRng) -> Graph {
    assert!(n >= 1, "tree needs at least 1 node");
    // Random permutation of positions so the root is not biased to index 0.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut g = Graph::with_contiguous_ids(n);
    for i in 1..n {
        let parent_pos = rng.random_range(0..i);
        g.add_edge(order[i], order[parent_pos])
            .expect("tree edges are fresh");
    }
    g
}

/// Connected random graph: a random tree plus `extra` random chords
/// (silently fewer if the graph saturates).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: usize, extra: usize, rng: &mut StdRng) -> Graph {
    let mut g = random_tree(n, rng);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let want = extra.min(max_extra);
    let mut added = 0;
    while added < want {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("checked non-edge");
            added += 1;
        }
    }
    g
}

/// Random bipartite graph: sides of `a` and `b` nodes, each cross pair an
/// edge with probability `p`. The first `a` indices form one side.
pub fn random_bipartite(a: usize, b: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut g = Graph::with_contiguous_ids(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            if rng.random_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v).expect("distinct indices");
            }
        }
    }
    g
}

/// Random *connected* bipartite graph: a random tree that alternates sides
/// (so it is bipartite by construction) plus random cross chords.
///
/// Returns the graph and its side assignment (`0`/`1` per node).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_connected_bipartite(n: usize, extra: usize, rng: &mut StdRng) -> (Graph, Vec<u8>) {
    assert!(n >= 2, "connected bipartite graph needs at least 2 nodes");
    let g = random_tree(n, rng);
    let side = crate::traversal::bipartition(&g).expect("trees are bipartite");
    let mut g = g;
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < 50 * (extra + 1) {
        attempts += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && side[u] != side[v] && !g.has_edge(u, v) {
            g.add_edge(u, v).expect("checked non-edge");
            added += 1;
        }
    }
    (g, side)
}

/// The complete binary tree with `depth` levels of internal nodes
/// (`2^depth - 1` nodes total, root at index 0).
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn complete_binary_tree(depth: u32) -> Graph {
    assert!(depth >= 1, "binary tree needs depth >= 1");
    let n = (1usize << depth) - 1;
    let mut g = Graph::with_contiguous_ids(n);
    for u in 1..n {
        g.add_edge(u, (u - 1) / 2).expect("tree edges are fresh");
    }
    g
}

/// Two cliques of size `k` joined by a single bridge edge — a classic
/// "barbell" stress instance for connectivity schemes.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 1, "barbell needs positive clique size");
    let mut g = Graph::with_contiguous_ids(2 * k);
    for u in 0..k {
        for v in (u + 1)..k {
            g.add_edge(u, v).expect("distinct");
            g.add_edge(k + u, k + v).expect("distinct");
        }
    }
    g.add_edge(k - 1, k).expect("bridge endpoints distinct");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{is_bipartite, is_connected};
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!((p.n(), p.m()), (5, 4));
        let c = cycle(5);
        assert_eq!((c.n(), c.m()), (5, 5));
        assert!(c.nodes().all(|u| c.degree(u) == 2));
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.m(), 12);
        assert!(is_bipartite(&g));
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(0), 7);
        assert!((1..=7).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert!(is_connected(&g));
        assert!(is_bipartite(&g));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1, 2, 3, 10, 40] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.m(), n - 1);
            assert!(is_connected(&t));
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_connected(20, 15, &mut rng);
        assert!(is_connected(&g));
        assert_eq!(g.m(), 19 + 15);
    }

    #[test]
    fn random_connected_saturates_gracefully() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_connected(4, 100, &mut rng);
        assert_eq!(g.m(), 6); // K4
    }

    #[test]
    fn random_bipartite_is_bipartite() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_bipartite(6, 5, 0.7, &mut rng);
        assert!(is_bipartite(&g));
    }

    #[test]
    fn random_connected_bipartite_properties() {
        let mut rng = StdRng::seed_from_u64(13);
        let (g, side) = random_connected_bipartite(15, 10, &mut rng);
        assert!(is_connected(&g));
        assert!(is_bipartite(&g));
        for (u, v) in g.edges() {
            assert_ne!(side[u], side[v]);
        }
    }

    #[test]
    fn binary_tree_shape() {
        let g = complete_binary_tree(4);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert!(is_connected(&g));
    }

    #[test]
    fn barbell_has_bridge() {
        let g = barbell(4);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 2 * 6 + 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = gnp(12, 0.4, &mut StdRng::seed_from_u64(5));
        let g2 = gnp(12, 0.4, &mut StdRng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }
}
