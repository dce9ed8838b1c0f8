//! Spanning trees and rooted-tree bookkeeping.
//!
//! Rooted spanning trees are the paper's master tool for `LogLCP` upper
//! bounds (§5.1): leader election, acyclicity, node counting, and the
//! model translations of §7.1 all hang certificates off one.

use crate::{Graph, GraphError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::VecDeque;

/// A rooted spanning tree of (one component of) a graph, stored as parent
/// pointers plus depths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    root: usize,
    parent: Vec<Option<usize>>,
    depth: Vec<Option<usize>>,
}

impl RootedTree {
    /// The root index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `u` in the tree (`None` for the root and for nodes outside
    /// the covered component).
    pub fn parent(&self, u: usize) -> Option<usize> {
        self.parent[u]
    }

    /// Depth of `u` (root has depth 0); `None` outside the component.
    pub fn depth(&self, u: usize) -> Option<usize> {
        self.depth[u]
    }

    /// Whether `u` is covered by the tree.
    pub fn covers(&self, u: usize) -> bool {
        self.depth[u].is_some()
    }

    /// Number of covered nodes.
    pub fn size(&self) -> usize {
        self.depth.iter().flatten().count()
    }

    /// Tree edges as `(child, parent)` pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|p| (c, p)))
            .collect()
    }

    /// Children lists for every node (empty for uncovered nodes).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (c, p) in self.edges() {
            ch[p].push(c);
        }
        ch
    }

    /// Subtree sizes (`1` for covered leaves, `0` for uncovered nodes).
    ///
    /// `sizes[root]` equals [`RootedTree::size`]; these are exactly the
    /// node counters the §5.1 counting certificates propagate towards the
    /// root.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let n = self.parent.len();
        let mut size = vec![0usize; n];
        // Process nodes in decreasing depth order.
        let mut order: Vec<usize> = (0..n).filter(|&u| self.covers(u)).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(self.depth[u]));
        for u in order {
            size[u] += 1;
            if let Some(p) = self.parent[u] {
                let s = size[u];
                size[p] += s;
            }
        }
        size
    }
}

/// BFS spanning tree of the component containing `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs_spanning_tree(g: &Graph, root: usize) -> RootedTree {
    let (dist, parent) = crate::traversal::bfs_with_parents(g, root);
    RootedTree {
        root,
        parent,
        depth: dist,
    }
}

/// A spanning tree of the component containing `root` built from a random
/// edge order (uniformly random *process*, not uniform over trees).
///
/// Randomized trees exercise the strong/weak scheme distinction of §7.2:
/// strong schemes must certify *any* spanning tree, so tests feed them
/// adversarial/random trees rather than only BFS trees.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn random_spanning_tree(g: &Graph, root: usize, rng: &mut StdRng) -> RootedTree {
    assert!(root < g.n(), "root {root} out of range");
    let mut parent = vec![None; g.n()];
    let mut depth = vec![None; g.n()];
    depth[root] = Some(0);
    // Randomized DFS.
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        let mut nbrs: Vec<usize> = g.neighbors(u).to_vec();
        nbrs.shuffle(rng);
        for v in nbrs {
            if depth[v].is_none() {
                depth[v] = Some(depth[u].expect("stacked nodes have depth") + 1);
                parent[v] = Some(u);
                stack.push(v);
            }
        }
    }
    // DFS depths are path lengths in the tree, not BFS distances; recompute
    // depths from parents to make them consistent (they already are, but
    // this keeps the invariant explicit).
    RootedTree {
        root,
        parent,
        depth,
    }
}

/// Checks whether `edges` (index pairs) form a spanning tree of `g`.
///
/// This is the centralized ground truth for the spanning-tree verification
/// problem of Table 1(b): exactly `n − 1` edges, all present in `g`, and
/// connecting all nodes.
///
/// # Errors
///
/// Returns an error if an edge mentions an out-of-range index or is not an
/// edge of `g`.
pub fn is_spanning_tree(g: &Graph, edges: &[(usize, usize)]) -> Result<bool, GraphError> {
    for &(u, v) in edges {
        if u >= g.n() {
            return Err(GraphError::IndexOutOfRange(u));
        }
        if v >= g.n() {
            return Err(GraphError::IndexOutOfRange(v));
        }
        if !g.has_edge(u, v) {
            return Err(GraphError::InvalidConstruction(format!(
                "{{{}, {}}} is not an edge of the graph",
                g.id(u),
                g.id(v)
            )));
        }
    }
    if g.n() == 0 {
        return Ok(edges.is_empty());
    }
    if edges.len() != g.n() - 1 {
        return Ok(false);
    }
    // Union by size with path halving, in one array: a root holds
    // −(its class size), any other node its parent. Each of the n − 1
    // edges joins two classes or closes a cycle; n − 1 joins leave one
    // class, so no separate connectivity pass is needed.
    let mut up = vec![-1isize; g.n()];
    fn find(up: &mut [isize], mut x: usize) -> usize {
        while up[x] >= 0 {
            let parent = up[x] as usize;
            if up[parent] >= 0 {
                up[x] = up[parent];
            }
            x = parent;
        }
        x
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut up, u), find(&mut up, v));
        if ru == rv {
            return Ok(false); // cycle
        }
        let (big, small) = if up[ru] <= up[rv] { (ru, rv) } else { (rv, ru) };
        up[big] += up[small];
        up[small] = big as isize;
    }
    Ok(true)
}

/// BFS spanning tree restricted to a caller-supplied edge subset.
///
/// Used to root a *given* spanning tree (a problem solution) at a chosen
/// node so a certificate can be attached to it.
///
/// Returns `None` if the edge subset does not connect `root` to every node.
///
/// # Panics
///
/// Panics if `root` or an edge index is out of range.
pub fn root_edge_subset(g: &Graph, edges: &[(usize, usize)], root: usize) -> Option<RootedTree> {
    assert!(root < g.n(), "root {root} out of range");
    let mut adj = vec![Vec::new(); g.n()];
    for &(u, v) in edges {
        assert!(u < g.n() && v < g.n(), "edge index out of range");
        adj[u].push(v);
        adj[v].push(u);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let mut parent = vec![None; g.n()];
    let mut depth = vec![None; g.n()];
    depth[root] = Some(0);
    let mut queue = VecDeque::from([root]);
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if depth[v].is_none() {
                depth[v] = Some(depth[u].expect("queued") + 1);
                parent[v] = Some(u);
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    (reached == g.n()).then_some(RootedTree {
        root,
        parent,
        depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    #[test]
    fn bfs_tree_covers_component() {
        let g = generators::grid(3, 3);
        let t = bfs_spanning_tree(&g, 4);
        assert_eq!(t.size(), 9);
        assert_eq!(t.root(), 4);
        assert_eq!(t.depth(4), Some(0));
        assert_eq!(t.edges().len(), 8);
        // Every tree edge is a graph edge; depths increase by 1 along it.
        for (c, p) in t.edges() {
            assert!(g.has_edge(c, p));
            assert_eq!(t.depth(c).unwrap(), t.depth(p).unwrap() + 1);
        }
    }

    #[test]
    fn bfs_tree_on_disconnected_graph_covers_one_component() {
        let g = crate::ops::disjoint_union(
            &generators::cycle(3),
            &crate::ops::shift_ids(&generators::cycle(4), 10),
        )
        .unwrap();
        let t = bfs_spanning_tree(&g, 0);
        assert_eq!(t.size(), 3);
        assert!(!t.covers(5));
        assert_eq!(t.depth(5), None);
    }

    #[test]
    fn subtree_sizes_sum_at_root() {
        let g = generators::complete_binary_tree(3);
        let t = bfs_spanning_tree(&g, 0);
        let s = t.subtree_sizes();
        assert_eq!(s[0], 7);
        assert_eq!(s[1], 3);
        assert_eq!(s[2], 3);
        assert_eq!(s[3], 1);
    }

    #[test]
    fn children_invert_parents() {
        let g = generators::star(5);
        let t = bfs_spanning_tree(&g, 0);
        let ch = t.children();
        assert_eq!(ch[0].len(), 5);
        assert!(ch[1].is_empty());
    }

    #[test]
    fn random_tree_is_spanning() {
        let g = generators::complete(8);
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_spanning_tree(&g, 2, &mut rng);
        assert_eq!(t.size(), 8);
        let edges = t.edges();
        assert!(is_spanning_tree(&g, &edges).unwrap());
        for (c, p) in edges {
            assert_eq!(t.depth(c).unwrap(), t.depth(p).unwrap() + 1);
        }
    }

    #[test]
    fn is_spanning_tree_accepts_bfs_tree() {
        let g = generators::grid(2, 4);
        let t = bfs_spanning_tree(&g, 0);
        assert!(is_spanning_tree(&g, &t.edges()).unwrap());
    }

    #[test]
    fn is_spanning_tree_rejects_cycles_and_forests() {
        let g = generators::cycle(4);
        // All 4 edges: a cycle, not a tree.
        let all: Vec<_> = g.edges().collect();
        assert!(!is_spanning_tree(&g, &all).unwrap());
        // Too few edges.
        assert!(!is_spanning_tree(&g, &all[..2]).unwrap());
        // Right count, wrong shape (re-using an edge is rejected as a cycle).
        assert!(!is_spanning_tree(&g, &[all[0], all[0], all[1]]).unwrap());
    }

    #[test]
    fn is_spanning_tree_rejects_non_edges() {
        let g = generators::path(4);
        assert!(is_spanning_tree(&g, &[(0, 3), (1, 2), (2, 3)]).is_err());
    }

    #[test]
    fn root_edge_subset_roots_a_given_tree() {
        let g = generators::cycle(5);
        let edges: Vec<_> = g.edges().filter(|&(u, v)| !(u == 0 && v == 4)).collect();
        let t = root_edge_subset(&g, &edges, 2).unwrap();
        assert_eq!(t.size(), 5);
        assert_eq!(t.depth(2), Some(0));
        // Dropping one more edge disconnects.
        assert!(root_edge_subset(&g, &edges[..3], 2).is_none());
    }
}
