//! The §7.1 model `M2`: anonymous networks with port numbering and a
//! leader, and the DFS-interval identifier machinery that makes `M2`
//! equivalent to the unique-identifier model `M1` for `O(log n)`-bit
//! proof labelling schemes.
//!
//! Direction `M1 → M2` of the translation generates *identifiers inside
//! the proof*: run a depth-first traversal of a rooted spanning tree,
//! record each node's discovery time `x(v)` and finishing time `y(v)`,
//! and use the pair as the identifier. The pairs can be checked for
//! global uniqueness by purely local conditions ([`verify_dfs_intervals`])
//! — that is the technical heart of the section, implemented and tested
//! here.

use lcp_core::View;
use lcp_graph::spanning::RootedTree;
use lcp_graph::{Graph, NodeId};

/// A port numbering: each node orders its incident edges `1..=deg(v)`.
///
/// The paper's canonical assignment (used when translating from `M1`)
/// gives port `i` to the neighbour with the `i`-th smallest identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortNumbering {
    /// `ports[v][i]` = neighbour index reached through port `i+1` of `v`.
    ports: Vec<Vec<usize>>,
}

impl PortNumbering {
    /// The canonical identifier-ordered port numbering of `g`.
    pub fn from_graph(g: &Graph) -> Self {
        let ports = g
            .nodes()
            .map(|v| {
                let mut nbrs: Vec<usize> = g.neighbors(v).to_vec();
                nbrs.sort_by_key(|&u| g.id(u));
                nbrs
            })
            .collect();
        PortNumbering { ports }
    }

    /// Degree of `v` (number of ports).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.ports[v].len()
    }

    /// Neighbour behind port `p` (1-based) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `p` is not in `1..=degree(v)`.
    pub fn neighbor(&self, v: usize, p: usize) -> usize {
        assert!(p >= 1 && p <= self.ports[v].len(), "port {p} out of range");
        self.ports[v][p - 1]
    }

    /// The port of `v` that leads to `u`, if they are adjacent.
    pub fn port_to(&self, v: usize, u: usize) -> Option<usize> {
        self.ports[v].iter().position(|&w| w == u).map(|i| i + 1)
    }
}

/// An anonymized local view: everything a [`View`] carries *except* node
/// identifiers, with neighbour lists in port order.
///
/// `M2` verifiers take a `PortView`, so the type system guarantees they
/// cannot depend on identifiers. View indices remain as arbitrary local
/// handles (they carry no global information).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortView<N = (), E = ()> {
    center: usize,
    radius: usize,
    dist: Vec<usize>,
    /// Port-ordered adjacency.
    adj: Vec<Vec<usize>>,
    node_data: Vec<N>,
    proofs: Vec<lcp_core::BitString>,
    edge_data: lcp_core::EdgeMap<E>,
}

impl<N: Clone, E: Clone> PortView<N, E> {
    /// Strips the identifiers from a view, ordering each adjacency list
    /// by neighbour identifier (the canonical port order) first.
    pub fn from_view(view: &View<N, E>) -> Self {
        let adj = view
            .nodes()
            .map(|u| {
                let mut nbrs: Vec<usize> = view.neighbors(u).iter().map(|&w| w as usize).collect();
                nbrs.sort_by_key(|&w| view.id(w));
                nbrs
            })
            .collect();
        PortView {
            center: view.center(),
            radius: view.radius(),
            dist: view.nodes().map(|u| view.dist(u)).collect(),
            adj,
            node_data: view.nodes().map(|u| view.node_label(u).clone()).collect(),
            proofs: view.nodes().map(|u| view.proof(u).to_bitstring()).collect(),
            edge_data: view
                .edges()
                .into_iter()
                .filter_map(|(u, w)| view.edge_label(u, w).map(|l| ((u, w), l.clone())))
                .collect(),
        }
    }
}

impl<N, E> PortView<N, E> {
    /// The centre's local handle.
    pub fn center(&self) -> usize {
        self.center
    }

    /// The extraction radius of the underlying view.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of visible nodes.
    pub fn n(&self) -> usize {
        self.dist.len()
    }

    /// Distance of `u` from the centre.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn dist(&self, u: usize) -> usize {
        self.dist[u]
    }

    /// Port-ordered neighbours of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// The node label of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_label(&self, u: usize) -> &N {
        &self.node_data[u]
    }

    /// The proof string of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn proof(&self, u: usize) -> &lcp_core::BitString {
        &self.proofs[u]
    }

    /// The edge label of `{u, w}`, if present.
    pub fn edge_label(&self, u: usize, w: usize) -> Option<&E> {
        self.edge_data.get(&lcp_graph::norm_edge(u, w))
    }
}

/// Discovery/finish interval labels of a depth-first traversal of a
/// rooted spanning tree; children are visited in port (identifier) order.
///
/// The clock ticks once at every discovery and once at every finish, so
/// with `k` covered nodes all values lie in `1..=2k` and every value is
/// used exactly once.
///
/// # Panics
///
/// Panics if the tree does not cover all of `g`.
pub fn dfs_interval_labels(g: &Graph, tree: &RootedTree) -> Vec<(usize, usize)> {
    assert_eq!(tree.size(), g.n(), "tree must span the graph");
    let mut children = tree.children();
    for ch in &mut children {
        ch.sort_by_key(|&c| g.id(c));
    }
    let mut x = vec![0usize; g.n()];
    let mut y = vec![0usize; g.n()];
    let mut clock = 0usize;
    // Iterative DFS over tree edges only.
    let mut stack = vec![(tree.root(), 0usize)];
    clock += 1;
    x[tree.root()] = clock;
    while let Some(&mut (v, ref mut next_child)) = stack.last_mut() {
        if *next_child < children[v].len() {
            let c = children[v][*next_child];
            *next_child += 1;
            clock += 1;
            x[c] = clock;
            stack.push((c, 0));
        } else {
            clock += 1;
            y[v] = clock;
            stack.pop();
        }
    }
    x.into_iter().zip(y).collect()
}

/// Checks the *local* DFS-interval conditions at every node; all-true
/// implies the labels are exactly a DFS numbering of the tree, hence
/// globally unique — this is what lets an `M2` verifier trust
/// proof-supplied identifiers.
///
/// Per-node conditions (each involving only a node, its parent, and its
/// children — radius 1 in the tree):
///
/// 1. the root has `x = 1`;
/// 2. every node has `x < y`;
/// 3. a leaf has `y = x + 1`;
/// 4. children `c₁, …, c_k` ordered by `x` satisfy `x(c₁) = x(v) + 1`,
///    `x(c_{i+1}) = y(c_i) + 1`, and `y(v) = y(c_k) + 1`.
///
/// Returns the indices of nodes whose local check fails (empty = valid).
pub fn verify_dfs_intervals(tree: &RootedTree, labels: &[(usize, usize)]) -> Vec<usize> {
    let n = labels.len();
    let children = tree.children();
    let mut bad = Vec::new();
    for v in 0..n {
        if !tree.covers(v) {
            bad.push(v);
            continue;
        }
        let (xv, yv) = labels[v];
        let mut ok = xv < yv;
        if v == tree.root() {
            ok &= xv == 1;
        }
        let mut ch: Vec<usize> = children[v].clone();
        ch.sort_by_key(|&c| labels[c].0);
        if ch.is_empty() {
            ok &= yv == xv + 1;
        } else {
            ok &= labels[ch[0]].0 == xv + 1;
            for w in ch.windows(2) {
                ok &= labels[w[1]].0 == labels[w[0]].1 + 1;
            }
            ok &= yv == labels[ch[ch.len() - 1]].1 + 1;
        }
        if !ok {
            bad.push(v);
        }
    }
    bad
}

/// Packs a DFS interval into a unique identifier: `id = x · 2(k+1) + y`
/// where `k` bounds the node count. Injective because `x` alone is unique.
pub fn interval_to_id(x: usize, y: usize, k: usize) -> NodeId {
    NodeId((x as u64) * 2 * (k as u64 + 1) + y as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::{Instance, Proof};
    use lcp_graph::spanning::bfs_spanning_tree;
    use lcp_graph::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn port_numbering_orders_by_id() {
        // Star whose leaves were added with descending ids.
        let mut g = Graph::from_ids([NodeId(10), NodeId(5), NodeId(3), NodeId(8)]).unwrap();
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(0, 3).unwrap();
        let pn = PortNumbering::from_graph(&g);
        assert_eq!(pn.degree(0), 3);
        // Port order: ids 3 (idx 2), 5 (idx 1), 8 (idx 3).
        assert_eq!(pn.neighbor(0, 1), 2);
        assert_eq!(pn.neighbor(0, 2), 1);
        assert_eq!(pn.neighbor(0, 3), 3);
        assert_eq!(pn.port_to(0, 3), Some(3));
        assert_eq!(pn.port_to(1, 0), Some(1));
        assert_eq!(pn.port_to(1, 2), None);
    }

    #[test]
    fn dfs_intervals_are_a_permutation_of_1_to_2n() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = generators::random_connected(10, 5, &mut rng);
            let tree = bfs_spanning_tree(&g, 0);
            let labels = dfs_interval_labels(&g, &tree);
            let mut all: Vec<usize> = labels.iter().flat_map(|&(x, y)| [x, y]).collect();
            all.sort_unstable();
            assert_eq!(all, (1..=2 * g.n()).collect::<Vec<_>>());
            assert!(verify_dfs_intervals(&tree, &labels).is_empty());
        }
    }

    #[test]
    fn local_checks_reject_tampered_labels() {
        let g = generators::grid(3, 3);
        let tree = bfs_spanning_tree(&g, 4);
        let mut labels = dfs_interval_labels(&g, &tree);
        // Swap two nodes' intervals: some local check must fail.
        labels.swap(0, 8);
        assert!(!verify_dfs_intervals(&tree, &labels).is_empty());
    }

    #[test]
    fn local_checks_reject_shifted_labels() {
        let g = generators::path(5);
        let tree = bfs_spanning_tree(&g, 0);
        let mut labels = dfs_interval_labels(&g, &tree);
        for l in &mut labels {
            l.0 += 1;
            l.1 += 1;
        }
        // Root no longer has x = 1.
        let bad = verify_dfs_intervals(&tree, &labels);
        assert!(bad.contains(&tree.root()));
    }

    #[test]
    fn local_checks_reject_duplicated_subtree_labels() {
        let g = generators::star(3);
        let tree = bfs_spanning_tree(&g, 0);
        let mut labels = dfs_interval_labels(&g, &tree);
        // Give two leaves the same interval: the parent's chaining fails.
        labels[2] = labels[1];
        assert!(!verify_dfs_intervals(&tree, &labels).is_empty());
    }

    #[test]
    fn interval_ids_are_unique() {
        let g = generators::complete_binary_tree(4);
        let tree = bfs_spanning_tree(&g, 0);
        let labels = dfs_interval_labels(&g, &tree);
        let ids: std::collections::HashSet<NodeId> = labels
            .iter()
            .map(|&(x, y)| interval_to_id(x, y, g.n()))
            .collect();
        assert_eq!(ids.len(), g.n());
    }

    #[test]
    fn port_view_hides_ids_but_keeps_structure() {
        let g = generators::cycle(5);
        let inst = Instance::unlabeled(g);
        let view = View::extract(&inst, &Proof::empty(5), 0, 2);
        let pv = PortView::from_view(&view);
        assert_eq!(pv.n(), view.n());
        assert_eq!(pv.center(), view.center());
        assert_eq!(pv.dist(pv.center()), 0);
        // Same degree sequence, port-ordered.
        for u in 0..pv.n() {
            assert_eq!(pv.neighbors(u).len(), view.neighbors(u).len());
        }
    }

    use lcp_graph::Graph;
}
