//! Simple undirected graphs with first-class node identifiers.
//!
//! Each node's sorted neighbour list lives in one fixed-size slot of the
//! graph's slot vector: up to four neighbours in place, a heap vector
//! beyond that. Every node of a cycle, path or grid fits in place, so
//! building, cloning or dropping one of those makes two allocations (the
//! identifiers and the slots) however large it is.

use crate::{GraphError, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A finite, simple, undirected graph whose nodes carry explicit
/// [`NodeId`] identifiers.
///
/// Nodes are addressed internally by dense indices `0..n` (insertion
/// order); every node additionally has a unique identifier, as required by
/// the LCP model (§2 of the paper). Adjacency lists are kept sorted so all
/// iteration orders are deterministic.
///
/// A node keeps up to four neighbours in place and moves its list to the
/// heap at the fifth; four covers every node of a cycle (degree 2), a path
/// (at most 2) and a grid (at most 4), the families the serve daemon
/// loads at 10⁵ nodes. A list that moved to the heap stays there when it
/// shrinks again; only the sorted neighbour slice is observable.
///
/// The identifier → index map is built on first use (an identifier
/// lookup, or a node added by identifier), so a graph made by
/// [`Graph::with_contiguous_ids`] and wired by index, as the generators
/// make theirs, never builds it. Equality compares identifiers,
/// adjacency and edge count only.
///
/// ```
/// use lcp_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), lcp_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node(NodeId(10))?;
/// let b = g.add_node(NodeId(20))?;
/// g.add_edge(a, b)?;
/// assert_eq!(g.n(), 2);
/// assert_eq!(g.m(), 1);
/// assert!(g.has_edge(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    ids: Vec<NodeId>,
    /// `ids` inverted; built from `ids` on first use (see [`Self::index`]).
    index: OnceLock<HashMap<NodeId, usize>>,
    adj: Vec<Slot>,
    m: usize,
}

/// Neighbours a [`Slot`] holds in place before it moves to the heap.
const INLINE: usize = 4;

/// One node's sorted neighbour list: up to [`INLINE`] entries in place,
/// a heap vector beyond that. Equality compares the lists, so a slot that
/// spilled and shrank again equals one that never spilled.
#[derive(Clone)]
enum Slot {
    Inline { len: u8, nbrs: [usize; INLINE] },
    Spilled(Vec<usize>),
}

impl Default for Slot {
    fn default() -> Self {
        Slot::Inline {
            len: 0,
            nbrs: [0; INLINE],
        }
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Slot {}

impl Slot {
    fn as_slice(&self) -> &[usize] {
        match self {
            Slot::Inline { len, nbrs } => &nbrs[..usize::from(*len)],
            Slot::Spilled(list) => list,
        }
    }

    /// Inserts `v` at `pos`, moving the list to the heap when it outgrows
    /// the slot.
    fn insert(&mut self, pos: usize, v: usize) {
        match self {
            Slot::Inline { len, nbrs } if usize::from(*len) < INLINE => {
                nbrs.copy_within(pos..usize::from(*len), pos + 1);
                nbrs[pos] = v;
                *len += 1;
            }
            Slot::Inline { nbrs, .. } => {
                let mut list = Vec::with_capacity(2 * INLINE);
                list.extend_from_slice(nbrs);
                list.insert(pos, v);
                *self = Slot::Spilled(list);
            }
            Slot::Spilled(list) => list.insert(pos, v),
        }
    }

    fn push(&mut self, v: usize) {
        match self {
            Slot::Inline { len, nbrs } if usize::from(*len) < INLINE => {
                nbrs[usize::from(*len)] = v;
                *len += 1;
            }
            _ => self.insert(self.as_slice().len(), v),
        }
    }

    fn remove(&mut self, pos: usize) {
        match self {
            Slot::Inline { len, nbrs } => {
                nbrs.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Slot::Spilled(list) => {
                list.remove(pos);
            }
        }
    }
}

impl PartialEq for Graph {
    /// Same identifiers, adjacency and edge count; whether either side
    /// has built its identifier map is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.adj == other.adj && self.m == other.m
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Graph {
            ids: Vec::with_capacity(n),
            index: OnceLock::from(HashMap::with_capacity(n)),
            adj: Vec::with_capacity(n),
            m: 0,
        }
    }

    /// Creates a graph with the given identifiers and no edges.
    ///
    /// Identifiers `1..=n` in order are unique by construction, so they
    /// build no identifier map, as in [`Self::with_contiguous_ids`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if an identifier repeats.
    pub fn from_ids<I>(ids: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut ids: Vec<NodeId> = ids.into_iter().collect();
        if ids.iter().zip(1..).all(|(id, k)| id.0 == k) {
            ids.shrink_to_fit();
            return Ok(Graph::with_unique_ids(ids));
        }
        let mut g = Graph::with_capacity(ids.len());
        for id in ids {
            g.add_node(id)?;
        }
        Ok(g)
    }

    /// Creates a graph with identifiers `1..=n` and no edges.
    ///
    /// This is the "contiguous identifiers" convention used by most
    /// generators; the LCP model allows any `poly(n)`-bounded identifiers.
    /// The identifiers are unique by construction, so no identifier map
    /// is built here.
    pub fn with_contiguous_ids(n: usize) -> Self {
        Graph::with_unique_ids((1..=n as u64).map(NodeId).collect())
    }

    /// A graph with no edges over identifiers known to be unique, so it
    /// builds no identifier map.
    fn with_unique_ids(ids: Vec<NodeId>) -> Self {
        let n = ids.len();
        Graph {
            ids,
            index: OnceLock::new(),
            adj: vec![Slot::default(); n],
            m: 0,
        }
    }

    /// Creates a graph from identifiers and identifier pairs.
    ///
    /// # Errors
    ///
    /// Propagates node/edge validation errors ([`GraphError`]).
    pub fn from_edge_ids<I, E>(ids: I, edges: E) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = NodeId>,
        E: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::from_ids(ids)?;
        for (a, b) in edges {
            g.add_edge_ids(a, b)?;
        }
        Ok(g)
    }

    /// Builds the path `ids[0] – ids[1] – … – ids[k-1]`.
    ///
    /// # Errors
    ///
    /// Returns an error when identifiers repeat or fewer than one node is
    /// given.
    pub fn path_with_ids<I>(ids: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let g = Graph::from_ids(ids)?;
        let n = g.n();
        if n == 0 {
            return Err(GraphError::InvalidConstruction(
                "path needs at least 1 node".into(),
            ));
        }
        Ok(g.with_sorted_neighbors(|u| {
            [u.checked_sub(1), (u + 1 < n).then_some(u + 1)]
                .into_iter()
                .flatten()
        }))
    }

    /// Builds the cycle `ids[0] – ids[1] – … – ids[k-1] – ids[0]`.
    ///
    /// # Errors
    ///
    /// Returns an error when identifiers repeat or fewer than three nodes
    /// are given (simple graphs have no 1- or 2-cycles).
    pub fn cycle_with_ids<I>(ids: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let g = Graph::from_ids(ids)?;
        let n = g.n();
        if n < 3 {
            return Err(GraphError::InvalidConstruction(
                "cycle needs at least 3 nodes".into(),
            ));
        }
        Ok(g.with_sorted_neighbors(|u| {
            let (prev, next) = ((u + n - 1) % n, (u + 1) % n);
            [prev.min(next), prev.max(next)]
        }))
    }

    /// Wires a graph that has no edges yet: node `u` gets the neighbours
    /// `nbrs(u)` yields, in the order it yields them, and `m` is counted
    /// from them. The generators whose degrees are known use this instead
    /// of an [`Self::add_edge`] loop: it writes each slot once and never
    /// searches it.
    ///
    /// `nbrs` must describe a simple undirected graph: each list sorted,
    /// in range and free of `u`, and `v` in `u`'s list exactly when `u` is
    /// in `v`'s. Debug builds check this.
    pub(crate) fn with_sorted_neighbors<F, I>(mut self, mut nbrs: F) -> Graph
    where
        F: FnMut(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        debug_assert_eq!(self.m, 0, "only a graph with no edges is wired");
        let mut ends = 0;
        for (u, slot) in self.adj.iter_mut().enumerate() {
            for v in nbrs(u) {
                slot.push(v);
                ends += 1;
            }
        }
        self.m = ends / 2;
        debug_assert!(
            self.nodes().all(|u| {
                let list = self.neighbors(u);
                list.windows(2).all(|w| w[0] < w[1])
                    && list.iter().all(|&v| v != u && self.has_edge(v, u))
            }),
            "neighbour lists must be sorted, loop-free and symmetric"
        );
        self
    }

    /// Adds a node with the given identifier and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if the identifier is taken.
    pub fn add_node(&mut self, id: NodeId) -> Result<usize, GraphError> {
        self.index();
        let index = self.index.get_mut().expect("built just above");
        if index.contains_key(&id) {
            return Err(GraphError::DuplicateNode(id));
        }
        let idx = self.ids.len();
        index.insert(id, idx);
        self.ids.push(id);
        self.adj.push(Slot::default());
        Ok(idx)
    }

    /// Adds the undirected edge `{u, v}` by internal index.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indices, self-loops, and duplicate edges.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n() {
            return Err(GraphError::IndexOutOfRange(u));
        }
        if v >= self.n() {
            return Err(GraphError::IndexOutOfRange(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(self.ids[u]));
        }
        match self.neighbors(u).binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge(self.ids[u], self.ids[v])),
            Err(pos) => self.adj[u].insert(pos, v),
        }
        let pos = self
            .neighbors(v)
            .binary_search(&u)
            .expect_err("edge sets must stay symmetric");
        self.adj[v].insert(pos, u);
        self.m += 1;
        Ok(())
    }

    /// Adds the undirected edge `{a, b}` by identifier.
    ///
    /// # Errors
    ///
    /// Rejects unknown identifiers, self-loops, and duplicate edges.
    pub fn add_edge_ids(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        let u = self.index_of(a).ok_or(GraphError::UnknownNode(a))?;
        let v = self.index_of(b).ok_or(GraphError::UnknownNode(b))?;
        self.add_edge(u, v)
    }

    /// Removes the undirected edge `{u, v}` by internal index — the
    /// inverse of [`Self::add_edge`], used by dynamic-graph workloads.
    ///
    /// Node indices and identifiers are untouched; only the adjacency
    /// lists shrink (they stay sorted, so iteration orders remain
    /// deterministic).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indices and edges that are not present
    /// ([`GraphError::UnknownEdge`]).
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n() {
            return Err(GraphError::IndexOutOfRange(u));
        }
        if v >= self.n() {
            return Err(GraphError::IndexOutOfRange(v));
        }
        let Ok(pos_u) = self.neighbors(u).binary_search(&v) else {
            return Err(GraphError::UnknownEdge(self.ids[u], self.ids[v]));
        };
        self.adj[u].remove(pos_u);
        let pos_v = self
            .neighbors(v)
            .binary_search(&u)
            .expect("edge sets must stay symmetric");
        self.adj[v].remove(pos_v);
        self.m -= 1;
        Ok(())
    }

    /// Removes the undirected edge `{a, b}` by identifier.
    ///
    /// # Errors
    ///
    /// Rejects unknown identifiers and absent edges.
    pub fn remove_edge_ids(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        let u = self.index_of(a).ok_or(GraphError::UnknownNode(a))?;
        let v = self.index_of(b).ok_or(GraphError::UnknownNode(b))?;
        self.remove_edge(u, v)
    }

    /// Number of nodes, written `n(G)` in the paper.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Identifier of the node at index `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn id(&self, u: usize) -> NodeId {
        self.ids[u]
    }

    /// All identifiers, in index order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The identifier → index map, built from `ids` on first use.
    fn index(&self) -> &HashMap<NodeId, usize> {
        self.index.get_or_init(|| {
            self.ids
                .iter()
                .enumerate()
                .map(|(idx, &id)| (id, idx))
                .collect()
        })
    }

    /// Index of the node carrying identifier `id`, if present.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.index().get(&id).copied()
    }

    /// Whether some node carries identifier `id`.
    pub fn contains_id(&self, id: NodeId) -> bool {
        self.index().contains_key(&id)
    }

    /// Sorted neighbour indices of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        self.adj[u].as_slice()
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors(u).len()
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Whether the edge `{u, v}` is present (by index).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all node indices.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.n()
    }

    /// Iterates over all edges as index pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    /// The subgraph induced by `nodes` (indices into `self`).
    ///
    /// Returns the new graph (which keeps the original identifiers) and the
    /// mapping `new index -> old index`. Duplicate entries in `nodes` are
    /// ignored after the first occurrence.
    pub fn induced(&self, nodes: &[usize]) -> (Graph, Vec<usize>) {
        let mut picked = Vec::new();
        let mut seen = vec![false; self.n()];
        for &u in nodes {
            if u < self.n() && !seen[u] {
                seen[u] = true;
                picked.push(u);
            }
        }
        let mut old_to_new = vec![usize::MAX; self.n()];
        let mut g = Graph::with_capacity(picked.len());
        for (new, &old) in picked.iter().enumerate() {
            old_to_new[old] = new;
            g.add_node(self.ids[old]).expect("ids unique in source");
        }
        for (new_u, &old_u) in picked.iter().enumerate() {
            for &old_v in self.neighbors(old_u) {
                let new_v = old_to_new[old_v];
                if new_v != usize::MAX && new_u < new_v {
                    g.add_edge(new_u, new_v).expect("source graph is simple");
                }
            }
        }
        (g, picked)
    }

    /// Re-assigns identifiers through `f`, keeping the structure intact.
    ///
    /// Graph properties are closed under exactly this operation (§2.2), so
    /// tests use it to confirm invariance.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if `f` is not injective on the
    /// current identifier set.
    pub fn relabel<F>(&self, mut f: F) -> Result<Graph, GraphError>
    where
        F: FnMut(NodeId) -> NodeId,
    {
        let mut g = Graph::with_capacity(self.n());
        for &id in &self.ids {
            g.add_node(f(id))?;
        }
        for (u, v) in self.edges() {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// The degree sequence in non-increasing order.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.nodes().map(|u| self.degree(u)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={}; ", self.n(), self.m())?;
        let edges: Vec<String> = self
            .edges()
            .map(|(u, v)| format!("{}-{}", self.ids[u], self.ids[v]))
            .collect();
        write!(f, "[{}])", edges.join(", "))
    }
}

/// Iterator over the edges of a [`Graph`]; see [`Graph::edges`].
#[derive(Debug)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: usize,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.u < self.graph.n() {
            let nbrs = self.graph.neighbors(self.u);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                if v > self.u {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::cycle_with_ids([NodeId(1), NodeId(2), NodeId(3)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_empty());
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn build_triangle() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = Graph::new();
        g.add_node(NodeId(5)).unwrap();
        assert_eq!(
            g.add_node(NodeId(5)),
            Err(GraphError::DuplicateNode(NodeId(5)))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::from_ids([NodeId(1)]).unwrap();
        assert_eq!(g.add_edge(0, 0), Err(GraphError::SelfLoop(NodeId(1))));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = Graph::from_ids([NodeId(1), NodeId(2)]).unwrap();
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(1, 0),
            Err(GraphError::DuplicateEdge(NodeId(2), NodeId(1)))
        );
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut g = Graph::from_ids([NodeId(1)]).unwrap();
        assert_eq!(g.add_edge(0, 3), Err(GraphError::IndexOutOfRange(3)));
        assert_eq!(g.add_edge(9, 0), Err(GraphError::IndexOutOfRange(9)));
    }

    #[test]
    fn unknown_id_edge_rejected() {
        let mut g = Graph::from_ids([NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(
            g.add_edge_ids(NodeId(1), NodeId(9)),
            Err(GraphError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn remove_edge_is_the_inverse_of_add_edge() {
        let mut g = triangle();
        g.remove_edge(0, 2).unwrap();
        assert_eq!(g.m(), 2);
        assert!(!g.has_edge(0, 2) && !g.has_edge(2, 0));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1]);
        // Re-adding restores the original graph exactly.
        g.add_edge(0, 2).unwrap();
        assert_eq!(g, triangle());
    }

    #[test]
    fn remove_missing_edge_rejected() {
        let mut g = Graph::path_with_ids((1..=3).map(NodeId)).unwrap();
        assert_eq!(
            g.remove_edge(0, 2),
            Err(GraphError::UnknownEdge(NodeId(1), NodeId(3)))
        );
        assert_eq!(g.remove_edge(0, 9), Err(GraphError::IndexOutOfRange(9)));
        assert_eq!(g.remove_edge(7, 0), Err(GraphError::IndexOutOfRange(7)));
        assert_eq!(g.m(), 2, "failed removals leave the graph intact");
    }

    #[test]
    fn remove_edge_by_ids() {
        let mut g = triangle();
        g.remove_edge_ids(NodeId(2), NodeId(1)).unwrap();
        assert!(!g.has_edge(0, 1));
        assert_eq!(
            g.remove_edge_ids(NodeId(2), NodeId(9)),
            Err(GraphError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut g = Graph::from_ids((1..=5).map(NodeId)).unwrap();
        g.add_edge(0, 4).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 3).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_ids_rejected_before_and_after_the_map_is_built() {
        // `from_ids` builds the map as it adds other identifiers;
        // contiguous ones leave it unbuilt until `add_node` needs it.
        assert_eq!(
            Graph::from_ids([NodeId(3), NodeId(1), NodeId(3)]),
            Err(GraphError::DuplicateNode(NodeId(3)))
        );
        assert_eq!(
            Graph::from_ids([NodeId(1), NodeId(2), NodeId(2)]),
            Err(GraphError::DuplicateNode(NodeId(2)))
        );
        assert!(Graph::from_ids((1..=4).map(NodeId))
            .unwrap()
            .index
            .get()
            .is_none());
        let mut g = Graph::with_contiguous_ids(4);
        assert!(g.index.get().is_none());
        assert_eq!(
            g.add_node(NodeId(2)),
            Err(GraphError::DuplicateNode(NodeId(2)))
        );
        assert_eq!(g.n(), 4, "a refused node is not added");
        assert_eq!(g.add_node(NodeId(9)), Ok(4));
        assert_eq!(
            g.add_node(NodeId(9)),
            Err(GraphError::DuplicateNode(NodeId(9)))
        );
    }

    #[test]
    fn index_of_is_right_before_and_after_the_map_is_built() {
        let mut g = Graph::with_contiguous_ids(5);
        g.add_edge(0, 4).unwrap();
        assert!(g.index.get().is_none(), "index-wired graphs build no map");
        for u in g.nodes() {
            assert_eq!(g.index_of(g.id(u)), Some(u));
        }
        assert!(g.index.get().is_some());
        assert_eq!(g.index_of(NodeId(0)), None);
        assert_eq!(g.index_of(NodeId(6)), None);
        let idx = g.add_node(NodeId(40)).unwrap();
        assert_eq!(g.index_of(NodeId(40)), Some(idx));
        assert!(g.contains_id(NodeId(5)) && !g.contains_id(NodeId(41)));
        let mut fresh = Graph::with_contiguous_ids(3);
        fresh.add_edge_ids(NodeId(1), NodeId(3)).unwrap();
        assert!(fresh.has_edge(0, 2));
    }

    #[test]
    fn equality_ignores_whether_the_map_is_built() {
        let lazy = Graph::with_contiguous_ids(6);
        let eager = Graph::with_capacity(6);
        let eager = (1..=6).fold(eager, |mut g, id| {
            g.add_node(NodeId(id)).unwrap();
            g
        });
        assert!(lazy.index.get().is_none() && eager.index.get().is_some());
        assert_eq!(lazy, eager);
        let built = lazy.clone();
        assert!(built.contains_id(NodeId(1)));
        assert_eq!(built, lazy);
        let mut wired = Graph::with_contiguous_ids(6);
        wired.add_edge(1, 2).unwrap();
        assert_ne!(wired, lazy);
    }

    #[test]
    fn id_index_roundtrip() {
        let g = triangle();
        for u in g.nodes() {
            assert_eq!(g.index_of(g.id(u)), Some(u));
        }
        assert_eq!(g.index_of(NodeId(99)), None);
        assert!(g.contains_id(NodeId(2)));
        assert!(!g.contains_id(NodeId(4)));
    }

    #[test]
    fn induced_subgraph_keeps_ids_and_edges() {
        // Path 1-2-3-4 plus chord 1-3.
        let mut g = Graph::path_with_ids((1..=4).map(NodeId)).unwrap();
        g.add_edge(0, 2).unwrap();
        let (h, map) = g.induced(&[0, 2, 3]);
        assert_eq!(h.n(), 3);
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(h.ids(), &[NodeId(1), NodeId(3), NodeId(4)]);
        // Edges 1-3 (chord) and 3-4 survive; 1-2 and 2-3 drop out.
        assert_eq!(h.m(), 2);
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 2));
    }

    #[test]
    fn induced_ignores_duplicates_and_out_of_range() {
        let g = triangle();
        let (h, map) = g.induced(&[1, 1, 2, 7]);
        assert_eq!(h.n(), 2);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(h.m(), 1);
    }

    #[test]
    fn relabel_keeps_structure() {
        let g = triangle();
        let h = g.relabel(|id| NodeId(id.0 * 10)).unwrap();
        assert_eq!(h.ids(), &[NodeId(10), NodeId(20), NodeId(30)]);
        assert_eq!(h.m(), 3);
        assert!(h.has_edge(0, 1));
    }

    #[test]
    fn relabel_rejects_collisions() {
        let g = triangle();
        assert!(g.relabel(|_| NodeId(7)).is_err());
    }

    #[test]
    fn cycle_too_small_rejected() {
        assert!(Graph::cycle_with_ids([NodeId(1), NodeId(2)]).is_err());
        assert!(Graph::path_with_ids(std::iter::empty()).is_err());
    }

    #[test]
    fn degree_sequence_sorted() {
        let mut g = Graph::path_with_ids((1..=4).map(NodeId)).unwrap();
        g.add_edge(0, 2).unwrap();
        assert_eq!(g.degree_sequence(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn debug_output_mentions_edges() {
        let g = triangle();
        let s = format!("{g:?}");
        assert!(s.contains("n=3"));
        assert!(s.contains("1-2"));
    }

    #[test]
    fn with_contiguous_ids_starts_at_one() {
        let g = Graph::with_contiguous_ids(4);
        assert_eq!(g.ids(), &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
    }

    fn spilled(g: &Graph, u: usize) -> bool {
        matches!(g.adj[u], Slot::Spilled(_))
    }

    /// A star on `1 + leaves` nodes, centre 0, wired by `add_edge` in
    /// descending order so every insert lands at the front of the list.
    fn star_descending(leaves: usize) -> Graph {
        let mut g = Graph::with_contiguous_ids(leaves + 1);
        for v in (1..=leaves).rev() {
            g.add_edge(0, v).unwrap();
        }
        g
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_slot_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 40);
    }

    #[test]
    fn lists_spill_at_the_fifth_neighbour_and_stay_sorted_back_down() {
        let g = star_descending(4);
        assert!(!spilled(&g, 0));
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        // The fifth neighbour spills the slot whether it lands at the
        // back, the front or the middle of the list.
        for order in [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [1, 2, 4, 5, 3]] {
            let mut g = Graph::with_contiguous_ids(6);
            for (k, v) in order.into_iter().enumerate() {
                g.add_edge(0, v).unwrap();
                assert_eq!(spilled(&g, 0), k >= INLINE, "{order:?}");
            }
            assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
            assert_eq!(g.m(), 5);
        }
        // Back down through the spill point, from the middle, the front
        // and the back.
        let mut g = star_descending(5);
        for (v, left) in [
            (3, &[1, 2, 4, 5][..]),
            (1, &[2, 4, 5]),
            (5, &[2, 4]),
            (2, &[4]),
        ] {
            g.remove_edge(v, 0).unwrap();
            assert_eq!(g.neighbors(0), left);
            assert!(!g.has_edge(0, v) && !g.has_edge(v, 0));
        }
        assert!(spilled(&g, 0), "a shrunk list stays on the heap");
        assert_eq!(g.m(), 1);
        g.remove_edge(0, 4).unwrap();
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g, Graph::with_contiguous_ids(6));
        // And up again on the heap.
        for v in [5, 1, 3] {
            g.add_edge(0, v).unwrap();
        }
        assert_eq!(g.neighbors(0), &[1, 3, 5]);
        // In-place removal from every position.
        let mut g = star_descending(4);
        for (v, left) in [(2, &[1, 3, 4][..]), (4, &[1, 3]), (1, &[3]), (3, &[])] {
            g.remove_edge(0, v).unwrap();
            assert_eq!(g.neighbors(0), left);
        }
        assert!(!spilled(&g, 0));
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn edge_errors_are_the_same_in_place_and_spilled() {
        for leaves in [4, 6] {
            let mut g = star_descending(leaves);
            assert_eq!(spilled(&g, 0), leaves > INLINE);
            let id = |u: usize| NodeId(u as u64 + 1);
            assert_eq!(
                g.add_edge(0, 2),
                Err(GraphError::DuplicateEdge(id(0), id(2)))
            );
            assert_eq!(
                g.add_edge(leaves, 0),
                Err(GraphError::DuplicateEdge(id(leaves), id(0)))
            );
            assert_eq!(
                g.remove_edge(1, 2),
                Err(GraphError::UnknownEdge(id(1), id(2)))
            );
            g.remove_edge(0, 1).unwrap();
            assert_eq!(
                g.remove_edge(0, 1),
                Err(GraphError::UnknownEdge(id(0), id(1)))
            );
            assert_eq!(
                g.remove_edge(1, 0),
                Err(GraphError::UnknownEdge(id(1), id(0)))
            );
            assert_eq!(g.m(), leaves - 1, "failed edits leave the graph intact");
            assert_eq!(g.neighbors(0), (2..=leaves).collect::<Vec<_>>());
        }
    }

    #[test]
    fn queries_do_not_see_the_representation() {
        // The same star twice: one never spilled, one spilled and shrank.
        let mut fresh = star_descending(4);
        fresh.add_node(NodeId(6)).unwrap();
        let mut shrunk = fresh.clone();
        shrunk.add_edge(0, 5).unwrap();
        shrunk.remove_edge(0, 5).unwrap();
        assert!(spilled(&shrunk, 0) && !spilled(&fresh, 0));
        assert_eq!(fresh, shrunk);
        assert_eq!(shrunk, fresh);
        for u in fresh.nodes() {
            assert_eq!(fresh.neighbors(u), shrunk.neighbors(u));
            assert_eq!(fresh.degree(u), shrunk.degree(u));
        }
        assert_eq!(fresh.max_degree(), 4);
        assert_eq!(shrunk.max_degree(), 4);
        assert_eq!(fresh.degree_sequence(), shrunk.degree_sequence());
        assert_eq!(fresh.degree_sequence(), vec![4, 1, 1, 1, 1, 0]);
        assert_eq!(
            fresh.edges().collect::<Vec<_>>(),
            shrunk.edges().collect::<Vec<_>>()
        );
        assert_eq!(
            shrunk.edges().collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (0, 3), (0, 4)]
        );
        shrunk.add_edge(1, 5).unwrap();
        assert_ne!(fresh, shrunk);
        let big = star_descending(7);
        assert_eq!(big.max_degree(), 7);
        assert_eq!(big.degree_sequence(), vec![7, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(big.edges().count(), 7);
    }

    #[test]
    fn a_clone_of_a_spilled_graph_is_independent() {
        let g = star_descending(6);
        let mut copy = g.clone();
        assert!(spilled(&copy, 0));
        assert_eq!(copy, g);
        copy.remove_edge(0, 3).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(copy.neighbors(0), &[1, 2, 4, 5, 6]);
        assert_ne!(copy, g);
    }

    /// The graph `edges` describes, wired one `add_edge` at a time.
    fn by_add_edge(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        let mut g = Graph::with_contiguous_ids(n);
        for (u, v) in edges {
            g.add_edge(u, v).unwrap();
        }
        g
    }

    #[test]
    fn directly_filled_generators_equal_the_add_edge_construction() {
        use crate::generators::{cycle, grid, path};
        for n in [1, 2, 3, 5, 17] {
            let want = by_add_edge(n, (1..n).map(|u| (u - 1, u)));
            let got = path(n);
            assert_eq!((got.n(), got.m()), (want.n(), want.m()));
            assert_eq!(got, want, "path({n})");
        }
        for n in [3, 4, 5, 17] {
            let want = by_add_edge(n, (1..n).map(|u| (u - 1, u)).chain([(n - 1, 0)]));
            let got = cycle(n);
            assert_eq!((got.n(), got.m()), (want.n(), want.m()));
            assert_eq!(got, want, "cycle({n})");
        }
        for (rows, cols) in [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4)] {
            let mut edges = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    let u = r * cols + c;
                    if c + 1 < cols {
                        edges.push((u, u + 1));
                    }
                    if r + 1 < rows {
                        edges.push((u, u + cols));
                    }
                }
            }
            let want = by_add_edge(rows * cols, edges);
            let got = grid(rows, cols);
            assert_eq!((got.n(), got.m()), (want.n(), want.m()));
            assert_eq!(got, want, "grid({rows}, {cols})");
        }
        // The `*_with_ids` forms fill after their identifier check.
        let ids = [NodeId(7), NodeId(3), NodeId(11)];
        let mut want = Graph::from_ids(ids).unwrap();
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            want.add_edge(u, v).unwrap();
        }
        assert_eq!(Graph::cycle_with_ids(ids).unwrap(), want);
        want.remove_edge(2, 0).unwrap();
        assert_eq!(Graph::path_with_ids(ids).unwrap(), want);
        assert_eq!(
            Graph::cycle_with_ids([NodeId(1), NodeId(2), NodeId(1)]),
            Err(GraphError::DuplicateNode(NodeId(1)))
        );
    }
}
