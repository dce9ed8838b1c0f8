//! Instances: a graph plus optional node and edge labels.
//!
//! §2 allows nodes and edges to carry weights, colours, labels, etc., and
//! §2.3 extends verification to *solutions of graph problems* encoded as
//! labellings (e.g. "edges with label 1 induce a spanning tree").
//! [`Instance`] bundles a graph with per-node data `N` and per-edge data
//! `E`; pure graph properties use `N = E = ()` with an empty edge map.

use lcp_graph::{norm_edge, Graph, GraphError};
use std::collections::BTreeMap;

/// Edge labelling keyed by normalized index pairs; *presence* in the map
/// is itself information (e.g. membership in a matching with `E = ()`).
pub type EdgeMap<E> = BTreeMap<(usize, usize), E>;

/// An input to a proof labelling scheme: graph + node labels + edge
/// labels.
///
/// ```
/// use lcp_core::Instance;
/// use lcp_graph::generators;
///
/// // A maximal-matching instance: the solution is the edge subset.
/// let g = generators::path(4);
/// let inst = Instance::unlabeled(g).with_edge_set([(1, 2)]);
/// assert!(inst.edge_label(2, 1).is_some());
/// assert!(inst.edge_label(0, 1).is_none());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance<N = (), E = ()> {
    graph: Graph,
    node_data: Vec<N>,
    edge_data: EdgeMap<E>,
}

impl Instance<(), ()> {
    /// An instance with no labels at all (a pure graph property input).
    pub fn unlabeled(graph: Graph) -> Self {
        let n = graph.n();
        Instance {
            graph,
            node_data: vec![(); n],
            edge_data: EdgeMap::new(),
        }
    }

    /// Adds a unit edge label to every listed edge (order-insensitive);
    /// the usual encoding of an edge-subset solution.
    ///
    /// # Panics
    ///
    /// Panics if a pair is not an edge of the graph.
    pub fn with_edge_set<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let keys: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(u, v)| {
                assert!(self.graph.has_edge(u, v), "({u}, {v}) is not an edge");
                norm_edge(u, v)
            })
            .collect();
        // Sorted keys let the map be built in bulk rather than by one
        // insert per edge; duplicates collapse in the bulk build.
        let keys = sort_by_lower_endpoint(keys, self.graph.n());
        let labelled: EdgeMap<()> = keys.into_iter().map(|key| (key, ())).collect();
        if self.edge_data.is_empty() {
            self.edge_data = labelled;
        } else {
            self.edge_data.extend(labelled);
        }
        self
    }
}

/// Sorts normalized edge keys `(u, v)`, `u < v < n`: a counting sort
/// by the lower endpoint, then a sort of each bucket by the upper one.
/// A bucket holds at most `deg(u)` distinct keys, so the per-bucket
/// sorts are tiny, and the whole pass is `O(n + m)` rather than
/// `O(m log m)`.
fn sort_by_lower_endpoint(keys: Vec<(usize, usize)>, n: usize) -> Vec<(usize, usize)> {
    let mut start = vec![0usize; n + 1];
    for &(u, _) in &keys {
        start[u + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut sorted = vec![(0, 0); keys.len()];
    let mut next = start.clone();
    for key in keys {
        sorted[next[key.0]] = key;
        next[key.0] += 1;
    }
    for u in 0..n {
        sorted[start[u]..start[u + 1]].sort_unstable_by_key(|&(_, v)| v);
    }
    sorted
}

impl<N, E> Instance<N, E> {
    /// Builds an instance with explicit per-node data.
    ///
    /// # Panics
    ///
    /// Panics if `node_data.len() != graph.n()`.
    pub fn with_node_data(graph: Graph, node_data: Vec<N>) -> Self {
        assert_eq!(
            node_data.len(),
            graph.n(),
            "one node datum per node required"
        );
        Instance {
            graph,
            node_data,
            edge_data: EdgeMap::new(),
        }
    }

    /// Builds an instance with node and edge data.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or an edge key is not an edge.
    pub fn with_data(graph: Graph, node_data: Vec<N>, edge_data: EdgeMap<E>) -> Self {
        assert_eq!(node_data.len(), graph.n(), "one node datum per node");
        for &(u, v) in edge_data.keys() {
            assert!(graph.has_edge(u, v), "({u}, {v}) is not an edge");
            assert!(u <= v, "edge keys must be normalized");
        }
        Instance {
            graph,
            node_data,
            edge_data,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes (`n(G)`).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The label of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node_label(&self, v: usize) -> &N {
        &self.node_data[v]
    }

    /// All node labels in index order.
    pub fn node_labels(&self) -> &[N] {
        &self.node_data
    }

    /// The label of edge `{u, v}`, if present.
    pub fn edge_label(&self, u: usize, v: usize) -> Option<&E> {
        self.edge_data.get(&norm_edge(u, v))
    }

    /// The whole edge labelling.
    pub fn edge_labels(&self) -> &EdgeMap<E> {
        &self.edge_data
    }

    /// The labelled edge set as normalized pairs (for `E`-as-subset uses).
    pub fn labelled_edges(&self) -> Vec<(usize, usize)> {
        self.edge_data.keys().copied().collect()
    }

    // -----------------------------------------------------------------
    // Mutation (dynamic-graph workloads)
    // -----------------------------------------------------------------
    //
    // Instances are mutated through these targeted operations instead of
    // a raw `&mut Graph` accessor so the labelling invariants (one node
    // datum per node, edge labels only on edges) cannot be broken.

    /// Inserts the undirected edge `{u, v}` (unlabelled).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indices, self-loops, and duplicate edges.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.graph.add_edge(u, v)
    }

    /// Removes the undirected edge `{u, v}`, dropping its label (if any)
    /// with it.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indices and absent edges; the edge labelling
    /// is untouched on error.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.graph.remove_edge(u, v)?;
        self.edge_data.remove(&norm_edge(u, v));
        Ok(())
    }

    /// Replaces the label of node `v`, returning the previous label.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_node_label(&mut self, v: usize, label: N) -> N {
        std::mem::replace(&mut self.node_data[v], label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_graph::generators;

    #[test]
    fn unlabeled_instance() {
        let inst = Instance::unlabeled(generators::cycle(4));
        assert_eq!(inst.n(), 4);
        assert!(inst.edge_labels().is_empty());
        assert_eq!(*inst.node_label(2), ());
    }

    #[test]
    fn edge_set_normalizes_keys() {
        let inst = Instance::unlabeled(generators::path(3)).with_edge_set([(1, 0)]);
        assert!(inst.edge_label(0, 1).is_some());
        assert!(inst.edge_label(1, 0).is_some());
        assert_eq!(inst.labelled_edges(), vec![(0, 1)]);
    }

    #[test]
    fn edge_set_matches_a_comparison_sort_build() {
        // The map `with_edge_set` built with `sort_unstable`, on random
        // subsets of a grid's edges, given in random order and with
        // repeats (both orientations), which must collapse to one key.
        let g = generators::grid(7, 9);
        let all: Vec<(usize, usize)> = g.edges().collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..64 {
            let picks = next(2 * all.len() + 1);
            let edges: Vec<(usize, usize)> = (0..picks)
                .map(|_| {
                    let (u, v) = all[next(all.len())];
                    if round % 2 == 0 && next(2) == 0 {
                        (v, u)
                    } else {
                        (u, v)
                    }
                })
                .collect();
            let mut keys: Vec<(usize, usize)> =
                edges.iter().map(|&(u, v)| norm_edge(u, v)).collect();
            keys.sort_unstable();
            let want: EdgeMap<()> = keys.into_iter().map(|key| (key, ())).collect();
            let inst = Instance::unlabeled(g.clone()).with_edge_set(edges);
            assert_eq!(inst.edge_labels(), &want, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn edge_set_validates() {
        let _ = Instance::unlabeled(generators::path(3)).with_edge_set([(0, 2)]);
    }

    #[test]
    fn node_data_roundtrip() {
        let inst: Instance<u32> =
            Instance::with_node_data(generators::path(3), vec![10u32, 20, 30]);
        assert_eq!(*inst.node_label(1), 20);
        assert_eq!(inst.node_labels(), &[10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "one node datum per node")]
    fn node_data_length_checked() {
        let _: Instance<u8> = Instance::with_node_data(generators::path(3), vec![1u8]);
    }

    #[test]
    fn edge_mutations_keep_labelling_invariants() {
        let mut inst = Instance::unlabeled(generators::path(4)).with_edge_set([(1, 2)]);
        // Removing a labelled edge drops its label with it.
        inst.remove_edge(2, 1).unwrap();
        assert!(inst.edge_label(1, 2).is_none());
        assert_eq!(inst.graph().m(), 2);
        // Re-inserting yields an unlabelled edge.
        inst.insert_edge(1, 2).unwrap();
        assert!(inst.edge_label(1, 2).is_none());
        assert_eq!(inst.graph().m(), 3);
        // Failed mutations leave everything intact.
        assert!(inst.insert_edge(1, 2).is_err());
        assert!(inst.remove_edge(0, 3).is_err());
        assert_eq!(inst.graph().m(), 3);
    }

    #[test]
    fn node_labels_swap_in_place() {
        let mut inst: Instance<u32> =
            Instance::with_node_data(generators::path(3), vec![10u32, 20, 30]);
        assert_eq!(inst.set_node_label(1, 99), 20);
        assert_eq!(inst.node_labels(), &[10, 99, 30]);
    }

    #[test]
    fn with_data_accepts_weights() {
        let mut weights = EdgeMap::new();
        weights.insert((0, 1), 7u64);
        let inst = Instance::with_data(generators::path(3), vec![(), (), ()], weights);
        assert_eq!(inst.edge_label(0, 1), Some(&7));
        assert_eq!(inst.edge_label(1, 2), None);
    }
}
