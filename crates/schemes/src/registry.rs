//! The scheme registry: every Table-1 scheme of this crate as one
//! [`SchemeEntry`] — metadata (paper row, claimed bound, applicable
//! graph families, radius) plus a builder that materializes a
//! type-erased [`DynScheme`] cell for any `(family, size, seed,
//! polarity)` request.
//!
//! The registry is a *static list*, not link-time magic: [`all`] simply
//! constructs every entry, so adding a scheme means adding one entry
//! here (the registry test fails if a public scheme is forgotten). The
//! conformance campaign (`lcp-conformance`) sweeps [`all`] × sizes ×
//! families × polarities; the Table-1 bench bin renders the same
//! metadata as a table.
//!
//! Builders are **deterministic in the request**: the same
//! [`CellRequest`] always yields the same instance (random families
//! derive their stream from the request's seed), which is what makes
//! campaign reports byte-identical across runs and thread schedules.
//!
//! A builder returns `None` when the requested polarity cannot be
//! realized on that family (e.g. a *non*-Eulerian cycle): the campaign
//! records such cells as inapplicable rather than failed. Polarity is
//! the builder's *intent*; the campaign re-derives ground truth from
//! [`DynScheme::holds`], so a random family member that lands on the
//! other side is re-classified, never mis-checked.
//!
//! ## Cell coordinates and seed derivation
//!
//! Everything downstream of the registry addresses work by **cell
//! coordinates**: the tuple `(scheme id, family, n, seed, polarity)`.
//! The first four become a [`CellRequest`] handed to the entry's
//! builder; the id resolves through [`find`]. Two conventions make
//! coordinates a stable, location-independent addressing scheme:
//!
//! * **Ids, not positions.** The scheme id is a stable kebab-case
//!   string. Consumers that need per-cell randomness (the conformance
//!   campaign, `lcp-serve` cell loading) hash the *id* — never the
//!   entry's index in [`all`] — so inserting a new scheme reorders
//!   nothing and replays stay byte-identical.
//! * **Derived seeds, not shared streams.** A campaign-level seed is
//!   mixed (splitmix64-style, in `lcp-conformance`) with the remaining
//!   coordinates to give every cell its own RNG stream. Cells therefore
//!   generate identical instances regardless of execution order,
//!   thread schedule, `--scheme`/`--family` filters, or shard
//!   assignment — the root of the repo's standing seed and shard
//!   determinism policies.
//!
//! The builder itself adds the last determinism layer: equal
//! `CellRequest`s yield equal instances, so any two processes that
//! agree on coordinates agree on the cell — which is also what lets a
//! resident server and an in-process checker compare verdicts
//! cell-for-cell.

use crate::labels::{ArcDir, StMark};
use crate::{
    chromatic::{ChromaticAtMost, NonBipartite},
    complement::Complement,
    cycles::{EvenCycle, MaxMatchingCycle, OddCycle},
    eulerian::Eulerian,
    hamiltonian::HamiltonianCycle,
    lcl,
    leader::LeaderElection,
    line_graph::LineGraph,
    matching::{
        MaxWeightMatchingBipartite, MaximalMatching, MaximumMatchingBipartite, WeightedEdge,
    },
    spanning_tree::{Acyclic, SpanningTree},
    st_connectivity::StConnectivity,
    st_reach::{StReachability, StReachabilityDirected, StUnreachability},
    tree_universal, universal,
    weak::WeakLeaderElection,
};
use lcp_core::dynamic::DynScheme;
use lcp_core::harness::GrowthClass;
use lcp_core::{EdgeMap, Instance};
use lcp_graph::families::GraphFamily;
use lcp_graph::matching as gm;
use lcp_graph::{hamilton, ops, spanning, traversal, Graph};

/// Which side of the completeness/soundness matrix a builder should aim
/// for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// A yes-instance: completeness, size measurement, tamper probing.
    Yes,
    /// A no-instance: exhaustive / adversarial soundness checks.
    No,
}

impl Polarity {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Polarity::Yes => "yes",
            Polarity::No => "no",
        }
    }
}

/// One cell request of the campaign matrix.
#[derive(Clone, Copy, Debug)]
pub struct CellRequest {
    /// Graph family to draw the instance from.
    pub family: GraphFamily,
    /// Requested size (builders may round to the family's natural
    /// shapes or the polarity's parity; read the real size off the
    /// cell).
    pub n: usize,
    /// Seed for the family's RNG stream.
    pub seed: u64,
    /// The side of the matrix to aim for.
    pub polarity: Polarity,
}

/// Builder signature: a plain `fn` so entries stay `'static` without
/// link-time registration crates.
pub type CellBuilder = fn(&CellRequest) -> Option<DynScheme>;

/// One registered scheme with its Table-1 metadata.
#[derive(Clone, Copy)]
pub struct SchemeEntry {
    /// Stable kebab-case identifier (report keys, `--scheme` filters).
    pub id: &'static str,
    /// Human-readable property / problem name.
    pub title: &'static str,
    /// Where the row lives in the paper.
    pub paper_row: &'static str,
    /// The paper's "Proof size s" claim, verbatim.
    pub claimed_bound: &'static str,
    /// The claim as a measurable growth class (an *upper* bound: cells
    /// pass when the measured class is no larger).
    pub claimed_growth: GrowthClass,
    /// Families the campaign sweeps this scheme across.
    pub families: &'static [GraphFamily],
    /// The verifier's horizon `r`.
    pub radius: usize,
    /// Size cap for schemes with expensive ground truth or `poly(n)`
    /// proofs (the campaign clamps requested sizes).
    pub max_n: usize,
    /// The cell builder (public so downstream crates can append entries
    /// for schemes living outside `lcp-schemes`, e.g. `lcp-logic`'s
    /// Σ¹₁ scheme).
    pub builder: CellBuilder,
}

impl SchemeEntry {
    /// Builds the cell for `req`, or `None` when the `(family,
    /// polarity)` combination is inapplicable to this scheme.
    ///
    /// Requests above [`Self::max_n`] are clamped, not rejected.
    pub fn build(&self, req: &CellRequest) -> Option<DynScheme> {
        let clamped = CellRequest {
            n: req.n.min(self.max_n),
            ..*req
        };
        (self.builder)(&clamped)
    }
}

impl std::fmt::Debug for SchemeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeEntry")
            .field("id", &self.id)
            .field("paper_row", &self.paper_row)
            .field("claimed_bound", &self.claimed_bound)
            .finish()
    }
}

/// No size cap.
const UNCAPPED: usize = usize::MAX;

// ---------------------------------------------------------------------
// Builder helpers
// ---------------------------------------------------------------------

fn base(req: &CellRequest) -> Graph {
    req.family.generate(req.n, req.seed)
}

fn base_n(req: &CellRequest, n: usize) -> Graph {
    req.family.generate(n, req.seed)
}

/// Two family members side by side (ids of the second shifted out of the
/// way) — the canonical disconnected instance.
/// Returns the union together with the first half's node count — the
/// index where the second component starts (for placing `t` across the
/// cut).
fn split_halves(req: &CellRequest) -> (Graph, usize) {
    let a = req.family.generate((req.n / 2).max(2), req.seed);
    let b = req
        .family
        .generate((req.n / 2).max(2), req.seed ^ 0x9e37_79b9_7f4a_7c15);
    let boundary = a.n();
    (
        ops::disjoint_union(&a, &ops::shift_ids(&b, 1_000_000)).expect("shifted ids are disjoint"),
        boundary,
    )
}

/// `s`–`t` marked instance with unit edges.
fn st_instance(g: Graph, s: usize, t: usize) -> Instance<StMark> {
    let marks = StMark::mark(g.n(), s, t);
    Instance::with_node_data(g, marks)
}

/// `s`–`t` marked instance in the directed representation, every edge
/// oriented from its smaller identifier to its larger.
fn st_directed(g: Graph, s: usize, t: usize) -> Instance<StMark, ArcDir> {
    let mut edges: EdgeMap<ArcDir> = EdgeMap::new();
    for (u, v) in g.edges() {
        edges.insert(lcp_graph::norm_edge(u, v), ArcDir::Forward);
    }
    let marks = StMark::mark(g.n(), s, t);
    Instance::with_data(g, marks, edges)
}

/// A pair of nodes at distance ≥ 2 (the non-adjacency promise of the
/// `s`–`t` connectivity schemes).
fn nonadjacent_pair(g: &Graph) -> Option<(usize, usize)> {
    for s in g.nodes() {
        let dist = traversal::bfs_distances(g, s);
        if let Some(t) = g.nodes().find(|&t| dist[t].is_some_and(|d| d >= 2)) {
            return Some((s, t));
        }
    }
    None
}

fn is_prime(n: usize) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

fn next_prime(mut n: usize) -> usize {
    n = n.max(3);
    while !is_prime(n) {
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------
// Builders (one per entry; deterministic in the request)
// ---------------------------------------------------------------------

fn b_eulerian(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    match (req.family, req.polarity) {
        // Cycles are Eulerian; paths, grids (≥ 2×3), trees, and barbells
        // always have an odd-degree node.
        (Cycle, Polarity::Yes) => Some(DynScheme::seal(Eulerian, Instance::unlabeled(base(req)))),
        (Path | Grid | Tree | Barbell, Polarity::No) => {
            Some(DynScheme::seal(Eulerian, Instance::unlabeled(base(req))))
        }
        _ => None,
    }
}

fn b_line_graph(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    match (req.family, req.polarity) {
        // Paths and cycles are line graphs (of paths and cycles).
        (Path | Cycle, Polarity::Yes) => {
            Some(DynScheme::seal(LineGraph, Instance::unlabeled(base(req))))
        }
        // Grids ≥ 2×3 contain an induced claw; trees are forced to one.
        (Grid, Polarity::No) => Some(DynScheme::seal(LineGraph, Instance::unlabeled(base(req)))),
        (Tree, Polarity::No) => {
            let g = base(req);
            let g = if g.nodes().any(|v| {
                // An induced claw: a degree-≥3 node with 3 pairwise
                // non-adjacent neighbours — automatic in a tree.
                g.degree(v) >= 3
            }) {
                g
            } else {
                // The random tree came out as a path; a star is the
                // canonical non-line-graph tree.
                lcp_graph::generators::star(g.n().max(4) - 1)
            };
            Some(DynScheme::seal(LineGraph, Instance::unlabeled(g)))
        }
        _ => None,
    }
}

fn b_st_reachability(req: &CellRequest) -> Option<DynScheme> {
    match req.polarity {
        Polarity::Yes => {
            let g = base(req);
            let n = g.n();
            Some(DynScheme::seal(StReachability, st_instance(g, 0, n - 1)))
        }
        Polarity::No => {
            let (g, half) = split_halves(req);
            Some(DynScheme::seal(StReachability, st_instance(g, 0, half)))
        }
    }
}

fn b_st_unreachability_undirected(req: &CellRequest) -> Option<DynScheme> {
    let scheme = StUnreachability::undirected();
    match req.polarity {
        Polarity::Yes => {
            let (g, half) = split_halves(req);
            let marks = StMark::mark(g.n(), 0, half);
            Some(DynScheme::seal(
                scheme,
                Instance::with_data(g, marks, EdgeMap::new()),
            ))
        }
        Polarity::No => {
            let g = base(req);
            let n = g.n();
            let marks = StMark::mark(n, 0, n - 1);
            Some(DynScheme::seal(
                scheme,
                Instance::with_data(g, marks, EdgeMap::new()),
            ))
        }
    }
}

/// In the all-`Forward` orientation the largest identifier is a sink, and
/// node 0 reaches node `n − 1` along monotone paths in every family used.
fn b_st_reachability_directed(req: &CellRequest) -> Option<DynScheme> {
    let g = base(req);
    let n = g.n();
    let sink = g.nodes().max_by_key(|&v| g.id(v)).expect("nonempty");
    match req.polarity {
        Polarity::Yes => Some(DynScheme::seal(
            StReachabilityDirected,
            st_directed(g, 0, n - 1),
        )),
        Polarity::No => {
            if sink == 0 {
                return None;
            }
            Some(DynScheme::seal(
                StReachabilityDirected,
                st_directed(g, sink, 0),
            ))
        }
    }
}

fn b_st_unreachability_directed(req: &CellRequest) -> Option<DynScheme> {
    let scheme = StUnreachability::directed();
    let g = base(req);
    let n = g.n();
    let sink = g.nodes().max_by_key(|&v| g.id(v)).expect("nonempty");
    match req.polarity {
        Polarity::Yes => {
            if sink == 0 {
                return None;
            }
            Some(DynScheme::seal(scheme, st_directed(g, sink, 0)))
        }
        Polarity::No => Some(DynScheme::seal(scheme, st_directed(g, 0, n - 1))),
    }
}

fn b_st_connectivity(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let scheme = StConnectivity::general(2);
    match (req.family, req.polarity) {
        // κ(s, t) = 2 between antipodes of a cycle / corners of a grid.
        (Cycle, Polarity::Yes) => {
            let g = base_n(req, req.n.max(5));
            let n = g.n();
            Some(DynScheme::seal(scheme, st_instance(g, 0, n / 2)))
        }
        (Grid, Polarity::Yes) => {
            let g = base(req);
            let n = g.n();
            Some(DynScheme::seal(scheme, st_instance(g, 0, n - 1)))
        }
        // κ = 1 across a path, a tree, or the barbell bridge.
        (Path, Polarity::No) => {
            let g = base(req);
            let n = g.n();
            (n >= 3).then(|| DynScheme::seal(scheme, st_instance(g, 0, n - 1)))
        }
        (Tree | Barbell, Polarity::No) => {
            let g = base(req);
            let (s, t) = nonadjacent_pair(&g)?;
            Some(DynScheme::seal(scheme, st_instance(g, s, t)))
        }
        _ => None,
    }
}

fn b_st_connectivity_planar(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let scheme = StConnectivity::planar(2);
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => {
            let g = base_n(req, req.n.max(5));
            let n = g.n();
            Some(DynScheme::seal(scheme, st_instance(g, 0, n / 2)))
        }
        (Grid, Polarity::Yes) => {
            let g = base(req);
            let n = g.n();
            Some(DynScheme::seal(scheme, st_instance(g, 0, n - 1)))
        }
        (Path, Polarity::No) => {
            let g = base(req);
            let n = g.n();
            (n >= 3).then(|| DynScheme::seal(scheme, st_instance(g, 0, n - 1)))
        }
        _ => None,
    }
}

fn b_bipartite(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| {
        Some(DynScheme::seal(
            crate::bipartite::Bipartite,
            Instance::unlabeled(g),
        ))
    };
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => seal(base_n(req, (req.n + 1) & !1)),
        (Cycle, Polarity::No) => seal(base_n(req, (req.n | 1).max(5))),
        (Grid | Bipartite, Polarity::Yes) => seal(base(req)),
        (Barbell | Gnp, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_even_cycle(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| Some(DynScheme::seal(EvenCycle, Instance::unlabeled(g)));
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => seal(base_n(req, (req.n + 1) & !1)),
        (Cycle, Polarity::No) => seal(base_n(req, (req.n | 1).max(5))),
        // Outside the cycle family the degree check rejects locally.
        (Path | Grid, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_odd_cycle(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| Some(DynScheme::seal(OddCycle, Instance::unlabeled(g)));
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => seal(base_n(req, (req.n | 1).max(5))),
        (Cycle, Polarity::No) => seal(base_n(req, (req.n + 1) & !1)),
        (Path | Grid, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn alternating_matching(n: usize) -> Vec<(usize, usize)> {
    (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect()
}

fn b_max_matching_cycle(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => {
            let g = base(req);
            let m = alternating_matching(g.n());
            Some(DynScheme::seal(
                MaxMatchingCycle,
                Instance::unlabeled(g).with_edge_set(m),
            ))
        }
        (Cycle, Polarity::No) => {
            // One edge short of maximum.
            let g = base_n(req, req.n.max(5));
            let mut m = alternating_matching(g.n());
            m.pop();
            Some(DynScheme::seal(
                MaxMatchingCycle,
                Instance::unlabeled(g).with_edge_set(m),
            ))
        }
        (Path, Polarity::No) => {
            let g = base(req);
            let m: Vec<(usize, usize)> = (0..(g.n() - 1) / 2).map(|i| (2 * i, 2 * i + 1)).collect();
            Some(DynScheme::seal(
                MaxMatchingCycle,
                Instance::unlabeled(g).with_edge_set(m),
            ))
        }
        (Grid, Polarity::No) => Some(DynScheme::seal(
            MaxMatchingCycle,
            Instance::unlabeled(base(req)),
        )),
        _ => None,
    }
}

fn b_chromatic_at_most(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let scheme = ChromaticAtMost { k: 3 };
    match (req.family, req.polarity) {
        // Every cycle and grid is 3-colourable.
        (Cycle | Grid, Polarity::Yes) => {
            Some(DynScheme::seal(scheme, Instance::unlabeled(base(req))))
        }
        // Barbell cliques of size ≥ 4 contain K₄.
        (Barbell, Polarity::No) => Some(DynScheme::seal(
            scheme,
            Instance::unlabeled(base_n(req, req.n.max(8))),
        )),
        (Gnp, Polarity::No) => Some(DynScheme::seal(scheme, Instance::unlabeled(base(req)))),
        _ => None,
    }
}

fn b_non_bipartite(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| Some(DynScheme::seal(NonBipartite, Instance::unlabeled(g)));
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => seal(base_n(req, (req.n | 1).max(5))),
        (Barbell, Polarity::Yes) => seal(base(req)),
        (Cycle, Polarity::No) => seal(base_n(req, (req.n + 1) & !1)),
        (Grid | Path, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_co_eulerian(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let scheme = Complement::new(Eulerian);
    match (req.family, req.polarity) {
        (Path | Grid | Tree, Polarity::Yes) => {
            Some(DynScheme::seal(scheme, Instance::unlabeled(base(req))))
        }
        (Cycle, Polarity::No) => Some(DynScheme::seal(scheme, Instance::unlabeled(base(req)))),
        _ => None,
    }
}

fn b_co_maximal_matching(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let scheme = Complement::new(MaximalMatching);
    match (req.family, req.polarity) {
        // The empty matching is never maximal on a graph with edges.
        (Path | Cycle | Grid | Tree, Polarity::Yes) => {
            Some(DynScheme::seal(scheme, Instance::unlabeled(base(req))))
        }
        // A genuinely maximal matching refutes the complement property.
        (Path | Cycle | Grid | Tree, Polarity::No) => {
            let g = base(req);
            let m = gm::greedy_maximal_matching(&g);
            Some(DynScheme::seal(
                scheme,
                Instance::unlabeled(g).with_edge_set(m),
            ))
        }
        _ => None,
    }
}

fn b_symmetric_graph(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| {
        Some(DynScheme::seal(
            universal::symmetric_graph(),
            Instance::unlabeled(g),
        ))
    };
    match (req.family, req.polarity) {
        // Cycles and paths have their reflections.
        (Cycle | Path, Polarity::Yes) => seal(base(req)),
        // Random trees almost always carry a twin-leaf automorphism, so
        // a *random* tree is useless as a no-instance; a spider whose
        // three legs have pairwise distinct lengths is provably
        // asymmetric (any automorphism fixes the unique degree-3 hub
        // and cannot permute unequal legs).
        (Tree, Polarity::No) => {
            let n = req.n.max(7);
            let mut g = lcp_graph::generators::path(n - 1);
            let leaf = g
                .add_node(lcp_graph::NodeId(1_000_000))
                .expect("fresh id is unique");
            g.add_edge(2, leaf).expect("fresh leaf edge");
            seal(g) // legs of lengths 1, 2, and n − 4 from the hub
        }
        // G(n, p) at these sizes is asymmetric with high probability
        // (ground truth re-classifies the exceptions).
        (Gnp, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_non_three_colorable(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| {
        Some(DynScheme::seal(
            universal::non_three_colorable(),
            Instance::unlabeled(g),
        ))
    };
    match (req.family, req.polarity) {
        (Barbell, Polarity::Yes) => seal(base_n(req, req.n.max(8))),
        (Cycle | Grid | Tree, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_prime_order(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| {
        Some(DynScheme::seal(
            universal::prime_order(),
            Instance::unlabeled(g),
        ))
    };
    match (req.family, req.polarity) {
        (Path | Cycle | Tree, Polarity::Yes) => seal(base_n(req, next_prime(req.n))),
        // Grids ≥ 2×3 have composite order; even sizes are composite.
        (Grid, Polarity::No) => seal(base(req)),
        (Path | Cycle | Tree, Polarity::No) => seal(base_n(req, (req.n + 1) & !1)),
        _ => None,
    }
}

fn b_tree_fixpoint_free(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| {
        Some(DynScheme::seal(
            tree_universal::tree_fixpoint_free(),
            Instance::unlabeled(g),
        ))
    };
    match (req.family, req.polarity) {
        // A doubled tree: the copy-swap is a fixpoint-free automorphism.
        (Tree, Polarity::Yes) => {
            let t = req.family.generate((req.n / 2).max(2), req.seed);
            let t2 = ops::shift_ids(&t, 1_000_000);
            seal(ops::join_with_path(&t, 0, &t2, 0, &[]).expect("shifted ids disjoint"))
        }
        // Reversing an even path is fixpoint-free; an odd path fixes its
        // centre (and every tree automorphism preserves the centre).
        (Path, Polarity::Yes) => seal(base_n(req, (req.n + 1) & !1)),
        (Path, Polarity::No) => seal(base_n(req, (req.n | 1).max(3))),
        (Tree | Grid, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_maximal_matching(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    match (req.family, req.polarity) {
        (Path | Cycle | Grid | Gnp, Polarity::Yes) => {
            let g = base(req);
            let m = gm::greedy_maximal_matching(&g);
            Some(DynScheme::seal(
                MaximalMatching,
                Instance::unlabeled(g).with_edge_set(m),
            ))
        }
        // The empty matching is not maximal whenever the graph has edges.
        (Path | Cycle | Grid | Gnp, Polarity::No) => Some(DynScheme::seal(
            MaximalMatching,
            Instance::unlabeled(base(req)),
        )),
        _ => None,
    }
}

fn greedy_mis(g: &Graph) -> Vec<bool> {
    let mut in_set = vec![false; g.n()];
    let mut blocked = vec![false; g.n()];
    for v in g.nodes() {
        if !blocked[v] {
            in_set[v] = true;
            blocked[v] = true;
            for &u in g.neighbors(v) {
                blocked[u] = true;
            }
        }
    }
    in_set
}

fn b_lcl_mis(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    let g = base(req);
    let labels = match req.polarity {
        Polarity::Yes => greedy_mis(&g),
        // The empty set is independent but nothing is dominated.
        Polarity::No => vec![false; g.n()],
    };
    Some(DynScheme::seal(
        lcl::mis(),
        Instance::with_node_data(g, labels),
    ))
}

fn b_lcl_agreement(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    let g = base(req);
    let mut labels = vec![7u64; g.n()];
    if req.polarity == Polarity::No {
        labels[0] = 8;
    }
    Some(DynScheme::seal(
        lcl::agreement(),
        Instance::with_node_data(g, labels),
    ))
}

fn b_lcl_proper_coloring(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    let g = base(req);
    let labels = match req.polarity {
        Polarity::Yes => {
            let colors = lcp_graph::coloring::greedy_coloring(&g);
            if colors.iter().any(|&c| c >= 4) {
                return None; // greedy overshot the palette on this tree
            }
            colors
        }
        Polarity::No => vec![0usize; g.n()],
    };
    Some(DynScheme::seal(
        lcl::proper_coloring(4),
        Instance::with_node_data(g, labels),
    ))
}

fn b_maximum_matching_bipartite(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Bipartite | Grid | Path | Cycle) {
        return None;
    }
    let g = match req.family {
        Cycle => base_n(req, (req.n + 1) & !1), // odd cycles are not bipartite
        _ => base(req),
    };
    let side = traversal::bipartition(&g)?;
    let sol = gm::maximum_bipartite_matching(&g, &side);
    let mut edges = sol.edges();
    match req.polarity {
        Polarity::Yes => {}
        Polarity::No => {
            // One edge short of maximum is still a matching, not maximum.
            edges.pop()?;
        }
    }
    Some(DynScheme::seal(
        MaximumMatchingBipartite,
        Instance::unlabeled(g).with_edge_set(edges),
    ))
}

fn b_max_weight_matching_bipartite(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Bipartite | Grid | Path) {
        return None;
    }
    let g = base(req);
    let side = traversal::bipartition(&g)?;
    // Deterministic strictly positive weights in 1..=7.
    let weights: gm::EdgeWeightMap = g
        .edges()
        .enumerate()
        .map(|(i, e)| (e, 1 + (i as u64 * 5 + 3) % 7))
        .collect();
    let matched: std::collections::BTreeSet<(usize, usize)> = match req.polarity {
        Polarity::Yes => gm::max_weight_bipartite_matching(&g, &side, &weights)
            .edges()
            .into_iter()
            .collect(),
        // Empty matching: suboptimal because every weight is positive.
        Polarity::No => Default::default(),
    };
    let mut data: EdgeMap<WeightedEdge> = EdgeMap::new();
    for (k, w) in &weights {
        data.insert(
            *k,
            WeightedEdge {
                weight: *w,
                matched: matched.contains(k),
            },
        );
    }
    let n = g.n();
    Some(DynScheme::seal(
        MaxWeightMatchingBipartite,
        Instance::with_data(g, vec![(); n], data),
    ))
}

fn b_leader_election(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    let g = base(req);
    let n = g.n();
    let labels: Vec<bool> = match req.polarity {
        Polarity::Yes => (0..n).map(|v| v == n / 2).collect(),
        // Zero leaders: inside the (connected) promise, never certifiable.
        Polarity::No => vec![false; n],
    };
    Some(DynScheme::seal(
        LeaderElection,
        Instance::with_node_data(g, labels),
    ))
}

fn b_spanning_tree(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree | Gnp) {
        return None;
    }
    let g = base(req);
    if !traversal::is_connected(&g) {
        return None; // G(n, p) stragglers: outside the connected promise
    }
    let tree_edges: Vec<(usize, usize)> = spanning::bfs_spanning_tree(&g, 0).edges();
    let edges: Vec<(usize, usize)> = match (req.family, req.polarity) {
        (_, Polarity::Yes) => tree_edges,
        // A full cycle is not a tree; elsewhere drop an edge so the
        // labelled forest no longer spans.
        (Cycle, Polarity::No) => base(req).edges().collect(),
        (_, Polarity::No) => {
            let mut e = tree_edges;
            e.pop()?;
            e
        }
    };
    Some(DynScheme::seal(
        SpanningTree,
        Instance::unlabeled(g).with_edge_set(edges),
    ))
}

fn b_acyclic(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    let seal = |g: Graph| Some(DynScheme::seal(Acyclic, Instance::unlabeled(g)));
    match (req.family, req.polarity) {
        (Tree | Path, Polarity::Yes) => seal(base(req)),
        (Cycle | Grid | Barbell, Polarity::No) => seal(base(req)),
        _ => None,
    }
}

fn b_hamiltonian_cycle(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    match (req.family, req.polarity) {
        (Cycle, Polarity::Yes) => {
            let g = base(req);
            let edges: Vec<(usize, usize)> = g.edges().collect();
            Some(DynScheme::seal(
                HamiltonianCycle,
                Instance::unlabeled(g).with_edge_set(edges),
            ))
        }
        (Grid, Polarity::Yes) => {
            let g = base(req);
            let cycle = hamilton::hamiltonian_cycle(&g)?;
            let n = g.n();
            let edges: Vec<(usize, usize)> =
                (0..n).map(|i| (cycle[i], cycle[(i + 1) % n])).collect();
            Some(DynScheme::seal(
                HamiltonianCycle,
                Instance::unlabeled(g).with_edge_set(edges),
            ))
        }
        (Cycle, Polarity::No) => {
            // All but one edge labelled: the gap endpoints see degree 1.
            let g = base(req);
            let edges: Vec<(usize, usize)> = g.edges().skip(1).collect();
            Some(DynScheme::seal(
                HamiltonianCycle,
                Instance::unlabeled(g).with_edge_set(edges),
            ))
        }
        (Path | Tree, Polarity::No) => Some(DynScheme::seal(
            HamiltonianCycle,
            Instance::unlabeled(base(req)),
        )),
        _ => None,
    }
}

fn b_weak_leader_election(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    // Weak schemes have no no-instances inside the connected promise: the
    // prover may always pick a leader. (Disconnected graphs are outside
    // the promise — the per-component certificates would wrongly elect
    // one leader each.)
    match req.polarity {
        Polarity::Yes => Some(DynScheme::seal(
            WeakLeaderElection,
            Instance::unlabeled(base(req)),
        )),
        Polarity::No => None,
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

use GraphFamily::{Barbell, Bipartite as FBipartite, Cycle, Gnp, Grid, Path, Tree};

/// Looks up a registered scheme by its stable kebab-case id — the
/// resolution step for anything that addresses cells by coordinates
/// (`lcp-serve` requests, CLI `--scheme` filters).
///
/// Ids are unique across the registry, so the first match is the only
/// one. `None` for unknown ids.
pub fn find(id: &str) -> Option<SchemeEntry> {
    all().into_iter().find(|e| e.id == id)
}

/// Every registered scheme, in Table-1 order (properties, then
/// problems).
///
/// The list is the single source of truth for the conformance campaign
/// and the registry-driven bench bin; `tests::registry_covers_every_public_scheme`
/// pins it against the crate's public surface.
pub fn all() -> Vec<SchemeEntry> {
    vec![
        SchemeEntry {
            id: "eulerian",
            title: "Eulerian graph",
            paper_row: "1(a) §1.1",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Cycle, Path, Grid, Tree, Barbell],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_eulerian,
        },
        SchemeEntry {
            id: "line-graph",
            title: "line graph",
            paper_row: "1(a) §1.1",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Path, Cycle, Tree, Grid],
            radius: 2,
            max_n: 48,
            builder: b_line_graph,
        },
        SchemeEntry {
            id: "st-reachability",
            title: "s–t reachability",
            paper_row: "1(a) §4.1",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[Path, Cycle, Grid, Tree, FBipartite, Barbell],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_st_reachability,
        },
        SchemeEntry {
            id: "st-unreachability-undirected",
            title: "s–t unreachability (undir.)",
            paper_row: "1(a) §4.1",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[Path, Cycle, Grid, Tree, FBipartite, Barbell],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_st_unreachability_undirected,
        },
        SchemeEntry {
            id: "st-unreachability-directed",
            title: "s–t unreachability (directed)",
            paper_row: "1(a) §4.1",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[Path, Cycle, Grid],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_st_unreachability_directed,
        },
        SchemeEntry {
            id: "st-reachability-directed",
            title: "s–t reachability (directed)",
            paper_row: "1(a) §4.1",
            claimed_bound: "O(log Δ)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Cycle, Grid],
            radius: 2,
            max_n: UNCAPPED,
            builder: b_st_reachability_directed,
        },
        SchemeEntry {
            id: "st-connectivity",
            title: "s–t connectivity = 2",
            paper_row: "1(a) §4.2",
            claimed_bound: "O(log k)",
            claimed_growth: GrowthClass::Constant,
            families: &[Cycle, Grid, Path, Tree, Barbell],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_st_connectivity,
        },
        SchemeEntry {
            id: "st-connectivity-planar",
            title: "s–t connectivity = 2 (colored idx)",
            paper_row: "1(a) §4.2",
            claimed_bound: "Θ(1) planar",
            claimed_growth: GrowthClass::Constant,
            families: &[Cycle, Grid, Path],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_st_connectivity_planar,
        },
        SchemeEntry {
            id: "bipartite",
            title: "bipartite graph",
            paper_row: "1(a) §1.2",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[Cycle, Grid, FBipartite, Barbell, Gnp],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_bipartite,
        },
        SchemeEntry {
            id: "even-cycle",
            title: "even n(G) on cycles",
            paper_row: "1(a) §5",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[Cycle, Path, Grid],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_even_cycle,
        },
        SchemeEntry {
            id: "odd-cycle",
            title: "odd n(G) on cycles",
            paper_row: "1(a) §5",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Cycle, Path, Grid],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_odd_cycle,
        },
        SchemeEntry {
            id: "chromatic-at-most-3",
            title: "chromatic number ≤ 3",
            paper_row: "1(a) §2.2",
            claimed_bound: "O(log k)",
            claimed_growth: GrowthClass::Constant,
            families: &[Cycle, Grid, Barbell, Gnp],
            radius: 1,
            max_n: 24,
            builder: b_chromatic_at_most,
        },
        SchemeEntry {
            id: "non-bipartite",
            title: "chromatic number > 2",
            paper_row: "1(a) §5.1",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Cycle, Barbell, Grid, Path],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_non_bipartite,
        },
        SchemeEntry {
            id: "co-eulerian",
            title: "coLCP(0): non-Eulerian",
            paper_row: "1(a) §7.3",
            claimed_bound: "O(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Grid, Tree, Cycle],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_co_eulerian,
        },
        SchemeEntry {
            id: "symmetric-graph",
            title: "symmetric graph",
            paper_row: "1(a) §6.1",
            claimed_bound: "Θ(n²)",
            claimed_growth: GrowthClass::Quadratic,
            families: &[Cycle, Path, Tree, Gnp],
            radius: 1,
            max_n: 16,
            builder: b_symmetric_graph,
        },
        SchemeEntry {
            id: "tree-fixpoint-free",
            title: "fixpoint-free symmetry on trees",
            paper_row: "1(a) §6.2",
            claimed_bound: "Θ(n)",
            claimed_growth: GrowthClass::Linear,
            families: &[Tree, Path, Grid],
            radius: 1,
            max_n: 20,
            builder: b_tree_fixpoint_free,
        },
        SchemeEntry {
            id: "non-3-colorable",
            title: "chromatic number > 3",
            paper_row: "1(a) §6.3",
            claimed_bound: "O(n²)",
            claimed_growth: GrowthClass::Quadratic,
            families: &[Barbell, Cycle, Grid, Tree],
            radius: 1,
            max_n: 16,
            builder: b_non_three_colorable,
        },
        SchemeEntry {
            id: "prime-order",
            title: "computable property (prime n)",
            paper_row: "1(a) §6",
            claimed_bound: "O(n²)",
            claimed_growth: GrowthClass::Quadratic,
            families: &[Path, Cycle, Tree, Grid],
            radius: 1,
            max_n: 16,
            builder: b_prime_order,
        },
        SchemeEntry {
            id: "maximal-matching",
            title: "maximal matching",
            paper_row: "1(b) §2.3",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Path, Cycle, Grid, Gnp],
            radius: 2,
            max_n: UNCAPPED,
            builder: b_maximal_matching,
        },
        SchemeEntry {
            id: "lcl-mis",
            title: "LCL: maximal independent set",
            paper_row: "1(b) §3",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Path, Cycle, Grid, Tree],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_lcl_mis,
        },
        SchemeEntry {
            id: "lcl-agreement",
            title: "LD: agreement",
            paper_row: "1(b) §3.2",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Path, Cycle, Grid, Tree],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_lcl_agreement,
        },
        SchemeEntry {
            id: "lcl-proper-coloring",
            title: "LCL: proper 4-coloring",
            paper_row: "1(b) §3",
            claimed_bound: "0",
            claimed_growth: GrowthClass::Zero,
            families: &[Path, Cycle, Grid, Tree],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_lcl_proper_coloring,
        },
        SchemeEntry {
            id: "maximum-matching-bipartite",
            title: "maximum matching (König cover)",
            paper_row: "1(b) §2.3",
            claimed_bound: "Θ(1)",
            claimed_growth: GrowthClass::Constant,
            families: &[FBipartite, Grid, Path, Cycle],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_maximum_matching_bipartite,
        },
        SchemeEntry {
            id: "max-weight-matching-bipartite",
            title: "max-weight matching (LP duals)",
            paper_row: "1(b) §2.3",
            claimed_bound: "O(log W)",
            claimed_growth: GrowthClass::Constant,
            families: &[FBipartite, Grid, Path],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_max_weight_matching_bipartite,
        },
        SchemeEntry {
            id: "co-maximal-matching",
            title: "coLCP(0): non-maximal matching",
            paper_row: "1(b) §7.3",
            claimed_bound: "O(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Cycle, Grid, Tree],
            radius: 2,
            max_n: UNCAPPED,
            builder: b_co_maximal_matching,
        },
        SchemeEntry {
            id: "leader-election",
            title: "leader election",
            paper_row: "1(b) §5.1",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Cycle, Grid, Tree],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_leader_election,
        },
        SchemeEntry {
            id: "spanning-tree",
            title: "spanning tree",
            paper_row: "1(b) §5.1",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Cycle, Grid, Tree, Gnp],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_spanning_tree,
        },
        SchemeEntry {
            id: "acyclic",
            title: "acyclic graph (forest)",
            paper_row: "1(b) §5.1",
            claimed_bound: "O(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Tree, Path, Cycle, Grid, Barbell],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_acyclic,
        },
        SchemeEntry {
            id: "max-matching-cycle",
            title: "maximum matching on cycles",
            paper_row: "1(b) §5.4",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Cycle, Path, Grid],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_max_matching_cycle,
        },
        SchemeEntry {
            id: "hamiltonian-cycle",
            title: "Hamiltonian cycle",
            paper_row: "1(b) §5.1",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Cycle, Grid, Path, Tree],
            radius: 1,
            max_n: 16,
            builder: b_hamiltonian_cycle,
        },
        SchemeEntry {
            id: "weak-leader-election",
            title: "weak leader election",
            paper_row: "1(b) §7.2",
            claimed_bound: "Θ(log n)",
            claimed_growth: GrowthClass::Logarithmic,
            families: &[Path, Cycle, Grid, Tree],
            radius: 1,
            max_n: UNCAPPED,
            builder: b_weak_leader_election,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_dynamic::DynamicInstance;
    use std::collections::BTreeSet;

    /// The crate's public scheme surface, as registry ids. Adding a
    /// public scheme without registering it (or registering one twice)
    /// fails here.
    const EXPECTED_IDS: &[&str] = &[
        "acyclic",
        "bipartite",
        "chromatic-at-most-3",
        "co-eulerian",
        "co-maximal-matching",
        "eulerian",
        "even-cycle",
        "hamiltonian-cycle",
        "lcl-agreement",
        "lcl-mis",
        "lcl-proper-coloring",
        "leader-election",
        "line-graph",
        "max-matching-cycle",
        "max-weight-matching-bipartite",
        "maximal-matching",
        "maximum-matching-bipartite",
        "non-3-colorable",
        "non-bipartite",
        "odd-cycle",
        "prime-order",
        "spanning-tree",
        "st-connectivity",
        "st-connectivity-planar",
        "st-reachability",
        "st-reachability-directed",
        "st-unreachability-directed",
        "st-unreachability-undirected",
        "symmetric-graph",
        "tree-fixpoint-free",
        "weak-leader-election",
    ];

    #[test]
    fn registry_covers_every_public_scheme_exactly_once() {
        let entries = all();
        let mut ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids, EXPECTED_IDS,
            "registry ids drifted from the public scheme surface"
        );
        let set: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(set.len(), entries.len(), "duplicate registry ids");
    }

    #[test]
    fn every_entry_spans_at_least_three_families() {
        for e in all() {
            assert!(
                e.families.len() >= 3,
                "{} declares only {} families",
                e.id,
                e.families.len()
            );
            let set: BTreeSet<_> = e.families.iter().collect();
            assert_eq!(set.len(), e.families.len(), "{} repeats a family", e.id);
        }
    }

    #[test]
    fn every_entry_builds_a_yes_cell_somewhere() {
        for e in all() {
            let mut built = 0usize;
            let mut yes_seen = false;
            for &family in e.families {
                for polarity in [Polarity::Yes, Polarity::No] {
                    let req = CellRequest {
                        family,
                        n: 10,
                        seed: 5,
                        polarity,
                    };
                    if let Some(cell) = e.build(&req) {
                        built += 1;
                        assert!(cell.n() > 0, "{}: empty instance", e.id);
                        assert_eq!(cell.radius(), e.radius, "{}: radius drift", e.id);
                        if polarity == Polarity::Yes && cell.holds() {
                            yes_seen = true;
                        }
                    }
                }
            }
            assert!(built >= 3, "{} built only {built} cells", e.id);
            assert!(yes_seen, "{} never produced a yes-instance", e.id);
        }
    }

    #[test]
    fn builders_are_deterministic() {
        for e in all() {
            let req = CellRequest {
                family: e.families[0],
                n: 12,
                seed: 11,
                polarity: Polarity::Yes,
            };
            let (Some(a), Some(b)) = (e.build(&req), e.build(&req)) else {
                continue;
            };
            assert_eq!(a.n(), b.n(), "{}: nondeterministic size", e.id);
            assert_eq!(a.holds(), b.holds(), "{}: nondeterministic truth", e.id);
            assert_eq!(a.prove(), b.prove(), "{}: nondeterministic prover", e.id);
        }
    }

    #[test]
    fn sealed_evaluation_agrees_with_the_naive_oracle_on_forged_proofs() {
        let req = CellRequest {
            family: GraphFamily::Grid,
            n: 24,
            seed: 7,
            polarity: Polarity::Yes,
        };
        let cell = find("leader-election").unwrap().build(&req).unwrap();
        // The same instance, typed, for the naive executor.
        let g = base(&req);
        let n = g.n();
        let inst = Instance::with_node_data(g, (0..n).map(|v| v == n / 2).collect());
        let mut forged = cell.prove().expect("yes-instance");
        let v = (0..n).rev().find(|&v| !forged.get(v).is_empty()).unwrap();
        forged.flip(v, 0);
        let naive = lcp_core::evaluate(&LeaderElection, &inst, &forged);
        assert!(!naive.accepted(), "the flip must be caught somewhere");
        // The sealed cell's kept core, thawed into a churn cell that
        // starts from the honest proof; the flipped node is rewritten.
        let mut dynamic = DynamicInstance::from_cell(cell.dynamic_cell());
        let honest = cell.prove().unwrap();
        assert_eq!(dynamic.proof(), &honest);
        dynamic
            .rewrite_proof(v, &forged.get(v).to_bitstring())
            .unwrap();
        let out = dynamic.reverify();
        assert_eq!(dynamic.cached_verdict(), Some(naive.clone()));
        assert_eq!(dynamic.full_check(), naive);
        assert_eq!(
            out.witness,
            lcp_core::evaluate_until_reject(&LeaderElection, &inst, &forged)
        );
        dynamic
            .rewrite_proof(v, &honest.get(v).to_bitstring())
            .unwrap();
        assert_eq!(dynamic.reverify().witness, None);
    }

    #[test]
    fn find_round_trips() {
        assert_eq!(find("eulerian").unwrap().id, "eulerian");
        assert!(find("perpetual-motion").is_none());
    }
}
