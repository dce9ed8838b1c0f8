//! The §5.3 cycle-gluing attack (Figure 1).
//!
//! Given a scheme on the cycle family and parameters `(n, k)`, the attack
//!
//! 1. builds the identifier-patterned cycles `C(a, b)` for `a ∈ A = {1..n}`,
//!    `b ∈ B = {n+1..2n}` (§5.3's exact pattern, so identifier sets of
//!    different cycles overlap only at the right places);
//! 2. labels each cycle (caller-supplied, e.g. "mark one leader"), runs
//!    the prover, and records the *colour* `c(a, b)`: all labels and
//!    proof bits within distance `2r + 1` of `a` or `b` along the cycle;
//! 3. finds a monochromatic `2k`-cycle in the edge-coloured `K_{n,n}` —
//!    the step Bondy–Simonovits guarantees for `o(log n)`-bit proofs —
//!    using the exact even-cycle finder from `lcp-graph`;
//! 4. glues the `k` donor cycles into one `kn`-cycle, inheriting labels
//!    and proofs, and runs the verifier everywhere.
//!
//! If the glued instance is a no-instance and all nodes accept, the
//! scheme provably is not sound at its proof size — the paper's lower
//! bound, exhibited.

use crate::CounterExample;
use lcp_core::{BitString, Deadline, Instance, Proof, Scheme};
use lcp_graph::traversal::{find_cycle_of_length, CycleSearch};
use lcp_graph::{Graph, NodeId};
use std::collections::BTreeMap;
use std::hash::Hash;

/// Outcome of a gluing attack.
#[derive(Clone, Debug)]
pub enum GluingOutcome<N = (), E = ()> {
    /// The verifier accepted a glued no-instance: the scheme is unsound
    /// at this proof size.
    Fooled(Box<CounterExample<N, E>>),
    /// No monochromatic `2k`-cycle was found: the proofs carry enough
    /// information to avoid collisions at this `n` (the expected outcome
    /// for honest `Θ(log n)` schemes).
    NoMonochromaticCycle {
        /// Number of distinct colours observed.
        colors: usize,
        /// Number of (a, b) pairs whose instances were provable.
        pairs: usize,
    },
    /// The glued instance was accepted but is *not* a no-instance (the
    /// property survived gluing — wrong parameters for this property).
    GluedInstanceIsYes,
    /// The glued instance was correctly rejected by some node.
    SchemeSurvived {
        /// Nodes that rejected the stitched proof.
        rejecting: Vec<usize>,
    },
    /// The prover failed on the base cycles (family/labeling mismatch).
    ProverFailed,
    /// A donor cycle's *honest* proof was rejected — a scheme bug
    /// surfaced by the attack's sanity sweep, with the witness node.
    HonestProofRejected {
        /// The `(a, b)` identifier pair of the failing cycle.
        pair: (u64, u64),
        /// The rejecting node.
        node: usize,
    },
}

impl<N, E> GluingOutcome<N, E> {
    /// Whether the attack produced a counterexample.
    pub fn fooled(&self) -> bool {
        matches!(self, GluingOutcome::Fooled(_))
    }
}

/// Configuration for [`glue_cycles`].
pub struct GluingAttack {
    /// Base cycle length `n` (must exceed `4·(2r+1)` so the two colour
    /// windows cannot overlap).
    pub n: usize,
    /// Number of cycles to glue (`k ≥ 2`).
    pub k: usize,
    /// Step budget for the exact even-cycle search.
    pub cycle_search_budget: usize,
}

impl GluingAttack {
    /// A default configuration: glue `k` cycles of length `n`.
    pub fn new(n: usize, k: usize) -> Self {
        GluingAttack {
            n,
            k,
            cycle_search_budget: 2_000_000,
        }
    }
}

/// The §5.3 identifier pattern: the `n`-cycle `C(a, b)` for `a ∈ {1..n}`,
/// `b ∈ {n+1..2n}`, listing identifiers in cycle order
/// `a, a+4n, a+6n, …, a+2n·n₁, b+2n·n₂, …, b+6n, b+4n, b`.
pub fn cycle_ids(n: usize, a: u64, b: u64) -> Vec<NodeId> {
    let n1 = n / 2;
    let n2 = n - n1;
    let two_n = 2 * n as u64;
    let mut ids = Vec::with_capacity(n);
    ids.push(NodeId(a));
    for j in 2..=n1 as u64 {
        ids.push(NodeId(a + two_n * j));
    }
    for j in (2..=n2 as u64).rev() {
        ids.push(NodeId(b + two_n * j));
    }
    ids.push(NodeId(b));
    ids
}

/// Runs the gluing attack against `scheme`.
///
/// `make_instance` attaches the auxiliary labels to a base cycle — e.g.
/// mark one node as leader, or label a maximum matching. It receives the
/// cycle graph (whose node order follows [`cycle_ids`], with `a` at index
/// 0 and `b` at index `n − 1`) and must keep the *junction-adjacent*
/// labelling deterministic in cycle position (the §5.3 construction
/// inherits labels, so labels near `a`/`b` enter the colour).
///
/// `junction_label` is the edge label given to the freshly created glue
/// edges (`None` for unlabelled problems or "unmatched").
pub fn glue_cycles<S, F>(
    scheme: &S,
    attack: &GluingAttack,
    mut make_instance: F,
    junction_label: Option<S::Edge>,
) -> GluingOutcome<S::Node, S::Edge>
where
    S: Scheme,
    S::Node: Clone + Eq + Hash + Ord,
    S::Edge: Clone + Eq + Hash + Ord,
    F: FnMut(Graph) -> Instance<S::Node, S::Edge>,
{
    let (n, k, r) = (attack.n, attack.k, scheme.radius());
    assert!(k >= 2, "gluing needs at least two cycles");
    let window = 2 * r + 1;
    assert!(
        n > 2 * window,
        "cycle length {n} too short for two disjoint windows of {window}"
    );

    // Colour key: labels + proof strings of the 2·(2r+1) junction-nearest
    // nodes, in a fixed cycle-position order.
    type Color<N, E> = Vec<(N, Option<E>, BitString)>;
    let mut by_color: BTreeMap<Color<S::Node, S::Edge>, Vec<(u64, u64)>> = BTreeMap::new();
    let mut instances: BTreeMap<(u64, u64), (Instance<S::Node, S::Edge>, Proof)> = BTreeMap::new();
    let mut pairs = 0usize;

    for a in 1..=n as u64 {
        for b in (n as u64 + 1)..=(2 * n as u64) {
            let g = Graph::cycle_with_ids(cycle_ids(n, a, b)).expect("pattern ids are unique");
            let inst = make_instance(g);
            let Some(proof) = scheme.prove(&inst) else {
                continue;
            };
            if let Some(node) = lcp_core::evaluate_until_reject(scheme, &inst, &proof) {
                return GluingOutcome::HonestProofRejected { pair: (a, b), node };
            }
            pairs += 1;
            // Window positions: 0..=2r and n-1-2r..=n-1.
            let mut color: Color<S::Node, S::Edge> = Vec::with_capacity(2 * window);
            for pos in (0..window).chain(n - window..n) {
                let next = (pos + 1) % n;
                color.push((
                    inst.node_label(pos).clone(),
                    inst.edge_label(pos, next).cloned(),
                    proof.get(pos).to_bitstring(),
                ));
            }
            by_color.entry(color).or_default().push((a, b));
            instances.insert((a, b), (inst, proof));
        }
    }

    if pairs == 0 {
        return GluingOutcome::ProverFailed;
    }

    // Hunt for a monochromatic 2k-cycle in K_{n,n} restricted to each
    // colour class.
    let colors = by_color.len();
    for (_, class) in by_color.iter() {
        if class.len() < 2 * k {
            continue;
        }
        // Build the bipartite class graph on A ∪ B.
        let mut cg = Graph::new();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for &(a, b) in class {
            for id in [a, b] {
                if let std::collections::btree_map::Entry::Vacant(e) = index.entry(id) {
                    let idx = cg.add_node(NodeId(id)).expect("ids unique");
                    e.insert(idx);
                }
            }
        }
        for &(a, b) in class {
            cg.add_edge(index[&a], index[&b]).expect("pairs unique");
        }
        let found = find_cycle_of_length(&cg, 2 * k, attack.cycle_search_budget);
        let CycleSearch::Found(cycle) = found else {
            continue;
        };
        // Orient the cycle to start at an A-node (id ≤ n).
        let start = cycle
            .iter()
            .position(|&v| cg.id(v).0 <= n as u64)
            .expect("bipartite cycle visits A");
        let rotated: Vec<u64> = (0..2 * k)
            .map(|i| cg.id(cycle[(start + i) % (2 * k)]).0)
            .collect();
        // rotated = a₁, b₁, a₂, b₂, … (adjacent pairs share the colour).
        let ab_pairs: Vec<(u64, u64)> = (0..k)
            .map(|i| (rotated[2 * i], rotated[2 * i + 1]))
            .collect();
        return build_glued(scheme, n, &ab_pairs, &instances, junction_label);
    }

    GluingOutcome::NoMonochromaticCycle { colors, pairs }
}

/// Glues the donor cycles `C(aᵢ, bᵢ)` into one `kn`-cycle, inheriting
/// labels and proofs, and evaluates the verifier.
fn build_glued<S>(
    scheme: &S,
    n: usize,
    ab_pairs: &[(u64, u64)],
    instances: &BTreeMap<(u64, u64), (Instance<S::Node, S::Edge>, Proof)>,
    junction_label: Option<S::Edge>,
) -> GluingOutcome<S::Node, S::Edge>
where
    S: Scheme,
    S::Node: Clone + Eq + Hash + Ord,
    S::Edge: Clone + Eq + Hash + Ord,
{
    let k = ab_pairs.len();
    // Node order of the glued cycle: C(a₁,b₁) in order, then C(a₂,b₂), …
    // with glue edges b_{i-1}→a_i and b_k→a₁ (each donor's own a–b edge
    // is cut).
    let mut g = Graph::with_capacity(k * n);
    let mut labels: Vec<S::Node> = Vec::with_capacity(k * n);
    let mut proof_strings: Vec<BitString> = Vec::with_capacity(k * n);
    let mut edge_labels: lcp_core::EdgeMap<S::Edge> = lcp_core::EdgeMap::new();

    for (i, &(a, b)) in ab_pairs.iter().enumerate() {
        let (inst, proof) = &instances[&(a, b)];
        let donor = inst.graph();
        let base = i * n;
        for pos in 0..n {
            g.add_node(donor.id(pos))
                .expect("donor id sets are disjoint");
            labels.push(inst.node_label(pos).clone());
            proof_strings.push(proof.get(pos).to_bitstring());
        }
        // Arc edges pos–pos+1 (the donor's a–b wrap edge is *not* added).
        for pos in 0..n - 1 {
            g.add_edge(base + pos, base + pos + 1).expect("fresh edge");
            if let Some(l) = inst.edge_label(pos, pos + 1) {
                edge_labels.insert(lcp_graph::norm_edge(base + pos, base + pos + 1), l.clone());
            }
        }
    }
    // Glue edges: b of donor i to a of donor i+1.
    for i in 0..k {
        let b_i = i * n + (n - 1);
        let a_next = ((i + 1) % k) * n;
        g.add_edge(b_i, a_next).expect("fresh glue edge");
        if let Some(l) = junction_label.clone() {
            edge_labels.insert(lcp_graph::norm_edge(b_i, a_next), l);
        }
    }

    let glued = Instance::with_data(g, labels, edge_labels);
    let proof = Proof::from_strings(proof_strings);
    if scheme.holds(&glued) {
        return GluingOutcome::GluedInstanceIsYes;
    }
    let verdict = lcp_core::engine::prepare(scheme, &glued)
        .evaluate(scheme, &proof, &Deadline::none())
        .expect("an unbounded sweep runs to the end");
    if verdict.accepted() {
        GluingOutcome::Fooled(Box::new(CounterExample {
            instance: glued,
            proof,
            verdict,
        }))
    } else {
        GluingOutcome::SchemeSurvived {
            rejecting: verdict.rejecting(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_ids_match_figure_1() {
        // Figure 1: n = 10 gives C(3,12) = 3,43,63,83,103,112,92,72,52,12.
        let ids = cycle_ids(10, 3, 12);
        let expect: Vec<u64> = vec![3, 43, 63, 83, 103, 112, 92, 72, 52, 12];
        assert_eq!(ids, expect.into_iter().map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_ids_are_unique_and_disjoint_where_promised() {
        let n = 12;
        let ids1 = cycle_ids(n, 3, 20);
        let ids2 = cycle_ids(n, 5, 18);
        let set1: std::collections::HashSet<_> = ids1.iter().collect();
        assert_eq!(set1.len(), n);
        // a ≠ a' and b ≠ b': fully disjoint.
        assert!(ids2.iter().all(|id| !set1.contains(id)));
        // Shared a: the a-arm is shared, the b-arm is not.
        let ids3 = cycle_ids(n, 3, 18);
        assert!(ids3.contains(&NodeId(3)));
        assert!(set1.contains(&NodeId(3)));
    }

    #[test]
    fn odd_lengths_have_odd_pattern() {
        for n in [9usize, 11, 15] {
            let ids = cycle_ids(n, 2, (n + 3) as u64);
            assert_eq!(ids.len(), n);
            let set: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(set.len(), n);
        }
    }
}
