//! The §6.3 fooling-set attack on non-3-colourability schemes.
//!
//! For a set `A ⊆ I × I` (`I = {0..2^k − 1}`) we build a gadget graph
//! `G_A` whose valid 3-colourings encode exactly the pairs `(x, y) ∈ A`
//! on its encoder nodes, then join `G_A` and an isomorphic copy `G'_B`
//! with colour-propagating *wires* so that `G_{A,B}` is 3-colourable iff
//! `A ∩ B ≠ ∅`. The instances `G_{A,Ā}` are never 3-colourable
//! (yes-instances of "χ > 3"); if two sets `A ≠ B` receive identical
//! proofs on the wire window, splicing produces a 3-colourable hybrid
//! `G_{A,B̄}` (or `G_{B,Ā}`) accepted by every node.
//!
//! **Substitution note (documented in DESIGN.md):** the paper defers the
//! explicit `Θ(2^k)`-node construction of `G_A` to its extended version.
//! We use a transparent clause-per-excluded-cell construction
//! (Garey–Johnson OR-gadgets), which has `Θ(k · |Ā|)` gadget nodes. The
//! fooling *mechanism* — wire isolation, window collision, cut-and-paste
//! acceptance — is identical; only the constant bookkeeping of the bound
//! differs at experimental scale.

use crate::CounterExample;
use lcp_core::{engine, BitString, Deadline, Instance, Proof, Scheme};
use lcp_graph::{coloring, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A cell of the `I × I` grid.
pub type Cell = (u64, u64);

/// Identifier layout and wire geometry for the §6.3 construction.
///
/// All palette / encoder / wire identifiers are **fixed** across
/// different sets `A`, so donor proofs can be spliced by identifier; only
/// the clause gadgets (whose identifiers live in a reserved range) vary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GadgetLayout {
    /// Bits per coordinate; `I = {0 .. 2^k − 1}`.
    pub k: usize,
    /// Wire length in rows; must be ≥ `2r + 3` for a radius-`r` verifier
    /// so that no view spans both gadget sides.
    pub rows: usize,
}

const PRIME: u64 = 10_000_000;
const CLAUSE_BASE: u64 = 1_000_000;
const WIRE_BASE: u64 = 100_000;

impl GadgetLayout {
    /// A layout suitable for a radius-`r` verifier.
    pub fn for_radius(k: usize, r: usize) -> Self {
        assert!((1..=8).contains(&k), "coordinate width out of range");
        GadgetLayout {
            k,
            rows: (3 * r).max(2 * r + 3),
        }
    }

    /// The side length of the grid, `2^k`.
    pub fn side(&self) -> u64 {
        1 << self.k
    }

    /// All cells of `I × I`.
    pub fn all_cells(&self) -> Vec<Cell> {
        let s = self.side();
        (0..s).flat_map(|x| (0..s).map(move |y| (x, y))).collect()
    }

    // Fixed identifiers (unprimed side; add PRIME for the copy).
    fn id_t(&self) -> u64 {
        1
    }
    fn id_f(&self) -> u64 {
        2
    }
    fn id_n(&self) -> u64 {
        3
    }
    fn id_x(&self, i: usize) -> u64 {
        10 + i as u64
    }
    fn id_y(&self, i: usize) -> u64 {
        40 + i as u64
    }
    fn id_nx(&self, i: usize) -> u64 {
        70 + i as u64
    }
    fn id_ny(&self, i: usize) -> u64 {
        100 + i as u64
    }

    /// Wire endpoints, unprimed side: `T, x₀..x_{k−1}, y₀..y_{k−1}`.
    fn wire_endpoints(&self) -> Vec<u64> {
        let mut e = vec![self.id_t()];
        e.extend((0..self.k).map(|i| self.id_x(i)));
        e.extend((0..self.k).map(|i| self.id_y(i)));
        e
    }

    fn wire_node(&self, wire: usize, row: usize, col: usize) -> u64 {
        WIRE_BASE + (wire as u64 + 1) * 1000 + row as u64 * 5 + col as u64
    }

    /// Identifiers of the wire-owned (fresh) nodes — the §6.3 window `W`.
    pub fn window_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for w in 0..self.wire_endpoints().len() {
            // Row 1 and row `rows` own only their third column; interior
            // rows own all three.
            out.push(NodeId(self.wire_node(w, 1, 3)));
            for row in 2..self.rows {
                for col in 1..=3 {
                    out.push(NodeId(self.wire_node(w, row, col)));
                }
            }
            out.push(NodeId(self.wire_node(w, self.rows, 3)));
        }
        out
    }

    /// Builds one gadget side realizing the cell set `cells` (i.e. valid
    /// 3-colourings encode exactly the pairs in `cells`), with
    /// identifiers offset by `base` (0 or [`PRIME`]).
    fn build_side(&self, g: &mut Graph, cells: &BTreeSet<Cell>, base: u64) {
        let add = |g: &mut Graph, id: u64| {
            g.add_node(NodeId(base + id)).expect("fresh gadget id");
        };
        let edge = |g: &mut Graph, a: u64, b: u64| {
            let ia = g.index_of(NodeId(base + a)).expect("node exists");
            let ib = g.index_of(NodeId(base + b)).expect("node exists");
            if !g.has_edge(ia, ib) {
                g.add_edge(ia, ib).expect("validated");
            }
        };
        // Palette triangle.
        add(g, self.id_t());
        add(g, self.id_f());
        add(g, self.id_n());
        edge(g, self.id_t(), self.id_f());
        edge(g, self.id_t(), self.id_n());
        edge(g, self.id_f(), self.id_n());
        // Encoders and negations.
        for i in 0..self.k {
            for id in [self.id_x(i), self.id_y(i), self.id_nx(i), self.id_ny(i)] {
                add(g, id);
                edge(g, id, self.id_n());
            }
            edge(g, self.id_x(i), self.id_nx(i));
            edge(g, self.id_y(i), self.id_ny(i));
        }
        // One clause per *excluded* cell: at least one encoder bit must
        // differ from the cell's coordinates.
        let mut next_clause = CLAUSE_BASE;
        for (a, b) in self.all_cells() {
            if cells.contains(&(a, b)) {
                continue;
            }
            // Literals: "x_i ≠ a_i" is nx_i when a_i = 1, else x_i.
            let mut literals: Vec<u64> = Vec::with_capacity(2 * self.k);
            for i in 0..self.k {
                literals.push(if a >> i & 1 == 1 {
                    self.id_nx(i)
                } else {
                    self.id_x(i)
                });
            }
            for i in 0..self.k {
                literals.push(if b >> i & 1 == 1 {
                    self.id_ny(i)
                } else {
                    self.id_y(i)
                });
            }
            // OR-chain of Garey–Johnson gadgets; the final output is tied
            // to F and N, forcing it to colour T ⇔ the clause holds.
            let mut acc = literals[0];
            for &lit in &literals[1..] {
                let (ga, gb, out) = (next_clause, next_clause + 1, next_clause + 2);
                next_clause += 3;
                for id in [ga, gb, out] {
                    add(g, id);
                }
                edge(g, acc, ga);
                edge(g, lit, gb);
                edge(g, ga, gb);
                edge(g, ga, out);
                edge(g, gb, out);
                acc = out;
            }
            edge(g, acc, self.id_f());
            edge(g, acc, self.id_n());
        }
    }

    /// Builds `G_{A,B}`: unprimed side realizing `A`, primed side
    /// realizing `B`, joined by `2k + 1` colour-propagating wires.
    pub fn build(&self, a: &BTreeSet<Cell>, b: &BTreeSet<Cell>) -> Graph {
        let mut g = Graph::new();
        self.build_side(&mut g, a, 0);
        self.build_side(&mut g, b, PRIME);
        // Wires.
        let endpoints = self.wire_endpoints();
        for (w, &ep) in endpoints.iter().enumerate() {
            // Row contents: row 1 = (N, ep, fresh); interior rows fresh;
            // row `rows` = (N', ep', fresh).
            let node_at = |g: &mut Graph, row: usize, col: usize| -> usize {
                let id = if row == 1 && col == 1 {
                    self.id_n()
                } else if row == 1 && col == 2 {
                    ep
                } else if row == self.rows && col == 1 {
                    PRIME + self.id_n()
                } else if row == self.rows && col == 2 {
                    PRIME + ep
                } else {
                    self.wire_node(w, row, col)
                };
                match g.index_of(NodeId(id)) {
                    Some(i) => i,
                    None => g.add_node(NodeId(id)).expect("fresh wire id"),
                }
            };
            for row in 1..=self.rows {
                // Triangle within the row.
                let trio: Vec<usize> = (1..=3).map(|c| node_at(&mut g, row, c)).collect();
                for i in 0..3 {
                    for j in (i + 1)..3 {
                        if !g.has_edge(trio[i], trio[j]) {
                            g.add_edge(trio[i], trio[j]).expect("validated");
                        }
                    }
                }
                // Cross edges to the previous row (j ≠ j′).
                if row > 1 {
                    let prev: Vec<usize> = (1..=3).map(|c| node_at(&mut g, row - 1, c)).collect();
                    for i in 0..3 {
                        for j in 0..3 {
                            if i != j && !g.has_edge(prev[i], trio[j]) {
                                g.add_edge(prev[i], trio[j]).expect("validated");
                            }
                        }
                    }
                }
            }
        }
        g
    }

    /// Builds `G_A` alone with the encoders pinned to `(x, y)` — a test
    /// helper for validating gadget semantics.
    pub fn build_pinned(&self, cells: &BTreeSet<Cell>, x: u64, y: u64) -> Graph {
        let mut g = Graph::new();
        self.build_side(&mut g, cells, 0);
        let mut pin = |enc_id: u64, bit: bool| {
            let enc = g.index_of(NodeId(enc_id)).expect("encoder exists");
            // Force T (bit 1) by excluding F; force F by excluding T.
            let other = g
                .index_of(NodeId(if bit { self.id_f() } else { self.id_t() }))
                .expect("palette exists");
            if !g.has_edge(enc, other) {
                g.add_edge(enc, other).expect("validated");
            }
        };
        for i in 0..self.k {
            pin(self.id_x(i), x >> i & 1 == 1);
            pin(self.id_y(i), y >> i & 1 == 1);
        }
        g
    }
}

/// Outcome of a fooling attack.
#[derive(Clone, Debug)]
pub enum FoolingOutcome {
    /// A 3-colourable hybrid was accepted by every node.
    Fooled(Box<CounterExample>),
    /// All wire windows were distinct (expected for `Θ(n²)` schemes).
    NoCollision {
        /// Provable donor instances examined.
        candidates: usize,
        /// Distinct window patterns.
        distinct_windows: usize,
    },
    /// A collision existed but some node rejected the spliced proof.
    SchemeSurvived {
        /// Rejecting node indices.
        rejecting: Vec<usize>,
    },
    /// The prover failed on every `G_{A,Ā}` donor.
    ProverFailed,
    /// A donor's *honest* proof was rejected — a scheme bug surfaced by
    /// the attack's sanity sweep, with the witness node.
    HonestProofRejected {
        /// Index of the donor set whose instance failed.
        donor: usize,
        /// The rejecting node.
        node: usize,
    },
}

impl FoolingOutcome {
    /// Whether the attack produced a counterexample.
    pub fn fooled(&self) -> bool {
        matches!(self, FoolingOutcome::Fooled(_))
    }
}

/// Runs the §6.3 attack: sample subsets `A`, prove `G_{A,Ā}`, find a
/// wire-window collision, splice, and evaluate.
pub fn fooling_attack<S>(
    scheme: &S,
    layout: &GadgetLayout,
    max_sets: usize,
    seed: u64,
) -> FoolingOutcome
where
    S: Scheme<Node = (), Edge = ()>,
{
    assert!(
        layout.rows >= 2 * scheme.radius() + 3,
        "wire rows too short for the verifier radius"
    );
    let all = layout.all_cells();
    let mut rng = StdRng::seed_from_u64(seed);
    // Candidate sets: for small grids, enumerate; otherwise sample.
    let sets: Vec<BTreeSet<Cell>> = if all.len() <= 4 && max_sets >= 16 {
        (0..(1u32 << all.len()))
            .map(|mask| {
                all.iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &c)| c)
                    .collect()
            })
            .collect()
    } else {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < max_sets {
            let set: BTreeSet<Cell> = all
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.5))
                .collect();
            if seen.insert(set.clone()) {
                out.push(set);
            }
        }
        out
    };

    let window = layout.window_ids();
    let mut by_window: BTreeMap<Vec<BitString>, usize> = BTreeMap::new();
    let mut donors: Vec<Option<(Instance, Proof)>> = Vec::new();
    let mut candidates = 0usize;
    let mut collision = None;

    for (i, a) in sets.iter().enumerate() {
        let complement: BTreeSet<Cell> = all.iter().copied().filter(|c| !a.contains(c)).collect();
        let graph = layout.build(a, &complement);
        let inst = Instance::unlabeled(graph);
        let Some(proof) = scheme.prove(&inst) else {
            donors.push(None);
            continue;
        };
        if let Some(node) = lcp_core::evaluate_until_reject(scheme, &inst, &proof) {
            return FoolingOutcome::HonestProofRejected { donor: i, node };
        }
        candidates += 1;
        let key: Vec<BitString> = window
            .iter()
            .map(|&id| {
                let v = inst.graph().index_of(id).expect("window ids exist");
                proof.get(v).to_bitstring()
            })
            .collect();
        if let Some(&other) = by_window.get(&key) {
            collision = Some((other, i));
            donors.push(Some((inst, proof)));
            break;
        }
        by_window.insert(key, i);
        donors.push(Some((inst, proof)));
    }

    if candidates == 0 {
        return FoolingOutcome::ProverFailed;
    }
    let Some((i, j)) = collision else {
        return FoolingOutcome::NoCollision {
            candidates,
            distinct_windows: by_window.len(),
        };
    };

    // Orient the hybrid so it is 3-colourable: A ∩ B̄ ≠ ∅ or B ∩ Ā ≠ ∅.
    let (a, b) = (&sets[i], &sets[j]);
    let b_comp: BTreeSet<Cell> = all.iter().copied().filter(|c| !b.contains(c)).collect();
    let a_comp: BTreeSet<Cell> = all.iter().copied().filter(|c| !a.contains(c)).collect();
    let (unprimed_set, primed_set, unprimed_donor, primed_donor) =
        if a.intersection(&b_comp).next().is_some() {
            (a, &b_comp, i, j)
        } else {
            (b, &a_comp, j, i)
        };
    let hybrid_graph = layout.build(unprimed_set, primed_set);
    let (u_inst, u_proof) = donors[unprimed_donor].as_ref().expect("donor proved");
    let (p_inst, p_proof) = donors[primed_donor].as_ref().expect("donor proved");
    let proof = Proof::from_fn(hybrid_graph.n(), |v| {
        let id = hybrid_graph.id(v);
        if id.0 >= PRIME {
            let dv = p_inst.graph().index_of(id).expect("primed ids match donor");
            p_proof.get(dv).to_bitstring()
        } else {
            let dv = u_inst
                .graph()
                .index_of(id)
                .expect("unprimed/wire ids match donor");
            u_proof.get(dv).to_bitstring()
        }
    });
    debug_assert!(
        coloring::is_k_colorable(&hybrid_graph, 3),
        "hybrid must be 3-colourable by set logic"
    );
    let hybrid = Instance::unlabeled(hybrid_graph);
    // One skeleton preparation, then a cached-view sweep (engine path).
    let verdict = engine::prepare(scheme, &hybrid)
        .evaluate(scheme, &proof, &Deadline::none())
        .expect("an unbounded sweep runs to the end");
    if verdict.accepted() {
        FoolingOutcome::Fooled(Box::new(CounterExample {
            instance: hybrid,
            proof,
            verdict,
        }))
    } else {
        FoolingOutcome::SchemeSurvived {
            rejecting: verdict.rejecting(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cells: &[Cell]) -> BTreeSet<Cell> {
        cells.iter().copied().collect()
    }

    #[test]
    fn gadget_colorings_encode_exactly_the_cell_set() {
        // k = 1: I × I has 4 cells; check every A on every pin.
        let layout = GadgetLayout::for_radius(1, 1);
        for mask in 0u32..16 {
            let a: BTreeSet<Cell> = layout
                .all_cells()
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, c)| c)
                .collect();
            for &(x, y) in &layout.all_cells() {
                let pinned = layout.build_pinned(&a, x, y);
                let expected = a.contains(&(x, y));
                assert_eq!(
                    coloring::is_k_colorable(&pinned, 3),
                    expected,
                    "A = {a:?}, pin = ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn joined_graph_colorable_iff_sets_intersect() {
        let layout = GadgetLayout::for_radius(1, 1);
        let a = set(&[(0, 0), (1, 1)]);
        let disjoint = set(&[(0, 1), (1, 0)]);
        let overlapping = set(&[(1, 1)]);
        assert!(!coloring::is_k_colorable(&layout.build(&a, &disjoint), 3));
        assert!(coloring::is_k_colorable(&layout.build(&a, &overlapping), 3));
        // G_{A,Ā} is never 3-colourable.
        let comp: BTreeSet<Cell> = layout
            .all_cells()
            .into_iter()
            .filter(|c| !a.contains(c))
            .collect();
        assert!(!coloring::is_k_colorable(&layout.build(&a, &comp), 3));
    }

    #[test]
    fn gadget_is_connected_and_id_stable() {
        let layout = GadgetLayout::for_radius(1, 1);
        let a = set(&[(0, 0)]);
        let b = set(&[(1, 1), (0, 1)]);
        let ga = layout.build(&a, &b);
        assert!(lcp_graph::traversal::is_connected(&ga));
        // Wire/palette/encoder ids identical across different sets.
        let gb = layout.build(&b, &a);
        for id in layout.window_ids() {
            assert!(ga.contains_id(id), "window id {id} in G(a,b)");
            assert!(gb.contains_id(id), "window id {id} in G(b,a)");
        }
    }

    #[test]
    fn window_is_far_from_both_gadgets() {
        let layout = GadgetLayout::for_radius(1, 2);
        let a = set(&[(0, 0)]);
        let comp: BTreeSet<Cell> = layout
            .all_cells()
            .into_iter()
            .filter(|c| !a.contains(c))
            .collect();
        let g = layout.build(&a, &comp);
        // The wire has `rows` ≥ 7 rows; middle-row nodes see only wire.
        let mid_row = layout.rows / 2 + 1;
        let mid = g
            .index_of(NodeId(layout.wire_node(0, mid_row, 1)))
            .expect("middle wire node");
        let ball = lcp_graph::traversal::ball(&g, mid, 2);
        for v in ball {
            let id = g.id(v).0;
            let raw = if id >= PRIME { id - PRIME } else { id };
            assert!(
                raw >= WIRE_BASE || raw == 3, // wire nodes or the N rails
                "view of a mid-wire node leaked to id {id}"
            );
        }
    }
}
