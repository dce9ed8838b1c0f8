//! The §6.1 / §6.2 join-collision attacks.
//!
//! Both lower bounds use the `⊙` construction: `G₁ ⊙ G₂` consists of
//! shifted canonical copies `C(G₁, k)` (identifiers `k+1..2k`) and
//! `C(G₂, 2k)` (identifiers `2k+1..3k`) joined by the fresh path
//! `(k+1, 1, 2, …, k, 2k+1)`.
//!
//! * §6.1: `F_k` = asymmetric connected graphs. `G ⊙ G` is *symmetric*;
//!   `G₁ ⊙ G₂` with `G₁ ≇ G₂` is asymmetric. `log |F_k| = Θ(k²)`, so an
//!   `o(n²)`-bit scheme must give two distinct members the same proofs on
//!   the window `{1, …, 2r+1}` — and the spliced hybrid is accepted.
//! * §6.2: `F_k` = rooted trees (`log |F_k| = Θ(k)`, OEIS A000081), `k`
//!   even; `G ⊙ G` has a fixpoint-free symmetry, the hybrid does not.

use crate::CounterExample;
use lcp_core::{BitString, Deadline, Instance, Proof, Scheme};
use lcp_graph::{Graph, GraphError, NodeId};
use std::collections::BTreeMap;

/// Builds `G₁ ⊙ G₂` from two *canonical* halves (identifiers `1..=k`,
/// attachment node at index 0).
///
/// # Errors
///
/// Propagates graph construction errors (only possible on malformed
/// halves).
pub fn join(g1: &Graph, g2: &Graph) -> Result<Graph, GraphError> {
    let k = g1.n();
    assert_eq!(g2.n(), k, "halves must have equal size");
    let mut g = Graph::with_capacity(3 * k);
    // Path nodes: identifiers 1..=k at indices 0..k.
    for i in 1..=k as u64 {
        g.add_node(NodeId(i))?;
    }
    // G1 copy: identifiers k+1..=2k at indices k..2k.
    for v in 0..k {
        g.add_node(NodeId(g1.id(v).0 + k as u64))?;
    }
    // G2 copy: identifiers 2k+1..=3k at indices 2k..3k.
    for v in 0..k {
        g.add_node(NodeId(g2.id(v).0 + 2 * k as u64))?;
    }
    for (u, v) in g1.edges() {
        g.add_edge(k + u, k + v)?;
    }
    for (u, v) in g2.edges() {
        g.add_edge(2 * k + u, 2 * k + v)?;
    }
    // The path (k+1, 1, 2, …, k, 2k+1).
    g.add_edge(k, 0)?; // k+1 – 1
    for i in 0..k - 1 {
        g.add_edge(i, i + 1)?;
    }
    g.add_edge(k - 1, 2 * k)?; // k – 2k+1
    Ok(g)
}

/// The §6.1 family: canonical forms of asymmetric connected graphs on
/// `k` nodes (exhaustive for `k ≤ 6`, seeded sampling beyond).
///
/// # Errors
///
/// Propagates enumeration errors for out-of-range `k`.
pub fn asymmetric_family(
    k: usize,
    max_members: usize,
    rng: &mut rand::rngs::StdRng,
) -> Result<Vec<Graph>, GraphError> {
    let raw = if k <= lcp_graph::enumerate::MAX_EXHAUSTIVE_NODES {
        lcp_graph::enumerate::asymmetric_connected_graphs(k)?
    } else {
        lcp_graph::enumerate::sample_asymmetric_connected(k, max_members, 100_000, rng)?
    };
    raw.into_iter()
        .take(max_members)
        .map(|g| lcp_graph::iso::canonical_form(&g))
        .collect()
}

/// The §6.2 family: all rooted trees on `k` nodes, materialized with the
/// root at identifier 1 (index 0).
///
/// # Errors
///
/// Propagates enumeration errors for out-of-range `k`.
pub fn rooted_tree_family(k: usize, max_members: usize) -> Result<Vec<Graph>, GraphError> {
    Ok(lcp_graph::tree::rooted_trees(k)?
        .into_iter()
        .take(max_members)
        .map(|seq| seq.to_graph(0).0)
        .collect())
}

/// Outcome of a join-collision attack.
#[derive(Clone, Debug)]
pub enum JoinOutcome {
    /// A spliced hybrid was accepted although the property fails on it.
    Fooled(Box<CounterExample>),
    /// All window patterns were distinct — the proofs carry enough
    /// information (expected for the honest `Θ(n²)` / `Θ(n)` schemes).
    NoCollision {
        /// Family members whose joined instance was provable.
        candidates: usize,
        /// Distinct window patterns observed.
        distinct_windows: usize,
    },
    /// A collision existed but the hybrid satisfied the property (should
    /// not happen for these families; kept for robustness).
    HybridIsYes,
    /// A collision existed but some node rejected the spliced proof.
    SchemeSurvived {
        /// Rejecting node indices.
        rejecting: Vec<usize>,
    },
    /// The prover failed on every joined yes-instance.
    ProverFailed,
    /// A joined yes-instance's *honest* proof was rejected — a scheme
    /// bug surfaced by the attack's sanity sweep, with the witness node
    /// (previously a debug-only assertion that discarded it).
    HonestProofRejected {
        /// Index of the family member whose joined instance failed.
        member: usize,
        /// The rejecting node.
        node: usize,
    },
}

impl JoinOutcome {
    /// Whether the attack produced a counterexample.
    pub fn fooled(&self) -> bool {
        matches!(self, JoinOutcome::Fooled(_))
    }
}

/// Runs the join-collision attack: prove `Gᵢ ⊙ Gᵢ` for every family
/// member, look for two members with identical proofs on the path window
/// `{1, …, 2r+1}`, splice, and evaluate.
///
/// `family` must contain canonical halves (see [`asymmetric_family`] /
/// [`rooted_tree_family`]); the half size `k` must satisfy `k ≥ 2r + 1`.
pub fn join_collision_attack<S>(scheme: &S, family: &[Graph]) -> JoinOutcome
where
    S: Scheme<Node = (), Edge = ()>,
{
    let r = scheme.radius();
    let window = 2 * r + 1;
    assert!(!family.is_empty(), "family must be nonempty");
    let k = family[0].n();
    assert!(
        k >= window,
        "half size {k} must cover the window {window} (k ≥ 2r+1)"
    );

    let mut seen: BTreeMap<Vec<BitString>, usize> = BTreeMap::new();
    let mut proofs: Vec<Option<Proof>> = Vec::with_capacity(family.len());
    let mut candidates = 0usize;
    let mut collision: Option<(usize, usize)> = None;

    for (i, half) in family.iter().enumerate() {
        let joined = join(half, half).expect("canonical halves join cleanly");
        let inst = Instance::unlabeled(joined);
        let proof = scheme.prove(&inst);
        if let Some(p) = &proof {
            if let Some(node) = lcp_core::evaluate_until_reject(scheme, &inst, p) {
                return JoinOutcome::HonestProofRejected { member: i, node };
            }
            candidates += 1;
            let key: Vec<BitString> = (0..window).map(|v| p.get(v).to_bitstring()).collect();
            if let Some(&other) = seen.get(&key) {
                collision = Some((other, i));
                proofs.push(proof);
                break;
            }
            seen.insert(key, i);
        }
        proofs.push(proof);
    }

    if candidates == 0 {
        return JoinOutcome::ProverFailed;
    }
    let Some((i, j)) = collision else {
        return JoinOutcome::NoCollision {
            candidates,
            distinct_windows: seen.len(),
        };
    };

    // Splice: G_i's copy + shared path/window from i, far path + G_j's
    // copy from j — the §6.1 recipe.
    let hybrid_graph = join(&family[i], &family[j]).expect("halves join cleanly");
    let pi = proofs[i].as_ref().expect("collision implies proof");
    let pj = proofs[j].as_ref().expect("collision implies proof");
    let proof = Proof::from_fn(3 * k, |v| {
        if v < window {
            pi.get(v).to_bitstring() // common window (equal in both donors)
        } else if v < k {
            pj.get(v).to_bitstring() // far path segment, donor j
        } else if v < 2 * k {
            pi.get(v).to_bitstring() // G_i copy
        } else {
            pj.get(v).to_bitstring() // G_j copy
        }
    });
    let hybrid = Instance::unlabeled(hybrid_graph);
    if scheme.holds(&hybrid) {
        return JoinOutcome::HybridIsYes;
    }
    let verdict = lcp_core::engine::prepare(scheme, &hybrid)
        .evaluate(scheme, &proof, &Deadline::none())
        .expect("an unbounded sweep runs to the end");
    if verdict.accepted() {
        JoinOutcome::Fooled(Box::new(CounterExample {
            instance: hybrid,
            proof,
            verdict,
        }))
    } else {
        JoinOutcome::SchemeSurvived {
            rejecting: verdict.rejecting(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_graph::iso;

    #[test]
    fn join_layout_matches_the_paper() {
        let half = lcp_graph::generators::path(3); // canonical enough: ids 1..3
        let g = join(&half, &half).unwrap();
        assert_eq!(g.n(), 9);
        // Path (k+1, 1, 2, …, k, 2k+1) with k = 3: 4–1–2–3–7.
        let idx = |id: u64| g.index_of(NodeId(id)).unwrap();
        assert!(g.has_edge(idx(4), idx(1)));
        assert!(g.has_edge(idx(1), idx(2)));
        assert!(g.has_edge(idx(2), idx(3)));
        assert!(g.has_edge(idx(3), idx(7)));
    }

    #[test]
    fn doubled_half_is_symmetric_mixed_is_not() {
        // Use 7-node asymmetric sampled graphs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let fam = asymmetric_family(7, 4, &mut rng).unwrap();
        assert!(fam.len() >= 2);
        let same = join(&fam[0], &fam[0]).unwrap();
        assert!(iso::is_symmetric(&same) || same.n() > 16, "G⊙G symmetric");
        // n = 21 > MAX_CANON_NODES, so check with the automorphism search
        // directly (refinement-pruned, fine at this size).
        assert!(iso::nontrivial_automorphism(&same).is_some());
        let mixed = join(&fam[0], &fam[1]).unwrap();
        assert!(iso::nontrivial_automorphism(&mixed).is_none());
    }
    use rand::SeedableRng;

    #[test]
    fn doubled_tree_has_fixpoint_free_symmetry_iff_equal() {
        let fam = rooted_tree_family(4, 10).unwrap(); // k even
        let same = join(&fam[0], &fam[0]).unwrap();
        assert!(iso::fixpoint_free_automorphism(&same).is_some());
        let mixed = join(&fam[0], &fam[1]).unwrap();
        assert!(iso::fixpoint_free_automorphism(&mixed).is_none());
    }

    #[test]
    fn tree_families_are_complete() {
        assert_eq!(rooted_tree_family(6, 1000).unwrap().len(), 20); // A000081(6)
    }
}
