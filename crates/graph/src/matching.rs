//! Matchings: validity/maximality predicates, maximum bipartite matching,
//! König vertex covers, and maximum-weight bipartite matching with
//! LP-optimal dual certificates.
//!
//! The duals are the point: §2.3 of the paper turns an optimal dual vector
//! into a locally checkable proof of matching optimality (1 bit for the
//! unweighted König cover, `O(log W)` bits for the weighted duals). The
//! algorithms here therefore return the certificates, not just the
//! matchings.

use crate::{norm_edge, Graph};
use std::collections::BTreeMap;

/// Edge weights keyed by normalized index pairs (see [`norm_edge`]).
pub type EdgeWeightMap = BTreeMap<(usize, usize), u64>;

/// Whether `edges` is a matching in `g`: every pair is an edge of `g`, and
/// no node is covered twice.
pub fn is_matching(g: &Graph, edges: &[(usize, usize)]) -> bool {
    let mut used = vec![false; g.n()];
    for &(u, v) in edges {
        if u >= g.n() || v >= g.n() || !g.has_edge(u, v) {
            return false;
        }
        if used[u] || used[v] {
            return false;
        }
        used[u] = true;
        used[v] = true;
    }
    true
}

/// Whether `edges` is a *maximal* matching: a matching that no edge of `g`
/// can extend.
pub fn is_maximal_matching(g: &Graph, edges: &[(usize, usize)]) -> bool {
    if !is_matching(g, edges) {
        return false;
    }
    let mut used = vec![false; g.n()];
    for &(u, v) in edges {
        used[u] = true;
        used[v] = true;
    }
    g.edges().all(|(u, v)| used[u] || used[v])
}

/// Greedy maximal matching in sorted edge order (deterministic).
pub fn greedy_maximal_matching(g: &Graph) -> Vec<(usize, usize)> {
    let mut used = vec![false; g.n()];
    let mut out = Vec::new();
    for (u, v) in g.edges() {
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            out.push((u, v));
        }
    }
    out
}

/// A bipartite matching as a mate table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteMatching {
    /// `mate[u]` is the matched partner of `u`, if any.
    pub mate: Vec<Option<usize>>,
}

impl BipartiteMatching {
    /// Number of matched edges.
    pub fn size(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// The matched edges as normalized index pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| (u, v)))
            .collect()
    }
}

/// Maximum-cardinality matching in a bipartite graph via augmenting paths
/// (Kuhn's algorithm).
///
/// `side[u] ∈ {0, 1}` must be a proper 2-colouring of `g`.
///
/// # Panics
///
/// Panics (in debug builds) if `side` is not a proper 2-colouring.
pub fn maximum_bipartite_matching(g: &Graph, side: &[u8]) -> BipartiteMatching {
    debug_assert!(
        g.edges().all(|(u, v)| side[u] != side[v]),
        "side must 2-colour g"
    );
    let mut mate: Vec<Option<usize>> = vec![None; g.n()];
    let lefts: Vec<usize> = g.nodes().filter(|&u| side[u] == 0).collect();
    for &root in &lefts {
        let mut visited = vec![false; g.n()];
        try_augment(g, root, &mut mate, &mut visited);
    }
    BipartiteMatching { mate }
}

fn try_augment(g: &Graph, u: usize, mate: &mut [Option<usize>], visited: &mut [bool]) -> bool {
    for &v in g.neighbors(u) {
        if visited[v] {
            continue;
        }
        visited[v] = true;
        let free = match mate[v] {
            None => true,
            Some(w) => try_augment(g, w, mate, visited),
        };
        if free {
            mate[u] = Some(v);
            mate[v] = Some(u);
            return true;
        }
    }
    false
}

/// Minimum vertex cover of a bipartite graph from a maximum matching, by
/// König's construction.
///
/// Returns a boolean membership vector; `|C| = |M|` always holds, which is
/// exactly the equality the §2.3 certificate exploits.
pub fn koenig_vertex_cover(g: &Graph, side: &[u8], matching: &BipartiteMatching) -> Vec<bool> {
    let n = g.n();
    // Z = unmatched left nodes plus everything reachable from them by
    // alternating paths (non-matching edges left→right, matching edges
    // right→left).
    let mut in_z = vec![false; n];
    let mut queue: Vec<usize> = g
        .nodes()
        .filter(|&u| side[u] == 0 && matching.mate[u].is_none())
        .collect();
    for &u in &queue {
        in_z[u] = true;
    }
    while let Some(u) = queue.pop() {
        if side[u] == 0 {
            for &v in g.neighbors(u) {
                if !in_z[v] && matching.mate[u] != Some(v) {
                    in_z[v] = true;
                    queue.push(v);
                }
            }
        } else if let Some(w) = matching.mate[u] {
            if !in_z[w] {
                in_z[w] = true;
                queue.push(w);
            }
        }
    }
    // C = (L \ Z) ∪ (R ∩ Z).
    g.nodes()
        .map(|u| (side[u] == 0 && !in_z[u]) || (side[u] == 1 && in_z[u]))
        .collect()
}

/// Whether `cover` hits every edge of `g`.
pub fn is_vertex_cover(g: &Graph, cover: &[bool]) -> bool {
    g.edges().all(|(u, v)| cover[u] || cover[v])
}

/// A maximum-weight bipartite matching together with an optimal dual
/// solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedMatching {
    /// `mate[u]` is the matched partner of `u`, if any.
    pub mate: Vec<Option<usize>>,
    /// Integral optimal duals `y_v ∈ {0, …, W}` of the fractional matching
    /// LP (§2.3): `y_u + y_v ≥ w_{uv}` for every edge, with complementary
    /// slackness against the returned matching.
    pub duals: Vec<u64>,
    /// Total weight of the matching (a `u128`: a sum of `u64` weights
    /// can pass `u64::MAX`).
    pub weight: u128,
}

impl WeightedMatching {
    /// The matched edges as normalized index pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| (u, v)))
            .collect()
    }
}

/// Maximum-weight matching in a bipartite graph with nonnegative integer
/// weights, via the primal–dual (Hungarian-tree) method.
///
/// The matching maximizes total weight over *all* matchings (it need not
/// be perfect or maximum-cardinality). Missing entries in `weights`
/// default to 0. The returned duals satisfy, as the algorithm's invariant:
///
/// * feasibility: `y_u + y_v ≥ w_{uv}` on every edge, `y ≥ 0`;
/// * tightness: `y_u + y_v = w_{uv}` on every matched edge;
/// * slackness: `y_v > 0` only on matched nodes.
///
/// Together these certify optimality by LP duality, which is precisely the
/// content of the `O(log W)` scheme of §2.3.
///
/// # Panics
///
/// Panics (in debug builds) if `side` is not a proper 2-colouring of `g`.
pub fn max_weight_bipartite_matching(
    g: &Graph,
    side: &[u8],
    weights: &EdgeWeightMap,
) -> WeightedMatching {
    debug_assert!(
        g.edges().all(|(u, v)| side[u] != side[v]),
        "side must 2-colour g"
    );
    let n = g.n();
    // Signed 128-bit arithmetic: weights span all of `u64`, and the
    // slack `y_u + y_v − w` of a dual pair is up to `2W`.
    let w =
        |u: usize, v: usize| -> i128 { weights.get(&norm_edge(u, v)).copied().unwrap_or(0).into() };
    let mut y: Vec<i128> = vec![0; n];
    // Left duals start at each node's largest incident weight: feasible,
    // and every heaviest edge starts tight.
    for u in g.nodes().filter(|&u| side[u] == 0) {
        y[u] = g.neighbors(u).iter().map(|&v| w(u, v)).max().unwrap_or(0);
    }
    let mut mate: Vec<Option<usize>> = vec![None; n];

    for root in g.nodes().filter(|&u| side[u] == 0) {
        if mate[root].is_some() || y[root] == 0 {
            continue;
        }
        // Grow a Hungarian tree of tight edges from `root` until it either
        // reaches a free right node (augment), or some left node's dual
        // hits 0 (that node can stay unmatched: "augment to null").
        let mut in_left = vec![false; n]; // S
        let mut in_right = vec![false; n]; // T
        let mut back: Vec<Option<usize>> = vec![None; n]; // alternating-path parent
        in_left[root] = true;
        loop {
            // Scan for a tight edge from S to a right node outside T.
            let mut advanced = false;
            let members: Vec<usize> = g.nodes().filter(|&u| in_left[u]).collect();
            'scan: for u in members {
                for &v in g.neighbors(u) {
                    if in_right[v] || y[u] + y[v] != w(u, v) {
                        continue;
                    }
                    in_right[v] = true;
                    back[v] = Some(u);
                    match mate[v] {
                        None => {
                            augment(&mut mate, &back, v);
                            break 'scan;
                        }
                        Some(next_left) => {
                            in_left[next_left] = true;
                            back[next_left] = Some(v);
                            advanced = true;
                        }
                    }
                }
            }
            if mate[root].is_some() {
                break;
            }
            if advanced {
                continue;
            }
            // No tight edge available: lower S-duals and raise T-duals by δ.
            let mut delta = i128::MAX;
            for u in g.nodes().filter(|&u| in_left[u]) {
                delta = delta.min(y[u]); // slack to the virtual null vertex
                for &v in g.neighbors(u) {
                    if !in_right[v] {
                        delta = delta.min(y[u] + y[v] - w(u, v));
                    }
                }
            }
            debug_assert!(delta >= 0, "dual feasibility must hold");
            for x in g.nodes() {
                if in_left[x] {
                    y[x] -= delta;
                } else if in_right[x] {
                    y[x] += delta;
                }
            }
            // A left node at dual 0 may stay unmatched: flip the
            // alternating path from it back to the root ("match to null").
            if let Some(z) = g.nodes().find(|&u| in_left[u] && y[u] == 0) {
                retire(&mut mate, &back, z);
                break;
            }
        }
    }

    let weight = mate
        .iter()
        .enumerate()
        .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| w(u, v)))
        .sum::<i128>();
    WeightedMatching {
        mate,
        duals: y
            .into_iter()
            .map(|x| u64::try_from(x.max(0)).expect("duals stay within 0..=W"))
            .collect(),
        weight: u128::try_from(weight).expect("weights are nonnegative"),
    }
}

/// Flips the alternating path ending at free right node `v`.
fn augment(mate: &mut [Option<usize>], back: &[Option<usize>], mut v: usize) {
    loop {
        let u = back[v].expect("right tree nodes have parents");
        let prev = mate[u];
        mate[u] = Some(v);
        mate[v] = Some(u);
        match prev {
            None => break,
            Some(pv) => v = pv,
        }
    }
}

/// Flips the alternating path from left node `z` (whose dual reached 0)
/// back to the tree root, leaving `z` unmatched — the "augment to the
/// virtual null vertex" step.
///
/// Tree invariants: for a non-root left node `u`, `back[u]` is the right
/// node currently matched to `u`; for a right node `v`, `back[v]` is the
/// left node that reached `v` through a tight non-matching edge.
fn retire(mate: &mut [Option<usize>], back: &[Option<usize>], z: usize) {
    let mut left = z;
    while let Some(v) = back[left] {
        let u = back[v].expect("right tree nodes have left parents");
        let u_prev = mate[u];
        mate[v] = Some(u);
        mate[u] = Some(v);
        match u_prev {
            None => break, // u was the unmatched root
            Some(_) => left = u,
        }
    }
    // z's old partner (if any) has been re-matched above; disconnect z.
    if let Some(v) = mate[z] {
        if mate[v] != Some(z) {
            mate[z] = None;
        }
    }
}

/// Exhaustive maximum-cardinality matching size; exponential, for ground
/// truth on small graphs only.
pub fn maximum_matching_bruteforce(g: &Graph) -> usize {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut used = vec![false; g.n()];
    fn rec(edges: &[(usize, usize)], i: usize, used: &mut [bool]) -> usize {
        if i == edges.len() {
            return 0;
        }
        let skip = rec(edges, i + 1, used);
        let (u, v) = edges[i];
        if used[u] || used[v] {
            return skip;
        }
        used[u] = true;
        used[v] = true;
        let take = 1 + rec(edges, i + 1, used);
        used[u] = false;
        used[v] = false;
        skip.max(take)
    }
    rec(&edges, 0, &mut used)
}

/// Exhaustive maximum-weight matching value; exponential, for ground truth
/// on small graphs only.
pub fn max_weight_matching_bruteforce(g: &Graph, weights: &EdgeWeightMap) -> u128 {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut used = vec![false; g.n()];
    fn rec(edges: &[(usize, usize)], weights: &EdgeWeightMap, i: usize, used: &mut [bool]) -> u128 {
        if i == edges.len() {
            return 0;
        }
        let skip = rec(edges, weights, i + 1, used);
        let (u, v) = edges[i];
        if used[u] || used[v] {
            return skip;
        }
        used[u] = true;
        used[v] = true;
        let w = weights.get(&norm_edge(u, v)).copied().unwrap_or(0);
        let take = u128::from(w) + rec(edges, weights, i + 1, used);
        used[u] = false;
        used[v] = false;
        skip.max(take)
    }
    rec(&edges, weights, 0, &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::bipartition;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn matching_predicates() {
        let g = generators::path(4); // edges (0,1),(1,2),(2,3)
        assert!(is_matching(&g, &[(0, 1), (2, 3)]));
        assert!(!is_matching(&g, &[(0, 1), (1, 2)])); // shares node 1
        assert!(!is_matching(&g, &[(0, 2)])); // not an edge
        assert!(is_maximal_matching(&g, &[(1, 2)]));
        assert!(!is_maximal_matching(&g, &[(0, 1)])); // (2,3) extends it
    }

    #[test]
    fn greedy_is_maximal() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let g = generators::gnp(12, 0.3, &mut rng);
            let m = greedy_maximal_matching(&g);
            assert!(is_maximal_matching(&g, &m));
        }
    }

    #[test]
    fn kuhn_on_complete_bipartite() {
        let g = generators::complete_bipartite(3, 5);
        let side = bipartition(&g).unwrap();
        let m = maximum_bipartite_matching(&g, &side);
        assert_eq!(m.size(), 3);
        assert!(is_matching(&g, &m.edges()));
    }

    #[test]
    fn kuhn_matches_bruteforce_on_random_bipartite() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let g = generators::random_bipartite(5, 5, 0.4, &mut rng);
            let side = bipartition(&g).unwrap();
            let m = maximum_bipartite_matching(&g, &side);
            assert_eq!(m.size(), maximum_matching_bruteforce(&g));
        }
    }

    #[test]
    fn koenig_cover_has_matching_size() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let g = generators::random_bipartite(6, 6, 0.35, &mut rng);
            let side = bipartition(&g).unwrap();
            let m = maximum_bipartite_matching(&g, &side);
            let cover = koenig_vertex_cover(&g, &side, &m);
            assert!(is_vertex_cover(&g, &cover));
            assert_eq!(cover.iter().filter(|&&b| b).count(), m.size());
        }
    }

    #[test]
    fn koenig_cover_on_edgeless_graph_is_empty() {
        let g = Graph::with_contiguous_ids(4);
        let side = vec![0, 0, 1, 1];
        let m = maximum_bipartite_matching(&g, &side);
        let cover = koenig_vertex_cover(&g, &side, &m);
        assert!(cover.iter().all(|&b| !b));
    }

    fn random_weights(g: &Graph, max_w: u64, rng: &mut StdRng) -> EdgeWeightMap {
        g.edges()
            .map(|(u, v)| ((u, v), rng.random_range(0..=max_w)))
            .collect()
    }

    fn check_duality(g: &Graph, weights: &EdgeWeightMap, sol: &WeightedMatching) {
        // Feasibility on every edge.
        for (u, v) in g.edges() {
            let w = weights.get(&norm_edge(u, v)).copied().unwrap_or(0);
            assert!(
                u128::from(sol.duals[u]) + u128::from(sol.duals[v]) >= u128::from(w),
                "dual infeasible on edge ({u},{v})"
            );
        }
        // Tightness on matched edges.
        for (u, v) in sol.edges() {
            let w = weights.get(&norm_edge(u, v)).copied().unwrap_or(0);
            assert_eq!(
                u128::from(sol.duals[u]) + u128::from(sol.duals[v]),
                u128::from(w),
                "matched edge not tight"
            );
        }
        // Positive duals only on matched nodes.
        for u in g.nodes() {
            if sol.duals[u] > 0 {
                assert!(sol.mate[u].is_some(), "free node {u} has positive dual");
            }
        }
    }

    #[test]
    fn weighted_matching_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(8);
        for round in 0..30 {
            let g = generators::random_bipartite(5, 5, 0.5, &mut rng);
            let side = bipartition(&g).unwrap();
            let weights = random_weights(&g, 10, &mut rng);
            let sol = max_weight_bipartite_matching(&g, &side, &weights);
            let best = max_weight_matching_bruteforce(&g, &weights);
            assert_eq!(sol.weight, best, "round {round}");
            assert!(is_matching(&g, &sol.edges()));
            check_duality(&g, &weights, &sol);
        }
    }

    #[test]
    fn weighted_matching_prefers_heavy_edge() {
        // Path a-b-c: picking the middle edge with weight 5 beats both ends.
        let g = generators::path(3);
        let side = bipartition(&g).unwrap();
        let mut weights = EdgeWeightMap::new();
        weights.insert((0, 1), 2);
        weights.insert((1, 2), 5);
        let sol = max_weight_bipartite_matching(&g, &side, &weights);
        assert_eq!(sol.weight, 5);
        assert_eq!(sol.edges(), vec![(1, 2)]);
        check_duality(&g, &weights, &sol);
    }

    #[test]
    fn weighted_matching_can_leave_nodes_unmatched() {
        // Star with all weights 0: empty matching is optimal, all duals 0.
        let g = generators::star(3);
        let side = bipartition(&g).unwrap();
        let weights = EdgeWeightMap::new();
        let sol = max_weight_bipartite_matching(&g, &side, &weights);
        assert_eq!(sol.weight, 0);
        assert!(sol.duals.iter().all(|&y| y == 0));
        check_duality(&g, &weights, &sol);
    }

    #[test]
    fn weighted_matching_duals_bounded_by_max_weight() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10 {
            let g = generators::random_bipartite(6, 4, 0.6, &mut rng);
            let side = bipartition(&g).unwrap();
            let weights = random_weights(&g, 7, &mut rng);
            let sol = max_weight_bipartite_matching(&g, &side, &weights);
            assert!(sol.duals.iter().all(|&y| y <= 7));
            check_duality(&g, &weights, &sol);
        }
    }

    #[test]
    fn weighted_matching_handles_weights_past_i64() {
        // Every weight is ≥ 2⁶³: none fits an i64, and any two matched
        // edges sum past u64::MAX.
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..10 {
            let g = generators::random_bipartite(4, 4, 0.6, &mut rng);
            let side = bipartition(&g).unwrap();
            let weights: EdgeWeightMap = g
                .edges()
                .map(|(u, v)| ((u, v), rng.random_range(1u64 << 63..=u64::MAX)))
                .collect();
            let sol = max_weight_bipartite_matching(&g, &side, &weights);
            let best = max_weight_matching_bruteforce(&g, &weights);
            assert_eq!(sol.weight, best, "round {round}");
            check_duality(&g, &weights, &sol);
        }
    }

    #[test]
    fn bruteforce_on_cycle() {
        assert_eq!(maximum_matching_bruteforce(&generators::cycle(6)), 3);
        assert_eq!(maximum_matching_bruteforce(&generators::cycle(7)), 3);
    }
}
