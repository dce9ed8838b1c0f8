//! `s`–`t` vertex connectivity = k (§4.2): `O(log k)` bits in general,
//! `Θ(1)` on planar graphs via colour-reuse of path indices.

use crate::labels::StMark;
use lcp_core::{BitReader, BitString, BitWriter, Instance, Proof, ProofRef, Scheme, View};
use lcp_graph::menger;

/// How path identities are written into the proof (§4.2's last
/// paragraph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathIndexMode {
    /// Every path carries a distinct index `0..k` — `O(log k)` bits.
    Distinct,
    /// Paths are *coloured* so that adjacent paths differ; non-adjacent
    /// paths may share a colour. On planar graphs a constant number of
    /// colours suffices, giving the `Θ(1)` planar row.
    Colored,
}

/// The §4.2 scheme certifying `κ(s, t) = k` exactly.
///
/// Proof per node: region tag (`S`/`C`/`T`, 2 bits), an on-path flag, and
/// for interior path nodes the path index plus the position along the
/// path modulo 3 (the orientation trick of §4.2).
///
/// The verifier re-checks, with radius 1 (paper conditions (i)–(iv)):
///
/// 1. `s` sees exactly `k` path-starts (distinct indices in
///    [`PathIndexMode::Distinct`], a count in [`PathIndexMode::Colored`]);
///    symmetrically for `t`.
/// 2. every interior path node has exactly one predecessor and one
///    successor (`s`/`t` adjacency standing in at the ends);
/// 3. no edge joins region `S` to region `T`;
/// 4. every `C` node lies on a path, with predecessor on the `S` side
///    and successor on the `T` side.
///
/// Together: at least `k` vertex-disjoint `s`–`t` paths exist (lower
/// bound) and `C`, of size `k`, separates `s` from `t` (upper bound).
///
/// Promises: exactly one `S` and one `T` mark; `s` and `t` non-adjacent;
/// `k ≥ 1`; in `Colored` mode the graph family must keep the path
/// conflict graph colourable with few colours (e.g. planar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StConnectivity {
    /// The connectivity value `k ≥ 1`, known to all nodes.
    pub k: usize,
    /// Index encoding mode.
    pub mode: PathIndexMode,
}

impl StConnectivity {
    /// The general-family variant (distinct indices, `O(log k)` bits).
    pub fn general(k: usize) -> Self {
        assert!(k >= 1, "connectivity value must be positive");
        StConnectivity {
            k,
            mode: PathIndexMode::Distinct,
        }
    }

    /// The planar-family variant (coloured indices, `Θ(1)` bits).
    pub fn planar(k: usize) -> Self {
        assert!(k >= 1, "connectivity value must be positive");
        StConnectivity {
            k,
            mode: PathIndexMode::Colored,
        }
    }
}

/// Region tags of the §4.2 partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    S,
    C,
    T,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConnCert {
    region: Region,
    /// `(index, position mod 3)` for interior path nodes.
    path: Option<(u64, u64)>,
}

fn encode_cert(cert: &ConnCert) -> BitString {
    let mut w = BitWriter::new();
    let r = match cert.region {
        Region::S => 0u64,
        Region::C => 1,
        Region::T => 2,
    };
    w.write_u64(r, 2);
    match cert.path {
        Some((idx, pos)) => {
            w.write_bit(true);
            w.write_gamma(idx);
            w.write_u64(pos, 2);
        }
        None => {
            w.write_bit(false);
        }
    }
    w.finish()
}

fn decode_cert(s: ProofRef<'_>) -> Option<ConnCert> {
    let mut r = BitReader::new(s);
    let region = match r.read_u64(2).ok()? {
        0 => Region::S,
        1 => Region::C,
        2 => Region::T,
        _ => return None,
    };
    let path = if r.read_bit().ok()? {
        let idx = r.read_gamma().ok()?;
        let pos = r.read_u64(2).ok()?;
        if pos > 2 {
            return None;
        }
        Some((idx, pos))
    } else {
        None
    };
    r.is_exhausted().then_some(ConnCert { region, path })
}

fn endpoints(inst: &Instance<StMark>) -> Option<(usize, usize)> {
    let labels = inst.node_labels();
    let s = labels.iter().position(|&m| m == StMark::S)?;
    let t = labels.iter().position(|&m| m == StMark::T)?;
    (labels.iter().filter(|&&m| m == StMark::S).count() == 1
        && labels.iter().filter(|&&m| m == StMark::T).count() == 1)
        .then_some((s, t))
}

impl Scheme for StConnectivity {
    type Node = StMark;
    type Edge = ();

    fn name(&self) -> String {
        format!(
            "st-connectivity={}[{}]",
            self.k,
            match self.mode {
                PathIndexMode::Distinct => "distinct",
                PathIndexMode::Colored => "colored",
            }
        )
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<StMark>) -> bool {
        let Some((s, t)) = endpoints(inst) else {
            return false;
        };
        if inst.graph().has_edge(s, t) {
            return false; // κ undefined across an edge; outside the promise
        }
        menger::local_vertex_connectivity(inst.graph(), s, t) == self.k
    }

    fn prove(&self, inst: &Instance<StMark>) -> Option<Proof> {
        let (s, t) = endpoints(inst)?;
        let g = inst.graph();
        if g.has_edge(s, t) {
            return None;
        }
        let cert = menger::menger_certificate(g, s, t);
        if cert.paths.len() != self.k || cert.separator.len() != self.k {
            return None;
        }
        // Region assignment: C = separator, S = reachable from s in G − C.
        let mut region = vec![Region::T; g.n()];
        let in_c: Vec<bool> = {
            let mut v = vec![false; g.n()];
            for &c in &cert.separator {
                v[c] = true;
            }
            v
        };
        let mut stack = vec![s];
        let mut seen = vec![false; g.n()];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            region[u] = Region::S;
            for &w in g.neighbors(u) {
                if !seen[w] && !in_c[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        for &c in &cert.separator {
            region[c] = Region::C;
        }
        debug_assert_eq!(region[s], Region::S);
        debug_assert_eq!(region[t], Region::T);
        // Path indices: distinct, or greedy colours on the path conflict
        // graph (adjacent paths must differ).
        let interiors: Vec<Vec<usize>> = cert
            .paths
            .iter()
            .map(|p| p[1..p.len() - 1].to_vec())
            .collect();
        let index_of_path: Vec<u64> = match self.mode {
            PathIndexMode::Distinct => (0..self.k as u64).collect(),
            PathIndexMode::Colored => {
                let k = self.k;
                let mut conflicts = vec![vec![false; k]; k];
                for i in 0..k {
                    for j in (i + 1)..k {
                        let touch = interiors[i]
                            .iter()
                            .any(|&u| interiors[j].iter().any(|&w| g.has_edge(u, w)));
                        conflicts[i][j] = touch;
                        conflicts[j][i] = touch;
                    }
                }
                let mut colors = vec![u64::MAX; k];
                for i in 0..k {
                    let mut used: Vec<bool> = vec![false; k];
                    for j in 0..k {
                        if conflicts[i][j] && colors[j] != u64::MAX {
                            used[colors[j] as usize] = true;
                        }
                    }
                    colors[i] = used.iter().position(|&b| !b).expect("≤ k colours") as u64;
                }
                colors
            }
        };
        let mut path_field: Vec<Option<(u64, u64)>> = vec![None; g.n()];
        for (i, interior) in interiors.iter().enumerate() {
            for (j, &v) in interior.iter().enumerate() {
                // True position along the path is j + 1 (s sits at 0).
                path_field[v] = Some((index_of_path[i], ((j + 1) % 3) as u64));
            }
        }
        Some(Proof::from_fn(g.n(), |v| {
            encode_cert(&ConnCert {
                region: region[v],
                path: path_field[v],
            })
        }))
    }

    fn verify(&self, view: &View<StMark>) -> bool {
        let cert = |u: usize| decode_cert(view.proof(u));
        let c = view.center();
        let Some(mine) = cert(c) else {
            return false;
        };
        // Decode all neighbours up front.
        let mut nbrs = Vec::with_capacity(view.degree(c));
        for &u in view.neighbors(c) {
            let u = u as usize;
            let Some(cu) = cert(u) else {
                return false;
            };
            nbrs.push((u, cu));
        }
        // (iii) No S–T edge, in either direction.
        for &(_, cu) in &nbrs {
            if (mine.region == Region::S && cu.region == Region::T)
                || (mine.region == Region::T && cu.region == Region::S)
            {
                return false;
            }
        }
        let k = self.k as u64;
        match view.node_label(c) {
            StMark::S => {
                if mine.region != Region::S || mine.path.is_some() {
                    return false;
                }
                // (i) Exactly k path starts (stored position ≡ 1).
                let starts: Vec<u64> = nbrs
                    .iter()
                    .filter_map(|&(_, cu)| cu.path)
                    .filter(|&(_, pos)| pos == 1)
                    .map(|(idx, _)| idx)
                    .collect();
                self.check_endpoint_indices(&starts, k)
            }
            StMark::T => {
                if mine.region != Region::T || mine.path.is_some() {
                    return false;
                }
                // (i) Exactly k path ends: every on-path neighbour of t.
                let ends: Vec<u64> = nbrs
                    .iter()
                    .filter_map(|&(_, cu)| cu.path)
                    .map(|(idx, _)| idx)
                    .collect();
                self.check_endpoint_indices(&ends, k)
            }
            StMark::Plain => {
                let Some((idx, pos)) = mine.path else {
                    // Off-path nodes only owe the region checks, but C
                    // nodes must be on a path (condition (iv)).
                    return mine.region != Region::C;
                };
                if idx >= k {
                    return false;
                }
                let adj_s = view
                    .neighbors(c)
                    .iter()
                    .any(|&u| *view.node_label(u as usize) == StMark::S);
                let adj_t = view
                    .neighbors(c)
                    .iter()
                    .any(|&u| *view.node_label(u as usize) == StMark::T);
                // (ii) Exactly one predecessor and one successor.
                let mut preds: Vec<Region> = Vec::new();
                let mut succs: Vec<Region> = Vec::new();
                if adj_s && pos == 1 {
                    preds.push(Region::S); // s itself lies in S
                }
                if adj_t {
                    succs.push(Region::T); // t itself lies in T
                }
                for &(_, cu) in &nbrs {
                    if let Some((ui, upos)) = cu.path {
                        if ui == idx && upos == (pos + 2) % 3 {
                            preds.push(cu.region);
                        }
                        if ui == idx && upos == (pos + 1) % 3 {
                            succs.push(cu.region);
                        }
                    }
                }
                if preds.len() != 1 || succs.len() != 1 {
                    return false;
                }
                // (iv) C nodes sit at the S→T crossing.
                if mine.region == Region::C && (preds[0] != Region::S || succs[0] != Region::T) {
                    return false;
                }
                true
            }
        }
    }
}

impl StConnectivity {
    fn check_endpoint_indices(&self, indices: &[u64], k: u64) -> bool {
        match self.mode {
            PathIndexMode::Distinct => {
                let mut sorted = indices.to_vec();
                sorted.sort_unstable();
                sorted == (0..k).collect::<Vec<u64>>()
            }
            PathIndexMode::Colored => indices.len() as u64 == k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, Run, Soundness,
    };
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(g: lcp_graph::Graph, s: usize, t: usize) -> Instance<StMark> {
        let marks = StMark::mark(g.n(), s, t);
        Instance::with_node_data(g, marks)
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let inst = instance(generators::cycle(8), 0, 4);
        let scheme = StConnectivity::general(2);
        assert!(scheme.holds(&inst));
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn complete_bipartite_same_side_connectivity() {
        // κ(0, 1) in K_{3,4} is 4.
        let inst = instance(generators::complete_bipartite(3, 4), 0, 1);
        let scheme = StConnectivity::general(4);
        assert!(scheme.holds(&inst));
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn grid_corners_planar_mode() {
        // Grids are planar; corner-to-corner connectivity is 2.
        for (r, c) in [(3usize, 3usize), (3, 4), (4, 4)] {
            let g = generators::grid(r, c);
            let inst = instance(g, 0, r * c - 1);
            let scheme = StConnectivity::planar(2);
            assert!(scheme.holds(&inst), "{r}x{c}");
            let proof = scheme.prove(&inst).unwrap();
            assert!(
                evaluate(&scheme, &inst, &proof).accepted(),
                "{r}x{c} planar mode"
            );
        }
    }

    #[test]
    fn planar_mode_size_is_constant_general_is_log_k() {
        // Measure on long even cycles (κ = 2) for planar mode...
        let planar_sizes: Vec<usize> = [8usize, 32, 128]
            .iter()
            .map(|&n| {
                let inst = instance(generators::cycle(n), 0, n / 2);
                StConnectivity::planar(2).prove(&inst).unwrap().size()
            })
            .collect();
        assert!(planar_sizes.windows(2).all(|w| w[0] == w[1]));
        // ...and on K_{k,k+1} same-side pairs for growing k in general mode.
        let mut general_sizes = Vec::new();
        for k in [2usize, 4, 8, 16] {
            let inst = instance(generators::complete_bipartite(2, k), 0, 1);
            let scheme = StConnectivity::general(k);
            assert!(scheme.holds(&inst));
            general_sizes.push(scheme.prove(&inst).unwrap().size());
        }
        assert!(
            general_sizes.windows(2).all(|w| w[0] <= w[1]),
            "index field grows with k: {general_sizes:?}"
        );
        assert!(general_sizes[3] > general_sizes[0]);
    }

    #[test]
    fn wrong_k_is_a_no_instance_both_ways() {
        let inst = instance(generators::cycle(8), 0, 4); // true κ = 2
        for k in [1usize, 3] {
            let scheme = StConnectivity::general(k);
            assert!(!scheme.holds(&inst), "k = {k}");
            assert!(scheme.prove(&inst).is_none(), "k = {k}");
        }
    }

    #[test]
    fn underclaiming_connectivity_rejected_exhaustively() {
        // C4 between s and t has κ = 2; claim k = 1 and try all proofs of
        // up to 4 bits per node on this 4-node instance.
        let inst = instance(generators::cycle(4), 0, 2);
        let scheme = StConnectivity::general(1);
        assert!(!scheme.holds(&inst));
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            3,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("κ=1 forged on C4 by {p:?}"),
        }
    }

    #[test]
    fn overclaiming_connectivity_resists_search() {
        // Path s–x–t has κ = 1; claim k = 2.
        let inst = instance(generators::path(5), 0, 4);
        let scheme = StConnectivity::general(2);
        assert!(!scheme.holds(&inst));
        let mut rng = StdRng::seed_from_u64(51);
        assert!(adversarial_proof_search(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            6,
            800,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn random_graphs_roundtrip() {
        let mut rng = StdRng::seed_from_u64(52);
        let mut done = 0;
        let mut instances_by_k: std::collections::BTreeMap<usize, Vec<Instance<StMark>>> =
            Default::default();
        for _ in 0..40 {
            let g = generators::random_connected(9, 6, &mut rng);
            if g.has_edge(0, 8) {
                continue;
            }
            let k = menger::local_vertex_connectivity(&g, 0, 8);
            if k >= 1 {
                instances_by_k.entry(k).or_default().push(instance(g, 0, 8));
                done += 1;
            }
        }
        assert!(done >= 10);
        for (k, instances) in instances_by_k {
            let scheme = StConnectivity::general(k);
            check_completeness(
                &scheme,
                &lcp_core::engine::prepare_sweep(&scheme, &instances),
            )
            .unwrap_or_else(|f| {
                panic!("k = {k}: {:?}", f.reason);
            });
        }
    }

    #[test]
    fn adjacent_endpoints_are_outside_the_promise() {
        let inst = instance(generators::complete(4), 0, 1);
        let scheme = StConnectivity::general(3);
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
    }
}
