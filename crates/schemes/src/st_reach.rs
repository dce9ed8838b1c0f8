//! `s`–`t` reachability and unreachability (§4.1): the flagship
//! `LCP(O(1))` problems.

use crate::labels::{ArcDir, StMark};
use lcp_core::{BitString, Instance, Proof, Scheme, View};
use lcp_graph::traversal;

/// The 1-bit scheme for undirected `s`–`t` reachability: mark the nodes
/// of a shortest `s`–`t` path.
///
/// Verifier checks (§4.1): (i) `s` and `t` are marked; (ii) `s` and `t`
/// have exactly one marked neighbour; (iii) every other marked node has
/// exactly two marked neighbours. Because a shortest path is chordless,
/// the honest marking passes; conversely any passing marking makes `s`'s
/// component of the marked subgraph a path whose other endpoint has odd
/// marked-degree — and only `t` qualifies.
///
/// Instance promise: exactly one [`StMark::S`] and one [`StMark::T`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StReachability;

impl Scheme for StReachability {
    type Node = StMark;
    type Edge = ();

    fn name(&self) -> String {
        "st-reachability".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<StMark>) -> bool {
        let (Some(s), Some(t)) = endpoints(inst) else {
            return false;
        };
        traversal::bfs_distances(inst.graph(), s)[t].is_some()
    }

    fn prove(&self, inst: &Instance<StMark>) -> Option<Proof> {
        let (Some(s), Some(t)) = endpoints(inst) else {
            return None;
        };
        let path = traversal::shortest_path(inst.graph(), s, t)?;
        let mut on_path = vec![false; inst.n()];
        for &v in &path {
            on_path[v] = true;
        }
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([on_path[v]])
        }))
    }

    fn verify(&self, view: &View<StMark>) -> bool {
        let c = view.center();
        let Some(marked) = view.proof(c).first() else {
            return false;
        };
        let marked_nbrs = view
            .neighbors(c)
            .iter()
            .filter(|&&u| view.proof(u as usize).first() == Some(true))
            .count();
        match view.node_label(c) {
            StMark::S | StMark::T => marked && marked_nbrs == 1,
            StMark::Plain => !marked || marked_nbrs == 2,
        }
    }
}

/// The 1-bit scheme for `s`–`t` **un**reachability, undirected or
/// directed (§4.1): mark a side `S ∋ s` with no edge leaving towards
/// `t`'s side.
///
/// On undirected instances (`directed = false`) the edge orientation
/// labels are ignored and "no edge from `S` to `T`" means no edge at all
/// between the sides; on directed instances, edges are labelled with
/// [`ArcDir`] and only *traversable* `S → T` arcs are forbidden — the
/// asymmetry the paper highlights (directed reachability is open, its
/// complement is easy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StUnreachability {
    /// Whether to honour the [`ArcDir`] edge labels.
    pub directed: bool,
}

impl StUnreachability {
    /// The undirected variant.
    pub fn undirected() -> Self {
        StUnreachability { directed: false }
    }

    /// The directed variant.
    pub fn directed() -> Self {
        StUnreachability { directed: true }
    }

    fn reaches(&self, inst: &Instance<StMark, ArcDir>, s: usize, t: usize) -> bool {
        // BFS following traversable arcs only.
        let g = inst.graph();
        let mut seen = vec![false; g.n()];
        seen[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            if u == t {
                return true;
            }
            for &w in g.neighbors(u) {
                if seen[w] {
                    continue;
                }
                let traversable = if self.directed {
                    inst.edge_label(u, w)
                        .is_some_and(|d| d.allows(g.id(u), g.id(w)))
                } else {
                    true
                };
                if traversable {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
        false
    }
}

impl Scheme for StUnreachability {
    type Node = StMark;
    type Edge = ArcDir;

    fn name(&self) -> String {
        format!(
            "st-unreachability-{}",
            if self.directed {
                "directed"
            } else {
                "undirected"
            }
        )
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<StMark, ArcDir>) -> bool {
        let (Some(s), Some(t)) = endpoints_de(inst) else {
            return false;
        };
        !self.reaches(inst, s, t)
    }

    fn prove(&self, inst: &Instance<StMark, ArcDir>) -> Option<Proof> {
        let (Some(s), Some(t)) = endpoints_de(inst) else {
            return None;
        };
        if self.reaches(inst, s, t) {
            return None;
        }
        // S = everything reachable from s; certainly excludes t.
        let g = inst.graph();
        let mut in_s = vec![false; g.n()];
        in_s[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if in_s[w] {
                    continue;
                }
                let traversable = if self.directed {
                    inst.edge_label(u, w)
                        .is_some_and(|d| d.allows(g.id(u), g.id(w)))
                } else {
                    true
                };
                if traversable {
                    in_s[w] = true;
                    queue.push_back(w);
                }
            }
        }
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([in_s[v]])
        }))
    }

    fn verify(&self, view: &View<StMark, ArcDir>) -> bool {
        let c = view.center();
        let Some(mine) = view.proof(c).first() else {
            return false;
        };
        match view.node_label(c) {
            StMark::S if !mine => return false,
            StMark::T if mine => return false,
            _ => {}
        }
        // No traversable edge from the S side to the T side.
        view.neighbors(c).iter().all(|&u| {
            let u = u as usize;
            let Some(theirs) = view.proof(u).first() else {
                return false;
            };
            if mine == theirs {
                return true;
            }
            // Determine the S→T direction of this edge.
            let (from, to) = if mine { (c, u) } else { (u, c) };
            if !self.directed {
                return false; // any S–T edge is forbidden when undirected
            }
            let Some(dir) = view.edge_label(c, u) else {
                return false; // unlabeled edge in a directed instance
            };
            // Orientation is defined over identifiers, which the view sees.
            !dir.allows(view.id(from), view.id(to))
        })
    }
}

/// Directed `s`–`t` reachability with `O(log Δ)` bits (§4.1): "in graphs
/// of maximum degree Δ, one can still give an easy upper bound of
/// O(log Δ) by using edge pointers in the proof labelling to describe a
/// path from s to t". Whether `LCP(O(1))` suffices is the paper's open
/// problem (citing Ajtai–Fagin).
///
/// Proof per node: a mark bit; marked nodes other than `t` carry the
/// *port* (identifier-rank among neighbours) of their successor. The
/// radius-2 verifier checks, per marked node: the successor arc is
/// traversable and leads to a marked node (or `t`), and exactly one
/// marked in-neighbour points here (`s`: none). Pointer cycles cannot
/// absorb `s`'s chain — merging into a cycle would give some node two
/// incoming pointers — so the chain must end at the only marked node
/// without a successor, which is `t`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StReachabilityDirected;

impl StReachabilityDirected {
    fn next_hops(inst: &Instance<StMark, ArcDir>, s: usize, t: usize) -> Option<Vec<usize>> {
        // BFS over traversable arcs, then read back the s→t path.
        let g = inst.graph();
        let mut parent = vec![usize::MAX; g.n()];
        let mut queue = std::collections::VecDeque::from([s]);
        let mut seen = vec![false; g.n()];
        seen[s] = true;
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if !seen[w]
                    && inst
                        .edge_label(u, w)
                        .is_some_and(|d| d.allows(g.id(u), g.id(w)))
                {
                    seen[w] = true;
                    parent[w] = u;
                    queue.push_back(w);
                }
            }
        }
        if !seen[t] {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while cur != s {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Identifier-rank port of `to` among `from`'s neighbours.
    fn port(g: &lcp_graph::Graph, from: usize, to: usize) -> u64 {
        let mut nbrs: Vec<usize> = g.neighbors(from).to_vec();
        nbrs.sort_by_key(|&u| g.id(u));
        nbrs.iter().position(|&u| u == to).expect("adjacent") as u64 + 1
    }
}

#[derive(Clone, Copy, Debug)]
struct DirCert {
    marked: bool,
    /// 1-based successor port; 0 at `t` (no successor).
    out_port: u64,
}

fn decode_dir(proof: lcp_core::ProofRef<'_>) -> Option<DirCert> {
    let mut r = lcp_core::BitReader::new(proof);
    let marked = r.read_bit().ok()?;
    let out_port = if marked { r.read_gamma().ok()? } else { 0 };
    r.is_exhausted().then_some(DirCert { marked, out_port })
}

impl Scheme for StReachabilityDirected {
    type Node = StMark;
    type Edge = ArcDir;

    fn name(&self) -> String {
        "st-reachability-directed".into()
    }

    fn radius(&self) -> usize {
        2 // ports of neighbours need their full adjacency in view
    }

    fn holds(&self, inst: &Instance<StMark, ArcDir>) -> bool {
        let (Some(s), Some(t)) = endpoints_de(inst) else {
            return false;
        };
        Self::next_hops(inst, s, t).is_some()
    }

    fn prove(&self, inst: &Instance<StMark, ArcDir>) -> Option<Proof> {
        let (Some(s), Some(t)) = endpoints_de(inst) else {
            return None;
        };
        let path = Self::next_hops(inst, s, t)?;
        let g = inst.graph();
        let mut cert = vec![
            DirCert {
                marked: false,
                out_port: 0
            };
            g.n()
        ];
        for w in path.windows(2) {
            cert[w[0]] = DirCert {
                marked: true,
                out_port: Self::port(g, w[0], w[1]),
            };
        }
        cert[t] = DirCert {
            marked: true,
            out_port: 0,
        };
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = lcp_core::BitWriter::new();
            w.write_bit(cert[v].marked);
            if cert[v].marked {
                w.write_gamma(cert[v].out_port);
            }
            w.finish()
        }))
    }

    fn verify(&self, view: &View<StMark, ArcDir>) -> bool {
        let c = view.center();
        let Some(mine) = decode_dir(view.proof(c)) else {
            return false;
        };
        let mark = *view.node_label(c);
        // s and t must be marked; t must have no successor pointer.
        match mark {
            StMark::S if !mine.marked => return false,
            StMark::T if !mine.marked || mine.out_port != 0 => return false,
            _ => {}
        }
        if !mine.marked {
            return true;
        }
        // Port-ordered adjacency of a node (full list: dist(u) ≤ 1 < r).
        let ports_of = |u: usize| -> Vec<usize> {
            let mut nbrs: Vec<usize> = view.neighbors(u).iter().map(|&w| w as usize).collect();
            nbrs.sort_by_key(|&w| view.id(w));
            nbrs
        };
        // My successor: valid port, traversable arc, marked target.
        if mark != StMark::T {
            let ports = ports_of(c);
            if mine.out_port == 0 || mine.out_port as usize > ports.len() {
                return false;
            }
            let succ = ports[mine.out_port as usize - 1];
            let Some(dir) = view.edge_label(c, succ) else {
                return false;
            };
            if !dir.allows(view.id(c), view.id(succ)) {
                return false;
            }
            if !decode_dir(view.proof(succ)).is_some_and(|d| d.marked) {
                return false;
            }
        }
        // Incoming pointers: exactly one marked in-neighbour points here
        // (none at s).
        let mut incoming = 0;
        for &u in view.neighbors(c) {
            let u = u as usize;
            let Some(cu) = decode_dir(view.proof(u)) else {
                return false;
            };
            if !cu.marked || cu.out_port == 0 {
                continue;
            }
            let u_ports = ports_of(u);
            if cu.out_port as usize <= u_ports.len()
                && u_ports[cu.out_port as usize - 1] == c
                && view
                    .edge_label(u, c)
                    .is_some_and(|d| d.allows(view.id(u), view.id(c)))
            {
                incoming += 1;
            }
        }
        match mark {
            StMark::S => incoming == 0,
            _ => incoming == 1,
        }
    }
}

fn endpoints(inst: &Instance<StMark>) -> (Option<usize>, Option<usize>) {
    let s = inst.node_labels().iter().position(|&m| m == StMark::S);
    let t = inst.node_labels().iter().position(|&m| m == StMark::T);
    (s, t)
}

fn endpoints_de(inst: &Instance<StMark, ArcDir>) -> (Option<usize>, Option<usize>) {
    let s = inst.node_labels().iter().position(|&m| m == StMark::S);
    let t = inst.node_labels().iter().position(|&m| m == StMark::T);
    (s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{check_soundness_exhaustive, Run, Soundness};
    use lcp_graph::{generators, ops};

    fn reach_instance(g: lcp_graph::Graph, s: usize, t: usize) -> Instance<StMark> {
        let marks = StMark::mark(g.n(), s, t);
        Instance::with_node_data(g, marks)
    }

    #[test]
    fn path_marking_accepted() {
        let inst = reach_instance(generators::grid(3, 4), 0, 11);
        assert!(StReachability.holds(&inst));
        let proof = StReachability.prove(&inst).unwrap();
        assert_eq!(proof.size(), 1);
        assert!(evaluate(&StReachability, &inst, &proof).accepted());
    }

    #[test]
    fn adjacent_endpoints() {
        let inst = reach_instance(generators::path(2), 0, 1);
        let proof = StReachability.prove(&inst).unwrap();
        assert!(evaluate(&StReachability, &inst, &proof).accepted());
    }

    #[test]
    fn unreachable_pair_is_a_no_instance() {
        let g = ops::disjoint_union(
            &generators::path(3),
            &ops::shift_ids(&generators::path(2), 10),
        )
        .unwrap();
        let inst = reach_instance(g, 0, 4);
        assert!(!StReachability.holds(&inst));
        assert!(StReachability.prove(&inst).is_none());
        match check_soundness_exhaustive(
            &StReachability,
            &lcp_core::engine::prepare(&StReachability, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("reachability forged by {p:?}"),
        }
    }

    #[test]
    fn fake_cycle_marking_rejected() {
        // Mark a decoy cycle in another component: its nodes pass their
        // local checks, but s and t are unmarked and reject.
        let mut g = generators::cycle(4);
        let s = g.add_node(lcp_graph::NodeId(100)).unwrap();
        let t = g.add_node(lcp_graph::NodeId(101)).unwrap();
        let inst = reach_instance(g, s, t);
        assert!(!StReachability.holds(&inst));
        let fake = Proof::from_fn(6, |v| BitString::from_bits([v < 4]));
        let verdict = evaluate(&StReachability, &inst, &fake);
        assert!(!verdict.accepted());
        assert!(verdict.rejecting().contains(&s));
        assert!(verdict.rejecting().contains(&t));
    }

    fn undirected_unreach(g: lcp_graph::Graph, s: usize, t: usize) -> Instance<StMark, ArcDir> {
        let marks = StMark::mark(g.n(), s, t);
        Instance::with_data(g, marks, Default::default())
    }

    #[test]
    fn unreachability_certified_on_split_graph() {
        let g = ops::disjoint_union(
            &generators::cycle(3),
            &ops::shift_ids(&generators::cycle(3), 10),
        )
        .unwrap();
        let inst = undirected_unreach(g, 0, 3);
        let scheme = StUnreachability::undirected();
        assert!(scheme.holds(&inst));
        let proof = scheme.prove(&inst).unwrap();
        assert_eq!(proof.size(), 1);
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn reachable_pair_resists_unreachability_forgery() {
        let inst = undirected_unreach(generators::path(4), 0, 3);
        let scheme = StUnreachability::undirected();
        assert!(!scheme.holds(&inst));
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("unreachability forged by {p:?}"),
        }
    }

    #[test]
    fn directed_unreachability_uses_orientations() {
        // Path 0 → 1 → 2 with all arcs forward: 2 cannot reach 0.
        let g = generators::path(3);
        let mut edges = lcp_core::EdgeMap::new();
        edges.insert((0, 1), ArcDir::Forward);
        edges.insert((1, 2), ArcDir::Forward);
        let marks = StMark::mark(3, 2, 0); // s = 2, t = 0
        let inst = Instance::with_data(g, marks, edges);
        let scheme = StUnreachability::directed();
        assert!(scheme.holds(&inst));
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn directed_reachable_resists_forgery() {
        let g = generators::path(3);
        let mut edges = lcp_core::EdgeMap::new();
        edges.insert((0, 1), ArcDir::Forward);
        edges.insert((1, 2), ArcDir::Forward);
        let marks = StMark::mark(3, 0, 2); // s = 0 reaches t = 2
        let inst = Instance::with_data(g, marks, edges);
        let scheme = StUnreachability::directed();
        assert!(!scheme.holds(&inst));
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("directed unreachability forged by {p:?}"),
        }
    }

    fn oriented_cycle_instance(n: usize, s: usize, t: usize) -> Instance<StMark, ArcDir> {
        // Cycle with all arcs oriented "ascending id", so s can reach t
        // only going one way around.
        let g = generators::cycle(n);
        let mut edges = lcp_core::EdgeMap::new();
        for (u, v) in g.edges() {
            let dir = if g.id(u) < g.id(v) {
                ArcDir::Forward
            } else {
                ArcDir::Backward
            };
            edges.insert((u, v), dir);
        }
        let marks = StMark::mark(n, s, t);
        Instance::with_data(g, marks, edges)
    }

    #[test]
    fn directed_reachability_pointer_chain_accepted() {
        // On the ascending-oriented cycle, 0 reaches 5 but 5 cannot reach
        // 0 without the wrap arc n-1 → 0... which IS ascending? The wrap
        // edge {0, n-1} is oriented 0→n-1 (ids 1 < n), so from 5 the only
        // way to 0 is blocked: a genuine directed instance.
        let inst = oriented_cycle_instance(8, 0, 5);
        assert!(StReachabilityDirected.holds(&inst));
        let proof = StReachabilityDirected.prove(&inst).unwrap();
        assert!(evaluate(&StReachabilityDirected, &inst, &proof).accepted());
        // Proof size is O(log Δ): Δ = 2 here, so ≤ 1 + γ(2) bits.
        assert!(proof.size() <= 4, "size {}", proof.size());
    }

    #[test]
    fn directed_unreachable_resists_all_small_proofs() {
        // Path 0 ← 1 ← 2 (all arcs descending): s = 0 cannot reach t = 2.
        let g = generators::path(3);
        let mut edges = lcp_core::EdgeMap::new();
        edges.insert((0, 1), ArcDir::Backward);
        edges.insert((1, 2), ArcDir::Backward);
        let inst = Instance::with_data(g, StMark::mark(3, 0, 2), edges);
        assert!(!StReachabilityDirected.holds(&inst));
        match check_soundness_exhaustive(
            &StReachabilityDirected,
            &lcp_core::engine::prepare(&StReachabilityDirected, &inst),
            3,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("directed reachability forged by {p:?}"),
        }
    }

    #[test]
    fn decoy_pointer_cycles_do_not_help() {
        // A directed 4-cycle far from s and t plus an s,t pair with no
        // connection: marking the decoy cycle self-consistently still
        // leaves s without a valid chain.
        let mut g = generators::cycle(4);
        let s = g.add_node(lcp_graph::NodeId(100)).unwrap();
        let t = g.add_node(lcp_graph::NodeId(101)).unwrap();
        let mut edges = lcp_core::EdgeMap::new();
        // Orient the 4-cycle consistently: 0→1→2→3→0.
        edges.insert((0, 1), ArcDir::Forward);
        edges.insert((1, 2), ArcDir::Forward);
        edges.insert((2, 3), ArcDir::Forward);
        edges.insert((0, 3), ArcDir::Backward); // 3 → 0
        let inst = Instance::with_data(g, StMark::mark(6, s, t), edges);
        assert!(!StReachabilityDirected.holds(&inst));
        // Hand-craft the decoy: mark the 4-cycle with its pointers; mark
        // s and t too (they must be marked to pass their own checks).
        let gg = inst.graph();
        let mk = |out: u64| {
            let mut w = lcp_core::BitWriter::new();
            w.write_bit(true);
            w.write_gamma(out);
            w.finish()
        };
        let mut proof = Proof::empty(6);
        for v in 0..4 {
            let next = [1usize, 2, 3, 0][v];
            proof.set(v, mk(StReachabilityDirected::port(gg, v, next)));
        }
        proof.set(s, mk(1)); // s has no neighbours: invalid port
        let mut wt = lcp_core::BitWriter::new();
        wt.write_bit(true);
        proof.set(t, wt.finish());
        let verdict = evaluate(&StReachabilityDirected, &inst, &proof);
        assert!(!verdict.accepted());
        assert!(verdict.rejecting().contains(&s), "s cannot fake a chain");
    }

    #[test]
    fn merging_into_a_cycle_is_detected() {
        // s → a, and a sits on a directed triangle a→b→c→a. Marking the
        // triangle plus s's pointer gives node a TWO incoming pointers.
        let mut g = lcp_graph::Graph::with_contiguous_ids(3); // a=0 b=1 c=2
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        let s = g.add_node(lcp_graph::NodeId(50)).unwrap();
        let t = g.add_node(lcp_graph::NodeId(51)).unwrap();
        g.add_edge(s, 0).unwrap();
        let mut edges = lcp_core::EdgeMap::new();
        edges.insert((0, 1), ArcDir::Forward); // a→b
        edges.insert((1, 2), ArcDir::Forward); // b→c
        edges.insert((0, 2), ArcDir::Backward); // c→a
        edges.insert((0, s), ArcDir::Backward); // s→a (id 50 > 1)
        let inst = Instance::with_data(g, StMark::mark(5, s, t), edges);
        assert!(!StReachabilityDirected.holds(&inst));
        let gg = inst.graph();
        let mk = |out: u64| {
            let mut w = lcp_core::BitWriter::new();
            w.write_bit(true);
            w.write_gamma(out);
            w.finish()
        };
        let mut proof = Proof::empty(5);
        proof.set(s, mk(StReachabilityDirected::port(gg, s, 0)));
        proof.set(0, mk(StReachabilityDirected::port(gg, 0, 1)));
        proof.set(1, mk(StReachabilityDirected::port(gg, 1, 2)));
        proof.set(2, mk(StReachabilityDirected::port(gg, 2, 0)));
        let mut wt = lcp_core::BitWriter::new();
        wt.write_bit(true);
        proof.set(t, wt.finish());
        let verdict = evaluate(&StReachabilityDirected, &inst, &proof);
        assert!(!verdict.accepted());
        // Node a (index 0) has incoming pointers from both s and c.
        assert!(verdict.rejecting().contains(&0));
    }

    #[test]
    fn back_edges_do_not_leak_reachability() {
        // 0 → 1, 2 → 1: t = 2 unreachable from s = 0 although the
        // underlying undirected graph is a connected path.
        let g = generators::path(3);
        let mut edges = lcp_core::EdgeMap::new();
        edges.insert((0, 1), ArcDir::Forward);
        edges.insert((1, 2), ArcDir::Backward);
        let marks = StMark::mark(3, 0, 2);
        let inst = Instance::with_data(g, marks, edges);
        let scheme = StUnreachability::directed();
        assert!(scheme.holds(&inst));
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }
}
