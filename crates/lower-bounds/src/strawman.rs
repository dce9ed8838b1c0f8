//! Honest-but-undersized schemes for the attacks to break.
//!
//! Each strawman is *complete* (yes-instances get accepted proofs) and
//! enforces real local consistency — it is the best one can do at its
//! proof size, and exactly the kind of scheme the paper's lower bounds
//! rule out. The attacks in this crate break them; the genuine
//! `Θ(log n)` / `Θ(n)` / `Θ(n²)` schemes of `lcp-schemes` survive the
//! same attacks.

use lcp_core::{BitReader, BitString, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::Graph;

/// A 1-bit leader-election scheme: the proof is the parity of the
/// distance to the leader along the cycle.
///
/// Local rule: non-leaders must have no same-parity neighbour; the leader
/// absorbs the parity defect (one same-parity neighbour on odd cycles,
/// two on even ones). On a *single* cycle with two leaders of odd length
/// this is even sound — but it cannot count leaders globally, and the
/// §5.3 gluing of two single-leader cycles produces a two-leader cycle
/// that every node accepts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParityLeader;

impl Scheme for ParityLeader {
    type Node = bool;
    type Edge = ();

    fn name(&self) -> String {
        "strawman:parity-leader".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance<bool>) -> bool {
        let g = inst.graph();
        g.n() >= 3
            && g.nodes().all(|u| g.degree(u) == 2)
            && lcp_graph::traversal::is_connected(g)
            && inst.node_labels().iter().filter(|&&l| l).count() == 1
    }

    fn prove(&self, inst: &Instance<bool>) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let g = inst.graph();
        let leader = inst
            .node_labels()
            .iter()
            .position(|&l| l)
            .expect("holds() checked");
        // Walk the cycle in one orientation starting at the leader; the
        // proof bit is a parity along that walk, arranged so every
        // same-parity ("defect") edge is incident to the leader: on odd
        // cycles the wrap edge, on even cycles both leader edges.
        let mut order = vec![leader];
        let mut prev = leader;
        let mut cur = g.neighbors(leader)[0];
        while cur != leader {
            order.push(cur);
            let next = *g
                .neighbors(cur)
                .iter()
                .find(|&&w| w != prev)
                .expect("degree 2");
            prev = cur;
            cur = next;
        }
        let n = g.n();
        let mut parity = vec![false; n];
        for (i, &v) in order.iter().enumerate() {
            parity[v] = if n % 2 == 1 {
                i % 2 == 1
            } else {
                i > 0 && (i - 1) % 2 == 1
            };
        }
        Some(Proof::from_fn(n, |v| BitString::from_bits([parity[v]])))
    }

    fn verify(&self, view: &View<bool>) -> bool {
        let c = view.center();
        if view.degree(c) != 2 {
            return false;
        }
        let Some(mine) = view.proof(c).first() else {
            return false;
        };
        let same_parity: Vec<usize> = view
            .neighbors(c)
            .iter()
            .copied()
            .filter(|&u| view.proof(u).first() == Some(mine))
            .collect();
        if *view.node_label(c) {
            // The leader absorbs the parity defect.
            !same_parity.is_empty()
        } else {
            // Non-leaders may share parity only with a leader.
            same_parity.iter().all(|&u| *view.node_label(u))
        }
    }
}

/// The universal `O(n²)` scheme truncated to a byte budget: the honest
/// encoding is cut to `budget` bits.
///
/// The verifier still demands exact neighbour agreement on the string and
/// — when the string parses as a complete encoding — performs the full
/// row-and-decide check. Beyond the budget it can only check agreement,
/// which is precisely the regime where the §6.1 pigeonhole finds two
/// graph families sharing a window and splices them.
pub struct TruncatedUniversal<F> {
    /// Maximum proof bits per node.
    pub budget: usize,
    name: String,
    decide: F,
}

impl<F> TruncatedUniversal<F>
where
    F: Fn(&Graph) -> bool,
{
    /// Builds the truncated scheme for a property decided by `decide`.
    pub fn new(name: impl Into<String>, budget: usize, decide: F) -> Self {
        TruncatedUniversal {
            budget,
            name: name.into(),
            decide,
        }
    }

    fn encode(&self, g: &Graph) -> BitString {
        // Same layout as the real universal scheme: γ(n), sorted γ(ids),
        // then the adjacency upper triangle — truncated to the budget.
        let mut ids: Vec<_> = g.ids().to_vec();
        ids.sort_unstable();
        let pos: std::collections::HashMap<_, usize> =
            ids.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let n = g.n();
        let mut w = BitWriter::new();
        w.write_gamma(n as u64);
        for &id in &ids {
            w.write_gamma(id.0);
        }
        let mut matrix = vec![false; n * n];
        for (u, v) in g.edges() {
            let (i, j) = (pos[&g.id(u)], pos[&g.id(v)]);
            matrix[i * n + j] = true;
            matrix[j * n + i] = true;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                w.write_bit(matrix[i * n + j]);
            }
        }
        let full = w.finish();
        BitString::from_bits(full.iter().take(self.budget))
    }
}

impl<F> Scheme for TruncatedUniversal<F>
where
    F: Fn(&Graph) -> bool,
{
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        format!(
            "strawman:truncated-universal[{}b]:{}",
            self.budget, self.name
        )
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        inst.n() > 0
            && lcp_graph::traversal::is_connected(inst.graph())
            && (self.decide)(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let enc = self.encode(inst.graph());
        Some(Proof::from_fn(inst.n(), |_| enc.clone()))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let mine = view.proof(c);
        if mine.len() > self.budget {
            return false;
        }
        if view.neighbors(c).iter().any(|&u| view.proof(u) != mine) {
            return false;
        }
        // Attempt a full decode; if the encoding is complete, be strict.
        if let Some(decoded) = decode_full(mine) {
            let Some(me) = decoded.index_of(view.id(c)) else {
                return false;
            };
            let mut claimed: Vec<_> = decoded
                .neighbors(me)
                .iter()
                .map(|&u| decoded.id(u))
                .collect();
            claimed.sort_unstable();
            let mut actual: Vec<_> = view.neighbors(c).iter().map(|&u| view.id(u)).collect();
            actual.sort_unstable();
            return claimed == actual && (self.decide)(&decoded);
        }
        // Truncated: agreement is all we can check.
        true
    }
}

fn decode_full(s: lcp_core::ProofRef<'_>) -> Option<Graph> {
    let mut r = BitReader::new(s);
    let n = r.read_gamma().ok()? as usize;
    if n > 10_000 {
        return None;
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(lcp_graph::NodeId(r.read_gamma().ok()?));
    }
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let mut g = Graph::from_ids(ids).ok()?;
    for i in 0..n {
        for j in (i + 1)..n {
            if r.read_bit().ok()? {
                g.add_edge(i, j).ok()?;
            }
        }
    }
    r.is_exhausted().then_some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::check_completeness;
    use lcp_graph::generators;

    fn leader_cycle(n: usize, leader: usize) -> Instance<bool> {
        let g = generators::cycle(n);
        Instance::with_node_data(g, (0..n).map(|v| v == leader).collect())
    }

    #[test]
    fn parity_leader_is_complete_on_cycles() {
        let instances: Vec<Instance<bool>> = (5..12).map(|n| leader_cycle(n, n / 3)).collect();
        let sizes = check_completeness(
            &ParityLeader,
            &lcp_core::engine::prepare_sweep(&ParityLeader, &instances),
        )
        .unwrap();
        assert!(sizes.iter().all(|&s| s == 1), "O(1) bits");
    }

    #[test]
    fn parity_leader_rejects_leaderless_odd_cycles() {
        // With no leader there is nowhere to park the parity defect that
        // an odd cycle forces, so every proof fails somewhere.
        let g = generators::cycle(7);
        let inst = Instance::with_node_data(g, vec![false; 7]);
        assert!(!ParityLeader.holds(&inst));
        use lcp_core::harness::{check_soundness_exhaustive, Run, Soundness};
        match check_soundness_exhaustive(
            &ParityLeader,
            &lcp_core::engine::prepare(&ParityLeader, &inst),
            1,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("leaderless C7 certified by {p:?}"),
        }
    }

    #[test]
    fn truncated_universal_is_complete() {
        let scheme = TruncatedUniversal::new("symmetric", 64, lcp_graph::iso::is_symmetric);
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::cycle(6)),
            Instance::unlabeled(generators::complete(4)),
            Instance::unlabeled(generators::star(3)),
        ];
        check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
    }

    #[test]
    fn truncated_universal_is_strict_below_budget() {
        // With a large budget it behaves exactly like the real scheme.
        let scheme = TruncatedUniversal::new("symmetric", 4096, lcp_graph::iso::is_symmetric);
        // Asymmetric spider: no proof should work (encoding decodes fully).
        let mut g = Graph::with_contiguous_ids(7);
        for (u, v) in [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)] {
            g.add_edge(u, v).unwrap();
        }
        let inst = Instance::unlabeled(g);
        assert!(!scheme.holds(&inst));
        // The honest encoding of the instance itself decodes and decide()
        // fails, so even the "best" forged agreement string is rejected
        // if complete; a truncated-looking string is the only hope, and
        // that is exactly what the join attack exploits at scale.
        let enc = scheme.encode(inst.graph());
        let proof = Proof::from_fn(7, |_| enc.clone());
        assert!(!evaluate(&scheme, &inst, &proof).accepted());
    }
}
