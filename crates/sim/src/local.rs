//! Synchronous full-information message passing.
//!
//! The simulator runs the standard LOCAL-model folklore algorithm: in each
//! of `r` rounds every node sends everything it knows to every neighbour.
//! After `r` rounds a node knows the record of every node within distance
//! `r`, reconstructs its view `(G[v,r], P[v,r], v)` from those records,
//! and runs the verifier on it.
//!
//! The reconstruction step is where the paper's definition bites: a node
//! may incidentally *hear more* than its induced radius-`r` subgraph (it
//! learns of edges leaving the ball through records of boundary nodes),
//! and the simulator deliberately discards that surplus so the verifier's
//! input is exactly the paper's `G[v,r]`.

use lcp_core::{EdgeMap, Instance, Proof, Scheme, Verdict, View};
use lcp_graph::NodeId;
use std::collections::BTreeMap;

/// Cost accounting for one distributed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Communication rounds executed (= the scheme's radius).
    pub rounds: usize,
    /// Point-to-point messages sent (2·m per round).
    pub messages: u64,
    /// Total node records carried by all messages (the "bandwidth").
    pub records_shipped: u64,
}

/// One node's knowledge record: everything other nodes may learn about it.
#[derive(Clone, Debug)]
struct Record<N> {
    id: NodeId,
    label: N,
    proof: lcp_core::BitString,
    /// Identifiers of this node's neighbours (its port map).
    neighbor_ids: Vec<NodeId>,
}

/// Runs `scheme`'s verifier as an `r`-round synchronous distributed
/// algorithm and returns the global verdict plus cost statistics.
///
/// Equivalent by construction to `lcp_core::evaluate` — the workspace
/// property tests assert verdict equality on random instances.
///
/// # Panics
///
/// Panics if `proof.n()` mismatches the instance.
pub fn run_distributed<S: Scheme>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    proof: &Proof,
) -> (Verdict, SimStats) {
    let g = inst.graph();
    assert_eq!(proof.n(), g.n(), "proof must label every node");
    let r = scheme.radius();
    let mut stats = SimStats {
        rounds: r,
        ..SimStats::default()
    };

    // Knowledge state: per node, records keyed by identifier.
    let mut state: Vec<BTreeMap<NodeId, Record<S::Node>>> = g
        .nodes()
        .map(|v| {
            let rec = Record {
                id: g.id(v),
                label: inst.node_label(v).clone(),
                proof: proof.get(v).to_bitstring(),
                neighbor_ids: g.neighbors(v).iter().map(|&u| g.id(u)).collect(),
            };
            BTreeMap::from([(rec.id, rec)])
        })
        .collect();

    for _ in 0..r {
        // Everyone sends its current state to every neighbour,
        // synchronously: compute all inboxes from the old state first.
        let mut inbox: Vec<Vec<(NodeId, Record<S::Node>)>> = vec![Vec::new(); g.n()];
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                stats.messages += 1;
                stats.records_shipped += state[v].len() as u64;
                for rec in state[v].values() {
                    inbox[u].push((rec.id, rec.clone()));
                }
            }
        }
        for (v, received) in inbox.into_iter().enumerate() {
            state[v].extend(received);
        }
    }

    // Edge labels travel with the lower-identifier endpoint's record in a
    // real deployment; here we read them from the instance when
    // reconstructing, restricted to reconstructed (in-ball) edges only.
    let outputs: Vec<bool> = g
        .nodes()
        .map(|v| {
            let view = reconstruct_view(inst, v, r, &state[v]);
            scheme.verify(&view)
        })
        .collect();
    (Verdict::from_outputs(outputs), stats)
}

/// Builds `G[v,r]` from the records `v` gathered.
fn reconstruct_view<'v, N: Clone, E: Clone>(
    inst: &Instance<N, E>,
    v: usize,
    r: usize,
    known: &BTreeMap<NodeId, Record<N>>,
) -> View<'v, N, E> {
    let g = inst.graph();
    let my_id = g.id(v);
    // BFS over the knowledge graph starting at v, traversing only nodes
    // with records, out to distance r. This prunes the surplus knowledge
    // (records do not extend past r, but the *edges mentioned in* boundary
    // records do).
    let mut dist: BTreeMap<NodeId, usize> = BTreeMap::from([(my_id, 0)]);
    let mut frontier = vec![my_id];
    let mut order = vec![my_id];
    let mut d = 0;
    while d < r && !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for id in frontier {
            let rec = &known[&id];
            for &nb in &rec.neighbor_ids {
                if known.contains_key(&nb) && !dist.contains_key(&nb) {
                    dist.insert(nb, d);
                    order.push(nb);
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    // Deterministic view indexing: sort members by identifier, as
    // `View::extract` sorts by original index; indices differ but the view
    // content (ids, adjacency, labels) is identical up to relabeling.
    // To match `View::extract` *exactly*, sort by the original graph
    // index, which every node can recover because identifiers are unique.
    let mut members: Vec<NodeId> = order;
    members.sort_by_key(|id| g.index_of(*id).expect("known ids exist in g"));
    let index_of: BTreeMap<NodeId, usize> =
        members.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    let mut edge_data: EdgeMap<E> = EdgeMap::new();
    for (i, &id) in members.iter().enumerate() {
        let rec = &known[&id];
        for &nb in &rec.neighbor_ids {
            if let Some(&j) = index_of.get(&nb) {
                adj[i].push(j);
                if i < j {
                    let gu = g.index_of(id).expect("known");
                    let gw = g.index_of(nb).expect("known");
                    if let Some(l) = inst.edge_label(gu, gw) {
                        edge_data.insert((i, j), l.clone());
                    }
                }
            }
        }
        adj[i].sort_unstable();
    }
    let ids: Vec<NodeId> = members.clone();
    let dists: Vec<usize> = members.iter().map(|id| dist[id]).collect();
    let labels: Vec<N> = members.iter().map(|id| known[id].label.clone()).collect();
    let proofs: Vec<lcp_core::BitString> =
        members.iter().map(|id| known[id].proof.clone()).collect();
    let center = index_of[&my_id];
    View::from_parts(center, r, ids, adj, dists, labels, edge_data, proofs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::{evaluate, BitString};
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Radius-2 scheme that records the whole view fingerprint: strong
    /// enough to catch any reconstruction discrepancy.
    struct ViewFingerprint;
    impl Scheme for ViewFingerprint {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "view-fingerprint".into()
        }
        fn radius(&self) -> usize {
            2
        }
        fn holds(&self, _: &Instance) -> bool {
            true
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            Some(Proof::empty(inst.n()))
        }
        fn verify(&self, view: &View) -> bool {
            // Accept iff the view has an even fingerprint; arbitrary but
            // deterministic, so centralized and distributed runs must agree.
            let mut h: u64 = view.n() as u64;
            for u in view.nodes() {
                h = h
                    .wrapping_mul(31)
                    .wrapping_add(view.id(u).0)
                    .wrapping_add(view.dist(u) as u64 * 7);
                for &w in view.neighbors(u) {
                    let w = w as usize;
                    h = h.wrapping_mul(17).wrapping_add(view.id(w).0);
                }
            }
            h.is_multiple_of(2)
        }
    }

    #[test]
    fn distributed_matches_centralized_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..15 {
            let g = generators::random_connected(12, 8, &mut rng);
            let inst = Instance::unlabeled(g);
            let proof = Proof::empty(inst.n());
            let central = evaluate(&ViewFingerprint, &inst, &proof);
            let (dist, stats) = run_distributed(&ViewFingerprint, &inst, &proof);
            assert_eq!(central, dist);
            assert_eq!(stats.rounds, 2);
            assert_eq!(stats.messages, 2 * 2 * inst.graph().m() as u64);
        }
    }

    #[test]
    fn proofs_reach_the_right_nodes() {
        /// Checks every in-view proof equals the node's identifier γ-coded.
        struct ProofEcho;
        impl Scheme for ProofEcho {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "proof-echo".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                let g = inst.graph();
                Some(Proof::from_fn(inst.n(), |v| {
                    let mut w = lcp_core::BitWriter::new();
                    w.write_gamma(g.id(v).0);
                    w.finish()
                }))
            }
            fn verify(&self, view: &View) -> bool {
                view.nodes().all(|u| {
                    let mut r = lcp_core::BitReader::new(view.proof(u));
                    r.read_gamma() == Ok(view.id(u).0)
                })
            }
        }
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let proof = ProofEcho.prove(&inst).unwrap();
        let (verdict, _) = run_distributed(&ProofEcho, &inst, &proof);
        assert!(verdict.accepted());
    }

    #[test]
    fn corrupted_proof_detected_distributively() {
        struct AllZero;
        impl Scheme for AllZero {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "all-zero".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                Some(Proof::from_fn(inst.n(), |_| BitString::from_bits([false])))
            }
            fn verify(&self, view: &View) -> bool {
                view.nodes().all(|u| view.proof(u).first() == Some(false))
            }
        }
        let inst = Instance::unlabeled(generators::cycle(8));
        let mut proof = AllZero.prove(&inst).unwrap();
        proof.set(3, BitString::from_bits([true]));
        let (verdict, _) = run_distributed(&AllZero, &inst, &proof);
        assert_eq!(verdict.rejecting(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_round_scheme_sends_nothing() {
        struct Lonely;
        impl Scheme for Lonely {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "lonely".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                Some(Proof::empty(inst.n()))
            }
            fn verify(&self, view: &View) -> bool {
                view.n() == 1
            }
        }
        let inst = Instance::unlabeled(generators::complete(5));
        let (verdict, stats) = run_distributed(&Lonely, &inst, &Proof::empty(5));
        assert!(verdict.accepted());
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn edge_labels_are_visible_in_reconstruction() {
        /// Accepts iff the centre is covered by a labelled (matching) edge
        /// or has no labelled edge in sight.
        struct SeesMatching;
        impl Scheme for SeesMatching {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "sees-matching".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                Some(Proof::empty(inst.n()))
            }
            fn verify(&self, view: &View) -> bool {
                let c = view.center();
                let covered = view
                    .neighbors(c)
                    .iter()
                    .filter(|&&u| view.edge_label(c, u as usize).is_some())
                    .count();
                covered <= 1
            }
        }
        let inst = Instance::unlabeled(generators::path(4)).with_edge_set([(1, 2)]);
        let proof = Proof::empty(4);
        let (verdict, _) = run_distributed(&SeesMatching, &inst, &proof);
        assert!(verdict.accepted());
        let central = evaluate(&SeesMatching, &inst, &proof);
        assert_eq!(central, verdict);
    }
}
