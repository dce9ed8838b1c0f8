//! Hamiltonian cycles (§5.1, Table 1(b)): `Θ(log n)` on connected graphs.

use lcp_core::components::CountingTreeCert;
use lcp_core::{BitReader, BitWriter, Instance, Label, Proof, ProofRef, Scheme, View};
use lcp_graph::traversal;

/// Hamiltonian-cycle verification: edges labelled `1` must form a cycle
/// through **all** nodes.
///
/// Certificate: a counting spanning tree (certifying `n`) plus a position
/// `0 ≤ p < n` per node along the claimed cycle. The root (the unique
/// tree root) carries position 0; every node checks that among its
/// *labelled* edges it has exactly one predecessor (position `p − 1 mod
/// n`) and one successor (`p + 1 mod n`), and that those are its only
/// labelled edges. Positions are distinct because the successor relation
/// is a perfect pairing that chains every node back to the unique root,
/// so the labels trace one simple cycle through all `n` nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HamiltonianCycle;

#[derive(Clone, Copy, Debug)]
struct HamCert {
    count: CountingTreeCert,
    pos: u64,
}

impl Label for HamCert {
    fn decode(proof: ProofRef<'_>) -> Option<HamCert> {
        let mut r = BitReader::new(proof);
        let count = CountingTreeCert::decode(&mut r).ok()?;
        let pos = r.read_gamma().ok()?;
        r.is_exhausted().then_some(HamCert { count, pos })
    }
}

/// Extracts the labelled cycle as an ordered node list, if the labels form
/// a single Hamiltonian cycle.
fn labelled_hamiltonian_cycle(inst: &Instance) -> Option<Vec<usize>> {
    let g = inst.graph();
    let n = g.n();
    if n < 3 {
        return None;
    }
    let labelled: Vec<Vec<usize>> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .copied()
                .filter(|&u| inst.edge_label(v, u).is_some())
                .collect()
        })
        .collect();
    if labelled.iter().any(|l| l.len() != 2) {
        return None;
    }
    // Walk the 2-regular labelled subgraph from node 0.
    let mut cycle = vec![0usize];
    let mut prev = usize::MAX;
    let mut cur = 0usize;
    loop {
        let next = *labelled[cur].iter().find(|&&u| u != prev)?;
        if next == 0 {
            break;
        }
        cycle.push(next);
        prev = cur;
        cur = next;
        if cycle.len() > n {
            return None;
        }
    }
    (cycle.len() == n).then_some(cycle)
}

impl Scheme for HamiltonianCycle {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "hamiltonian-cycle".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        traversal::is_connected(inst.graph()) && labelled_hamiltonian_cycle(inst).is_some()
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !traversal::is_connected(inst.graph()) {
            return None;
        }
        let cycle = labelled_hamiltonian_cycle(inst)?;
        let g = inst.graph();
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, cycle[0]);
        let counts = CountingTreeCert::prove(g, &tree);
        let mut pos = vec![0u64; g.n()];
        for (i, &v) in cycle.iter().enumerate() {
            pos[v] = i as u64;
        }
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            counts[v].encode(&mut w);
            w.write_gamma(pos[v]);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let (mut labelled, mut preds, mut succs) = (0, 0, 0);
        let cycle_edges = |mine: &HamCert, u: usize, cu: &HamCert| {
            if view.edge_label(c, u).is_none() {
                return true;
            }
            labelled += 1;
            let (p, n) = (mine.pos, mine.count.n_claim);
            if p >= n {
                return false; // the centre check below, run early
            }
            // Predecessor p − 1 and successor p + 1, mod n.
            preds += usize::from(cu.pos == p.checked_sub(1).unwrap_or(n - 1));
            succs += usize::from(cu.pos == if p + 1 == n { 0 } else { p + 1 });
            true
        };
        let Some(mine) =
            CountingTreeCert::verify_at_center(view, |h: &HamCert| &h.count, cycle_edges)
        else {
            return false;
        };
        let n = mine.count.n_claim;
        // Position 0 is reserved for the unique tree root.
        n >= 3
            && mine.pos < n
            && (mine.pos == 0) == (mine.count.tree.dist == 0)
            && labelled == 2
            && preds == 1
            && succs == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, classify_growth,
        measure_sizes, GrowthClass, Run, Soundness,
    };
    use lcp_graph::{generators, hamilton};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ham_instance(g: lcp_graph::Graph) -> Instance {
        let cycle = hamilton::hamiltonian_cycle(&g).expect("hamiltonian input");
        let edges: Vec<(usize, usize)> = (0..cycle.len())
            .map(|i| (cycle[i], cycle[(i + 1) % cycle.len()]))
            .collect();
        Instance::unlabeled(g).with_edge_set(edges)
    }

    #[test]
    fn hamiltonian_solutions_certified() {
        let instances: Vec<Instance> = vec![
            ham_instance(generators::cycle(7)),
            ham_instance(generators::complete(6)),
            ham_instance(generators::complete_bipartite(3, 3)),
            ham_instance(generators::grid(3, 4)),
        ];
        check_completeness(
            &HamiltonianCycle,
            &lcp_core::engine::prepare_sweep(&HamiltonianCycle, &instances),
        )
        .unwrap();
    }

    #[test]
    fn proof_size_logarithmic() {
        let instances: Vec<Instance> = [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&n| ham_instance(generators::cycle(n)))
            .collect();
        let points = measure_sizes(
            &HamiltonianCycle,
            &lcp_core::engine::prepare_sweep(&HamiltonianCycle, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Logarithmic);
    }

    #[test]
    fn two_disjoint_cycles_rejected() {
        // K6 contains two disjoint triangles: labelled together they are
        // 2-regular but not a single Hamiltonian cycle.
        let g = generators::complete(6);
        let inst =
            Instance::unlabeled(g).with_edge_set([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(!HamiltonianCycle.holds(&inst));
        let mut rng = StdRng::seed_from_u64(61);
        assert!(adversarial_proof_search(
            &HamiltonianCycle,
            &lcp_core::engine::prepare(&HamiltonianCycle, &inst),
            10,
            800,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn short_cycle_rejected_exhaustively() {
        // C4 plus a chord-attached pendant… simplest: K4 with a labelled
        // triangle (covers 3 of 4 nodes).
        let g = generators::complete(4);
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (1, 2), (0, 2)]);
        assert!(!HamiltonianCycle.holds(&inst));
        match check_soundness_exhaustive(
            &HamiltonianCycle,
            &lcp_core::engine::prepare(&HamiltonianCycle, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("triangle certified Hamiltonian by {p:?}"),
        }
    }

    #[test]
    fn honest_proof_tampering_detected() {
        let inst = ham_instance(generators::cycle(6));
        let proof = HamiltonianCycle.prove(&inst).unwrap();
        assert!(evaluate(&HamiltonianCycle, &inst, &proof).accepted());
        // Swap two nodes' position fields.
        let mut bad = proof.clone();
        let p2 = proof.get(2);
        bad.set(2, proof.get(4));
        bad.set(4, p2);
        assert!(!evaluate(&HamiltonianCycle, &inst, &bad).accepted());
    }

    #[test]
    fn huge_claimed_cycle_length_rejects_without_panicking() {
        // Every node claims n = 2⁶⁴ − 2 and one non-root sits at position
        // n − 1: its counting checks pass, and p − 1 mod n must not be
        // computed as an overflowing p + n − 1.
        let inst = ham_instance(generators::cycle(6));
        let proof = HamiltonianCycle.prove(&inst).unwrap();
        let n = u64::MAX - 1;
        let forged = Proof::from_fn(6, |v| {
            let mut cert = HamCert::decode(proof.get(v)).unwrap();
            cert.count.n_claim = n;
            if cert.pos == 5 {
                cert.pos = n - 1;
            }
            let mut w = BitWriter::new();
            cert.count.encode(&mut w);
            w.write_gamma(cert.pos);
            w.finish()
        });
        assert!(!evaluate(&HamiltonianCycle, &inst, &forged).accepted());
    }

    #[test]
    fn non_hamiltonian_labelling_is_no_instance() {
        let inst = Instance::unlabeled(generators::path(5));
        assert!(!HamiltonianCycle.holds(&inst));
        assert!(HamiltonianCycle.prove(&inst).is_none());
    }
}
