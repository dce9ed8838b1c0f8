//! Chromatic-number schemes: `χ(G) ≤ k` with `O(log k)` bits (§2.2) and
//! `χ(G) > 2` with `Θ(log n)` bits (§5.1).

use lcp_core::components::TreeCert;
use lcp_core::{BitReader, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::{coloring, traversal};

/// `χ(G) ≤ k`: the proof is a proper `k`-colouring, `⌈log₂ k⌉` bits per
/// node (§2.2). Independent of `n` — the `LCP(O(log k))` level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChromaticAtMost {
    /// The colour budget `k ≥ 1` (a global constant known to all nodes).
    pub k: usize,
}

impl ChromaticAtMost {
    fn width(&self) -> u32 {
        usize::max(self.k - 1, 1).ilog2() + 1
    }
}

impl Scheme for ChromaticAtMost {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        format!("chromatic<={}", self.k)
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        coloring::is_k_colorable(inst.graph(), self.k)
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = coloring::k_coloring(inst.graph(), self.k)?;
        let width = self.width();
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            w.write_u64(colors[v] as u64, width);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let width = self.width();
        let color = |u: usize| -> Option<u64> {
            let mut r = BitReader::new(view.proof(u));
            let c = r.read_u64(width).ok()?;
            (r.is_exhausted() && c < self.k as u64).then_some(c)
        };
        let c = view.center();
        let Some(mine) = color(c) else {
            return false;
        };
        view.neighbors(c)
            .iter()
            .all(|&u| color(u).is_some_and(|cu| cu != mine))
    }
}

/// `χ(G) > 2` (non-bipartiteness) on connected graphs: `Θ(log n)` bits
/// (§5.1).
///
/// The proof exhibits an odd cycle: a spanning-tree certificate rooted at
/// a cycle node `a` (forcing a unique leader), plus, on cycle nodes, the
/// position along the cycle and the cycle length `L` (odd). The local
/// checks force the cycle labels to trace a single closed walk of odd
/// length `L` through `a` — and a graph with an odd closed walk is not
/// bipartite.
///
/// Per-node proof layout: `TreeCert`, 1 bit `on_cycle`, then γ-coded
/// `position` and `L` when on the cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NonBipartite;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NbCert {
    tree: TreeCert,
    cycle: Option<(u64, u64)>, // (position, length)
}

fn decode_nb(view_proof: lcp_core::ProofRef<'_>) -> Option<NbCert> {
    let mut r = BitReader::new(view_proof);
    let tree = TreeCert::decode(&mut r).ok()?;
    let on_cycle = r.read_bit().ok()?;
    let cycle = if on_cycle {
        Some((r.read_gamma().ok()?, r.read_gamma().ok()?))
    } else {
        None
    };
    r.is_exhausted().then_some(NbCert { tree, cycle })
}

impl Scheme for NonBipartite {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "chromatic>2".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        traversal::is_connected(inst.graph())
            && inst.n() > 0
            && !traversal::is_bipartite(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let g = inst.graph();
        if !traversal::is_connected(g) || g.n() == 0 {
            return None;
        }
        let cycle = traversal::find_odd_cycle(g)?;
        let len = cycle.len() as u64;
        let mut pos = vec![None; g.n()];
        for (i, &v) in cycle.iter().enumerate() {
            pos[v] = Some(i as u64);
        }
        let tree = lcp_graph::spanning::bfs_spanning_tree(g, cycle[0]);
        let certs = TreeCert::prove(g, &tree);
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            match pos[v] {
                Some(p) => {
                    w.write_bit(true);
                    w.write_gamma(p);
                    w.write_gamma(len);
                }
                None => {
                    w.write_bit(false);
                }
            }
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        // Single pass, one decode per visible node: the conjunction of
        // the §5.1 tree check (inlined from `TreeCert::verify_at_center`)
        // and the odd-cycle checks. Logically identical to running the
        // two passes separately — every clause is conjunctive — but the
        // hot exhaustive/adversarial loops decode each neighbour once
        // instead of three times.
        let c = view.center();
        let Some(mine) = decode_nb(view.proof(c)) else {
            return false;
        };
        let my_id = view.id(c).0;
        let i_am_root = my_id == mine.tree.root_id;
        // Root self-consistency.
        if mine.tree.dist == 0 {
            if !i_am_root || mine.tree.parent_id != my_id {
                return false;
            }
        } else if i_am_root {
            return false; // non-root node impersonating the root id
        }
        // Cycle sanity: odd length, position in range, root at position 0.
        let cycle = if let Some((p, len)) = mine.cycle {
            if len < 3 || len % 2 == 0 || p >= len {
                return false;
            }
            if (p == 0) != i_am_root {
                return false; // position 0 is reserved for the unique root
            }
            // Predecessor (p−1 mod L) and successor (p+1 mod L).
            Some(((p + len - 1) % len, (p + 1) % len, len))
        } else if i_am_root {
            return false; // the root must lie on the cycle
        } else {
            None
        };
        let mut parent_ok = mine.tree.dist == 0;
        let mut preds = 0;
        let mut succs = 0;
        for &u in view.neighbors(c) {
            let Some(cu) = decode_nb(view.proof(u)) else {
                return false; // malformed neighbours reject everywhere
            };
            if cu.tree.root_id != mine.tree.root_id {
                return false; // neighbours must agree on the root
            }
            if view.id(u).0 == mine.tree.parent_id && cu.tree.dist + 1 == mine.tree.dist {
                parent_ok = true;
            }
            if let (Some((prev, next, len)), Some((q, lu))) = (cycle, cu.cycle) {
                if lu != len {
                    return false; // cycle nodes must agree on the length
                }
                if q == prev {
                    preds += 1;
                }
                if q == next {
                    succs += 1;
                }
            }
        }
        if !parent_ok {
            return false; // non-root: parent must be a visible neighbour
        }
        match cycle {
            Some(_) => preds == 1 && succs == 1,
            None => true, // off-cycle non-root with a consistent tree
        }
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
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn colorings_accepted() {
        for k in 2..5 {
            let scheme = ChromaticAtMost { k };
            let instances: Vec<Instance> = vec![
                Instance::unlabeled(generators::cycle(6)),
                Instance::unlabeled(generators::grid(3, 3)),
            ];
            check_completeness(
                &scheme,
                &lcp_core::engine::prepare_sweep(&scheme, &instances),
            )
            .unwrap();
        }
    }

    #[test]
    fn proof_size_depends_on_k_not_n() {
        let mut sizes_by_n = Vec::new();
        for n in [8usize, 32, 128] {
            let inst = Instance::unlabeled(generators::cycle(n));
            let proof = ChromaticAtMost { k: 4 }.prove(&inst).unwrap();
            sizes_by_n.push(proof.size());
        }
        assert!(sizes_by_n.iter().all(|&s| s == 2), "⌈log₂ 4⌉ = 2 bits");
    }

    #[test]
    fn k4_needs_more_than_three_colors() {
        let scheme = ChromaticAtMost { k: 3 };
        let inst = Instance::unlabeled(generators::complete(4));
        assert!(!scheme.holds(&inst));
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("K4 3-coloured by {p:?}"),
        }
    }

    #[test]
    fn batched_kernel_agrees_with_scalar_verifier() {
        // The block odometer's spread mask fills must reproduce the
        // scalar odometer exactly: same exhaustive verdict under both
        // batch policies, across k values on both sides of a power of
        // two (k = 4 makes every width-bit value a legal colour; k = 3
        // and 5 leave out-of-range codes) and with string budgets both
        // below and above the record width.
        use lcp_core::BatchPolicy;
        for k in 2..=5usize {
            let scheme = ChromaticAtMost { k };
            let inst = Instance::unlabeled(generators::complete(k + 1));
            let prep = lcp_core::engine::prepare(&scheme, &inst);
            // K6 at max_bits = 3 would be 15⁶ ≈ 11M candidates; stop
            // at 7⁶ there to keep the test fast.
            for max_bits in 1..=(if k < 5 { 3usize } else { 2 }) {
                let run = |policy| {
                    let run = Run {
                        policy,
                        ..Run::default()
                    };
                    check_soundness_exhaustive(&scheme, &prep, max_bits, &run).unwrap()
                };
                let batch = run(BatchPolicy::Auto);
                assert_eq!(
                    batch,
                    run(BatchPolicy::Scalar),
                    "policy divergence at k = {k}, max_bits = {max_bits}"
                );
                match batch {
                    Soundness::Holds(_) => {}
                    Soundness::Violated(p) => panic!("K{} {k}-coloured by {p:?}", k + 1),
                }
            }
        }
    }

    #[test]
    fn out_of_range_color_rejected() {
        let scheme = ChromaticAtMost { k: 3 };
        let inst = Instance::unlabeled(generators::cycle(5));
        let mut proof = scheme.prove(&inst).unwrap();
        let mut w = BitWriter::new();
        w.write_u64(3, 2); // colour 3 with k = 3 is out of range
        proof.set(0, w.finish());
        assert!(!evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn odd_cycles_certified_non_bipartite() {
        let instances: Vec<Instance> = (1..6)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k + 3)))
            .collect();
        check_completeness(
            &NonBipartite,
            &lcp_core::engine::prepare_sweep(&NonBipartite, &instances),
        )
        .unwrap();
    }

    #[test]
    fn dense_non_bipartite_graphs_certified() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut instances = Vec::new();
        for _ in 0..10 {
            let g = generators::random_connected(12, 10, &mut rng);
            if !traversal::is_bipartite(&g) {
                instances.push(Instance::unlabeled(g));
            }
        }
        assert!(instances.len() >= 5);
        check_completeness(
            &NonBipartite,
            &lcp_core::engine::prepare_sweep(&NonBipartite, &instances),
        )
        .unwrap();
    }

    #[test]
    fn proof_size_is_logarithmic() {
        let instances: Vec<Instance> = [9usize, 17, 33, 65, 129, 257]
            .iter()
            .map(|&n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        let points = measure_sizes(
            &NonBipartite,
            &lcp_core::engine::prepare_sweep(&NonBipartite, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Logarithmic);
    }

    #[test]
    fn even_cycle_rejects_all_small_proofs() {
        let inst = Instance::unlabeled(generators::cycle(4));
        match check_soundness_exhaustive(
            &NonBipartite,
            &lcp_core::engine::prepare(&NonBipartite, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("C4 certified non-bipartite by {p:?}"),
        }
        let mut rng = StdRng::seed_from_u64(4);
        let big = Instance::unlabeled(generators::cycle(8));
        assert!(adversarial_proof_search(
            &NonBipartite,
            &lcp_core::engine::prepare(&NonBipartite, &big),
            10,
            600,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn even_length_claim_rejected() {
        // Take an honest odd-cycle proof on C5 and tamper the length field.
        let inst = Instance::unlabeled(generators::cycle(5));
        let proof = NonBipartite.prove(&inst).unwrap();
        assert!(evaluate(&NonBipartite, &inst, &proof).accepted());
        // Rewrite node 0's record claiming length 4.
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
        let certs = TreeCert::prove(inst.graph(), &tree);
        let mut w = BitWriter::new();
        certs[0].encode(&mut w);
        w.write_bit(true);
        w.write_gamma(0);
        w.write_gamma(4);
        let mut bad = proof.clone();
        bad.set(0, w.finish());
        assert!(!evaluate(&NonBipartite, &inst, &bad).accepted());
    }

    #[test]
    fn bipartite_graph_has_no_odd_cycle_witness() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        assert!(!NonBipartite.holds(&inst));
        assert!(NonBipartite.prove(&inst).is_none());
    }
}
