//! Property-based tests (proptest) over the whole stack: codec
//! roundtrips, model invariants, simulator equivalence, duality, and
//! attack-counterexample validity.

use lcp::core::harness::all_bitstrings_up_to;
use lcp::core::{evaluate, BitReader, BitString, BitWriter, Instance, Proof, Scheme, View};
use lcp::graph::{generators, iso, matching, traversal, Graph, NodeId};
use lcp::sim::run_distributed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a connected random graph from a seed.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (4usize..14, 0usize..12, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_connected(n, extra, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_codec_roundtrips(values in prop::collection::vec(0u64..1_000_000, 0..20)) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_gamma(v);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for &v in &values {
            prop_assert_eq!(r.read_gamma().unwrap(), v);
        }
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn fixed_width_roundtrips(value in 0u64..u64::MAX, extra in 0u32..8) {
        // Any width that fits the value must round-trip exactly.
        let min_width = (64 - value.leading_zeros()).max(1);
        let width = (min_width + extra).min(64);
        let mut w = BitWriter::new();
        w.write_u64(value, width);
        let s = w.finish();
        prop_assert_eq!(s.len() as u32, width);
        prop_assert_eq!(BitReader::new(&s).read_u64(width).unwrap(), value);
    }

    #[test]
    fn ball_matches_bfs_distances(g in connected_graph(), v in 0usize..4, r in 0usize..4) {
        let v = v % g.n();
        let dist = traversal::bfs_distances(&g, v);
        let ball = traversal::ball(&g, v, r);
        for u in g.nodes() {
            let inside = dist[u].is_some_and(|d| d <= r);
            prop_assert_eq!(ball.contains(&u), inside, "node {}", u);
        }
    }

    #[test]
    fn view_extraction_is_an_induced_subgraph(g in connected_graph(), c in 0usize..4, r in 0usize..3) {
        let c = c % g.n();
        let inst = Instance::unlabeled(g);
        let view = View::extract(&inst, &Proof::empty(inst.n()), c, r);
        // Every view edge is a graph edge, and every in-ball graph edge
        // appears in the view.
        let g = inst.graph();
        for (u, w) in view.edges() {
            let gu = g.index_of(view.id(u)).unwrap();
            let gw = g.index_of(view.id(w)).unwrap();
            prop_assert!(g.has_edge(gu, gw));
        }
        let members: Vec<usize> = view.ids().iter().map(|&id| g.index_of(id).unwrap()).collect();
        for (i, &gu) in members.iter().enumerate() {
            for (j, &gw) in members.iter().enumerate().skip(i + 1) {
                if g.has_edge(gu, gw) {
                    prop_assert!(view.has_edge(i, j), "missing induced edge");
                }
            }
        }
    }

    #[test]
    fn simulator_equals_extraction_on_random_proofs(g in connected_graph(), seed in any::<u64>()) {
        /// A verifier whose output depends on everything in the view.
        struct Fingerprint;
        impl Scheme for Fingerprint {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String { "fingerprint".into() }
            fn radius(&self) -> usize { 2 }
            fn holds(&self, _: &Instance) -> bool { true }
            fn prove(&self, inst: &Instance) -> Option<Proof> { Some(Proof::empty(inst.n())) }
            fn verify(&self, view: &View) -> bool {
                let mut h: u64 = 0;
                for u in view.nodes() {
                    h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
                    h = h.wrapping_mul(31).wrapping_add(view.dist(u) as u64);
                    for b in view.proof(u).iter() {
                        h = h.wrapping_mul(2).wrapping_add(b as u64);
                    }
                    for &w in view.neighbors(u) {
                        h = h.wrapping_mul(131).wrapping_add(view.id(w).0);
                    }
                }
                !h.is_multiple_of(3)
            }
        }
        let inst = Instance::unlabeled(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let proof = lcp::core::harness::random_proof(inst.n(), 5, &mut rng);
        let central = evaluate(&Fingerprint, &inst, &proof);
        let (distributed, _) = run_distributed(&Fingerprint, &inst, &proof);
        prop_assert_eq!(central, distributed);
    }

    #[test]
    fn canonical_code_is_permutation_invariant(seed in any::<u64>(), n in 4usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp(n, 0.4, &mut rng);
        let h = g.relabel(|id| NodeId(1000 - id.0)).unwrap();
        prop_assert_eq!(iso::canonical_code(&g).unwrap(), iso::canonical_code(&h).unwrap());
    }

    #[test]
    fn koenig_duality_on_random_bipartite(seed in any::<u64>(), a in 2usize..7, b in 2usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_bipartite(a, b, 0.5, &mut rng);
        let side = traversal::bipartition(&g).unwrap();
        let m = matching::maximum_bipartite_matching(&g, &side);
        let cover = matching::koenig_vertex_cover(&g, &side, &m);
        prop_assert!(matching::is_vertex_cover(&g, &cover));
        prop_assert_eq!(cover.iter().filter(|&&x| x).count(), m.size());
    }

    #[test]
    fn bipartite_scheme_sound_on_odd_cycles_small_exhaustive(k in 1usize..3) {
        // Every 1-bit proof on C_{2k+3} is rejected somewhere.
        let n = 2 * k + 3;
        let inst = Instance::unlabeled(generators::cycle(n));
        let strings = all_bitstrings_up_to(1).expect("tiny table");
        // Exhaustive product over per-node strings.
        let mut indices = vec![0usize; n];
        loop {
            let proof = Proof::from_strings(indices.iter().map(|&i| strings[i].clone()).collect());
            let verdict = evaluate(&lcp::schemes::bipartite::Bipartite, &inst, &proof);
            prop_assert!(!verdict.accepted(), "C{} fooled by {:?}", n, proof);
            let mut pos = 0;
            loop {
                if pos == n { return Ok(()); }
                indices[pos] += 1;
                if indices[pos] < strings.len() { break; }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn tree_certificates_complete_on_random_graphs(g in connected_graph()) {
        use lcp::core::components::{CountingTreeCert, TreeCert};
        let tree = lcp::graph::spanning::bfs_spanning_tree(&g, 0);
        let inst = Instance::unlabeled(g);
        let certs = CountingTreeCert::prove(inst.graph(), &tree);
        let proof = Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        });
        for v in inst.graph().nodes() {
            let view = View::extract(&inst, &proof, v, 1);
            let ok = CountingTreeCert::verify_at_center(&view, |c| c, |_, _, _| true).is_some();
            prop_assert!(ok, "counting certificate rejected at node {}", v);
            let ok = TreeCert::verify_at_center(&view, |c: &CountingTreeCert| &c.tree, |_, _, _| true).is_some();
            prop_assert!(ok, "tree certificate rejected at node {}", v);
        }
    }

    #[test]
    fn proof_size_reporting_is_consistent(strings in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..12), 1..10)) {
        let proof = Proof::from_strings(strings.iter().map(|bits| BitString::from_bits(bits.iter().copied())).collect());
        let max = strings.iter().map(Vec::len).max().unwrap_or(0);
        let total: usize = strings.iter().map(Vec::len).sum();
        prop_assert_eq!(proof.size(), max);
        prop_assert_eq!(proof.total_bits(), total);
    }
}
