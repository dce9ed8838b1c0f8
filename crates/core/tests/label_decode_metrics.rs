//! What the label column costs, read off the metrics it flushes.
//!
//! A proof keeps its decoded labels until a mutator rewrites a node, so
//! `lcp_engine_label_decodes_total` counts each label once for as long
//! as its bits stand, while the verifiers themselves still run on every
//! sweep: `lcp_engine_binds_total` rises by n per resident verify.
//!
//! One `#[test]` drives every phase: the counters are process-global, so
//! concurrent test functions would disturb each other's deltas.

use lcp_core::components::TreeCert;
use lcp_core::engine::PreparedInstance;
use lcp_core::metrics::{BINDS, LABEL_DECODES};
use lcp_core::{BitWriter, Deadline, DynScheme, Instance, Proof, Scheme, View};
use lcp_graph::generators;

/// The bare §5.1 tree certificate: its verifier reads every visible
/// proof as a decoded `TreeCert` label.
struct Tree;
impl Scheme for Tree {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "tree".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::traversal::is_connected(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
        let certs = TreeCert::prove(inst.graph(), &tree);
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }
    fn verify(&self, view: &View) -> bool {
        TreeCert::verify_at_center(view, |c| c, |_, _, _| true).is_some()
    }
}

/// How much `LABEL_DECODES` and `BINDS` rose during `f`.
fn deltas<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (decodes, binds) = (LABEL_DECODES.get(), BINDS.get());
    let out = f();
    (LABEL_DECODES.get() - decodes, BINDS.get() - binds, out)
}

#[test]
fn labels_are_decoded_once_per_rewrite_and_verifiers_run_every_time() {
    let n = 64;
    let inst = Instance::unlabeled(generators::cycle(n));
    let unbounded = Deadline::none();
    let n = n as u64;

    // A resident cell decodes its kept honest proof on the first verify
    // and never again; every verify binds every node.
    let resident = DynScheme::seal(Tree, inst.clone());
    let (decodes, binds, first) = deltas(|| resident.check_completeness_within(&unbounded));
    assert!(matches!(first, Ok(Some(_))));
    assert_eq!(
        (decodes, binds),
        (n, n),
        "the first verify decodes each label"
    );
    for _ in 0..3 {
        let (decodes, binds, again) = deltas(|| resident.check_completeness_within(&unbounded));
        assert_eq!(again, first);
        assert_eq!(decodes, 0, "a repeat verify decodes nothing");
        assert_eq!(binds, n, "a repeat verify still runs every verifier");
    }

    // A proof rewritten at one node decodes that node again, and no other.
    let prep = PreparedInstance::new(&inst, Tree.radius());
    let mut proof = Tree.prove(&inst).expect("a cycle is connected");
    let sweep = |proof: &Proof| prep.evaluate(&Tree, proof, &unbounded).unwrap();
    let (decodes, _, verdict) = deltas(|| sweep(&proof));
    assert!(verdict.accepted());
    assert_eq!(decodes, n);
    let (decodes, _, _) = deltas(|| sweep(&proof));
    assert_eq!(decodes, 0);
    let donor = proof.get(7).to_bitstring();
    proof.set(3, &donor);
    let (decodes, binds, verdict) = deltas(|| sweep(&proof));
    assert!(
        !verdict.accepted(),
        "node 3 now claims node 7's certificate"
    );
    assert_eq!((decodes, binds), (1, n), "one rewrite, one decode");
    for mutate in [
        |p: &mut Proof| p.flip(3, 0),
        |p: &mut Proof| p.clear(3),
        |p: &mut Proof| p.write_bits(3, [true, false]),
    ] {
        mutate(&mut proof);
        let (decodes, _, _) = deltas(|| sweep(&proof));
        assert_eq!(decodes, 1, "each mutator clears the one slot it rewrote");
    }

    // A churn cell: after each one-node proof rewrite, re-verifying the
    // rewritten node's dependents decodes that node alone.
    let mut cell = resident.dynamic_cell();
    let (decodes, _, _) = deltas(|| (0..inst.n()).filter(|&v| cell.verify(v)).count());
    assert_eq!(decodes, n);
    let honest = cell.proof().get(5).to_bitstring();
    for bits in [donor, honest] {
        let dirty = cell.rewrite_proof(5, &bits).expect("node in range");
        assert_eq!(dirty, vec![4, 5, 6]);
        let (decodes, binds, _) = deltas(|| dirty.iter().filter(|&&v| cell.verify(v)).count());
        assert_eq!(decodes, 1, "a churn rewrite re-decodes one slot");
        assert_eq!(binds, 0, "a churn verify is not a sweep");
    }
}
