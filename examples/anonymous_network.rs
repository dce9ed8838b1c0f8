//! Anonymous networks and the §7.1 model translation.
//!
//! Model `M2` has no node identifiers — only port numbers and a leader.
//! This example takes an identifier-hungry `M1` scheme (a counting
//! spanning tree certifying that `n` is odd) and runs it in an anonymous
//! network: the proof *carries its own identifiers* as DFS intervals,
//! locally checked for global uniqueness.
//!
//! ```sh
//! cargo run --example anonymous_network
//! ```

use lcp::core::components::CountingTreeCert;
use lcp::core::{BitWriter, Instance, Proof, Scheme, View};
use lcp::graph::{generators, traversal};
use lcp::sim::{evaluate_anonymous, AnonymousFromIdentified, AnonymousScheme};

/// An M1 scheme: "n(G) is odd", certified by a counting spanning tree —
/// it reads identifiers for root election and parent pointers.
struct OddN;

impl Scheme for OddN {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "odd-n".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        traversal::is_connected(inst.graph()) && inst.n() % 2 == 1
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let tree = lcp::graph::spanning::bfs_spanning_tree(inst.graph(), 0);
        let certs = CountingTreeCert::prove(inst.graph(), &tree);
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }
    fn verify(&self, view: &View) -> bool {
        CountingTreeCert::verify_at_center(view, |c| c, |_, _, _| true)
            .is_some_and(|mine| mine.n_claim % 2 == 1)
    }
}

fn main() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let g = lcp::graph::generators::random_connected(15, 9, &mut rng);
    let inst = Instance::unlabeled(g);

    // Translate to the anonymous model and pick a leader.
    let anon = AnonymousFromIdentified::new(OddN);
    let leader = 6;
    let proof = anon.prove(&inst, leader).expect("n = 15 is odd");
    println!(
        "anonymous certificate: {} bits/node (DFS intervals + parent port + inner proof)",
        proof.size()
    );

    // The verifier runs on PortViews: it never sees a real identifier.
    let verdict = evaluate_anonymous(&anon, &inst, leader, &proof);
    println!("anonymous network accepts: {}", verdict.accepted());
    assert!(verdict.accepted());

    // Forged intervals (a swapped pair of certificates) are caught by the
    // purely local interval-chaining conditions.
    let mut forged = proof.clone();
    let p1 = proof.get(1);
    forged.set(1, proof.get(2));
    forged.set(2, p1);
    let verdict = evaluate_anonymous(&anon, &inst, leader, &forged);
    println!(
        "forged identifiers rejected by nodes {:?}",
        verdict.rejecting()
    );
    assert!(!verdict.accepted());

    // Even n: the prover refuses, regardless of leader choice.
    let even = Instance::unlabeled(generators::cycle(8));
    assert!(anon.prove(&even, 0).is_none());
    println!("even-n network: prover correctly refuses");
}
