//! Quickstart: prove that a graph is bipartite with one bit per node,
//! verify it locally, and watch a tampered proof get caught.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lcp::core::{evaluate, BitString, Deadline, Instance, Scheme};
use lcp::graph::generators;
use lcp::schemes::bipartite::Bipartite;

fn main() {
    // A 4×5 grid network: bipartite, like any grid.
    let g = generators::grid(4, 5);
    let inst = Instance::unlabeled(g);

    // The prover computes a 2-colouring; the proof is 1 bit per node.
    let proof = Bipartite.prove(&inst).expect("grids are bipartite");
    println!("proof size: {} bit(s) per node", proof.size());

    // Every node checks its radius-1 view; all accept.
    let verdict = evaluate(&Bipartite, &inst, &proof);
    println!("honest proof accepted: {}", verdict.accepted());
    assert!(verdict.accepted());

    // An adversary flips one node's colour bit…
    let mut forged = proof.clone();
    let old = forged.get(7).first().expect("bit exists");
    forged.set(7, BitString::from_bits([!old]));

    // …and its neighbours raise the alarm.
    let verdict = evaluate(&Bipartite, &inst, &forged);
    println!("tampered proof rejected by nodes {:?}", verdict.rejecting());
    assert!(!verdict.accepted());

    // When the same instance faces many candidate proofs, prepare it
    // once: the engine caches every node's view skeleton and each proof
    // only swaps bit strings (see `lcp_core::engine`). Its sweeps poll a
    // wall budget between nodes; an unbounded one always finishes.
    let prep = lcp::core::prepare(&Bipartite, &inst);
    let unbounded = Deadline::none();
    assert!(prep
        .evaluate(&Bipartite, &proof, &unbounded)
        .is_ok_and(|v| v.accepted()));
    let first_alarm = prep
        .evaluate_until_reject(&Bipartite, &forged, &unbounded)
        .expect("an unbounded sweep runs to the end");
    println!("engine: first alarm at node {first_alarm:?}");
    assert!(first_alarm.is_some());

    // On an odd cycle no proof exists at all: the prover refuses, and
    // (as the exhaustive harness confirms in the tests) every 1-bit
    // labelling is rejected somewhere.
    let odd = Instance::unlabeled(generators::cycle(9));
    assert!(Bipartite.prove(&odd).is_none());
    println!("odd cycle: prover correctly refuses");
}
