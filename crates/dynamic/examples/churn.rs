//! Churn a bipartiteness cell and watch incremental re-verification
//! track the from-scratch verdict.
//!
//! ```text
//! cargo run -p lcp-dynamic --example churn
//! ```

use lcp_core::{BitString, Deadline, Instance, Proof, Scheme, View};
use lcp_dynamic::churn::{run_churn, ChurnConfig};
use lcp_dynamic::DynamicInstance;
use lcp_graph::generators;

/// The classic 1-bit scheme: the proof is a 2-colouring.
struct Bipartite;
impl Scheme for Bipartite {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "bipartite".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::traversal::is_bipartite(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = lcp_graph::traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([colors[v] == 1])
        }))
    }
    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let mine = view.proof(c).first();
        mine.is_some()
            && view
                .neighbors(c)
                .iter()
                .all(|&u| view.proof(u).first().is_some_and(|b| Some(b) != mine))
    }
}

fn main() {
    let inst = Instance::unlabeled(generators::cycle(64));
    let mut dynamic = DynamicInstance::seal(Bipartite, inst);
    let n = dynamic.n();

    let run = run_churn(&mut dynamic, &ChurnConfig::new(7), 24, 4, &Deadline::none());
    println!(
        "{:<28} {:>6} {:>10} verdict",
        "mutation", "impact", "reverified"
    );
    for step in &run.steps {
        println!(
            "{:<28} {:>6} {:>10} {}{}",
            format!("{:?}", step.mutation),
            step.impact,
            step.reverified,
            if step.accepted { "accept" } else { "reject" },
            match step.witness {
                Some(w) => format!(" (witness node {w})"),
                None => String::new(),
            }
        );
    }
    println!(
        "\n{} mutations on n={}: {} verifier runs total (full sweeps would need {}), \
         {} cross-checks, {} mismatches",
        run.steps.len(),
        n,
        run.total_reverified,
        run.steps.len() * n,
        run.checks,
        run.mismatches,
    );
    assert_eq!(run.mismatches, 0, "incremental must match from-scratch");
}
