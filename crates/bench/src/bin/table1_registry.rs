//! Regenerates the Table 1 measurement sweep **from the scheme
//! registry** instead of hand-built instance lists: one row per
//! registered scheme, yes-instances drawn from its declared graph
//! families, sizes measured through the type-erased cells.
//!
//! `table1a` / `table1b` remain the curated, paper-faithful sweeps; this
//! bin demonstrates that the registry alone can regenerate the table —
//! every future scheme added to `lcp_schemes::registry` shows up here
//! (and in the conformance campaign) automatically.

use lcp_bench::{print_table, Row};
use lcp_core::harness::{classify_growth, SizePoint};
use lcp_core::Deadline;
use lcp_schemes::registry::{self, CellRequest, Polarity};

fn main() {
    let seed = 7u64;
    let sizes = [8usize, 16, 32, 64];
    let mut rows = Vec::new();

    for entry in registry::all() {
        let mut points: Vec<SizePoint> = Vec::new();
        let mut complete = true;
        for &family in entry.families {
            for &n in &sizes {
                let req = CellRequest {
                    family,
                    n,
                    seed,
                    polarity: Polarity::Yes,
                };
                let Some(cell) = entry.build(&req) else {
                    continue;
                };
                if !cell.holds() {
                    continue; // a random family member landed on the no side
                }
                match cell.check_completeness_within(&Deadline::none()) {
                    Ok(Some(bits)) => points.push(SizePoint { n: cell.n(), bits }),
                    _ => complete = false,
                }
            }
        }
        points.sort_by_key(|p| (p.n, p.bits));
        points.dedup();
        let (measured, class, verdict) = if !complete {
            (
                "COMPLETENESS FAILURE".into(),
                "-".to_string(),
                "✗".to_string(),
            )
        } else if points.is_empty() {
            ("(no yes-instances)".into(), "-".into(), "—".into())
        } else {
            let fit = classify_growth(&points);
            let measured = points
                .iter()
                .map(|p| format!("{}→{}", p.n, p.bits))
                .collect::<Vec<_>>()
                .join(" ");
            // Claims are upper bounds: measuring smaller is conformant
            // (GrowthClass orders by the asymptotic hierarchy).
            let ok = fit <= entry.claimed_growth;
            (
                measured,
                fit.to_string(),
                if ok { "✓" } else { "✗" }.to_string(),
            )
        };
        rows.push(Row {
            id: entry.paper_row.into(),
            what: entry.title.into(),
            family: entry.families.first().map_or("-", |f| f.name()).to_string(),
            paper: entry.claimed_bound.into(),
            measured,
            class,
            verdict,
        });
    }

    print_table(
        "Table 1 — regenerated from the scheme registry (honest proof sizes)",
        &rows,
    );
    println!(
        "note: sizes are capped per entry (registry max_n); the conformance campaign\n\
         (`cargo run -p lcp-conformance`) adds soundness and tamper checks per cell."
    );
}
