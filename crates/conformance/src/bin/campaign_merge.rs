//! `campaign_merge` — fan-in for sharded conformance campaigns.
//!
//! ```text
//! lcp-campaign --shard 0/4 --seed 7 --no-timing --json shard-0.json
//! ...
//! campaign_merge shard-*.json --json report.json
//! ```
//!
//! Merges the `--shard i/N` reports of one campaign (static or
//! `--churn`, detected automatically) back into the whole-matrix report,
//! re-checking the global invariants on the way: a complete,
//! duplicate-free shard set over one configuration, gapless coordinate
//! coverage, per-shard summaries consistent with their cells. The merged
//! JSON is byte-identical to what the unsharded run would have written
//! with `--no-timing`.
//!
//! Exit codes: `0` green, `1` usage/validation error, `2` the merged
//! campaign has conformance failures.

use lcp_conformance::merge::merge_reports;
use lcp_conformance::{write_artifact, CampaignReport};

const USAGE: &str = "\
campaign_merge — merge --shard i/N campaign reports into the whole-matrix report

USAGE:
    campaign_merge <shard.json>... [--json <path>]

OPTIONS:
    --json <path>   write the merged report ('-' for stdout) [default: -]
    --help          this text

All shards of the campaign must be given (a missing or duplicate shard is
an error), and they must agree on seed, profile, and mode.
";

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut out = "-".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("error: --json requires a value\n\n{USAGE}");
                    std::process::exit(1);
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown argument '{other}'\n\n{USAGE}");
                std::process::exit(1);
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        eprintln!("error: no shard reports given\n\n{USAGE}");
        std::process::exit(1);
    }

    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| match std::fs::read_to_string(p) {
            Ok(text) => (p.clone(), text),
            Err(e) => {
                eprintln!("error: cannot read {p}: {e}");
                std::process::exit(1);
            }
        })
        .collect();

    let merged = match merge_reports(&inputs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mode = match &merged {
        CampaignReport::Static(_) => "static",
        CampaignReport::Churn(_) => "churn",
    };
    println!(
        "merged {} {mode} shards: {} cells (seed {})",
        inputs.len(),
        merged.cell_count(),
        merged.seed()
    );
    for f in merged.failures() {
        eprintln!("FAIL: {f}");
    }
    if !merged.ok() {
        eprintln!(
            "merged campaign has failures — replay locally with \
             `cargo run -p lcp-conformance --release -- --seed {}`",
            merged.seed()
        );
    }

    if !write_artifact(&out, "merged report", &merged.to_json(false)) {
        std::process::exit(1);
    }

    std::process::exit(if merged.ok() { 0 } else { 2 });
}
