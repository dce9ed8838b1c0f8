//! Determinism under observation: the metrics layer (`lcp-obs` plus the
//! engine/dynamic/campaign catalogs) must never perturb what the
//! campaign computes. These tests pin:
//!
//! * report bytes are identical whether or not the sidecar is exported
//!   (metrics are write-only — nothing reads them back);
//! * the timed-out detail enrichment (phase + deadline polls) appears in
//!   the **timed** report only, and survives a checkpoint/resume round
//!   trip without leaking into the deterministic bytes or doubling;
//! * the sidecar itself carries the engine and campaign catalogs with
//!   live (nonzero) values.

use lcp_conformance::churn::run_churn_campaign;
use lcp_conformance::metrics::sidecar;
use lcp_conformance::{
    filtered_entries, run_campaign, run_matrix, CampaignConfig, CampaignReport, CellStatus, Mode,
    Profile,
};

/// Small but real: one honest scheme, two sizes, both polarities.
fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        sizes: vec![6, 10],
        tamper_trials: 2,
        adversarial_iterations: 60,
        exhaustive_limit: 10_000,
        scheme_filter: Some("eulerian".into()),
        ..CampaignConfig::for_profile(Profile::Smoke, seed)
    }
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("lcp-obs-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Extracts a counter's value from the sidecar's embedded registry
/// export (`"name": N`).
fn counter_value(sidecar: &str, name: &str) -> u64 {
    number_after(sidecar, &format!("\"{name}\": "))
}

/// Extracts a histogram's observation count from the sidecar
/// (`"name": { "count": N, ...`).
fn histogram_count(sidecar: &str, name: &str) -> u64 {
    number_after(sidecar, &format!("\"{name}\": {{ \"count\": "))
}

fn number_after(sidecar: &str, key: &str) -> u64 {
    let start = sidecar.find(key).map(|i| i + key.len()).unwrap_or_else(|| {
        panic!("{key} missing from sidecar:\n{sidecar}");
    });
    sidecar[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value parses")
}

#[test]
fn metrics_export_does_not_perturb_the_report() {
    let baseline = run_campaign(&config(7)).to_json(false);
    let report = CampaignReport::Static(run_campaign(&config(7)));
    // Exporting registers every catalog and reads every metric — the
    // strongest observation the layer supports.
    let sidecar = sidecar(&report);
    assert_eq!(report.to_json(false), baseline);
    assert_eq!(
        run_campaign(&config(7)).to_json(false),
        baseline,
        "a run after the export still reproduces the bytes"
    );

    assert!(sidecar.contains("\"mode\": \"static\""), "{sidecar}");
    assert!(sidecar.contains("\"phase\": \"completeness\""), "{sidecar}");
    assert!(counter_value(&sidecar, "lcp_campaign_cells_run_total") > 0);
    assert!(counter_value(&sidecar, "lcp_engine_prepares_total") > 0);
    assert!(
        counter_value(&sidecar, "lcp_engine_proves_total") > 0,
        "the yes-cells of this config fill their honest proofs"
    );
    assert!(histogram_count(&sidecar, "lcp_engine_prove_ns") > 0);
    assert!(
        histogram_count(&sidecar, "lcp_core_identity_ns") > 0,
        "every cell fingerprints its instance once on the campaign's cache, \
         and the report above stayed byte-identical"
    );
    assert!(
        counter_value(&sidecar, "lcp_harness_exhaustive_candidates_total") > 0,
        "the no-cells of this config run the exhaustive search"
    );
}

#[test]
fn churn_metrics_export_does_not_perturb_the_report() {
    let baseline = run_churn_campaign(&config(7), 8).to_json(false);
    let report = CampaignReport::Churn(run_churn_campaign(&config(7), 8));
    let sidecar = sidecar(&report);
    assert_eq!(report.to_json(false), baseline);

    assert!(sidecar.contains("\"mode\": \"churn\""), "{sidecar}");
    assert!(sidecar.contains("\"phase\": \"churn\""), "{sidecar}");
    assert!(counter_value(&sidecar, "lcp_dynamic_reverifies_total") > 0);
    assert!(
        histogram_count(&sidecar, "lcp_core_identity_ns") > 0,
        "churn cells fingerprint their instance when they thaw a core"
    );
}

#[test]
fn timeout_enrichment_is_timed_only_and_survives_resume() {
    let cfg = CampaignConfig {
        cell_budget_ms: Some(0),
        ..config(7)
    };
    let report = run_campaign(&cfg);
    let timed_out = report.count(CellStatus::TimedOut);
    assert!(timed_out > 0, "a zero budget must expire somewhere");

    let timed = report.to_json(true);
    assert_eq!(
        timed.matches(" [timed out in the ").count(),
        timed_out,
        "every timed-out cell's timed detail names its phase:\n{timed}"
    );
    assert!(timed.contains(" deadline polls]"), "{timed}");
    assert!(
        !report.to_json(false).contains("timed out in the"),
        "the enrichment must never reach the deterministic bytes"
    );

    // Checkpoint the run, then resume everything from the file: the
    // loader strips the enrichment back into the structured field, so
    // the deterministic bytes match and a timed re-serialization
    // renders the suffix exactly once per cell (never doubled).
    let path = tmp("timeout-resume.jsonl");
    let entries = filtered_entries(&cfg);
    let (first, _) = run_matrix(&entries, &cfg, Mode::Static, Some(&path), None).unwrap();
    let (resumed, count) = run_matrix(&entries, &cfg, Mode::Static, None, Some(&path)).unwrap();
    let CampaignReport::Static(resumed) = resumed else {
        panic!("static mode returned a churn report");
    };
    assert_eq!(count, resumed.cell_count(), "everything resumes");
    assert_eq!(resumed.to_json(false), first.to_json(false));
    assert_eq!(
        resumed.to_json(true).matches(" [timed out in the ").count(),
        resumed.count(CellStatus::TimedOut)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn churn_timeout_enrichment_round_trips() {
    let cfg = CampaignConfig {
        cell_budget_ms: Some(0),
        ..config(7)
    };
    let report = run_churn_campaign(&cfg, 8);
    let timed_out = report
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::TimedOut)
        .count();
    assert!(timed_out > 0, "a zero budget must expire somewhere");
    let timed = report.to_json(true);
    assert_eq!(
        timed
            .matches(" [timed out in the churn phase after ")
            .count(),
        timed_out,
        "{timed}"
    );
    assert!(!report.to_json(false).contains("timed out in the"));

    // Timed-out churn cells surface their poll count in the sidecar.
    let sidecar = sidecar(&CampaignReport::Churn(report));
    let timed_row = sidecar
        .lines()
        .find(|l| l.contains("\"status\": \"timed_out\""))
        .expect("a timed-out per-cell row in the sidecar");
    assert!(
        !timed_row.contains("\"deadline_polls\": null"),
        "timed-out cells carry a poll count, not null: {timed_row}"
    );
}
