//! The `table1` profile is the repository's one Table 1 producer:
//!
//! * it fits a growth class for the rows whose `max_n` keeps the smoke
//!   and full profiles below the 3× spread a fit needs, and each fitted
//!   class is the paper's, not merely one below the claim;
//! * its shards' checkpoints resume into the unsharded report
//!   byte-identically, like the other profiles', and so does a partial
//!   checkpoint;
//! * the CLI refuses `--churn` with it as a usage error.

use lcp_conformance::{
    filtered_entries, run_campaign, run_matrix, CampaignConfig, CampaignReport, CellStatus, Mode,
    Profile, Shard,
};
use lcp_core::harness::GrowthClass;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;

fn table1(scheme: &str, family: Option<GraphFamily>) -> CampaignConfig {
    CampaignConfig {
        scheme_filter: Some(scheme.into()),
        family_filter: family,
        ..CampaignConfig::for_profile(Profile::Table1, 7)
    }
}

#[test]
fn table1_fits_the_rows_max_n_leaves_unfitted() {
    // The Hamiltonian grid builder searches for a cycle exponentially;
    // the cycle family alone spans the sizes the fit needs.
    let rows = [
        ("symmetric-graph", None, GrowthClass::Quadratic),
        ("tree-fixpoint-free", None, GrowthClass::Linear),
        ("non-3-colorable", None, GrowthClass::Quadratic),
        ("prime-order", None, GrowthClass::Quadratic),
        (
            "hamiltonian-cycle",
            Some(GraphFamily::Cycle),
            GrowthClass::Logarithmic,
        ),
    ];
    for (scheme, family, class) in rows {
        let report = run_campaign(&table1(scheme, family));
        assert!(report.ok(), "{scheme}: {:?}", report.failures());
        let row = &report.schemes[0];
        assert!(
            row.cells.iter().all(|c| c.polarity == Polarity::Yes),
            "{scheme}: table1 runs yes cells only"
        );
        assert_eq!(
            row.measured_growth,
            Some(class),
            "{scheme}: {}",
            row.render_points()
        );
    }
}

#[test]
fn table1_reports_shard_merge_and_resume_byte_identically() {
    let whole = run_campaign(&table1("prime-order", None));
    let whole_json = whole.to_json(false);
    assert!(whole_json.contains("\"profile\": \"table1\""));
    assert_eq!(
        Profile::parse(Profile::Table1.name()),
        Some(Profile::Table1)
    );

    let config = table1("prime-order", None);
    let entries = filtered_entries(&config);
    let dir = std::env::temp_dir();
    let shards: Vec<String> = (0..2)
        .map(|index| {
            let path = dir.join(format!(
                "lcp-table1-{}-shard-{index}.jsonl",
                std::process::id()
            ));
            let path = path.to_str().unwrap().to_string();
            let shard = CampaignConfig {
                shard: Some(Shard { index, count: 2 }),
                ..table1("prime-order", None)
            };
            run_matrix(&entries, &shard, Mode::Static, Some(&path), &[]).unwrap();
            path
        })
        .collect();
    let paths: Vec<&str> = shards.iter().map(String::as_str).collect();
    let (merged, count) = run_matrix(&entries, &config, Mode::Static, None, &paths).unwrap();
    assert_eq!(count, whole.cell_count(), "every cell resumes");
    assert_eq!(merged.to_json(false), whole_json);
    for path in &shards {
        let _ = std::fs::remove_file(path);
    }

    // Resume from a checkpoint that kept only its first three cells.
    let full = dir.join(format!("lcp-table1-{}-full.jsonl", std::process::id()));
    let partial = dir.join(format!("lcp-table1-{}-partial.jsonl", std::process::id()));
    let (full, partial) = (full.to_str().unwrap(), partial.to_str().unwrap());
    run_matrix(&entries, &config, Mode::Static, Some(full), &[]).unwrap();
    let text = std::fs::read_to_string(full).unwrap();
    let kept: Vec<&str> = text.lines().take(4).collect();
    std::fs::write(partial, kept.join("\n") + "\n").unwrap();
    let (resumed, count) = run_matrix(&entries, &config, Mode::Static, None, &[partial]).unwrap();
    assert_eq!(count, 3);
    let CampaignReport::Static(resumed) = resumed else {
        panic!("static mode returned a churn report");
    };
    assert_eq!(resumed.to_json(false), whole_json);
    assert!(resumed.count(CellStatus::Pass) > 0);
    let _ = std::fs::remove_file(full);
    let _ = std::fs::remove_file(partial);
}

#[test]
fn churn_with_the_table1_profile_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lcp-campaign"))
        .args(["--profile", "table1", "--churn", "--quiet"])
        .output()
        .expect("lcp-campaign runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--churn"), "{stderr}");
}
