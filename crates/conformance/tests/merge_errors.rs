//! Merge-input error paths: malformed or truncated shard JSON must
//! surface as a named [`MergeError`] carrying the offending file and a
//! byte offset — never a panic — so a CI fan-in failure points straight
//! at the broken artifact.

use lcp_conformance::merge::merge_reports;
use lcp_conformance::{run_campaign, CampaignConfig, Profile, Shard};

fn shard_config(seed: u64, shard: &str) -> CampaignConfig {
    CampaignConfig {
        sizes: vec![6],
        tamper_trials: 2,
        adversarial_iterations: 60,
        exhaustive_limit: 10_000,
        scheme_filter: Some("eulerian".into()),
        shard: Shard::parse(shard),
        ..CampaignConfig::for_profile(Profile::Smoke, seed)
    }
}

fn shard_json(seed: u64, shard: &str) -> String {
    run_campaign(&shard_config(seed, shard)).to_json(false)
}

#[test]
fn malformed_shard_json_names_the_file_and_byte_offset() {
    let inputs = vec![(
        "shard-0.json".to_string(),
        "{ definitely not json".to_string(),
    )];
    let err = merge_reports(&inputs).unwrap_err().to_string();
    assert!(err.contains("shard-0.json"), "file named: {err}");
    assert!(err.contains("byte"), "byte offset reported: {err}");
}

#[test]
fn a_truncated_shard_report_is_rejected_not_panicked() {
    let full = shard_json(7, "0/2");
    for cut in [1, full.len() / 3, full.len() - 2] {
        let inputs = vec![("cut.json".to_string(), full[..cut].to_string())];
        let err = merge_reports(&inputs).unwrap_err().to_string();
        assert!(
            err.contains("cut.json"),
            "truncation at {cut} names the file: {err}"
        );
    }
}

#[test]
fn a_shard_with_a_damaged_cell_object_is_rejected() {
    // Structurally valid JSON that drops a required cell field: parse
    // succeeds, semantic validation must still name the file.
    let broken = shard_json(7, "0/2").replace("\"coord\": 0,", "");
    let inputs = vec![
        ("broken.json".to_string(), broken),
        ("intact.json".to_string(), shard_json(7, "1/2")),
    ];
    let err = merge_reports(&inputs).unwrap_err().to_string();
    assert!(err.contains("broken.json"), "{err}");
    assert!(err.contains("coord"), "missing field named: {err}");
}

#[test]
fn mixed_mode_shards_refuse_to_merge() {
    let static_shard = shard_json(7, "0/2");
    let churn_shard =
        lcp_conformance::churn::run_churn_campaign(&shard_config(7, "1/2"), 4).to_json(false);
    let inputs = vec![
        ("a.json".to_string(), static_shard),
        ("b.json".to_string(), churn_shard),
    ];
    let err = merge_reports(&inputs).unwrap_err().to_string();
    assert!(err.contains("cannot mix"), "{err}");
}

#[test]
fn an_incomplete_shard_set_is_rejected() {
    let inputs = vec![("only.json".to_string(), shard_json(7, "0/2"))];
    let err = merge_reports(&inputs).unwrap_err().to_string();
    assert!(!err.is_empty(), "a lone shard of two cannot merge: {err}");
}

#[test]
fn a_hostile_shard_count_is_rejected_not_allocated() {
    // A count this large would abort the process if the merge sized
    // anything by it before validating the set.
    let hostile = shard_json(7, "0/2").replace(
        "\"shard\": { \"index\": 0, \"count\": 2 }",
        "\"shard\": { \"index\": 0, \"count\": 4000000000000000000 }",
    );
    assert!(
        hostile.contains("4000000000000000000"),
        "the header was rewritten"
    );
    let inputs = vec![("hostile.json".to_string(), hostile)];
    let err = merge_reports(&inputs).unwrap_err().to_string();
    assert!(err.contains("incomplete shard set"), "{err}");
    assert!(err.contains("got 1 of 4000000000000000000"), "{err}");
}
