//! The shard-determinism contract: partitioning the campaign matrix with
//! `--shard i/N` and merging the N reports yields **byte-identical**
//! output to the unsharded run (modulo timing, which the deterministic
//! JSON form excludes) — for the static and the churn campaign alike.
//!
//! This is what lets CI fan a campaign out across runners and still diff
//! the merged artifact against any single-process run of the same seed.

use lcp_conformance::churn::run_churn_campaign;
use lcp_conformance::merge::merge_reports;
use lcp_conformance::{run_campaign, CampaignConfig, Profile, Shard};
use lcp_graph::families::GraphFamily;

/// Small but representative: every scheme, two sizes, both polarities.
fn config(seed: u64, shard: Option<Shard>) -> CampaignConfig {
    CampaignConfig {
        sizes: vec![6, 10],
        tamper_trials: 4,
        adversarial_iterations: 120,
        exhaustive_limit: 20_000,
        shard,
        ..CampaignConfig::for_profile(Profile::Smoke, seed)
    }
}

fn static_shards(seed: u64, count: usize) -> Vec<(String, String)> {
    (0..count)
        .map(|index| {
            let report = run_campaign(&config(seed, Some(Shard { index, count })));
            (format!("shard-{index}.json"), report.to_json(false))
        })
        .collect()
}

fn churn_shards(seed: u64, count: usize, steps: usize) -> Vec<(String, String)> {
    (0..count)
        .map(|index| {
            let report = run_churn_campaign(&config(seed, Some(Shard { index, count })), steps);
            (format!("churn-shard-{index}.json"), report.to_json(false))
        })
        .collect()
}

#[test]
fn static_shard_union_is_byte_identical_for_two_and_four_shards() {
    let whole = run_campaign(&config(7, None));
    let whole_json = whole.to_json(false);
    for count in [2, 4] {
        let shards = static_shards(7, count);
        // The shards genuinely partition the matrix...
        let merged = merge_reports(&shards).expect("valid shard set");
        assert_eq!(merged.cell_count(), whole.cell_count(), "N={count}");
        // ...and reassemble to the exact unsharded bytes.
        assert_eq!(merged.to_json(false), whole_json, "N={count}");
    }
}

#[test]
fn churn_shard_union_is_byte_identical_for_two_and_four_shards() {
    let steps = 8;
    let whole = run_churn_campaign(&config(7, None), steps).to_json(false);
    for count in [2, 4] {
        let merged = merge_reports(&churn_shards(7, count, steps)).expect("valid shard set");
        assert_eq!(merged.to_json(false), whole, "N={count}");
    }
}

#[test]
fn empty_shards_merge_cleanly() {
    // One scheme on one family at one size = exactly two matrix cells
    // (yes + no), so sharding 4 ways leaves two shards with no cells at
    // all — their reports still carry the scheme list and must merge.
    let tiny = |shard| CampaignConfig {
        sizes: vec![8],
        scheme_filter: Some("bipartite".into()),
        family_filter: Some(GraphFamily::Cycle),
        shard,
        ..config(7, shard)
    };
    let whole = run_campaign(&tiny(None));
    assert_eq!(whole.cell_count(), 2, "premise: two cells");
    let shards: Vec<(String, String)> = (0..4)
        .map(|index| {
            let report = run_campaign(&tiny(Some(Shard { index, count: 4 })));
            (format!("shard-{index}.json"), report.to_json(false))
        })
        .collect();
    let empty = shards
        .iter()
        .filter(|(_, json)| json.contains("\"summary\": { \"cells\": 0"))
        .count();
    assert_eq!(empty, 2, "premise: two empty shards");
    let merged = merge_reports(&shards).expect("empty shards are valid");
    assert_eq!(merged.to_json(false), whole.to_json(false));
}

#[test]
fn shard_reports_carry_their_shard_header_and_global_coords() {
    let count = 3;
    let report = run_campaign(&config(7, Some(Shard { index: 1, count })));
    let json = report.to_json(false);
    assert!(json.contains("\"shard\": { \"index\": 1, \"count\": 3 },"));
    // Every cell's global coordinate belongs to this shard.
    for s in &report.schemes {
        for c in &s.cells {
            assert_eq!(c.coord % count, 1, "cell {} leaked into shard 1", c.coord);
        }
    }
    // The unsharded report has no shard header.
    let whole = run_campaign(&config(7, None)).to_json(false);
    assert!(!whole.contains("\"shard\""));
}

#[test]
fn shard_parse_round_trips_and_rejects_nonsense() {
    let s = Shard::parse("2/4").unwrap();
    assert_eq!((s.index, s.count), (2, 4));
    assert_eq!(s.to_string(), "2/4");
    for bad in ["4/4", "5/4", "x/4", "2/", "/4", "2", "", "2/0"] {
        assert!(Shard::parse(bad).is_none(), "accepted {bad:?}");
    }
}
