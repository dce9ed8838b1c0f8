//! The shard-determinism contract: partitioning the campaign matrix with
//! `--shard i/N`, checkpointing each shard, and resuming every shard's
//! checkpoint from one unsharded run yields **byte-identical** output to
//! the unsharded run (modulo timing, which the deterministic JSON form
//! excludes) — for the static and the churn campaign alike, with every
//! cell resumed rather than re-run.
//!
//! This is what lets a campaign fan out across processes and still diff
//! the reassembled artifact against any single-process run of the same
//! seed.

use lcp_conformance::churn::run_churn_campaign;
use lcp_conformance::{
    filtered_entries, run_campaign, run_matrix, CampaignConfig, CampaignReport, Mode, Profile,
    Shard,
};
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

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("lcp-shard-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Runs every shard of `config` split `count` ways with a checkpoint and
/// returns the checkpoint paths plus the shard reports.
fn run_shards(
    config: &CampaignConfig,
    mode: Mode,
    count: usize,
    tag: &str,
) -> (Vec<String>, Vec<CampaignReport>) {
    (0..count)
        .map(|index| {
            let shard = CampaignConfig {
                shard: Some(Shard { index, count }),
                ..config.clone()
            };
            let path = tmp(&format!("{tag}-{index}-of-{count}.jsonl"));
            let (report, resumed) =
                run_matrix(&filtered_entries(&shard), &shard, mode, Some(&path), &[]).unwrap();
            assert_eq!(resumed, 0, "a fresh shard resumes nothing");
            (path, report)
        })
        .unzip()
}

/// The unsharded run of `config` resuming every file in `paths`.
fn reassemble(config: &CampaignConfig, mode: Mode, paths: &[String]) -> (CampaignReport, usize) {
    let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
    run_matrix(&filtered_entries(config), config, mode, None, &paths).unwrap()
}

fn remove(paths: &[String]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn static_shard_union_is_byte_identical_for_two_and_four_shards() {
    let whole = run_campaign(&config(7, None));
    let whole_json = whole.to_json(false);
    for count in [2, 4] {
        let (paths, shards) = run_shards(&config(7, None), Mode::Static, count, "static");
        // The shards genuinely partition the matrix...
        let cells: usize = shards.iter().map(CampaignReport::cell_count).sum();
        assert_eq!(cells, whole.cell_count(), "N={count}");
        // ...and reassemble to the exact unsharded bytes, every cell
        // spliced back in rather than re-run.
        let (merged, resumed) = reassemble(&config(7, None), Mode::Static, &paths);
        assert_eq!(resumed, whole.cell_count(), "N={count}");
        assert_eq!(merged.to_json(false), whole_json, "N={count}");

        // A missing shard is no error: its cells simply run again.
        let (partial, resumed) = reassemble(&config(7, None), Mode::Static, &paths[..1]);
        assert_eq!(resumed, shards[0].cell_count(), "N={count}");
        assert_eq!(partial.to_json(false), whole_json, "N={count}");
        remove(&paths);
    }
}

#[test]
fn churn_shard_union_is_byte_identical_for_two_and_four_shards() {
    let steps = 8;
    let whole = run_churn_campaign(&config(7, None), steps);
    let whole_json = whole.to_json(false);
    for count in [2, 4] {
        let mode = Mode::Churn { steps };
        let (paths, _) = run_shards(&config(7, None), mode, count, "churn");
        let (merged, resumed) = reassemble(&config(7, None), mode, &paths);
        assert_eq!(resumed, whole.cells.len(), "N={count}");
        assert_eq!(merged.to_json(false), whole_json, "N={count}");
        remove(&paths);
    }
}

#[test]
fn empty_shards_merge_cleanly() {
    // One scheme on one family at one size = exactly two matrix cells
    // (yes + no), so sharding 4 ways leaves two shards with no cells at
    // all — their checkpoints hold a header only and must resume.
    let tiny = CampaignConfig {
        sizes: vec![8],
        scheme_filter: Some("bipartite".into()),
        family_filter: Some(GraphFamily::Cycle),
        ..config(7, None)
    };
    let whole = run_campaign(&tiny);
    assert_eq!(whole.cell_count(), 2, "premise: two cells");
    let (paths, shards) = run_shards(&tiny, Mode::Static, 4, "empty");
    let empty = shards.iter().filter(|r| r.cell_count() == 0).count();
    assert_eq!(empty, 2, "premise: two empty shards");
    let (merged, resumed) = reassemble(&tiny, Mode::Static, &paths);
    assert_eq!(resumed, 2);
    assert_eq!(merged.to_json(false), whole.to_json(false));
    remove(&paths);
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
