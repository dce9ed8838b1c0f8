//! Reassembly error paths: a sharded campaign is reassembled by one
//! unsharded run resuming every shard's checkpoint, so a malformed,
//! truncated, damaged or mismatched shard input must surface as a
//! [`CheckpointError`] naming the offending file — never a panic, and
//! never a silently short report — so a CI fan-in failure points straight
//! at the broken artifact.

use lcp_conformance::checkpoint::CheckpointError;
use lcp_conformance::{
    filtered_entries, run_campaign, run_matrix, CampaignConfig, CampaignReport, Mode, Profile,
    Shard,
};

fn shard_config(seed: u64, shard: Option<&str>) -> CampaignConfig {
    CampaignConfig {
        sizes: vec![6],
        tamper_trials: 2,
        adversarial_iterations: 60,
        exhaustive_limit: 10_000,
        scheme_filter: Some("eulerian".into()),
        shard: shard.and_then(Shard::parse),
        ..CampaignConfig::for_profile(Profile::Smoke, seed)
    }
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("lcp-merge-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Runs `shard` of seed `seed` in `mode`, checkpointing to a fresh file
/// named `name`; returns the checkpoint path.
fn shard_checkpoint(seed: u64, shard: &str, mode: Mode, name: &str) -> String {
    let config = shard_config(seed, Some(shard));
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    run_matrix(&filtered_entries(&config), &config, mode, Some(&path), &[]).unwrap();
    path
}

/// The unsharded seed-`seed` run of `mode` resuming `paths`.
fn reassemble(
    seed: u64,
    mode: Mode,
    paths: &[&str],
) -> Result<(CampaignReport, usize), CheckpointError> {
    let config = shard_config(seed, None);
    run_matrix(&filtered_entries(&config), &config, mode, None, paths)
}

fn remove(paths: &[&str]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn malformed_shard_json_names_the_file_and_byte_offset() {
    let path = shard_checkpoint(7, "0/2", Mode::Static, "malformed-0.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "header plus at least two cells");
    lines[1] = "{ definitely not json";
    std::fs::write(&path, lines.join("\n")).unwrap();

    let err = reassemble(7, Mode::Static, &[&path])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains(&format!("{path}:2")),
        "file and line named: {err}"
    );
    assert!(err.contains("byte"), "byte offset reported: {err}");
    remove(&[&path]);
}

#[test]
fn a_truncated_shard_report_is_rejected_not_panicked() {
    // A shard *report* is not a checkpoint: handing one (whole or cut
    // anywhere) to the reassembling run must be refused by name.
    let full = run_campaign(&shard_config(7, Some("0/2"))).to_json(false);
    let path = tmp("cut.json");
    for cut in [1, full.len() / 3, full.len() - 2, full.len()] {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = reassemble(7, Mode::Static, &[&path])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&path),
            "truncation at {cut} names the file: {err}"
        );
        assert!(err.contains("header mismatch"), "{err}");
    }
    remove(&[&path]);
}

#[test]
fn a_shard_with_a_damaged_cell_object_is_rejected() {
    // Structurally valid JSON that drops a required cell field: parse
    // succeeds, semantic validation must still name the file.
    let broken = shard_checkpoint(7, "0/2", Mode::Static, "broken.jsonl");
    let intact = shard_checkpoint(7, "1/2", Mode::Static, "intact.jsonl");
    let text = std::fs::read_to_string(&broken).unwrap();
    let line = text.lines().nth(1).unwrap();
    let start = line.find("\"coord\": ").unwrap();
    let end = start + line[start..].find(", ").unwrap() + 2;
    let without_coord = format!("{}{}", &line[..start], &line[end..]);
    std::fs::write(&broken, text.replacen(line, &without_coord, 1)).unwrap();

    let err = reassemble(7, Mode::Static, &[&broken, &intact])
        .unwrap_err()
        .to_string();
    assert!(err.contains(&format!("{broken}:2:")), "{err}");
    assert!(err.contains("coord"), "missing field named: {err}");
    remove(&[&broken, &intact]);
}

#[test]
fn mixed_mode_shards_refuse_to_merge() {
    let churn = Mode::Churn { steps: 4 };
    let a = shard_checkpoint(7, "0/2", Mode::Static, "mixed-a.jsonl");
    let b = shard_checkpoint(7, "1/2", churn, "mixed-b.jsonl");
    // Whichever mode reassembles, the shard of the other mode is named.
    let err = reassemble(7, Mode::Static, &[&a, &b])
        .unwrap_err()
        .to_string();
    assert!(err.contains(&b) && err.contains("header mismatch"), "{err}");
    let err = reassemble(7, churn, &[&a, &b]).unwrap_err().to_string();
    assert!(err.contains(&a) && err.contains("header mismatch"), "{err}");
    remove(&[&a, &b]);
}
