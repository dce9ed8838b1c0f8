//! The fault-tolerance contract of campaign execution:
//!
//! * a panicking cell becomes a `crashed` verdict (deterministic vs
//!   flaky, classified by a same-seed retry) while the rest of the
//!   matrix completes — in both the static and the churn mode;
//! * a cell over its `--cell-budget-ms` wall budget reports `timed_out`
//!   instead of hanging the shard, and a generous budget leaves the
//!   report byte-identical to an unbounded run;
//! * `--checkpoint`/`--resume` reproduce the uninterrupted report
//!   **byte-for-byte**, tolerating exactly the torn final line a
//!   SIGKILL leaves behind (the standing ROADMAP policy).

use lcp_conformance::checkpoint::CheckpointError;
use lcp_conformance::churn::{run_churn_campaign, ChurnReport};
use lcp_conformance::{
    campaign_registry, filtered_entries, run_campaign, run_matrix, CampaignConfig, CampaignReport,
    CellStatus, Mode, Profile, Report,
};
use lcp_core::dynamic::DynScheme;
use lcp_core::harness::GrowthClass;
use lcp_core::{Instance, Proof, Scheme, View};
use lcp_graph::families::GraphFamily;
use lcp_graph::generators;
use lcp_schemes::registry::{CellRequest, Polarity, SchemeEntry};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The churn mode every churn case here runs in.
const CHURN: Mode = Mode::Churn { steps: 6 };

/// [`run_matrix`] over `config`'s own registry slice.
fn checkpointed(
    config: &CampaignConfig,
    mode: Mode,
    checkpoint: Option<&str>,
    resume: &[&str],
) -> Result<(CampaignReport, usize), CheckpointError> {
    run_matrix(&filtered_entries(config), config, mode, checkpoint, resume)
}

/// A static run over an explicit entry list.
fn static_over(entries: &[SchemeEntry], config: &CampaignConfig) -> Report {
    match run_matrix(entries, config, Mode::Static, None, &[])
        .unwrap()
        .0
    {
        CampaignReport::Static(report) => report,
        CampaignReport::Churn(_) => panic!("static mode returned a churn report"),
    }
}

/// A churn run over an explicit entry list.
fn churn_over(entries: &[SchemeEntry], config: &CampaignConfig) -> ChurnReport {
    match run_matrix(entries, config, CHURN, None, &[]).unwrap().0 {
        CampaignReport::Churn(report) => report,
        CampaignReport::Static(_) => panic!("churn mode returned a static report"),
    }
}

fn eulerian_entry() -> SchemeEntry {
    campaign_registry()
        .into_iter()
        .find(|e| e.id == "eulerian")
        .expect("eulerian is registered")
}

/// An always-accepting probe scheme for builders that must succeed
/// after a flaky first attempt.
struct Trivial;

impl Scheme for Trivial {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "trivial".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, _: &Instance) -> bool {
        true
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        Some(Proof::empty(inst.n()))
    }
    fn verify(&self, _: &View) -> bool {
        true
    }
}

fn entry(id: &'static str, builder: fn(&CellRequest) -> Option<DynScheme>) -> SchemeEntry {
    SchemeEntry {
        id,
        title: "fault-tolerance probe",
        paper_row: "—",
        claimed_bound: "O(1)",
        claimed_growth: GrowthClass::Constant,
        families: &[GraphFamily::Cycle],
        radius: 1,
        max_n: 64,
        fit_max_n: None,
        builder,
    }
}

fn b_panic(req: &CellRequest) -> Option<DynScheme> {
    match req.polarity {
        Polarity::Yes => panic!("injected panic for isolation test"),
        Polarity::No => None,
    }
}

#[test]
fn a_panicking_scheme_crashes_its_cells_and_the_matrix_completes() {
    let cfg = config(7);
    let entries = vec![eulerian_entry(), entry("test-panics", b_panic)];
    let report = static_over(&entries, &cfg);

    let crashed: Vec<_> = report
        .schemes
        .iter()
        .flat_map(|s| &s.cells)
        .filter(|c| c.status == CellStatus::Crashed)
        .collect();
    assert!(!crashed.is_empty(), "the panicking builder must crash");
    for c in &crashed {
        assert_eq!(c.scheme, "test-panics", "only the panicking scheme crashes");
        assert_eq!(c.check, "isolation");
        assert!(
            c.detail.contains("injected panic for isolation test"),
            "payload recorded: {}",
            c.detail
        );
        assert!(
            c.detail
                .contains("deterministic: retry panicked identically"),
            "same-seed retry classifies the panic: {}",
            c.detail
        );
    }
    assert_eq!(report.unresolved(), crashed.len());

    // The healthy scheme is untouched: byte-identical to running alone.
    let alone = static_over(&[eulerian_entry()], &cfg);
    let healthy = report.schemes.iter().find(|s| s.id == "eulerian").unwrap();
    let baseline = alone.schemes.iter().find(|s| s.id == "eulerian").unwrap();
    for (a, b) in healthy.cells.iter().zip(&baseline.cells) {
        assert_eq!((a.status, &a.detail), (b.status, &b.detail));
    }
}

#[test]
fn a_panicking_scheme_crashes_its_churn_cells_and_the_matrix_completes() {
    let cfg = config(7);
    let entries = vec![eulerian_entry(), entry("test-panics", b_panic)];
    let report = churn_over(&entries, &cfg);

    let crashed: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Crashed)
        .collect();
    assert!(!crashed.is_empty(), "the panicking builder must crash");
    for c in &crashed {
        assert_eq!(c.scheme, "test-panics", "only the panicking scheme crashes");
        assert!(!c.skipped, "a crashed cell is not a skipped one");
        assert!(
            c.detail.contains("injected panic for isolation test")
                && c.detail
                    .contains("deterministic: retry panicked identically"),
            "payload recorded and classified: {}",
            c.detail
        );
    }
    assert_eq!(report.unresolved(), crashed.len());
    assert!(report.ok(), "a crash is not a mismatch");

    // The healthy scheme churns every cell, exactly as it does alone.
    let alone = churn_over(&[eulerian_entry()], &cfg);
    let healthy: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.scheme == "eulerian")
        .collect();
    assert_eq!(healthy.len(), alone.cells.len());
    for (a, b) in healthy.iter().zip(&alone.cells) {
        assert_eq!(
            (a.status, &a.detail, a.steps, a.checks),
            (b.status, &b.detail, b.steps, b.checks)
        );
    }
}

/// Panics on the first yes-cell call through `calls`, then builds a
/// trivially accepting cell. Each test gets its own counter, so tests
/// running in parallel cannot take each other's panic.
fn flaky(req: &CellRequest, calls: &AtomicUsize) -> Option<DynScheme> {
    match req.polarity {
        Polarity::Yes => {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky first attempt");
            }
            Some(DynScheme::seal(
                Trivial,
                Instance::unlabeled(generators::cycle(req.n.max(3))),
            ))
        }
        Polarity::No => None,
    }
}

static FLAKY_CALLS: AtomicUsize = AtomicUsize::new(0);

fn b_flaky(req: &CellRequest) -> Option<DynScheme> {
    flaky(req, &FLAKY_CALLS)
}

static FLAKY_CHURN_CALLS: AtomicUsize = AtomicUsize::new(0);

fn b_flaky_churn(req: &CellRequest) -> Option<DynScheme> {
    flaky(req, &FLAKY_CHURN_CALLS)
}

#[test]
fn a_flaky_panic_is_retried_and_annotated() {
    let cfg = CampaignConfig {
        sizes: vec![6],
        ..config(7)
    };
    let report = static_over(&[entry("test-flaky", b_flaky)], &cfg);
    let recovered: Vec<_> = report
        .schemes
        .iter()
        .flat_map(|s| &s.cells)
        .filter(|c| c.detail.contains("[recovered: first attempt panicked:"))
        .collect();
    assert_eq!(recovered.len(), 1, "exactly one cell hit the flaky panic");
    assert_eq!(recovered[0].status, CellStatus::Pass);
    assert!(recovered[0].detail.contains("flaky first attempt"));
    assert_eq!(report.unresolved(), 0, "a recovered flake is not a crash");
}

#[test]
fn a_flaky_churn_panic_is_retried_and_annotated() {
    let cfg = CampaignConfig {
        sizes: vec![6],
        ..config(7)
    };
    let report = churn_over(&[entry("test-flaky-churn", b_flaky_churn)], &cfg);
    let recovered: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.detail.contains("[recovered: first attempt panicked:"))
        .collect();
    assert_eq!(recovered.len(), 1, "exactly one cell hit the flaky panic");
    assert_eq!(recovered[0].status, CellStatus::Pass);
    assert!(recovered[0].steps > 0, "the retry churned the cell");
    assert!(recovered[0].detail.contains("flaky first attempt"));
    assert_eq!(report.unresolved(), 0, "a recovered flake is not a crash");
}

#[test]
fn a_zero_budget_times_cells_out_without_hanging_or_failing() {
    let report = run_campaign(&CampaignConfig {
        cell_budget_ms: Some(0),
        ..config(7)
    });
    let timed_out = report.count(CellStatus::TimedOut);
    assert!(timed_out > 0, "a zero budget must expire somewhere");
    assert_eq!(report.count(CellStatus::Fail), 0);
    assert_eq!(report.unresolved(), timed_out);
    for c in report.schemes.iter().flat_map(|s| &s.cells) {
        if c.status == CellStatus::TimedOut {
            assert!(
                c.detail.contains("wall budget expired"),
                "timeout detail names the budget: {}",
                c.detail
            );
        }
    }
}

#[test]
fn a_generous_budget_is_byte_identical_to_no_budget() {
    let unbounded = run_campaign(&config(7)).to_json(false);
    let bounded = run_campaign(&CampaignConfig {
        cell_budget_ms: Some(3_600_000),
        ..config(7)
    })
    .to_json(false);
    assert_eq!(
        unbounded, bounded,
        "an unexercised budget must not perturb the report"
    );
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("lcp-ft-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Keeps the header plus the first `cells` cell lines, then appends the
/// torn half-line a SIGKILL mid-append leaves behind.
fn truncate_checkpoint(full: &str, partial: &str, cells: usize) {
    let text = std::fs::read_to_string(full).unwrap();
    let mut kept: Vec<&str> = text.lines().take(1 + cells).collect();
    kept.push("{ \"scheme\": \"eulerian\", \"coo");
    std::fs::write(partial, kept.join("\n")).unwrap();
}

#[test]
fn resuming_a_killed_static_shard_reproduces_the_report_bytes() {
    let cfg = config(7);
    let baseline = run_campaign(&cfg).to_json(false);

    let full = tmp("static-full.jsonl");
    let (complete, resumed) = checkpointed(&cfg, Mode::Static, Some(&full), &[]).unwrap();
    assert_eq!(resumed, 0);
    assert_eq!(complete.to_json(false), baseline);

    let partial = tmp("static-partial.jsonl");
    truncate_checkpoint(&full, &partial, 5);
    let (report, resumed) = checkpointed(&cfg, Mode::Static, Some(&partial), &[&partial]).unwrap();
    assert_eq!(
        resumed, 5,
        "five recorded cells resume; the torn line is dropped"
    );
    assert_eq!(
        report.to_json(false),
        baseline,
        "resumed report must be byte-identical to the uninterrupted run"
    );

    // The rewritten checkpoint is complete and compacted: resuming from
    // it runs zero cells and still reproduces the bytes.
    let (again, resumed) = checkpointed(&cfg, Mode::Static, None, &[&partial]).unwrap();
    assert_eq!(resumed, again.cell_count());
    assert_eq!(again.to_json(false), baseline);

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&partial);
}

#[test]
fn resuming_a_killed_churn_shard_reproduces_the_report_bytes() {
    let cfg = config(7);
    let baseline = run_churn_campaign(&cfg, 6).to_json(false);

    let full = tmp("churn-full.jsonl");
    let (complete, _) = checkpointed(&cfg, CHURN, Some(&full), &[]).unwrap();
    assert_eq!(complete.to_json(false), baseline);

    let partial = tmp("churn-partial.jsonl");
    truncate_checkpoint(&full, &partial, 4);
    let (report, resumed) = checkpointed(&cfg, CHURN, None, &[&partial]).unwrap();
    assert_eq!(resumed, 4);
    assert_eq!(
        report.to_json(false),
        baseline,
        "resumed churn report must be byte-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&partial);
}

#[test]
fn a_checkpoint_from_another_configuration_refuses_to_resume() {
    let path = tmp("mismatch.jsonl");
    let (_, _) = checkpointed(&config(7), Mode::Static, Some(&path), &[]).unwrap();
    let err = checkpointed(&config(8), Mode::Static, None, &[&path]).unwrap_err();
    assert!(
        err.to_string().contains("header mismatch"),
        "seed change must refuse the checkpoint: {err}"
    );
    // Mode changes are config changes too.
    let err = checkpointed(&config(7), CHURN, None, &[&path]).unwrap_err();
    assert!(err.to_string().contains("header mismatch"), "{err}");
    // Of several resume files, the one that mismatches is named.
    let other = tmp("mismatch-seed8.jsonl");
    let (_, _) = checkpointed(&config(8), Mode::Static, Some(&other), &[]).unwrap();
    let err = checkpointed(&config(7), Mode::Static, None, &[&path, &other])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains(&other) && err.contains("header mismatch"),
        "the second file is named: {err}"
    );
    assert!(
        !err.contains(&path),
        "the matching file is not blamed: {err}"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&other);
}

#[test]
fn damage_before_the_final_checkpoint_line_refuses_to_resume() {
    let cfg = config(7);
    for mode in [Mode::Static, CHURN] {
        let full = tmp("damaged.jsonl");
        let _ = checkpointed(&cfg, mode, Some(&full), &[]).unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        // Well-formed JSON that lacks the cell's coordinate.
        let line = text.lines().nth(2).unwrap();
        let start = line.find("\"coord\": ").unwrap();
        let end = start + line[start..].find(", ").unwrap() + 2;
        let without_coord = format!("{}{}", &line[..start], &line[end..]);
        for (damage, named) in [
            ("{ not json at all", "byte"),
            (without_coord.as_str(), "coord"),
        ] {
            let mut lines: Vec<&str> = text.lines().collect();
            lines[2] = damage;
            std::fs::write(&full, lines.join("\n")).unwrap();
            let err = checkpointed(&cfg, mode, None, &[&full]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.starts_with(&format!("{full}:3: ")) && msg.contains(named),
                "{mode:?}: mid-file damage is named with file, line 3 and {named}: {msg}"
            );
        }
        let _ = std::fs::remove_file(&full);
    }
}
