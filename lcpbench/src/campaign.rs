//! The `campaign` workload: full-profile static and churn conformance
//! campaigns in process, through `run_campaign` / `run_churn_campaign`.

use crate::util::ms_since;
use crate::{Run, Stream};
use lcp_conformance::churn::{default_steps, run_churn_campaign};
use lcp_conformance::{run_campaign, CampaignConfig, CellStatus, Profile};
use std::time::{Duration, Instant};

/// Static passes per churn pass in the timed loop.
const STATIC_PER_ROUND: usize = 3;

/// One set-up: resolve both profiles' configurations and run a smoke
/// static + churn pass, which starts the worker threads and fills the
/// allocator before anything is timed.
fn setup(seed: u64) -> CampaignConfig {
    let smoke = CampaignConfig::for_profile(Profile::Smoke, seed);
    std::hint::black_box(run_campaign(&smoke));
    std::hint::black_box(run_churn_campaign(&smoke, default_steps(Profile::Smoke)));
    CampaignConfig::for_profile(Profile::Full, seed)
}

/// Runs `campaign`: timed set-ups, then full static passes and full
/// churn passes for `seconds` in all.
pub fn campaign(seed: u64, seconds: f64, setup_reps: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let mut config = None;
    for _ in 0..setup_reps.max(1) {
        let t = Instant::now();
        config = Some(setup(seed));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let config = config.expect("at least one set-up");
    let steps = default_steps(Profile::Full);

    let mut static_passes = Stream::default();
    let mut churn_passes = Stream::default();
    // The deterministic (`--no-timing`) report of the first pass; every
    // later pass of the same seed must reproduce it byte for byte.
    let mut static_bytes = None;
    let mut churn_bytes = None;
    let mut fit_noted = false;
    // A static pass costs about a tenth of a churn pass. Each round runs
    // STATIC_PER_ROUND static passes and one churn pass, so a slow
    // stretch of the machine hits both kinds alike; rounds continue while
    // another one fits in `seconds` (at least one runs).
    let (started, budget) = (Instant::now(), Duration::from_secs_f64(seconds));
    let mut round = Duration::ZERO;
    while started.elapsed() + round <= budget {
        let round_started = Instant::now();
        for _ in 0..STATIC_PER_ROUND {
            let t = Instant::now();
            let report = run_campaign(&config);
            static_passes.record(0, ms_since(t));
            run.attempted += report.cell_count() as u64;
            // Failed, crashed and timed-out cells are wrong answers. A
            // growth-class overshoot is a fit over the whole matrix, not
            // an operation; it is reported once and not counted.
            let bad = report.count(CellStatus::Fail) + report.unresolved();
            if bad > 0 {
                static_passes.failed += bad as u64;
                static_passes
                    .first_error
                    .get_or_insert(format!("static campaign: {:?}", report.failures()));
            } else if !report.ok() && !fit_noted {
                fit_noted = true;
                eprintln!("note: growth fit: {:?}", report.failures());
            }
            let bytes = report.to_json(false);
            if *static_bytes.get_or_insert_with(|| bytes.clone()) != bytes {
                static_passes.wrong("static report differs between passes of one seed".into());
            }
        }

        let t = Instant::now();
        let report = run_churn_campaign(&config, steps);
        churn_passes.record(0, ms_since(t));
        run.attempted += report.cells.len() as u64;
        let bad = report.cells.iter().filter(|c| c.mismatches > 0).count() + report.unresolved();
        if bad > 0 {
            churn_passes.failed += bad as u64;
            churn_passes
                .first_error
                .get_or_insert(format!("churn campaign: {:?}", report.failures()));
        }
        let bytes = report.to_json(false);
        if *churn_bytes.get_or_insert_with(|| bytes.clone()) != bytes {
            churn_passes.wrong("churn report differs between passes of one seed".into());
        }
        round = round_started.elapsed();
    }
    run.peak_rss_mb = crate::util::peak_rss_mb(std::process::id());
    (run.main, run.side) = (static_passes, churn_passes);
    Ok(run)
}
