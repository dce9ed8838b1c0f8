//! `lcp-campaign` — the conformance-campaign CLI.
//!
//! ```text
//! cargo run -p lcp-conformance --release -- --profile smoke --seed 7 --json report.json
//! cargo run -p lcp-conformance --release -- --churn --seed 7 --json churn.json
//! ```
//!
//! Exit codes: `0` green, `1` usage error, `2` conformance failures
//! (static check failures, incremental-vs-full mismatches in `--churn`
//! mode, or unhandled faults under `--inject-faults`), `3` no failures
//! but some cells crashed or timed out (`2` takes precedence).
//!
//! ## Cell coordinates and seed derivation
//!
//! The campaign matrix is addressed by **cell coordinates**
//! `(scheme id, family, n, polarity)` — the same vocabulary the serve
//! daemon (`crates/serve`) and the churn engine use. Every cell derives
//! its private RNG stream as `cell_seed(campaign seed, coordinates)`
//! (FNV-1a over the stable scheme *id* — never its registry position —
//! then splitmix64 rounds over the remaining coordinates), so:
//!
//! * cells never share an RNG stream: running one cell alone (via the
//!   `--scheme`/`--family`/`--sizes` filters) replays exactly the bits
//!   it saw inside the full sweep;
//! * `--shard i/N` partitions the same enumeration order without
//!   perturbing any cell, so the union of shard reports is
//!   byte-identical to the unsharded run;
//! * `--resume` can skip completed cells and still produce a report
//!   byte-identical to an uninterrupted one.
//!
//! See `docs/ARCHITECTURE.md` § "Where determinism is enforced".

use lcp_conformance::churn::{default_steps, ChurnReport};
use lcp_conformance::{
    filtered_entries, run_matrix, write_artifact, CampaignConfig, CampaignReport, CellStatus, Mode,
    Profile, Report, Shard,
};
use lcp_graph::families::GraphFamily;

const USAGE: &str = "\
lcp-campaign — sweep every registered scheme across a seeded family matrix

USAGE:
    lcp-campaign [OPTIONS]

OPTIONS:
    --profile <smoke|full>   preset sizes and budgets        [default: smoke]
    --seed <u64>             campaign seed                   [default: 7]
    --sizes <a,b,c>          override instance sizes
    --scheme <id>            run one registry entry only
    --family <name>          run one graph family only
    --tamper-trials <n>      bit-flip probes per yes cell
    --adversarial-iters <n>  hill-climb steps per no cell
    --shard <i/N>            run only the cells of shard i out of N; the
                             union of all N reports is byte-identical to
                             the unsharded run (merge with campaign_merge)
    --churn                  dynamic mode: churn every cell with seeded
                             mutations, checking incremental reverify
                             against from-scratch evaluation
    --churn-steps <n>        mutations per churn cell        [default: per profile]
    --cell-budget-ms <n>     wall budget per cell; over-budget cells
                             report timed_out instead of hanging the shard
    --artifact-dir <dir>     persist frozen skeleton cores to <dir> and mmap
                             them back on later runs (see docs/FORMAT.md);
                             reports are byte-identical either way
    --warm-artifacts         build + persist every matrix cell's core into
                             --artifact-dir, then exit (shard filter is
                             ignored: one pass serves all shards)
    --checkpoint <path>      append one JSON line per completed cell, so a
                             killed shard can be resumed
    --resume <path>          skip cells recorded in a prior checkpoint of
                             the same configuration; the resumed report is
                             byte-identical to an uninterrupted run
    --inject-faults          run the seeded fault-injection plan (lcp-faults)
                             instead of a campaign; exit 2 if any injected
                             fault is neither detected nor repaired
    --json <path>            write the JSON report ('-' for stdout)
    --bench-out <path>       write per-cell sizes/timings (BENCH-style JSON)
    --metrics-out <path>     write the observability sidecar (per-cell phase
                             timings plus every process counter/histogram);
                             a separate artifact — report.json, checkpoints,
                             and RNG streams are byte-identical either way
    --no-timing              omit wall-clock fields from the JSON
    --list                   list registry entries and exit
    --quiet                  suppress the per-scheme table
    --help                   this text

EXIT CODES:
    0  green   1  usage error   2  failures / unhandled faults
    3  no failures, but some cells crashed or timed out
";

struct Args {
    config: CampaignConfig,
    churn: bool,
    warm_artifacts: bool,
    churn_steps: Option<usize>,
    checkpoint: Option<String>,
    resume: Option<String>,
    inject_faults: bool,
    json: Option<String>,
    bench_out: Option<String>,
    metrics_out: Option<String>,
    include_timing: bool,
    list: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut profile, mut seed) = (Profile::Smoke, 7u64);
    let (mut sizes, mut tamper, mut adversarial) = (None, None, None);
    let (mut scheme_filter, mut family_filter, mut shard) = (None, None, None);
    let (mut cell_budget_ms, mut artifact_dir) = (None, None);
    // Every other option lands in `parsed` directly; the configuration
    // is resolved from the locals above once all flags are read.
    let mut parsed = Args {
        config: CampaignConfig::for_profile(profile, seed),
        churn: false,
        warm_artifacts: false,
        churn_steps: None,
        checkpoint: None,
        resume: None,
        inject_faults: false,
        json: None,
        bench_out: None,
        metrics_out: None,
        include_timing: true,
        list: false,
        quiet: false,
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--profile" => {
                let v = value("--profile")?;
                profile = Profile::parse(&v).ok_or_else(|| format!("unknown profile '{v}'"))?;
            }
            "--seed" => seed = number(value("--seed")?, "seed")?,
            "--sizes" => {
                let v = value("--sizes")?;
                let parsed: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                sizes = Some(parsed.map_err(|_| format!("bad sizes '{v}'"))?);
            }
            "--scheme" => scheme_filter = Some(value("--scheme")?),
            "--family" => {
                let v = value("--family")?;
                family_filter =
                    Some(GraphFamily::parse(&v).ok_or_else(|| format!("unknown family '{v}'"))?);
            }
            "--tamper-trials" => tamper = Some(number(value("--tamper-trials")?, "count")?),
            "--adversarial-iters" => {
                adversarial = Some(number(value("--adversarial-iters")?, "count")?);
            }
            "--shard" => {
                let v = value("--shard")?;
                shard = Some(
                    Shard::parse(&v).ok_or_else(|| format!("bad shard '{v}' (want i/N, i < N)"))?,
                );
            }
            "--churn" => parsed.churn = true,
            "--churn-steps" => {
                parsed.churn_steps = Some(number(value("--churn-steps")?, "count")?);
            }
            "--cell-budget-ms" => {
                cell_budget_ms = Some(number(value("--cell-budget-ms")?, "budget")?);
            }
            "--artifact-dir" => {
                artifact_dir = Some(std::path::PathBuf::from(value("--artifact-dir")?));
            }
            "--warm-artifacts" => parsed.warm_artifacts = true,
            "--checkpoint" => parsed.checkpoint = Some(value("--checkpoint")?),
            "--resume" => parsed.resume = Some(value("--resume")?),
            "--inject-faults" => parsed.inject_faults = true,
            "--json" => parsed.json = Some(value("--json")?),
            "--bench-out" => parsed.bench_out = Some(value("--bench-out")?),
            "--metrics-out" => parsed.metrics_out = Some(value("--metrics-out")?),
            "--no-timing" => parsed.include_timing = false,
            "--list" => parsed.list = true,
            "--quiet" => parsed.quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    // The profile sets the defaults the other options override.
    let defaults = CampaignConfig::for_profile(profile, seed);
    parsed.config = CampaignConfig {
        sizes: sizes.unwrap_or(defaults.sizes),
        tamper_trials: tamper.unwrap_or(defaults.tamper_trials),
        adversarial_iterations: adversarial.unwrap_or(defaults.adversarial_iterations),
        scheme_filter,
        family_filter,
        shard,
        cell_budget_ms,
        artifact_dir,
        ..defaults
    };
    if parsed.warm_artifacts && parsed.config.artifact_dir.is_none() {
        return Err("--warm-artifacts requires --artifact-dir".into());
    }
    Ok(parsed)
}

/// Parses a numeric option value, naming it `what` on failure.
fn number<T: std::str::FromStr>(v: String, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

/// `--inject-faults` mode: run the standard seeded fault plan and
/// report which injected faults the stack detected or repaired.
fn run_fault_mode(args: &Args) -> i32 {
    let report = lcp_faults::run_standard_plan(args.config.seed);
    if !args.quiet {
        println!(
            "{:<20} {:<28} {:>8} {:>8}",
            "fault", "site", "detected", "repaired"
        );
        println!("{}", "-".repeat(70));
        for o in &report.outcomes {
            println!(
                "{:<20} {:<28} {:>8} {:>8}",
                o.kind.name(),
                o.site,
                o.detected,
                o.repaired
            );
        }
        println!();
    }
    println!(
        "fault injection: {} faults — {} unhandled (seed {})",
        report.outcomes.len(),
        report.unhandled().len(),
        report.seed,
    );
    for o in report.unhandled() {
        eprintln!("UNHANDLED: {} at {}: {}", o.kind.name(), o.site, o.detail);
    }
    if let Some(path) = &args.json {
        if !write_artifact(path, "fault report", &report.to_json()) {
            return 1;
        }
    }
    i32::from(!report.all_handled()) * 2
}

fn print_churn_table(report: &ChurnReport) {
    println!(
        "{:<32} {:<10} {:>4} {:>5} {:>6} {:>8} {:>9}  incr/full ms",
        "scheme", "family", "n", "steps", "checks", "miss", "work ‰"
    );
    println!("{}", "-".repeat(100));
    for c in report.cells.iter().filter(|c| !c.skipped) {
        println!(
            "{:<32} {:<10} {:>4} {:>5} {:>6} {:>8} {:>9}  {}/{}",
            c.scheme,
            c.family.name(),
            c.n,
            c.steps,
            c.checks,
            c.mismatches,
            c.reverified_permille,
            c.incremental_ms,
            c.full_ms,
        );
    }
    println!();
}

fn print_table(report: &Report) {
    println!(
        "{:<32} {:<10} {:>4} {:>4} {:>4}  {:<12} {:<12} ok",
        "scheme", "row", "pass", "fail", "skip", "claimed", "measured"
    );
    println!("{}", "-".repeat(92));
    for s in &report.schemes {
        let count = |st: CellStatus| s.cells.iter().filter(|c| c.status == st).count();
        println!(
            "{:<32} {:<10} {:>4} {:>4} {:>4}  {:<12} {:<12} {}",
            s.id,
            s.paper_row,
            count(CellStatus::Pass),
            count(CellStatus::Fail),
            count(CellStatus::Skip),
            s.claimed_bound,
            s.measured_growth
                .map_or_else(|| "(small n)".into(), |g| g.to_string()),
            match s.bound_ok {
                Some(true) => "✓",
                Some(false) => "✗",
                None => "—",
            }
        );
    }
    println!();
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(1);
        }
    };

    // A typo'd --scheme would otherwise run a 0-cell campaign that
    // reports green — fail loudly instead, like --family parsing does.
    if let Some(id) = &args.config.scheme_filter {
        if !lcp_conformance::campaign_registry()
            .iter()
            .any(|e| e.id == *id)
        {
            eprintln!("error: unknown scheme '{id}' (see --list for registry ids)");
            std::process::exit(1);
        }
    }

    if args.list {
        for e in lcp_conformance::campaign_registry() {
            let families: Vec<&str> = e.families.iter().map(|f| f.name()).collect();
            println!(
                "{:<32} {:<10} {:<14} r={} families={}",
                e.id,
                e.paper_row,
                e.claimed_bound,
                e.radius,
                families.join(",")
            );
        }
        return;
    }

    if args.inject_faults {
        std::process::exit(run_fault_mode(&args));
    }

    if args.warm_artifacts {
        let dir = args.config.artifact_dir.clone().unwrap_or_default();
        let s = lcp_conformance::warm_artifacts(&args.config);
        println!(
            "warmed {}: {} cores built, {} deduplicated in-process, {} already on disk, \
             {} cells inapplicable",
            dir.display(),
            s.built,
            s.cache_hits,
            s.loaded,
            s.skipped,
        );
        return;
    }

    let mode = if args.churn {
        let steps = args
            .churn_steps
            .unwrap_or_else(|| default_steps(args.config.profile));
        Mode::Churn { steps }
    } else {
        Mode::Static
    };
    let entries = filtered_entries(&args.config);
    let (checkpoint, resume) = (args.checkpoint.as_deref(), args.resume.as_deref());
    let report = match run_matrix(&entries, &args.config, mode, checkpoint, resume) {
        Ok((report, resumed)) => {
            if resumed > 0 {
                println!("resumed {resumed} cells from {}", resume.unwrap_or("?"));
            }
            report
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let shard_note =
        |shard: Option<Shard>| shard.map_or_else(String::new, |s| format!(", shard {s}"));
    let unresolved = report.unresolved();
    let unresolved_note = if unresolved > 0 {
        format!(", {unresolved} crashed/timed out")
    } else {
        String::new()
    };
    let what = match &report {
        CampaignReport::Static(r) => {
            if !args.quiet {
                print_table(r);
            }
            println!(
                "campaign: {} cells — {} passed, {} failed, {} inapplicable{} \
                 ({} ms, seed {}{}, skeleton cache {} hits / {} builds)",
                r.cell_count(),
                r.count(CellStatus::Pass),
                r.count(CellStatus::Fail),
                r.count(CellStatus::Skip),
                unresolved_note,
                r.wall_ms,
                r.seed,
                shard_note(r.shard),
                r.cache_hits,
                r.cache_misses,
            );
            "report"
        }
        CampaignReport::Churn(r) => {
            if !args.quiet {
                print_churn_table(r);
            }
            println!(
                "churn campaign: {} cells ({} ran) × {} mutations — {} mismatches{} \
                 ({} ms, seed {}{})",
                r.cells.len(),
                r.ran(),
                r.steps,
                r.mismatches(),
                unresolved_note,
                r.wall_ms,
                r.seed,
                shard_note(r.shard),
            );
            "churn report"
        }
    };
    for f in report.failures() {
        eprintln!("FAIL: {f}");
    }

    // The BENCH-style artifact always carries timings — it is the
    // perf-history series, not the diffable conformance report.
    let written = args
        .json
        .as_deref()
        .is_none_or(|p| write_artifact(p, what, &report.to_json(args.include_timing)))
        && args
            .bench_out
            .as_deref()
            .is_none_or(|p| write_artifact(p, "bench series", &report.to_bench_json()))
        && args.metrics_out.as_deref().is_none_or(|p| {
            write_artifact(
                p,
                "metrics sidecar",
                &lcp_conformance::metrics::sidecar(&report),
            )
        });
    if !written {
        std::process::exit(1);
    }
    // 2 for failures, 3 for crashed/timed-out only, 0 when green.
    let code = if !report.ok() {
        2
    } else if unresolved > 0 {
        3
    } else {
        0
    };
    std::process::exit(code);
}
