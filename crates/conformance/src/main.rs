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

use lcp_conformance::checkpoint::{run_campaign_checkpointed, run_churn_campaign_checkpointed};
use lcp_conformance::churn::{default_steps, run_churn_campaign, ChurnReport};
use lcp_conformance::{run_campaign, CampaignConfig, CellStatus, Profile, Report, Shard};
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
    let mut profile = Profile::Smoke;
    let mut seed = 7u64;
    let mut sizes: Option<Vec<usize>> = None;
    let mut scheme = None;
    let mut family = None;
    let mut tamper = None;
    let mut adversarial = None;
    let mut shard = None;
    let mut churn = false;
    let mut warm_artifacts = false;
    let mut artifact_dir = None;
    let mut churn_steps = None;
    let mut cell_budget_ms = None;
    let mut checkpoint = None;
    let mut resume = None;
    let mut inject_faults = false;
    let mut json = None;
    let mut bench_out = None;
    let mut metrics_out = None;
    let mut include_timing = true;
    let mut list = false;
    let mut quiet = false;

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
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--sizes" => {
                let v = value("--sizes")?;
                let parsed: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                sizes = Some(parsed.map_err(|_| format!("bad sizes '{v}'"))?);
            }
            "--scheme" => scheme = Some(value("--scheme")?),
            "--family" => {
                let v = value("--family")?;
                family =
                    Some(GraphFamily::parse(&v).ok_or_else(|| format!("unknown family '{v}'"))?);
            }
            "--tamper-trials" => {
                let v = value("--tamper-trials")?;
                tamper = Some(v.parse().map_err(|_| format!("bad count '{v}'"))?);
            }
            "--adversarial-iters" => {
                let v = value("--adversarial-iters")?;
                adversarial = Some(v.parse().map_err(|_| format!("bad count '{v}'"))?);
            }
            "--shard" => {
                let v = value("--shard")?;
                shard = Some(
                    Shard::parse(&v).ok_or_else(|| format!("bad shard '{v}' (want i/N, i < N)"))?,
                );
            }
            "--churn" => churn = true,
            "--churn-steps" => {
                let v = value("--churn-steps")?;
                churn_steps = Some(v.parse().map_err(|_| format!("bad count '{v}'"))?);
            }
            "--cell-budget-ms" => {
                let v = value("--cell-budget-ms")?;
                cell_budget_ms = Some(v.parse().map_err(|_| format!("bad budget '{v}'"))?);
            }
            "--artifact-dir" => {
                artifact_dir = Some(std::path::PathBuf::from(value("--artifact-dir")?));
            }
            "--warm-artifacts" => warm_artifacts = true,
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--resume" => resume = Some(value("--resume")?),
            "--inject-faults" => inject_faults = true,
            "--json" => json = Some(value("--json")?),
            "--bench-out" => bench_out = Some(value("--bench-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--no-timing" => include_timing = false,
            "--list" => list = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let mut config = CampaignConfig::for_profile(profile, seed);
    if let Some(s) = sizes {
        config.sizes = s;
    }
    if let Some(t) = tamper {
        config.tamper_trials = t;
    }
    if let Some(a) = adversarial {
        config.adversarial_iterations = a;
    }
    config.scheme_filter = scheme;
    config.family_filter = family;
    config.shard = shard;
    config.cell_budget_ms = cell_budget_ms;
    config.artifact_dir = artifact_dir;
    if warm_artifacts && config.artifact_dir.is_none() {
        return Err("--warm-artifacts requires --artifact-dir".into());
    }
    Ok(Args {
        config,
        churn,
        warm_artifacts,
        churn_steps,
        checkpoint,
        resume,
        inject_faults,
        json,
        bench_out,
        metrics_out,
        include_timing,
        list,
        quiet,
    })
}

/// Writes the `--metrics-out` sidecar (`'-'` for stdout); shared by the
/// static and churn paths. Returns false on an unwritable path.
fn write_metrics_sidecar(path: &str, json: &str) -> bool {
    if path == "-" {
        print!("{json}");
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    } else {
        println!("metrics sidecar written to {path}");
    }
    true
}

/// `2` for failures, `3` for crashed/timed-out-only, `0` otherwise.
fn exit_code(ok: bool, unresolved: usize) -> i32 {
    if !ok {
        2
    } else if unresolved > 0 {
        3
    } else {
        0
    }
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
        let json = report.to_json();
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        } else {
            println!("fault report written to {path}");
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

fn run_churn_mode(args: &Args) -> i32 {
    let steps = args
        .churn_steps
        .unwrap_or_else(|| default_steps(args.config.profile));
    let report = if args.checkpoint.is_some() || args.resume.is_some() {
        match run_churn_campaign_checkpointed(
            &args.config,
            steps,
            args.checkpoint.as_deref(),
            args.resume.as_deref(),
        ) {
            Ok((report, resumed)) => {
                if resumed > 0 {
                    println!(
                        "resumed {resumed} cells from {}",
                        args.resume.as_deref().unwrap_or("?")
                    );
                }
                report
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else {
        run_churn_campaign(&args.config, steps)
    };
    if !args.quiet {
        print_churn_table(&report);
    }
    let shard_note = report
        .shard
        .map_or_else(String::new, |s| format!(", shard {s}"));
    let unresolved = report.unresolved();
    let unresolved_note = if unresolved > 0 {
        format!(", {unresolved} crashed/timed out")
    } else {
        String::new()
    };
    println!(
        "churn campaign: {} cells ({} ran) × {} mutations — {} mismatches{} ({} ms, seed {}{})",
        report.cells.len(),
        report.ran(),
        report.steps,
        report.mismatches(),
        unresolved_note,
        report.wall_ms,
        report.seed,
        shard_note,
    );
    for f in report.failures() {
        eprintln!("FAIL: {f}");
    }
    if let Some(path) = &args.json {
        let json = report.to_json(args.include_timing);
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        } else {
            println!("churn report written to {path}");
        }
    }
    // Like the static campaign, --bench-out is the always-timed
    // per-cell perf series.
    if let Some(path) = &args.bench_out {
        let json = report.to_bench_json();
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        } else {
            println!("bench series written to {path}");
        }
    }
    if let Some(path) = &args.metrics_out {
        if !write_metrics_sidecar(path, &lcp_conformance::metrics::churn_sidecar(&report)) {
            return 1;
        }
    }
    exit_code(report.ok(), report.unresolved())
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

    if args.churn {
        std::process::exit(run_churn_mode(&args));
    }

    let report = if args.checkpoint.is_some() || args.resume.is_some() {
        match run_campaign_checkpointed(
            &args.config,
            args.checkpoint.as_deref(),
            args.resume.as_deref(),
        ) {
            Ok((report, resumed)) => {
                if resumed > 0 {
                    println!(
                        "resumed {resumed} cells from {}",
                        args.resume.as_deref().unwrap_or("?")
                    );
                }
                report
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        run_campaign(&args.config)
    };

    if !args.quiet {
        print_table(&report);
    }
    let shard_note = report
        .shard
        .map_or_else(String::new, |s| format!(", shard {s}"));
    let unresolved = report.unresolved();
    let unresolved_note = if unresolved > 0 {
        format!(", {unresolved} crashed/timed out")
    } else {
        String::new()
    };
    println!(
        "campaign: {} cells — {} passed, {} failed, {} inapplicable{} \
         ({} ms, seed {}{}, skeleton cache {} hits / {} builds)",
        report.cell_count(),
        report.count(CellStatus::Pass),
        report.count(CellStatus::Fail),
        report.count(CellStatus::Skip),
        unresolved_note,
        report.wall_ms,
        report.seed,
        shard_note,
        report.cache_hits,
        report.cache_misses,
    );
    for f in report.failures() {
        eprintln!("FAIL: {f}");
    }

    if let Some(path) = &args.json {
        let json = report.to_json(args.include_timing);
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            println!("report written to {path}");
        }
    }

    // The BENCH-style artifact always carries timings — it is the
    // perf-history series, not the diffable conformance report.
    if let Some(path) = &args.bench_out {
        let json = report.to_bench_json();
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            println!("bench series written to {path}");
        }
    }

    if let Some(path) = &args.metrics_out {
        if !write_metrics_sidecar(path, &lcp_conformance::metrics::static_sidecar(&report)) {
            std::process::exit(1);
        }
    }

    std::process::exit(exit_code(report.ok(), report.unresolved()));
}
