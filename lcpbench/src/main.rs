//! The repository's benchmark: the `lcp-serve` daemon and the
//! conformance campaign, measured end to end, with a separate traced run
//! that times each layer's public functions from outside.
//!
//! ```text
//! lcpbench --workload serve-resident|serve-cold|campaign
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a readable report goes to
//! standard error. See `README.md` beside this crate for the workloads
//! and the metric → layer → end-to-end map.

mod campaign;
mod daemon;
mod layers;
mod serve;
mod util;

use crate::util::{median, percentile};
use std::process::ExitCode;

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeResident,
    ServeCold,
    Campaign,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-resident" => Some(Workload::ServeResident),
            "serve-cold" => Some(Workload::ServeCold),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    /// The workload's own names for the `main_*` and `side_*` streams,
    /// with the factor from milliseconds to the named unit.
    fn stream_names(self) -> [(&'static str, &'static str, f64); 2] {
        match self {
            Workload::ServeResident => [("verify", "ms", 1.0), ("mutate", "us", 1e3)],
            Workload::ServeCold => [("load_1e4", "ms", 1.0), ("load_1e5", "ms", 1.0)],
            Workload::Campaign => [("static_wall", "s", 1e-3), ("churn_wall", "s", 1e-3)],
        }
    }

    fn measure(
        self,
        seed: u64,
        seconds: f64,
        setup_reps: usize,
        traced: bool,
    ) -> Result<Run, String> {
        match self {
            Workload::ServeResident => serve::resident(seed, seconds, setup_reps, traced),
            Workload::ServeCold => serve::cold(seed, seconds, setup_reps, traced),
            Workload::Campaign => campaign::campaign(seed, seconds, setup_reps),
        }
    }
}

/// One closed-loop stream of operations: latencies in ms, kept apart
/// per class (one cell of a rotation, one mutation kind, one kind of
/// campaign pass), plus the wrong answers.
#[derive(Default)]
pub struct Stream {
    pub classes: Vec<Vec<f64>>,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Stream {
    pub fn record(&mut self, class: usize, ms: f64) {
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        self.classes[class].push(ms);
    }

    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    pub fn count(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// The mean over classes of each class's `p`-th percentile, so every
    /// class weighs the same whatever the mix of one run. (A percentile
    /// of the pooled samples would jump between the classes' modes.)
    pub fn percentile(&self, p: f64) -> f64 {
        let per_class: Vec<f64> = self
            .classes
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| percentile(c, p))
            .collect();
        per_class.iter().sum::<f64>() / per_class.len() as f64
    }
}

/// What one measured run of a workload produced.
#[derive(Default)]
pub struct Run {
    /// Seconds per timed set-up.
    pub setup_s: Vec<f64>,
    /// The workload's main stream.
    pub main: Stream,
    /// The workload's side stream.
    pub side: Stream,
    /// Peak resident set of the serving or campaign process.
    pub peak_rss_mb: f64,
    /// Operations attempted (requests, or campaign cells).
    pub attempted: u64,
    /// Broken guards.
    pub problems: Vec<String>,
}

impl Run {
    /// Wrong or failed operations.
    fn failed(&self) -> u64 {
        self.main.failed + self.side.failed
    }

    fn problems(&self) -> Vec<String> {
        let mut all = self.problems.clone();
        all.extend(self.main.first_error.clone());
        all.extend(self.side.first_error.clone());
        all
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Each stream
    /// reports its fastest latency (`min`) beside p90, not the median:
    /// the shared host slows whole stretches of a run, and the median
    /// (or p10) sat in the fast or the slow stretches depending on their
    /// share of the run (see `README.md`).
    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("main_min_ms".into(), self.main.percentile(0.0), "ms"),
            ("main_p90_ms".into(), self.main.percentile(90.0), "ms"),
            ("side_min_ms".into(), self.side.percentile(0.0), "ms"),
            ("side_p90_ms".into(), self.side.percentile(90.0), "ms"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MB"),
        ]
    }

    /// The readable report, in the workload's own metric names.
    fn report(&self, workload: Workload) -> String {
        let mut out = format!(
            "  setup_s            {:>12.4} s   (median of {})\n",
            median(&self.setup_s),
            self.setup_s.len()
        );
        for ((name, unit, factor), stream) in
            workload.stream_names().iter().zip([&self.main, &self.side])
        {
            for (p, label) in [(0.0, "min"), (50.0, "p50"), (90.0, "p90")] {
                out += &format!(
                    "  {:<18} {:>12.4} {unit:<3} ({} samples in {} classes)\n",
                    format!("{name}_{label}"),
                    stream.percentile(p) * factor,
                    stream.count(),
                    stream.classes.len()
                );
            }
        }
        out += &format!("  peak_rss_mb        {:>12.1} MB\n", self.peak_rss_mb);
        out += &format!(
            "  failed_ops_frac    {:>12} ratio ({} of {})\n",
            self.failed() as f64 / self.attempted.max(1) as f64,
            self.failed(),
            self.attempted
        );
        for p in self.problems() {
            out += &format!("  PROBLEM: {p}\n");
        }
        out
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: lcpbench --workload serve-resident|serve-cold|campaign \
--seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}");
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    if !args.trace {
        let run = w.measure(args.seed, args.seconds, SETUP_REPS, false)?;
        eprint!("{}", run.report(w));
        let correct = run.failed() == 0 && run.problems().is_empty();
        print_result(correct, run.attempted.max(1), run.failed(), &run.metrics());
        return Ok(());
    }

    // Traced run: the workload untraced, the layer replay, then the
    // workload traced. For the campaign the traced passes are the
    // replay's own timed static and churn passes.
    let half = args.seconds / 2.0;
    let untraced = w.measure(args.seed, half, 1, false)?;
    let replay = layers::replay(args.seed)?;
    let traced = match w {
        Workload::Campaign => {
            let mut traced = Run::default();
            traced.main.record(0, replay.static_wall_ms);
            traced.side.record(0, replay.churn_wall_ms);
            traced
        }
        _ => w.measure(args.seed, half, 1, true)?,
    };
    eprint!(
        "untraced:\n{}traced:\n{}",
        untraced.report(w),
        traced.report(w)
    );
    let mut metrics = replay.metrics;
    let (u, t) = (untraced.metrics(), traced.metrics());
    for ((name, u, unit), (_, t, _)) in u.iter().zip(&t) {
        if name.ends_with("_ms") {
            metrics.push((format!("overhead.{name}"), t - u, unit));
        }
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    let failed = untraced.failed() + traced.failed() + replay.failed;
    let mut problems = untraced.problems();
    problems.extend(traced.problems());
    problems.extend(replay.problems);
    for p in &problems {
        eprintln!("  PROBLEM: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    let attempted = untraced.attempted + traced.attempted + replay.attempted;
    print_result(correct, attempted.max(1), failed, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return daemon::serve_main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lcpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // The result line carries the verdict, `correct` included.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcpbench: {e}");
            ExitCode::FAILURE
        }
    }
}
