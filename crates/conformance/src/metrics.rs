//! The campaign-level metric catalog plus the `--metrics-out` sidecar
//! (see `docs/OBSERVABILITY.md`).
//!
//! Same write-only discipline as `lcp_core::metrics`: counters are
//! bumped at cell boundaries (never inside a search loop) and nothing
//! here is ever read back by the runner, so metrics cannot perturb
//! verdicts, reports, checkpoints, or RNG streams. The sidecar is a
//! separate artifact — `report.json` and checkpoint files never embed
//! it.

use crate::{json_opt, json_str, push_rows, CampaignReport, CellStatus};
use lcp_obs::{Counter, Histogram, Registry, SpanId};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Cells actually executed by this process (resumed cells excluded).
pub static CELLS_RUN: Counter = Counter::new();
/// Cells recovered from a `--resume` checkpoint instead of being run.
pub static CELLS_RESUMED: Counter = Counter::new();
/// Cells whose both attempts panicked (the `crashed` verdict).
pub static CELLS_CRASHED: Counter = Counter::new();
/// Cells that expired their `--cell-budget-ms` wall budget.
pub static CELLS_TIMED_OUT: Counter = Counter::new();
/// First attempts that panicked but whose same-seed retry succeeded.
pub static FLAKE_RETRIES: Counter = Counter::new();
/// Wall time per executed cell, milliseconds (both campaign modes; a
/// churn cell observes its incremental + from-scratch total).
pub static CELL_WALL_MS: Histogram = Histogram::new();

/// Registers the campaign catalog into `reg` (idempotent).
pub fn register(reg: &Registry) {
    reg.counter(
        "lcp_campaign_cells_run_total",
        "",
        "matrix cells executed (resumed cells excluded)",
        &CELLS_RUN,
    );
    reg.counter(
        "lcp_campaign_cells_resumed_total",
        "",
        "matrix cells recovered from a --resume checkpoint",
        &CELLS_RESUMED,
    );
    reg.counter(
        "lcp_campaign_cells_crashed_total",
        "",
        "cells whose both attempts panicked",
        &CELLS_CRASHED,
    );
    reg.counter(
        "lcp_campaign_cells_timed_out_total",
        "",
        "cells that expired their wall budget",
        &CELLS_TIMED_OUT,
    );
    reg.counter(
        "lcp_campaign_flake_retries_total",
        "",
        "panicking first attempts recovered by a same-seed retry",
        &FLAKE_RETRIES,
    );
    reg.histogram(
        "lcp_campaign_cell_wall_ms",
        "",
        "wall time per executed cell in milliseconds",
        &CELL_WALL_MS,
    );
}

/// Records one freshly executed cell (either campaign mode).
pub(crate) fn record_cell(status: CellStatus, wall_ms: u128) {
    CELLS_RUN.inc();
    CELL_WALL_MS.observe(wall_ms.min(u64::MAX as u128) as u64);
    match status {
        CellStatus::Crashed => CELLS_CRASHED.inc(),
        CellStatus::TimedOut => CELLS_TIMED_OUT.inc(),
        _ => {}
    }
}

/// The campaign span: wall time of each whole campaign run (static or
/// churn), the root of the span hierarchy.
pub(crate) fn campaign_span() -> SpanId {
    static ID: OnceLock<SpanId> = OnceLock::new();
    *ID.get_or_init(|| lcp_obs::register_span("lcp_span_campaign", None))
}

/// Per-cell child span of [`campaign_span`]: wall time of each freshly
/// executed static cell (isolation, retries, and checkpoint append
/// included).
pub(crate) fn cell_span() -> SpanId {
    static ID: OnceLock<SpanId> = OnceLock::new();
    *ID.get_or_init(|| lcp_obs::register_span("lcp_span_campaign_cell", Some(campaign_span())))
}

/// Per-cell child span of [`campaign_span`] for churn-campaign cells.
pub(crate) fn churn_cell_span() -> SpanId {
    static ID: OnceLock<SpanId> = OnceLock::new();
    *ID.get_or_init(|| lcp_obs::register_span("lcp_span_churn_cell", Some(campaign_span())))
}

/// The process-wide registry with every catalog the campaign touches
/// registered: engine/harness/batch/deadline (`lcp_core::metrics`),
/// the dynamic layer (`lcp_dynamic::metrics`), and this module.
pub fn global_registry() -> &'static Registry {
    let reg = lcp_obs::global();
    lcp_core::metrics::register(reg);
    lcp_dynamic::metrics::register(reg);
    register(reg);
    reg
}

/// The `--metrics-out` sidecar: identity fields tying it to the
/// campaign, then per-cell phase and wall time — a static cell's phase
/// is its check, a churn cell is one `churn` phase with its
/// incremental-vs-full split, and timed-out cells also carry their
/// deadline-poll count — then the full registry export, embedded
/// verbatim (re-indented) so one artifact carries both the per-cell
/// breakdown and every process-wide counter/histogram. Always timed;
/// this artifact is never diffed for determinism.
pub fn sidecar(report: &CampaignReport) -> String {
    let polls = |timeout: Option<(&str, u64)>| json_opt(timeout.map(|(_, polls)| polls));
    let (mode, seed, profile, wall_ms, rows): (_, _, _, _, Vec<String>) = match report {
        CampaignReport::Static(r) => {
            let cells = r.schemes.iter().flat_map(|s| &s.cells);
            let rows = cells.map(|c| {
                format!(
                    "    {{ \"coord\": {}, \"scheme\": {}, \"family\": {}, \"n\": {}, \
                     \"polarity\": {}, \"phase\": {}, \"status\": {}, \"wall_ms\": {}, \
                     \"deadline_polls\": {} }}",
                    c.coord,
                    json_str(c.scheme),
                    json_str(c.family.name()),
                    c.n,
                    json_str(c.polarity.name()),
                    json_str(c.check),
                    json_str(c.status.name()),
                    c.wall_ms,
                    polls(c.timeout),
                )
            });
            ("static", r.seed, r.profile, r.wall_ms, rows.collect())
        }
        CampaignReport::Churn(r) => {
            let rows = r.cells.iter().map(|c| {
                format!(
                    "    {{ \"coord\": {}, \"scheme\": {}, \"family\": {}, \"n\": {}, \
                     \"polarity\": {}, \"phase\": \"churn\", \"status\": {}, \"steps\": {}, \
                     \"checks\": {}, \"incremental_ms\": {}, \"full_ms\": {}, \
                     \"deadline_polls\": {} }}",
                    c.coord,
                    json_str(c.scheme),
                    json_str(c.family.name()),
                    c.n,
                    json_str(c.polarity.name()),
                    json_str(c.status.name()),
                    c.steps,
                    c.checks,
                    c.incremental_ms,
                    c.full_ms,
                    polls(c.timeout),
                )
            });
            ("churn", r.seed, r.profile, r.wall_ms, rows.collect())
        }
    };
    let mut w = String::with_capacity(1 << 14);
    w.push_str("{\n");
    let _ = writeln!(w, "  \"metrics\": 1,");
    let _ = writeln!(w, "  \"mode\": {},", json_str(mode));
    let _ = writeln!(w, "  \"seed\": {seed},");
    let _ = writeln!(w, "  \"profile\": {},", json_str(profile));
    let _ = writeln!(w, "  \"wall_ms\": {wall_ms},");
    w.push_str("  \"per_cell\": [\n");
    push_rows(&mut w, rows.into_iter());
    w.push_str("  ],\n");
    let registry = global_registry().to_json();
    let _ = write!(
        w,
        "  \"registry\": {}\n}}\n",
        registry.trim_end().replace('\n', "\n  ")
    );
    w
}
