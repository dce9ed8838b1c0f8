//! The daemon's metric catalog (see `docs/OBSERVABILITY.md`).
//!
//! Request handling records into `static` metrics from [`lcp_obs`]:
//! one counter and one latency histogram per protocol op (indexed like
//! [`REQUEST_NAMES`]), queue/backpressure counters around the acceptor,
//! and drain timing around shutdown. The `metrics` op exports the whole
//! process registry — this catalog plus the engine and dynamic catalogs
//! the daemon's work drives — as Prometheus-style text.
//!
//! Like every other catalog in the workspace, these are write-only:
//! nothing in the serve path ever reads a metric, so instrumentation
//! cannot change a response byte.

use crate::protocol::REQUEST_NAMES;
use crate::table::TableStats;
use lcp_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::{Mutex, PoisonError};

/// Requests dispatched, one counter per op (indexed like
/// [`REQUEST_NAMES`]).
pub static REQUESTS: [Counter; REQUEST_NAMES.len()] =
    [const { Counter::new() }; REQUEST_NAMES.len()];
/// Request latency in nanoseconds (parse + dispatch, excluding socket
/// I/O), one histogram per op (indexed like [`REQUEST_NAMES`]).
pub static REQUEST_NS: [Histogram; REQUEST_NAMES.len()] =
    [const { Histogram::new() }; REQUEST_NAMES.len()];
/// Frames that failed to parse into any op (answered with a typed
/// error).
pub static BAD_REQUESTS: Counter = Counter::new();
/// Request dispatches that returned a typed protocol error.
pub static ERROR_RESPONSES: Counter = Counter::new();
/// Connections picked up and served by a worker.
pub static CONNECTIONS: Counter = Counter::new();
/// Accepted connections rejected with the typed busy error because the
/// waiting room was full.
pub static BUSY_REJECTIONS: Counter = Counter::new();
/// Connections sitting in the acceptor's waiting room right now.
pub static QUEUE_DEPTH: Gauge = Gauge::new();
/// Wall time of the last drain in milliseconds (shutdown flag observed
/// to all workers joined).
pub static DRAIN_MS: Gauge = Gauge::new();

/// Resident cells in the instance table (snapshot at export).
pub static RESIDENT_CELLS: Gauge = Gauge::new();
/// Cells loaded since the table was created (snapshot at export).
pub static TABLE_LOADS: Gauge = Gauge::new();
/// Cells evicted since the table was created (snapshot at export).
pub static TABLE_EVICTIONS: Gauge = Gauge::new();
/// Skeleton-cache hits (snapshot at export).
pub static SKELETON_HITS: Gauge = Gauge::new();
/// Skeleton-cache misses — i.e. skeleton (re)builds (snapshot at
/// export).
pub static SKELETON_MISSES: Gauge = Gauge::new();

/// Label strings of the per-op series, kept in lock step with
/// [`REQUEST_NAMES`] (registry labels must be `'static`; a test pins
/// the correspondence).
const OP_LABELS: [&str; REQUEST_NAMES.len()] = [
    "op=\"prepare\"",
    "op=\"verify\"",
    "op=\"tamper-probe\"",
    "op=\"stats\"",
    "op=\"metrics\"",
    "op=\"session-open\"",
    "op=\"mutate\"",
    "op=\"churn\"",
    "op=\"session-close\"",
    "op=\"shutdown\"",
];

/// The index of `op` in [`REQUEST_NAMES`] (present for every parsed
/// [`crate::protocol::Request`]).
pub(crate) fn op_index(op: &str) -> Option<usize> {
    REQUEST_NAMES.iter().position(|&name| name == op)
}

/// The Prometheus text of one `metrics` scrape: copies a point-in-time
/// [`TableStats`] into the export gauges, then renders the whole
/// registry, so the exported text reflects the table at scrape time.
///
/// The gauges are process-wide, so two servers in one process (tests
/// run several) would otherwise interleave and render each other's
/// table; one lock around copy and render keeps every scrape
/// consistent with its own table.
pub(crate) fn scrape(stats: &TableStats) -> String {
    static SCRAPE: Mutex<()> = Mutex::new(());
    let _scrape = SCRAPE.lock().unwrap_or_else(PoisonError::into_inner);
    let clamp = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    RESIDENT_CELLS.set(clamp(stats.resident));
    TABLE_LOADS.set(clamp(stats.loads));
    TABLE_EVICTIONS.set(clamp(stats.evictions));
    SKELETON_HITS.set(clamp(stats.skeleton_hits));
    SKELETON_MISSES.set(clamp(stats.skeleton_misses));
    global_registry().to_prometheus()
}

/// Registers the serve catalog into `reg` (idempotent).
pub fn register(reg: &Registry) {
    for (i, labels) in OP_LABELS.iter().enumerate() {
        reg.counter(
            "lcp_serve_requests_total",
            labels,
            "requests dispatched by op",
            &REQUESTS[i],
        );
        reg.histogram(
            "lcp_serve_request_ns",
            labels,
            "request latency by op in nanoseconds (parse + dispatch)",
            &REQUEST_NS[i],
        );
    }
    reg.counter(
        "lcp_serve_bad_requests_total",
        "",
        "frames that failed to parse into any op",
        &BAD_REQUESTS,
    );
    reg.counter(
        "lcp_serve_error_responses_total",
        "",
        "dispatches that returned a typed protocol error",
        &ERROR_RESPONSES,
    );
    reg.counter(
        "lcp_serve_connections_total",
        "",
        "connections picked up and served by a worker",
        &CONNECTIONS,
    );
    reg.counter(
        "lcp_serve_busy_rejections_total",
        "",
        "connections rejected with the typed busy error",
        &BUSY_REJECTIONS,
    );
    reg.gauge(
        "lcp_serve_queue_depth",
        "",
        "connections waiting for a worker right now",
        &QUEUE_DEPTH,
    );
    reg.gauge(
        "lcp_serve_drain_ms",
        "",
        "wall time of the last drain in milliseconds",
        &DRAIN_MS,
    );
    reg.gauge(
        "lcp_serve_resident_cells",
        "",
        "resident cells in the instance table at export time",
        &RESIDENT_CELLS,
    );
    reg.gauge(
        "lcp_serve_table_loads",
        "",
        "cells loaded since the table was created",
        &TABLE_LOADS,
    );
    reg.gauge(
        "lcp_serve_table_evictions",
        "",
        "cells evicted since the table was created",
        &TABLE_EVICTIONS,
    );
    reg.gauge(
        "lcp_serve_skeleton_hits",
        "",
        "skeleton-cache hits at export time",
        &SKELETON_HITS,
    );
    reg.gauge(
        "lcp_serve_skeleton_misses",
        "",
        "skeleton-cache misses (skeleton builds) at export time",
        &SKELETON_MISSES,
    );
}

/// The process-wide registry with every catalog the daemon drives
/// registered: serve itself, the core engine/harness/batch/deadline
/// catalog, and the dynamic reverification catalog.
pub fn global_registry() -> &'static Registry {
    let reg = lcp_obs::global();
    lcp_core::metrics::register(reg);
    lcp_dynamic::metrics::register(reg);
    register(reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_labels_mirror_request_names() {
        for (label, name) in OP_LABELS.iter().zip(REQUEST_NAMES) {
            assert_eq!(*label, format!("op={name:?}"));
        }
    }

    #[test]
    fn every_op_resolves_to_its_own_index() {
        for (i, name) in REQUEST_NAMES.iter().enumerate() {
            assert_eq!(op_index(name), Some(i));
        }
        assert_eq!(op_index("frobnicate"), None);
    }
}
