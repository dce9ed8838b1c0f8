//! The engine/harness/batch metric catalog (see `docs/OBSERVABILITY.md`).
//!
//! Every metric is a `static` from [`lcp_obs`], incremented behind
//! cheap relaxed atomics — hot loops accumulate in locals and flush one
//! `add` at their exit, so the per-candidate steady state stays exactly
//! as allocation- and contention-free as before instrumentation
//! (`tests/alloc_probe.rs` pins this). Nothing in the engine ever
//! *reads* a metric: observability is write-only and cannot perturb
//! verdicts, RNG streams, or report bytes.
//!
//! [`register`] publishes the catalog into a [`lcp_obs::Registry`]
//! (idempotently); exporters call it before rendering.

use lcp_obs::{Counter, Histogram, Registry};

/// `PreparedInstance` skeleton builds (one per `(instance, radius)`).
pub static PREPARES: Counter = Counter::new();
/// Wall time of each skeleton build, nanoseconds.
pub static PREPARE_NS: Histogram = Histogram::new();
/// Whole-instance verifier sweeps that ran to the end
/// (`PreparedInstance::evaluate`).
pub static EVALUATE_SWEEPS: Counter = Counter::new();
/// Wall time of each whole-instance sweep, nanoseconds.
pub static EVALUATE_NS: Histogram = Histogram::new();
/// Prover runs in the type-erased layer: a resident `DynScheme`'s one
/// honest-proof fill, every explicit `DynScheme::prove`, and a mutable
/// cell's starting or `prove_now` proof.
pub static PROVES: Counter = Counter::new();
/// Wall time of each of those prover runs, nanoseconds.
pub static PROVE_NS: Histogram = Histogram::new();
/// View bindings performed by the sweeps and search loops (aggregated
/// at loop exits, never per candidate).
pub static BINDS: Counter = Counter::new();

/// `SkeletonCache` lookups that reused a cached CSR build.
pub static SKELETON_CACHE_HITS: Counter = Counter::new();
/// `SkeletonCache` lookups that built (and inserted) a fresh skeleton.
pub static SKELETON_CACHE_MISSES: Counter = Counter::new();
/// Wall time of each `(instance, radius)` fingerprint computation,
/// nanoseconds — once per sealed cell on a caching source.
pub static IDENTITY_NS: Histogram = Histogram::new();

/// Frozen cores served from on-disk artifact files (mmap or read).
pub static ARTIFACT_LOADS: Counter = Counter::new();
/// Frozen cores rendered and persisted as artifact files.
pub static ARTIFACT_WRITES: Counter = Counter::new();
/// Artifact files rejected by validation (corrupt, truncated, version-
/// or fingerprint-skewed) and rebuilt from scratch.
pub static ARTIFACT_REJECTS: Counter = Counter::new();

/// Candidate proofs enumerated by the exhaustive odometers (scalar and
/// block), counted at search exit.
pub static EXHAUSTIVE_CANDIDATES: Counter = Counter::new();
/// Bit-flip iterations executed by the adversarial searches, counted at
/// search exit.
pub static ADVERSARIAL_STEPS: Counter = Counter::new();
/// Always 0: the exhaustive search keeps no verifier-output memo. Kept
/// because the benchmark's layer table reads it; drop it with that
/// reader.
pub static MEMO_HITS: Counter = Counter::new();
/// Always 0, like [`MEMO_HITS`].
pub static MEMO_MISSES: Counter = Counter::new();

/// Exhaustive searches routed through the 64-lane block odometer.
pub static EXHAUSTIVE_BATCHED: Counter = Counter::new();
/// Exhaustive searches that ran the scalar odometer (policy `Scalar`
/// only).
pub static EXHAUSTIVE_SCALAR: Counter = Counter::new();
/// Always 0: the adversarial search has one loop. Kept because the
/// benchmark's layer table reads it; drop it with that reader.
pub static ADVERSARIAL_BATCHED: Counter = Counter::new();
/// Adversarial searches run (all take the one bit-flip loop).
pub static ADVERSARIAL_SCALAR: Counter = Counter::new();
/// Always 0: every mask-table slot is filled by spread scalar verifier
/// calls. Kept because the benchmark's layer table reads it; drop it
/// with that reader.
pub static MASK_FILLS_KERNEL: Counter = Counter::new();
/// Block-odometer mask-table slots filled by spread scalar verifier
/// calls.
pub static MASK_FILLS_SCALAR: Counter = Counter::new();

/// Bounded-deadline wall-clock checks actually performed (the strided
/// `expired()` reads; unbounded tokens never count).
pub static DEADLINE_POLLS: Counter = Counter::new();
/// Deadlines observed expired (once per token, however often it is
/// re-polled afterwards).
pub static DEADLINE_EXPIRATIONS: Counter = Counter::new();

/// Registers the whole core catalog into `reg` (idempotent).
pub fn register(reg: &Registry) {
    reg.counter(
        "lcp_engine_prepares_total",
        "",
        "PreparedInstance skeleton builds",
        &PREPARES,
    );
    reg.histogram(
        "lcp_engine_prepare_ns",
        "",
        "skeleton build wall time in nanoseconds",
        &PREPARE_NS,
    );
    reg.counter(
        "lcp_engine_evaluate_sweeps_total",
        "",
        "whole-instance verifier sweeps",
        &EVALUATE_SWEEPS,
    );
    reg.histogram(
        "lcp_engine_evaluate_ns",
        "",
        "whole-instance sweep wall time in nanoseconds",
        &EVALUATE_NS,
    );
    reg.counter(
        "lcp_engine_proves_total",
        "",
        "prover runs (resident proof fills and explicit prove calls)",
        &PROVES,
    );
    reg.histogram(
        "lcp_engine_prove_ns",
        "",
        "prover wall time in nanoseconds",
        &PROVE_NS,
    );
    reg.counter(
        "lcp_engine_binds_total",
        "",
        "view bindings, aggregated at loop exits",
        &BINDS,
    );
    reg.counter(
        "lcp_engine_skeleton_cache_total",
        "outcome=\"hit\"",
        "SkeletonCache lookups by outcome",
        &SKELETON_CACHE_HITS,
    );
    reg.counter(
        "lcp_engine_skeleton_cache_total",
        "outcome=\"miss\"",
        "SkeletonCache lookups by outcome",
        &SKELETON_CACHE_MISSES,
    );
    reg.histogram(
        "lcp_core_identity_ns",
        "",
        "instance fingerprint (identity pass) wall time in nanoseconds",
        &IDENTITY_NS,
    );
    reg.counter(
        "lcp_engine_artifact_loads_total",
        "",
        "frozen cores served from on-disk artifact files",
        &ARTIFACT_LOADS,
    );
    reg.counter(
        "lcp_engine_artifact_writes_total",
        "",
        "frozen cores persisted as artifact files",
        &ARTIFACT_WRITES,
    );
    reg.counter(
        "lcp_engine_artifact_rejects_total",
        "",
        "artifact files rejected by validation and rebuilt",
        &ARTIFACT_REJECTS,
    );
    reg.counter(
        "lcp_harness_exhaustive_candidates_total",
        "",
        "candidate proofs enumerated by the exhaustive searches",
        &EXHAUSTIVE_CANDIDATES,
    );
    reg.counter(
        "lcp_harness_adversarial_steps_total",
        "",
        "bit-flip iterations executed by the adversarial searches",
        &ADVERSARIAL_STEPS,
    );
    reg.counter(
        "lcp_harness_memo_total",
        "outcome=\"hit\"",
        "verifier-output memo lookups by outcome (always 0)",
        &MEMO_HITS,
    );
    reg.counter(
        "lcp_harness_memo_total",
        "outcome=\"miss\"",
        "verifier-output memo lookups by outcome (always 0)",
        &MEMO_MISSES,
    );
    reg.counter(
        "lcp_batch_exhaustive_routed_total",
        "path=\"batched\"",
        "exhaustive searches by routing decision",
        &EXHAUSTIVE_BATCHED,
    );
    reg.counter(
        "lcp_batch_exhaustive_routed_total",
        "path=\"scalar\"",
        "exhaustive searches by routing decision",
        &EXHAUSTIVE_SCALAR,
    );
    reg.counter(
        "lcp_batch_adversarial_routed_total",
        "path=\"batched\"",
        "adversarial searches by routing decision",
        &ADVERSARIAL_BATCHED,
    );
    reg.counter(
        "lcp_batch_adversarial_routed_total",
        "path=\"scalar\"",
        "adversarial searches by routing decision",
        &ADVERSARIAL_SCALAR,
    );
    reg.counter(
        "lcp_batch_mask_fills_total",
        "path=\"kernel\"",
        "block-odometer mask-table fills by path",
        &MASK_FILLS_KERNEL,
    );
    reg.counter(
        "lcp_batch_mask_fills_total",
        "path=\"scalar\"",
        "block-odometer mask-table fills by path",
        &MASK_FILLS_SCALAR,
    );
    reg.counter(
        "lcp_deadline_polls_total",
        "",
        "bounded-deadline wall-clock checks performed",
        &DEADLINE_POLLS,
    );
    reg.counter(
        "lcp_deadline_expirations_total",
        "",
        "deadline tokens observed expired (once per token)",
        &DEADLINE_EXPIRATIONS,
    );
}
