//! # `lcp-conformance` — the seeded conformance campaign
//!
//! Table 1 of the paper is a *matrix*: every scheme against every graph
//! class with a claimed proof-size bound. This crate makes that matrix
//! executable: it sweeps every entry of the scheme registry
//! ([`lcp_schemes::registry`], extended with `lcp-logic`'s Σ¹₁ scheme)
//! across a seeded grid of graph families, sizes, and polarities, and on
//! each cell runs
//!
//! * **completeness** on yes-instances (honest proof accepted
//!   everywhere, size recorded),
//! * **bounded exhaustive soundness** on small no-instances (every
//!   proof up to the bit budget rejected somewhere),
//! * **adversarial bit-flip probing** — seeded hill-climbing proof
//!   search on larger no-instances, and single-bit tamper probes
//!   against honest proofs,
//! * **measured-vs-claimed proof size**: per scheme, the `(n, bits)`
//!   points of the yes cells are fitted with
//!   [`lcp_core::harness::classify_growth`] and compared against the
//!   paper's claimed bound (an upper bound: measuring *smaller* passes).
//!
//! Everything runs on the cached-view engine through the type-erased
//! [`DynScheme`] layer, and the cells fan out across cores. The report
//! is deterministic in the configuration: cells carry their own seeds
//! (derived from the campaign seed and the cell coordinates), results
//! are reassembled in matrix order, and [`Report::to_json`] with
//! `include_timing = false` is byte-identical across runs, machines, and
//! thread schedules — the property CI and the determinism test pin.

pub mod checkpoint;
pub mod churn;
pub mod metrics;

use checkpoint::{CheckpointError, Progress};
use churn::ChurnReport;
use lcp_core::dynamic::{DynScheme, TamperProbe};
use lcp_core::harness::{
    classify_growth, CompletenessError, GrowthClass, SizePoint, Soundness, SoundnessError,
};
use lcp_core::json::Json;
use lcp_core::{ArtifactSource, ArtifactStore, CoreProvenance, Deadline, Scheme, SkeletonCache};
use lcp_graph::families::GraphFamily;
use lcp_logic::{formulas, Sigma11Scheme};
use lcp_obs::SpanId;
use lcp_schemes::registry::{self, CellRequest, Polarity, SchemeEntry};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Registry (lcp-schemes + out-of-crate schemes)
// ---------------------------------------------------------------------

fn b_sigma11(req: &CellRequest) -> Option<DynScheme> {
    use GraphFamily::*;
    if !matches!(req.family, Path | Cycle | Grid | Tree) {
        return None;
    }
    // Every connected graph has an independent dominating set (any
    // maximal independent set), so the property has no no-instances
    // inside the connected promise.
    match req.polarity {
        Polarity::Yes => {
            let g = req.family.generate(req.n, req.seed);
            let scheme = Sigma11Scheme::new(formulas::independent_dominating_set(), |g| {
                formulas::independent_dominating_witness(g)
            });
            Some(DynScheme::seal(scheme, lcp_core::Instance::unlabeled(g)))
        }
        Polarity::No => None,
    }
}

/// The campaign's scheme registry: everything in
/// [`lcp_schemes::registry::all`] plus the Σ¹₁ scheme from `lcp-logic`.
pub fn campaign_registry() -> Vec<SchemeEntry> {
    let mut entries = registry::all();
    let sigma_radius = Sigma11Scheme::new(formulas::independent_dominating_set(), |g| {
        formulas::independent_dominating_witness(g)
    })
    .radius();
    entries.push(SchemeEntry {
        id: "sigma11-independent-dominating",
        title: "monadic Σ¹₁ (indep. dominating)",
        paper_row: "1(a) §7.5",
        claimed_bound: "O(log n)",
        claimed_growth: GrowthClass::Logarithmic,
        families: &[
            GraphFamily::Path,
            GraphFamily::Cycle,
            GraphFamily::Grid,
            GraphFamily::Tree,
        ],
        radius: sigma_radius,
        max_n: 32,
        fit_max_n: None,
        builder: b_sigma11,
    });
    entries
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Preset campaign sizes and budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The CI profile: small sizes, modest budgets, < 1 min.
    Smoke,
    /// The nightly profile: wider size spread, deeper adversarial
    /// searches.
    Full,
    /// Table 1: yes cells only, from n = 8 to 512, each entry clamped at
    /// its [`SchemeEntry::fit_cap`] so every row gets a fitted growth
    /// class. It checks completeness and measures honest proof sizes;
    /// soundness is left to `smoke` and `full`.
    Table1,
}

impl Profile {
    /// Stable name for reports and `--profile`.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
            Profile::Table1 => "table1",
        }
    }

    /// Parses a [`Self::name`].
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "smoke" => Some(Profile::Smoke),
            "full" => Some(Profile::Full),
            "table1" => Some(Profile::Table1),
            _ => None,
        }
    }

    /// The polarities whose cells the profile enumerates.
    fn polarities(self) -> &'static [Polarity] {
        match self {
            Profile::Table1 => &[Polarity::Yes],
            Profile::Smoke | Profile::Full => &[Polarity::Yes, Polarity::No],
        }
    }

    /// The size `entry`'s cells are clamped at under this profile.
    pub(crate) fn cap(self, entry: &SchemeEntry) -> usize {
        match self {
            Profile::Table1 => entry.fit_cap(),
            Profile::Smoke | Profile::Full => entry.max_n,
        }
    }
}

/// One shard of a horizontally split campaign: this process runs the
/// matrix cells whose global coordinate is ≡ `index` (mod `count`).
///
/// The partition is over the *shared* coordinate enumeration (identical
/// for static and churn campaigns), and cell seeds depend only on cell
/// coordinates, so an unsharded run resuming every shard's checkpoint
/// reassembles a report byte-identical to the unsharded one (modulo
/// timing) — the invariant the sharding test suite pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/N` (e.g. `--shard 2/4`); `i < N`, `N ≥ 1`.
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let shard = Shard {
            index: i.parse().ok()?,
            count: n.parse().ok()?,
        };
        (shard.count >= 1 && shard.index < shard.count).then_some(shard)
    }

    /// Whether the globally `index`-th matrix cell belongs to this shard
    /// (round-robin: balances the expensive large-`n` cells, which are
    /// adjacent in the enumeration, across shards).
    pub fn owns(self, coord_index: usize) -> bool {
        coord_index % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A fully resolved campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign seed; every cell derives its own stream from this plus
    /// its matrix coordinates.
    pub seed: u64,
    /// The profile the defaults came from (recorded in the report).
    pub profile: Profile,
    /// Instance sizes per scheme (clamped by each entry's `max_n`).
    pub sizes: Vec<usize>,
    /// Single-bit tamper trials per yes cell.
    pub tamper_trials: usize,
    /// Hill-climbing steps per adversarial soundness cell.
    pub adversarial_iterations: usize,
    /// Largest proof space (number of candidate proofs) the exhaustive
    /// soundness check may enumerate; bigger no-cells fall back to the
    /// adversarial search.
    pub exhaustive_limit: u128,
    /// Restrict to one scheme id (CLI `--scheme`).
    pub scheme_filter: Option<String>,
    /// Restrict to one family (CLI `--family`).
    pub family_filter: Option<GraphFamily>,
    /// Run only this shard of the matrix (CLI `--shard i/N`); `None`
    /// runs everything.
    pub shard: Option<Shard>,
    /// Wall budget per cell, in milliseconds (CLI `--cell-budget-ms`);
    /// `None` — the default in every profile — leaves cells unbounded
    /// and keeps reports byte-identical to budget-unaware builds. With a
    /// budget, a cell whose checks exceed it degrades to a `timed_out`
    /// verdict instead of hanging its shard.
    pub cell_budget_ms: Option<u64>,
    /// Directory of persistent skeleton artifacts (CLI `--artifact-dir`).
    /// When set, cells prepare through a two-tier
    /// [`lcp_core::ArtifactStore`] instead of the plain in-process
    /// cache: cores already on disk are mapped in, fresh builds are
    /// persisted for later shards and processes. Reports are
    /// byte-identical with and without it — only cold-start time moves.
    pub artifact_dir: Option<std::path::PathBuf>,
}

impl CampaignConfig {
    /// The defaults for `profile` with the given seed.
    pub fn for_profile(profile: Profile, seed: u64) -> CampaignConfig {
        match profile {
            Profile::Smoke => CampaignConfig {
                seed,
                profile,
                sizes: vec![8, 16, 32],
                tamper_trials: 8,
                adversarial_iterations: 400,
                exhaustive_limit: 100_000,
                scheme_filter: None,
                family_filter: None,
                shard: None,
                cell_budget_ms: None,
                artifact_dir: None,
            },
            Profile::Full => CampaignConfig {
                seed,
                profile,
                sizes: vec![8, 16, 32, 64],
                tamper_trials: 32,
                adversarial_iterations: 2_000,
                exhaustive_limit: 5_000_000,
                scheme_filter: None,
                family_filter: None,
                shard: None,
                cell_budget_ms: None,
                artifact_dir: None,
            },
            Profile::Table1 => CampaignConfig {
                sizes: vec![8, 16, 32, 64, 128, 256, 512],
                profile,
                ..CampaignConfig::for_profile(Profile::Smoke, seed)
            },
        }
    }

    /// The per-cell wall budget as a deadline starting now (unbounded
    /// without `--cell-budget-ms`).
    pub(crate) fn cell_deadline(&self) -> Deadline {
        self.cell_budget_ms.map_or_else(Deadline::none, |ms| {
            Deadline::after(Duration::from_millis(ms))
        })
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Verdict of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// The applicable check succeeded.
    Pass,
    /// Completeness failed or a soundness violation was found.
    Fail,
    /// The `(family, polarity)` combination is inapplicable to the
    /// scheme.
    Skip,
    /// The cell panicked (both the first attempt and its same-seed
    /// retry); the panic payload is in the detail. Crashed cells keep
    /// the rest of the campaign running and exit with code 3, not 2 —
    /// a crash is an infrastructure defect, not a conformance verdict.
    Crashed,
    /// The cell exceeded its wall budget (`--cell-budget-ms`) and its
    /// checks stopped cooperatively before reaching a verdict.
    TimedOut,
}

impl CellStatus {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Pass => "pass",
            CellStatus::Fail => "fail",
            CellStatus::Skip => "skip",
            CellStatus::Crashed => "crashed",
            CellStatus::TimedOut => "timed_out",
        }
    }
}

/// One `(scheme, family, size, polarity)` cell of the campaign matrix.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Global index of this cell in the shared matrix enumeration —
    /// stable across sharding, what resume splices cells back in by.
    pub coord: usize,
    /// Registry id of the scheme.
    pub scheme: &'static str,
    /// Graph family the instance came from.
    pub family: GraphFamily,
    /// Requested size (pre-clamping/rounding).
    pub requested_n: usize,
    /// Actual `n(G)` of the built instance (0 for skipped cells).
    pub n: usize,
    /// The builder's intent; ground truth may differ (see `holds`).
    pub polarity: Polarity,
    /// Ground truth of the built instance.
    pub holds: bool,
    /// Verdict.
    pub status: CellStatus,
    /// Which check ran: `completeness`, `soundness-exhaustive`,
    /// `soundness-adversarial`, or `inapplicable`.
    pub check: &'static str,
    /// Honest proof size in bits per node (yes cells).
    pub proof_bits: Option<usize>,
    /// A witness node: first rejector on a completeness failure, or the
    /// tamper probe's rejecting node.
    pub witness_node: Option<usize>,
    /// Tamper probe outcome (yes cells with proof bits).
    pub tamper: Option<TamperProbe>,
    /// Deterministic human-readable detail.
    pub detail: String,
    /// Timed-out cells only: the phase the wall budget expired in and
    /// the cell's deadline-poll count at that moment. Rendered into the
    /// `detail` field of the **timed** report only (poll counts are
    /// wall-clock-dependent, like `wall_ms`), so the deterministic
    /// `--no-timing` bytes never move.
    pub timeout: Option<(&'static str, u64)>,
    /// Wall time of the cell (excluded from deterministic JSON).
    pub wall_ms: u128,
}

impl CellResult {
    /// A cell that reached no check: skipped, or crashed in isolation.
    fn unrun(
        entry: &SchemeEntry,
        coord: &Coord,
        status: CellStatus,
        check: &'static str,
        detail: String,
    ) -> CellResult {
        CellResult {
            coord: coord.index,
            scheme: entry.id,
            family: coord.family,
            requested_n: coord.n,
            n: 0,
            polarity: coord.polarity,
            holds: false,
            status,
            check,
            proof_bits: None,
            witness_node: None,
            tamper: None,
            detail,
            timeout: None,
            wall_ms: 0,
        }
    }
}

/// Per-scheme aggregation: all cells plus the measured-vs-claimed
/// proof-size comparison.
#[derive(Clone, Debug)]
pub struct SchemeReport {
    /// Registry id.
    pub id: &'static str,
    /// Human-readable property / problem name.
    pub title: &'static str,
    /// Paper row reference.
    pub paper_row: &'static str,
    /// Claimed bound, verbatim.
    pub claimed_bound: &'static str,
    /// Claimed bound as a growth class.
    pub claimed_growth: GrowthClass,
    /// Measured `(n, bits)` points from the accepted yes cells.
    pub points: Vec<SizePoint>,
    /// Fitted growth class, when enough spread was measured.
    pub measured_growth: Option<GrowthClass>,
    /// `Some(true)` when measured ≤ claimed, `Some(false)` on an
    /// overshoot, `None` when the spread was too small to fit.
    pub bound_ok: Option<bool>,
    /// All cells of this scheme, in matrix order.
    pub cells: Vec<CellResult>,
}

impl SchemeReport {
    /// The measured points as `n→bits` pairs, smallest `n` first.
    pub fn render_points(&self) -> String {
        self.points
            .iter()
            .map(|p| format!("{}→{}", p.n, p.bits))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The whole campaign outcome.
#[derive(Clone, Debug)]
pub struct Report {
    /// Campaign seed.
    pub seed: u64,
    /// Profile name.
    pub profile: &'static str,
    /// The shard this report covers (`None` = the whole matrix).
    pub shard: Option<Shard>,
    /// Per-scheme reports, in registry order.
    pub schemes: Vec<SchemeReport>,
    /// Skeleton-cache hits across all cells (excluded from deterministic
    /// JSON: racing misses make the split nondeterministic under
    /// parallelism).
    pub cache_hits: usize,
    /// Skeleton-cache misses (fresh CSR builds) across all cells
    /// (excluded from deterministic JSON).
    pub cache_misses: usize,
    /// Total campaign wall time (excluded from deterministic JSON).
    pub wall_ms: u128,
}

impl Report {
    /// Cells in all schemes.
    pub fn cell_count(&self) -> usize {
        self.schemes.iter().map(|s| s.cells.len()).sum()
    }

    /// Cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.schemes
            .iter()
            .flat_map(|s| &s.cells)
            .filter(|c| c.status == status)
            .count()
    }

    /// Human-readable failure lines (cell failures and bound
    /// overshoots).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.schemes {
            for c in &s.cells {
                if c.status == CellStatus::Fail {
                    out.push(format!(
                        "{} on {}/n={}/{}: {}",
                        c.scheme,
                        c.family.name(),
                        c.n,
                        c.polarity.name(),
                        c.detail
                    ));
                }
            }
            if s.bound_ok == Some(false) {
                out.push(format!(
                    "{}: measured {} exceeds claimed {} ({})",
                    s.id,
                    s.measured_growth.expect("bound_ok implies a fit"),
                    s.claimed_bound,
                    s.render_points(),
                ));
            }
        }
        out
    }

    /// Whether the campaign is green: no failed cells, no bound
    /// overshoots. Crashed and timed-out cells do *not* make a campaign
    /// un-green (they carry no conformance verdict) — they surface
    /// through [`Self::unresolved`] and exit code 3 instead.
    pub fn ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Cells that reached no verdict: crashed plus timed out. The CLI
    /// exits 3 when this is nonzero on an otherwise green campaign.
    pub fn unresolved(&self) -> usize {
        self.count(CellStatus::Crashed) + self.count(CellStatus::TimedOut)
    }

    /// Serializes the report as JSON.
    ///
    /// With `include_timing = false` the output is byte-identical for a
    /// given configuration regardless of wall clock, machine, or thread
    /// schedule — the form CI diffs and the determinism test pins.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut w = String::with_capacity(1 << 16);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"version\": 1,");
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"profile\": {},", json_str(self.profile));
        w.push_str("  \"parallel\": true,\n");
        push_shard_and_wall(&mut w, self.shard, include_timing.then_some(self.wall_ms));
        if include_timing {
            let _ = writeln!(
                w,
                "  \"skeleton_cache\": {{ \"hits\": {}, \"misses\": {} }},",
                self.cache_hits, self.cache_misses
            );
        }
        let head = format!(
            "\"cells\": {}, \"passed\": {}, \"failed\": {}, \"skipped\": {}",
            self.cell_count(),
            self.count(CellStatus::Pass),
            self.count(CellStatus::Fail),
            self.count(CellStatus::Skip)
        );
        let unresolved = [CellStatus::Crashed, CellStatus::TimedOut].map(|st| self.count(st));
        push_summary(&mut w, &head, unresolved);
        w.push_str("  \"schemes\": [\n");
        for (i, s) in self.schemes.iter().enumerate() {
            w.push_str("    {\n");
            let _ = writeln!(w, "      \"id\": {},", json_str(s.id));
            let _ = writeln!(w, "      \"title\": {},", json_str(s.title));
            let _ = writeln!(w, "      \"paper_row\": {},", json_str(s.paper_row));
            let _ = writeln!(w, "      \"claimed_bound\": {},", json_str(s.claimed_bound));
            let _ = writeln!(
                w,
                "      \"claimed_class\": {},",
                json_str(&s.claimed_growth.to_string())
            );
            let measured = s.measured_growth.map(|g| json_str(&g.to_string()));
            let _ = writeln!(w, "      \"measured_class\": {},", json_opt(measured));
            let _ = writeln!(w, "      \"bound_ok\": {},", json_opt(s.bound_ok));
            let _ = writeln!(
                w,
                "      \"size_points\": [{}],",
                s.points
                    .iter()
                    .map(|p| format!("{{ \"n\": {}, \"bits\": {} }}", p.n, p.bits))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            w.push_str("      \"cells\": [\n");
            let cells = s.cells.iter();
            push_rows(
                &mut w,
                cells.map(|c| format!("        {{ {} }}", cell_fields(c, include_timing))),
            );
            w.push_str("      ]\n");
            w.push_str("    }");
            w.push_str(if i + 1 < self.schemes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        w.push_str("  ]\n}\n");
        w
    }

    /// Serializes the benchmark view of the campaign: per-cell proof
    /// sizes and wall times, in the same flat-JSON shape as
    /// `BENCH_engine.json`, so CI artifacts accumulate a perf-history
    /// series (`--bench-out`).
    ///
    /// Unlike [`Self::to_json`]'s `--no-timing` form this is *meant* to
    /// carry timings; skipped cells are omitted (they measure nothing).
    pub fn to_bench_json(&self) -> String {
        let mut w = String::with_capacity(1 << 14);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"bench\": \"conformance-campaign\",");
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"profile\": {},", json_str(self.profile));
        w.push_str("  \"parallel\": true,\n");
        let _ = writeln!(w, "  \"cells\": {},", self.cell_count());
        let _ = writeln!(w, "  \"wall_ms\": {},", self.wall_ms);
        w.push_str("  \"per_cell\": [\n");
        let measured = self
            .schemes
            .iter()
            .flat_map(|s| &s.cells)
            .filter(|c| c.status != CellStatus::Skip);
        push_rows(
            &mut w,
            measured.map(|c| {
                format!(
                    "    {{ \"scheme\": {}, \"family\": {}, \"n\": {}, \"polarity\": {}, \
                     \"check\": {}, \"proof_bits\": {}, \"wall_ms\": {} }}",
                    json_str(c.scheme),
                    json_str(c.family.name()),
                    c.n,
                    json_str(c.polarity.name()),
                    json_str(c.check),
                    json_opt(c.proof_bits),
                    c.wall_ms,
                )
            }),
        );
        w.push_str("  ]\n}\n");
        w
    }
}

/// One cell's JSON fields, brace-free — the single source of truth for
/// cell serialization, shared between [`Report::to_json`] and the
/// checkpoint writer so a resumed report is byte-identical to an
/// uninterrupted one.
pub(crate) fn cell_fields(c: &CellResult, include_timing: bool) -> String {
    let mut w = String::with_capacity(256);
    let _ = write!(
        w,
        "\"coord\": {}, \"family\": {}, \"requested_n\": {}, \"n\": {}, \"polarity\": {}, \
         \"holds\": {}, \"status\": {}, \"check\": {}, \"proof_bits\": {}, \
         \"witness_node\": {}, \"tamper\": {}, \"detail\": {}",
        c.coord,
        json_str(c.family.name()),
        c.requested_n,
        c.n,
        json_str(c.polarity.name()),
        c.holds,
        json_str(c.status.name()),
        json_str(c.check),
        json_opt(c.proof_bits),
        json_opt(c.witness_node),
        json_opt(c.tamper.as_ref().map(|t| format!(
            "{{ \"trials\": {}, \"detected\": {}, \"undetected\": {}, \"witness\": {} }}",
            t.trials,
            t.detected,
            t.undetected,
            json_opt(t.witness)
        ))),
        detail_json(&c.detail, c.timeout, include_timing),
    );
    if include_timing {
        let _ = write!(w, ", \"wall_ms\": {}", c.wall_ms);
    }
    w
}

/// A cell's detail as a JSON string. In the timed form a timed-out
/// cell's detail also names the phase its budget expired in and its
/// deadline-poll count; poll counts are wall-clock-dependent, so the
/// deterministic form never carries them, and the checkpoint loader
/// strips them back off ([`checkpoint::restore_timeout`]).
pub(crate) fn detail_json(
    detail: &str,
    timeout: Option<(&str, u64)>,
    include_timing: bool,
) -> String {
    match timeout {
        Some((phase, polls)) if include_timing => json_str(&format!(
            "{detail} [timed out in the {phase} phase after {polls} deadline polls]"
        )),
        _ => json_str(detail),
    }
}

/// Appends the report-head lines both modes share after their identity
/// fields: the shard block (sharded runs only) and, when `wall_ms` is
/// given (the timed form), the campaign wall time.
pub(crate) fn push_shard_and_wall(w: &mut String, shard: Option<Shard>, wall_ms: Option<u128>) {
    if let Some(shard) = shard {
        let _ = writeln!(
            w,
            "  \"shard\": {{ \"index\": {}, \"count\": {} }},",
            shard.index, shard.count
        );
    }
    if let Some(ms) = wall_ms {
        let _ = writeln!(w, "  \"wall_ms\": {ms},");
    }
}

/// Appends the summary line: the mode's own `head` counts, then the
/// `[crashed, timed_out]` counts. Those two keys only appear when
/// nonzero, so healthy reports stay byte-identical to
/// pre-fault-tolerance output (the determinism and resume invariants
/// both lean on this).
pub(crate) fn push_summary(w: &mut String, head: &str, [crashed, timed_out]: [usize; 2]) {
    let _ = write!(w, "  \"summary\": {{ {head}");
    for (key, count) in [("crashed", crashed), ("timed_out", timed_out)] {
        if count > 0 {
            let _ = write!(w, ", \"{key}\": {count}");
        }
    }
    w.push_str(" },\n");
}

/// Appends `rows` as the body of a JSON array: comma-separated, one row
/// per line.
pub(crate) fn push_rows(w: &mut String, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    if !rows.is_empty() {
        w.push_str(&rows.join(",\n"));
        w.push('\n');
    }
}

/// The workspace-shared JSON string escaper (also what the checkpoint
/// parser resolves, so cell lines round-trip byte-exactly).
fn json_str(s: &str) -> String {
    lcp_core::json::escape(s)
}

/// `null`, or the value's rendering (already JSON for numbers, booleans
/// and [`json_str`] output).
fn json_opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Adversarial size budget matched to the claimed bound at size `n`
/// (capped: huge random proofs only slow the climb down).
fn adversarial_budget(class: GrowthClass, n: usize) -> usize {
    match class {
        GrowthClass::Zero => 1,
        GrowthClass::Constant => 2,
        GrowthClass::Logarithmic => n.max(2).ilog2() as usize + 2,
        GrowthClass::Linear => n.min(24),
        GrowthClass::Quadratic => (n * n).min(48),
    }
}

/// splitmix64 over the cell coordinates: every cell gets its own RNG
/// stream regardless of execution order, filters, or registry growth.
fn cell_seed(seed: u64, scheme_id: &str, family: GraphFamily, n: usize, polarity: Polarity) -> u64 {
    // FNV-1a over the stable scheme id (never its registry position, so
    // `--scheme` replays and registry insertions don't perturb cells),
    // then splitmix rounds over the remaining coordinates.
    let id_hash = scheme_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    for salt in [id_hash, family as u64, n as u64, polarity as u64 + 1] {
        z = z.wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// One cell coordinate of the campaign matrix (static and churn modes
/// sweep the *same* matrix, so both build their coordinates here).
pub(crate) struct Coord {
    /// Global position in the full (unsharded) enumeration — the cell's
    /// stable identity across shards.
    pub(crate) index: usize,
    pub(crate) entry_idx: usize,
    pub(crate) family: GraphFamily,
    pub(crate) n: usize,
    pub(crate) polarity: Polarity,
}

impl Coord {
    /// The registry request for this cell of `entry`, carrying the cell's
    /// own seed — what both cell bodies and the artifact warmer build.
    pub(crate) fn request(&self, entry: &SchemeEntry, campaign_seed: u64) -> CellRequest {
        CellRequest {
            family: self.family,
            n: self.n,
            seed: cell_seed(campaign_seed, entry.id, self.family, self.n, self.polarity),
            polarity: self.polarity,
        }
    }
}

/// Enumerates the campaign matrix for `entries` under `config`'s
/// filters: families × sizes × the profile's polarities per entry, with
/// sizes clamped by the profile's cap for each entry ([`Profile::cap`])
/// and collapsed duplicates enumerated once.
///
/// Global coordinate indices are assigned **before** shard selection, so
/// every shard agrees on them; the returned list is restricted to
/// `config.shard` when one is set.
pub(crate) fn matrix_coords(entries: &[SchemeEntry], config: &CampaignConfig) -> Vec<Coord> {
    let mut coords = Vec::new();
    let mut index = 0usize;
    for (entry_idx, entry) in entries.iter().enumerate() {
        // Entries cap their sizes; after clamping, several requested
        // sizes can collapse onto the same cell — enumerate each
        // effective cell once instead of re-running duplicates.
        let cap = config.profile.cap(entry);
        let mut seen = std::collections::BTreeSet::new();
        for &family in entry.families {
            if config.family_filter.is_some_and(|want| want != family) {
                continue;
            }
            for &n in &config.sizes {
                for &polarity in config.profile.polarities() {
                    if seen.insert((family, n.min(cap), polarity)) {
                        if config.shard.is_none_or(|s| s.owns(index)) {
                            coords.push(Coord {
                                index,
                                entry_idx,
                                family,
                                n,
                                polarity,
                            });
                        }
                        index += 1;
                    }
                }
            }
        }
    }
    coords
}

/// The campaign registry entries surviving `config`'s `--scheme` filter
/// — what [`run_matrix`] is normally given.
pub fn filtered_entries(config: &CampaignConfig) -> Vec<SchemeEntry> {
    campaign_registry()
        .into_iter()
        .filter(|e| {
            config
                .scheme_filter
                .as_deref()
                .is_none_or(|want| e.id == want)
        })
        .collect()
}

/// Maps `f` over the coordinates — across cores when there is more than
/// one, sequentially otherwise; results come back in matrix order either
/// way. The crate's one rayon call site.
fn map_coords<R: Send>(coords: &[Coord], f: impl Fn(&Coord) -> R + Sync) -> Vec<R> {
    if coords.len() > 1 {
        use rayon::prelude::*;
        return coords.par_iter().map(f).collect();
    }
    coords.iter().map(f).collect()
}

fn run_one(
    entry: &SchemeEntry,
    coord: &Coord,
    config: &CampaignConfig,
    source: &ArtifactSource,
) -> CellResult {
    let started = Instant::now();
    let req = coord.request(entry, config.seed);
    let seed = req.seed;
    // Every path below overwrites the check, status and detail.
    let mut result = CellResult::unrun(
        entry,
        coord,
        CellStatus::Skip,
        "inapplicable",
        "polarity not realizable on this family".into(),
    );
    let Some(cell) = entry.build_capped(&req, config.profile.cap(entry)) else {
        result.wall_ms = started.elapsed().as_millis();
        return result;
    };
    // Engine-backed checks on this cell prepare through the campaign's
    // shared artifact source: schemes asked about the same generated
    // graph (at the same radius) reuse one CSR build, and with
    // `--artifact-dir` that build may come straight off disk. The
    // per-cell deadline starts counting here — instance generation above
    // is not covered, but it is not where cells stall.
    let deadline = config.cell_deadline();
    let cell = cell.with_source(source.clone());
    result.n = cell.n();
    result.holds = cell.holds();

    if cell.holds() {
        result.check = "completeness";
        match cell.check_completeness_within(&deadline) {
            Ok(Some(bits)) => {
                result.status = CellStatus::Pass;
                result.proof_bits = Some(bits);
                result.detail = format!("honest proof of {bits} bits accepted everywhere");
                if deadline.expired() {
                    // The sweep finished but the budget is gone: report
                    // the overrun rather than starting the tamper probe.
                    result.status = CellStatus::TimedOut;
                    result.detail = "wall budget expired before the tamper probe".into();
                    result.timeout = Some(("completeness", deadline.polls()));
                } else if let Some(probe) = cell.tamper_probe(config.tamper_trials, seed ^ 0xa5a5) {
                    result.witness_node = probe.witness;
                    result.tamper = Some(probe);
                }
            }
            Ok(None) => {
                // The sweep answers Ok(None) only when ground truth is false.
                result.status = CellStatus::Fail;
                result.detail = "ground truth flipped between seal and check".into();
            }
            Err(CompletenessError::DeadlineExpired) => {
                result.status = CellStatus::TimedOut;
                result.detail = "wall budget expired during the completeness sweep".into();
                result.timeout = Some(("completeness", deadline.polls()));
            }
            Err(e) => {
                result.status = CellStatus::Fail;
                if let CompletenessError::Rejected(nodes) = &e {
                    result.witness_node = nodes.first().copied();
                }
                result.detail = format!("completeness failure: {e}");
            }
        }
    } else {
        // Soundness: exact on small cells, adversarial beyond.
        let strings = 3u128; // bit strings of length ≤ 1
        let space = strings.checked_pow(cell.n() as u32);
        if space.is_some_and(|s| s <= config.exhaustive_limit) {
            result.check = "soundness-exhaustive";
            match cell.check_soundness_exhaustive_within(1, &deadline) {
                Ok(Soundness::Holds(tried)) => {
                    result.status = CellStatus::Pass;
                    result.detail = format!("all {tried} proofs of ≤1 bit rejected");
                }
                Ok(Soundness::Violated(p)) => {
                    result.status = CellStatus::Fail;
                    result.detail = format!(
                        "soundness violation: a {}-bit-per-node proof was fully accepted",
                        p.size()
                    );
                }
                Err(SoundnessError::DeadlineExpired { tried }) => {
                    result.status = CellStatus::TimedOut;
                    result.detail = format!("wall budget expired after {tried} candidate proofs");
                    result.timeout = Some(("exhaustive", deadline.polls()));
                }
                Err(e) => {
                    result.status = CellStatus::Skip;
                    result.detail = format!("exhaustive search refused: {e}");
                }
            }
        } else {
            result.check = "soundness-adversarial";
            let budget = adversarial_budget(entry.claimed_growth, cell.n());
            match cell.adversarial_search_within(
                budget,
                config.adversarial_iterations,
                seed ^ 0x5a5a,
                &deadline,
            ) {
                None if deadline.expired() => {
                    result.status = CellStatus::TimedOut;
                    result.detail = "wall budget expired during the adversarial search".into();
                    result.timeout = Some(("adversarial", deadline.polls()));
                }
                None => {
                    result.status = CellStatus::Pass;
                    result.detail = format!(
                        "no accepting proof found in {} bit-flip steps at {budget} bits/node",
                        config.adversarial_iterations
                    );
                }
                Some(p) => {
                    result.status = CellStatus::Fail;
                    result.detail = format!(
                        "soundness violation: adversarial search forged a {}-bit-per-node proof",
                        p.size()
                    );
                }
            }
        }
    }
    result.wall_ms = started.elapsed().as_millis();
    result
}

/// Empty per-scheme report shells for `entries`, in registry order.
fn scheme_shells(entries: &[SchemeEntry]) -> Vec<SchemeReport> {
    entries
        .iter()
        .map(|e| SchemeReport {
            id: e.id,
            title: e.title,
            paper_row: e.paper_row,
            claimed_bound: e.claimed_bound,
            claimed_growth: e.claimed_growth,
            points: Vec::new(),
            measured_growth: None,
            bound_ok: None,
            cells: Vec::new(),
        })
        .collect()
}

/// Recomputes each scheme's measured `(n, bits)` points and
/// growth-class fit from its cells (resumed cells included, so a
/// reassembled report re-fits over the *union* of cells).
fn fit_growth(schemes: &mut [SchemeReport]) {
    for s in schemes {
        let mut points: Vec<SizePoint> = s
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Pass)
            .filter_map(|c| c.proof_bits.map(|bits| SizePoint { n: c.n, bits }))
            .collect();
        points.sort_by_key(|p| (p.n, p.bits));
        points.dedup();
        s.points = points;
        let (lo, hi) = (
            s.points.iter().map(|p| p.n).min().unwrap_or(0),
            s.points.iter().map(|p| p.n).max().unwrap_or(0),
        );
        // Fit only with enough spread for the classes to separate.
        if s.points.len() >= 3 && lo > 0 && hi >= 3 * lo {
            let measured = classify_growth(&s.points);
            s.measured_growth = Some(measured);
            // GrowthClass orders by the asymptotic hierarchy; claims are
            // upper bounds, so measuring smaller is conformant.
            s.bound_ok = Some(measured <= s.claimed_growth);
        }
    }
}

/// Builds the campaign's shared skeleton source from `config`: a
/// two-tier mmap-backed [`ArtifactStore`] when `--artifact-dir` is set,
/// the plain in-process [`SkeletonCache`] otherwise. An unopenable
/// artifact directory degrades (with a warning) to the cache — artifact
/// persistence is a cold-start optimisation, never a correctness gate.
fn artifact_source_for(config: &CampaignConfig) -> ArtifactSource {
    match &config.artifact_dir {
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(store) => ArtifactSource::MappedDir(Arc::new(store)),
            Err(e) => {
                eprintln!(
                    "warning: artifact dir {} unusable ({e}); falling back to in-process cache",
                    dir.display()
                );
                ArtifactSource::Cache(Arc::new(SkeletonCache::new()))
            }
        },
        None => ArtifactSource::Cache(Arc::new(SkeletonCache::new())),
    }
}

/// Per-provenance cell counts from a [`warm_artifacts`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmSummary {
    /// Cores built in-process and persisted to the artifact directory.
    pub built: usize,
    /// Cores deduplicated against the warming pass's own cache
    /// (several schemes sharing one generated graph at one radius).
    pub cache_hits: usize,
    /// Cores already on disk from a previous pass, mapped in.
    pub loaded: usize,
    /// Matrix cells with no realizable instance (nothing to warm).
    pub skipped: usize,
}

/// Pre-populates `config.artifact_dir` with the frozen skeleton core of
/// every cell in the campaign matrix, so subsequent campaign shards and
/// serve daemons cold-start by `mmap` instead of rebuilding
/// (`--warm-artifacts` on the CLI). The shard filter is deliberately
/// ignored: one warming pass covers the whole matrix, and every shard
/// then shares the same directory.
///
/// # Panics
///
/// Panics if `config.artifact_dir` is unset or unusable — warming to
/// nowhere is a misconfiguration, not a degraded mode.
pub fn warm_artifacts(config: &CampaignConfig) -> WarmSummary {
    let dir = config
        .artifact_dir
        .as_deref()
        .expect("warm_artifacts requires artifact_dir");
    let store = ArtifactStore::open(dir)
        .unwrap_or_else(|e| panic!("artifact dir {} unusable: {e}", dir.display()));
    let source = ArtifactSource::MappedDir(Arc::new(store));
    let entries = filtered_entries(config);
    let full = CampaignConfig {
        shard: None,
        ..config.clone()
    };
    let mut summary = WarmSummary::default();
    for coord in &matrix_coords(&entries, &full) {
        let entry = &entries[coord.entry_idx];
        let req = coord.request(entry, config.seed);
        let Some(cell) = entry.build_capped(&req, config.profile.cap(entry)) else {
            summary.skipped += 1;
            continue;
        };
        match cell.with_source(source.clone()).prepare_skeletons() {
            CoreProvenance::Built => summary.built += 1,
            CoreProvenance::CacheHit => summary.cache_hits += 1,
            CoreProvenance::ArtifactLoaded => summary.loaded += 1,
        }
    }
    summary
}

// ---------------------------------------------------------------------
// The runner: one path around a cell for both modes
// ---------------------------------------------------------------------

/// Which question a campaign asks of every matrix cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Completeness on yes-instances, soundness on no-instances.
    Static,
    /// Incremental re-verification against a from-scratch sweep after
    /// each of `steps` seeded mutations (`--churn`).
    Churn {
        /// Mutations per cell.
        steps: usize,
    },
}

/// A campaign outcome in either mode: what [`run_matrix`] returns.
#[derive(Clone, Debug)]
pub enum CampaignReport {
    /// A static conformance campaign.
    Static(Report),
    /// A `--churn` campaign.
    Churn(ChurnReport),
}

/// Evaluates `$body` with `$r` bound to whichever report `$report` holds
/// (both report types share these method names).
macro_rules! either {
    ($report:expr, $r:ident => $body:expr) => {
        match $report {
            CampaignReport::Static($r) => $body,
            CampaignReport::Churn($r) => $body,
        }
    };
}

impl CampaignReport {
    /// Serializes the report; with `include_timing = false` the output is
    /// the deterministic form CI diffs.
    pub fn to_json(&self, include_timing: bool) -> String {
        either!(self, r => r.to_json(include_timing))
    }

    /// The always-timed per-cell series (`--bench-out`).
    pub fn to_bench_json(&self) -> String {
        either!(self, r => r.to_bench_json())
    }

    /// Whether the campaign is green.
    pub fn ok(&self) -> bool {
        either!(self, r => r.ok())
    }

    /// Human-readable failure lines.
    pub fn failures(&self) -> Vec<String> {
        either!(self, r => r.failures())
    }

    /// Cells that reached no verdict: crashed plus timed out.
    pub fn unresolved(&self) -> usize {
        either!(self, r => r.unresolved())
    }

    /// Total matrix cells in the report.
    pub fn cell_count(&self) -> usize {
        match self {
            CampaignReport::Static(r) => r.cell_count(),
            CampaignReport::Churn(r) => r.cells.len(),
        }
    }
}

/// What the runner needs from a mode's cell result; everything else
/// around a cell — matrix walk, resume splicing, isolation, metrics and
/// the checkpoint append — is [`sweep`]'s, shared by both modes.
pub(crate) trait CampaignCell: Clone + Send + Sync {
    /// The per-cell child span of [`metrics::campaign_span`].
    fn span() -> SpanId;
    /// The `crashed` verdict of a cell whose both attempts panicked.
    fn crashed(entry: &SchemeEntry, coord: &Coord, detail: String) -> Self;
    /// Verdict and wall time, as [`metrics::record_cell`] takes them.
    fn outcome(&self) -> (CellStatus, u128);
    /// The detail a recovered flake is annotated on.
    fn detail_mut(&mut self) -> &mut String;
    /// The cell's global coordinate.
    fn coord(&self) -> usize;
    /// The cell as one checkpoint line: the report's own cell serializer,
    /// with timings, plus the scheme id resume re-homes it by.
    fn checkpoint_line(&self) -> String;
    /// Parses a checkpoint line back, restoring the timed fields and the
    /// structured timeout.
    fn from_checkpoint(
        name: &str,
        doc: &Json,
        scheme: &'static str,
    ) -> Result<Self, CheckpointError>;
}

impl CampaignCell for CellResult {
    fn span() -> SpanId {
        metrics::cell_span()
    }

    fn crashed(entry: &SchemeEntry, coord: &Coord, detail: String) -> Self {
        CellResult::unrun(entry, coord, CellStatus::Crashed, "isolation", detail)
    }

    fn outcome(&self) -> (CellStatus, u128) {
        (self.status, self.wall_ms)
    }

    fn detail_mut(&mut self) -> &mut String {
        &mut self.detail
    }

    fn coord(&self) -> usize {
        self.coord
    }

    fn checkpoint_line(&self) -> String {
        format!(
            "{{ \"scheme\": {}, {} }}",
            json_str(self.scheme),
            cell_fields(self, true)
        )
    }

    fn from_checkpoint(
        name: &str,
        doc: &Json,
        scheme: &'static str,
    ) -> Result<Self, CheckpointError> {
        checkpoint::static_cell(name, doc, scheme)
    }
}

/// Renders a `catch_unwind` payload (the argument to `panic!`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs one cell inside a panic boundary: a panicking cell becomes a
/// `crashed` result instead of tearing down the whole shard. The cell is
/// retried once with the same seed — a clean retry is kept (annotated as
/// recovered-flaky), a second panic is classified deterministic or flaky
/// by comparing the payloads.
fn isolated<C: CampaignCell>(entry: &SchemeEntry, coord: &Coord, run: impl Fn() -> C) -> C {
    let attempt = || catch_unwind(AssertUnwindSafe(&run));
    let first = match attempt() {
        Ok(cell) => return cell,
        Err(payload) => panic_message(payload.as_ref()),
    };
    match attempt() {
        Ok(mut cell) => {
            metrics::FLAKE_RETRIES.inc();
            let _ = write!(
                cell.detail_mut(),
                " [recovered: first attempt panicked: {first}]"
            );
            cell
        }
        Err(payload) => {
            let second = panic_message(payload.as_ref());
            let detail = if first == second {
                format!("panic: {first} (deterministic: retry panicked identically)")
            } else {
                format!("panic: {first} (retry panicked: {second})")
            };
            C::crashed(entry, coord, detail)
        }
    }
}

/// A swept matrix: its coordinates and cells, in matrix order.
pub(crate) struct Swept<C> {
    coords: Vec<Coord>,
    pub(crate) cells: Vec<C>,
    source: ArtifactSource,
    pub(crate) wall_ms: u128,
}

/// Walks the campaign matrix for either mode. Cells already recovered
/// by `progress` are spliced back in place (so the report is
/// byte-identical to an uninterrupted run); every other cell runs
/// `run_cell` inside [`isolated`], is recorded in the metrics, and is
/// appended to the checkpoint when one is open.
pub(crate) fn sweep<C: CampaignCell>(
    entries: &[SchemeEntry],
    config: &CampaignConfig,
    progress: &Progress<C>,
    run_cell: impl Fn(&SchemeEntry, &Coord, &ArtifactSource) -> C + Sync,
) -> Swept<C> {
    let started = Instant::now();
    let _campaign_span = lcp_obs::start_span(metrics::campaign_span());
    let coords = matrix_coords(entries, config);
    let source = artifact_source_for(config);
    let cells = map_coords(&coords, |coord| {
        if let Some(done) = progress.resumed.get(&coord.index) {
            metrics::CELLS_RESUMED.inc();
            return done.clone();
        }
        let entry = &entries[coord.entry_idx];
        let cell = {
            let _cell_span = lcp_obs::start_span(C::span());
            isolated(entry, coord, || run_cell(entry, coord, &source))
        };
        let (status, wall_ms) = cell.outcome();
        metrics::record_cell(status, wall_ms);
        if let Some(w) = &progress.writer {
            w.append(&cell.checkpoint_line());
        }
        cell
    });
    Swept {
        coords,
        cells,
        source,
        wall_ms: started.elapsed().as_millis(),
    }
}

/// The static campaign over `entries`, assembled into a [`Report`].
fn static_campaign(
    entries: &[SchemeEntry],
    config: &CampaignConfig,
    progress: &Progress<CellResult>,
) -> Report {
    let swept = sweep(entries, config, progress, |entry, coord, source| {
        run_one(entry, coord, config, source)
    });
    let mut schemes = scheme_shells(entries);
    for (coord, cell) in swept.coords.iter().zip(swept.cells) {
        schemes[coord.entry_idx].cells.push(cell);
    }
    // Growth fitting is a whole-matrix judgement: a shard sees only a
    // slice of each scheme's (n, bits) points, so fitting it would
    // produce spurious bound verdicts. Sharded runs leave the fits to
    // the unsharded run that resumes their checkpoints.
    if config.shard.is_none() {
        fit_growth(&mut schemes);
    }
    Report {
        seed: config.seed,
        profile: config.profile.name(),
        shard: config.shard,
        schemes,
        cache_hits: swept.source.cache().map_or(0, SkeletonCache::hits),
        cache_misses: swept.source.cache().map_or(0, SkeletonCache::misses),
        wall_ms: swept.wall_ms,
    }
}

/// Runs the static campaign described by `config` and assembles the
/// [`Report`].
pub fn run_campaign(config: &CampaignConfig) -> Report {
    static_campaign(&filtered_entries(config), config, &Progress::none())
}

/// Runs the campaign matrix over `entries` in either mode, with optional
/// checkpoint/resume — the one entry point the CLI and the
/// fault-tolerance tests use; [`run_campaign`] and
/// [`churn::run_churn_campaign`] are its checkpoint-free forms over the
/// filtered registry.
///
/// `entries` is normally [`filtered_entries`]; the fault-tolerance tests
/// pass extra entries here to inject panicking schemes. `resume`
/// recovers completed cells from prior (possibly killed, possibly
/// sharded) runs of the **same** configuration and mode — the union of
/// every file, a later file winning a coordinate recorded twice;
/// `checkpoint` records this run's progress, and may name one of the
/// resume files (the usual `--checkpoint X --resume X` loop). Resuming
/// the checkpoints of all `--shard i/N` runs from an unsharded run
/// reassembles the whole report. Returns the report plus how many
/// cells were resumed rather than run.
///
/// # Errors
///
/// A resume file from another configuration or mode (the error names
/// the file), damage before a file's final line, or a checkpoint file
/// that cannot be created.
pub fn run_matrix(
    entries: &[SchemeEntry],
    config: &CampaignConfig,
    mode: Mode,
    checkpoint: Option<&str>,
    resume: &[&str],
) -> Result<(CampaignReport, usize), CheckpointError> {
    let header = checkpoint::header_line(config, mode);
    Ok(match mode {
        Mode::Static => {
            let progress = Progress::open(&header, entries, checkpoint, resume)?;
            let report = static_campaign(entries, config, &progress);
            (CampaignReport::Static(report), progress.resumed.len())
        }
        Mode::Churn { steps } => {
            let progress = Progress::open(&header, entries, checkpoint, resume)?;
            let report = churn::churn_campaign(entries, config, steps, &progress);
            (CampaignReport::Churn(report), progress.resumed.len())
        }
    })
}

/// Writes one output artifact to `path` (`-` for stdout) and announces
/// it on stdout as `what`. Returns false, after printing the error, when
/// the path is unwritable — shared by both binaries.
pub fn write_artifact(path: &str, what: &str, text: &str) -> bool {
    if path == "-" {
        print!("{text}");
    } else if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    } else {
        println!("{what} written to {path}");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            sizes: vec![8],
            tamper_trials: 4,
            adversarial_iterations: 100,
            ..CampaignConfig::for_profile(Profile::Smoke, 7)
        }
    }

    #[test]
    fn single_scheme_campaign_is_green() {
        let config = CampaignConfig {
            scheme_filter: Some("bipartite".into()),
            ..tiny_config()
        };
        let report = run_campaign(&config);
        assert!(report.ok(), "failures: {:?}", report.failures());
        assert_eq!(report.schemes.len(), 1);
        assert!(report.count(CellStatus::Pass) >= 3);
    }

    #[test]
    fn json_escapes_and_parses_shape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let config = CampaignConfig {
            scheme_filter: Some("eulerian".into()),
            ..tiny_config()
        };
        let report = run_campaign(&config);
        let json = report.to_json(true);
        assert!(json.contains("\"wall_ms\""));
        let stable = report.to_json(false);
        assert!(!stable.contains("wall_ms"));
        assert!(stable.contains("\"id\": \"eulerian\""));
    }

    #[test]
    fn registry_includes_the_logic_scheme() {
        let ids: Vec<&str> = campaign_registry().iter().map(|e| e.id).collect();
        assert!(ids.contains(&"sigma11-independent-dominating"));
        assert_eq!(
            ids.len(),
            lcp_schemes::registry::all().len() + 1,
            "campaign registry = schemes registry + sigma11"
        );
    }
}

/// Reassembling a sharded campaign — one unsharded [`run_matrix`]
/// resuming every shard's checkpoint — pinned against the unsharded
/// bytes at the unit level.
#[cfg(test)]
mod merge {
    mod tests {
        use crate::{
            filtered_entries, run_campaign, run_matrix, CampaignConfig, Mode, Profile, Shard,
        };

        fn tiny(seed: u64, shard: Option<Shard>) -> CampaignConfig {
            CampaignConfig {
                sizes: vec![8],
                tamper_trials: 4,
                adversarial_iterations: 60,
                scheme_filter: Some("bipartite".into()),
                shard,
                ..CampaignConfig::for_profile(Profile::Smoke, seed)
            }
        }

        /// Checkpoints every shard of seed `seed` split `count` ways;
        /// returns the checkpoint paths.
        fn shard_checkpoints(seed: u64, count: usize, tag: &str) -> Vec<String> {
            (0..count)
                .map(|index| {
                    let config = tiny(seed, Some(Shard { index, count }));
                    let mut path = std::env::temp_dir();
                    path.push(format!(
                        "lcp-unit-merge-{}-{tag}-{index}.jsonl",
                        std::process::id()
                    ));
                    let path = path.to_string_lossy().into_owned();
                    let _ = std::fs::remove_file(&path);
                    let entries = filtered_entries(&config);
                    run_matrix(&entries, &config, Mode::Static, Some(&path), &[]).unwrap();
                    path
                })
                .collect()
        }

        fn reassemble(seed: u64, paths: &[String]) -> Result<(String, usize), String> {
            let config = tiny(seed, None);
            let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
            run_matrix(
                &filtered_entries(&config),
                &config,
                Mode::Static,
                None,
                &paths,
            )
            .map(|(report, resumed)| (report.to_json(false), resumed))
            .map_err(|e| e.to_string())
        }

        fn remove(paths: &[String]) {
            for p in paths {
                let _ = std::fs::remove_file(p);
            }
        }

        #[test]
        fn merge_rebuilds_the_unsharded_bytes() {
            let whole = run_campaign(&tiny(7, None));
            let paths = shard_checkpoints(7, 2, "rebuild");
            let (merged, resumed) = reassemble(7, &paths).expect("mergeable");
            assert_eq!(merged, whole.to_json(false));
            assert_eq!(resumed, whole.cell_count(), "every cell resumed");
            remove(&paths);
        }

        #[test]
        fn refuses_mixed_seeds_and_missing_shards() {
            let mut paths = shard_checkpoints(7, 2, "seed7");
            let seed8 = shard_checkpoints(8, 2, "seed8");
            // A shard of another seed is refused, and named.
            let mixed = vec![paths[0].clone(), seed8[1].clone()];
            let err = reassemble(7, &mixed).unwrap_err();
            assert!(err.contains("header mismatch"), "{err}");
            assert!(err.contains(&seed8[1]), "{err}");
            remove(&seed8);

            // A missing shard never leaves the report short: its cells
            // are run, so the bytes are still the unsharded ones.
            let whole = run_campaign(&tiny(7, None));
            let missing = paths.pop().unwrap();
            let (merged, resumed) = reassemble(7, &paths).expect("a lone shard resumes");
            assert_eq!(merged, whole.to_json(false));
            assert!(resumed > 0, "the present shard's cells resumed");
            assert!(
                resumed < whole.cell_count(),
                "the missing shard's cells ran"
            );
            remove(&paths);
            remove(&[missing]);
        }
    }
}
