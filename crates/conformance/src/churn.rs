//! `--churn` mode: dynamic-graph conformance over the registry matrix.
//!
//! Where the static campaign asks "does the scheme hold up on this
//! instance?", the churn campaign asks "does **incremental**
//! re-verification hold up under mutation?": for every `(scheme, family,
//! size, polarity)` cell it opens a [`DynamicInstance`] over the cell's
//! sealed instance, drives a seeded mutation stream through it
//! (edge inserts/deletes and proof rewrites), re-verifies incrementally
//! after every mutation, and cross-checks the cached outputs against a
//! from-scratch evaluation every step. Any divergence — verdict,
//! witness, or a single stale node output — is a **mismatch** and fails
//! the campaign (exit 2), exactly like a static conformance violation.
//!
//! Seeding follows the workspace seed policy: every cell's churn stream
//! derives from `(campaign seed, scheme id, family, n, polarity)` via
//! the same splitmix as the static campaign (salted so the two never
//! share a stream), so reports are replayable from the seed alone and
//! adding schemes or families never perturbs existing cells. The
//! JSON report with `include_timing = false` is byte-identical across
//! runs, machines, and thread schedules.

use crate::checkpoint::{restore_timeout, Progress};
use crate::merge::MergeError;
use crate::{
    detail_json, filtered_entries, json_str, push_rows, push_shard_and_wall, push_summary, sweep,
    CampaignCell, CampaignConfig, CellStatus, Coord,
};
use lcp_core::json::Json;
use lcp_core::ArtifactSource;
use lcp_dynamic::churn::{run_churn, ChurnConfig};
use lcp_dynamic::{DynamicInstance, Mutation};
use lcp_graph::families::GraphFamily;
use lcp_obs::SpanId;
use lcp_schemes::registry::{Polarity, SchemeEntry};
use std::fmt::Write as _;

/// How many mutations each churn cell applies, per profile.
pub fn default_steps(profile: crate::Profile) -> usize {
    match profile {
        crate::Profile::Smoke => 32,
        crate::Profile::Full => 200,
    }
}

/// One churned cell of the matrix.
#[derive(Clone, Debug)]
pub struct ChurnCellResult {
    /// Global index of this cell in the shared matrix enumeration —
    /// stable across sharding, what `campaign_merge` orders by.
    pub coord: usize,
    /// Registry id of the scheme.
    pub scheme: &'static str,
    /// Graph family the instance came from.
    pub family: GraphFamily,
    /// Requested size (pre-clamping).
    pub requested_n: usize,
    /// Actual `n(G)` (0 for skipped cells).
    pub n: usize,
    /// The builder's polarity intent for the *starting* instance
    /// (mutations routinely flip ground truth afterwards).
    pub polarity: Polarity,
    /// Mutations applied (may fall short of the budget on degenerate
    /// cells where no mutation is applicable).
    pub steps: usize,
    /// Edge insertions / deletions / proof rewrites applied.
    pub kinds: (usize, usize, usize),
    /// From-scratch cross-checks performed.
    pub checks: usize,
    /// Cross-checks that diverged — any nonzero fails the campaign.
    pub mismatches: usize,
    /// Largest single-mutation impact set.
    pub max_impact: usize,
    /// Verifier runs across all incremental passes.
    pub total_reverified: usize,
    /// `total_reverified / (steps · n)`: the fraction of full-sweep work
    /// the incremental engine actually performed, in parts per thousand.
    pub reverified_permille: usize,
    /// Whether the cell was skipped (unbuildable polarity).
    pub skipped: bool,
    /// Cell verdict: `Pass`/`Fail`/`Skip` mirror `skipped`/`mismatches`;
    /// `Crashed` and `TimedOut` carry the fault-tolerance outcomes
    /// (serialized as an extra `"status"` key only when present, so
    /// healthy reports keep their historical byte layout).
    pub status: CellStatus,
    /// Wall time of incremental apply+reverify (excluded from
    /// deterministic JSON).
    pub incremental_ms: u128,
    /// Wall time of the from-scratch cross-checks (excluded from
    /// deterministic JSON).
    pub full_ms: u128,
    /// Deterministic human-readable detail.
    pub detail: String,
    /// Timed-out cells only: the phase (always `churn`) and the cell's
    /// deadline-poll count — rendered into `detail` in the **timed**
    /// report only, mirroring the static campaign's
    /// [`crate::CellResult::timeout`].
    pub timeout: Option<(&'static str, u64)>,
}

/// The whole churn-campaign outcome.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Campaign seed.
    pub seed: u64,
    /// Profile name.
    pub profile: &'static str,
    /// Mutation budget per cell.
    pub steps: usize,
    /// Whether cells ran in parallel: always `true` for a fresh run,
    /// while a merged report keeps its shards' value.
    pub parallel: bool,
    /// The shard this report covers (`None` = the whole matrix; merged
    /// reports are whole again).
    pub shard: Option<crate::Shard>,
    /// Per-cell results, in matrix order.
    pub cells: Vec<ChurnCellResult>,
    /// Total wall time (excluded from deterministic JSON).
    pub wall_ms: u128,
}

impl ChurnReport {
    /// Cells that ran (not skipped).
    pub fn ran(&self) -> usize {
        self.cells.iter().filter(|c| !c.skipped).count()
    }

    /// Total incremental-vs-full mismatches — the campaign is green iff
    /// this is zero.
    pub fn mismatches(&self) -> usize {
        self.cells.iter().map(|c| c.mismatches).sum()
    }

    /// Whether every cross-check on every cell agreed. Crashed and
    /// timed-out cells reached no verdict — they do not count as
    /// mismatches but surface through [`Self::unresolved`] and exit
    /// code 3.
    pub fn ok(&self) -> bool {
        self.mismatches() == 0
    }

    /// Cells with the given status.
    pub fn count(&self, status: CellStatus) -> usize {
        self.cells.iter().filter(|c| c.status == status).count()
    }

    /// Cells that reached no verdict: crashed plus timed out.
    pub fn unresolved(&self) -> usize {
        self.count(CellStatus::Crashed) + self.count(CellStatus::TimedOut)
    }

    /// Human-readable failure lines.
    pub fn failures(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|c| c.mismatches > 0)
            .map(|c| {
                format!(
                    "{} on {}/n={}/{}: {} of {} cross-checks diverged ({})",
                    c.scheme,
                    c.family.name(),
                    c.n,
                    c.polarity.name(),
                    c.mismatches,
                    c.checks,
                    c.detail
                )
            })
            .collect()
    }

    /// Serializes the churn report; with `include_timing = false` the
    /// output is byte-identical for a configuration (the diffable form).
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut w = String::with_capacity(1 << 14);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"version\": 1,");
        let _ = writeln!(w, "  \"mode\": \"churn\",");
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"profile\": {},", json_str(self.profile));
        let _ = writeln!(w, "  \"steps_per_cell\": {},", self.steps);
        let _ = writeln!(w, "  \"parallel\": {},", self.parallel);
        push_shard_and_wall(&mut w, self.shard, include_timing.then_some(self.wall_ms));
        let head = format!(
            "\"cells\": {}, \"ran\": {}, \"mismatches\": {}",
            self.cells.len(),
            self.ran(),
            self.mismatches()
        );
        let unresolved = [CellStatus::Crashed, CellStatus::TimedOut].map(|st| self.count(st));
        push_summary(&mut w, &head, unresolved);
        w.push_str("  \"cells\": [\n");
        let cells = self.cells.iter();
        push_rows(
            &mut w,
            cells.map(|c| format!("    {{ {} }}", churn_cell_fields(c, include_timing))),
        );
        w.push_str("  ]\n}\n");
        w
    }

    /// Serializes the benchmark view of the churn campaign: per-cell
    /// incremental-vs-full wall times and work ratios, in the same
    /// flat-JSON shape as `BENCH_conformance.json` (`--bench-out`).
    /// Always timed; skipped cells are omitted (they measure nothing).
    pub fn to_bench_json(&self) -> String {
        let mut w = String::with_capacity(1 << 14);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"bench\": \"churn-campaign\",");
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"profile\": {},", json_str(self.profile));
        let _ = writeln!(w, "  \"steps_per_cell\": {},", self.steps);
        let _ = writeln!(w, "  \"parallel\": {},", self.parallel);
        let _ = writeln!(w, "  \"wall_ms\": {},", self.wall_ms);
        w.push_str("  \"per_cell\": [\n");
        let measured = self.cells.iter().filter(|c| !c.skipped);
        push_rows(
            &mut w,
            measured.map(|c| {
                format!(
                    "    {{ \"scheme\": {}, \"family\": {}, \"n\": {}, \"polarity\": {}, \
                     \"steps\": {}, \"reverified_permille\": {}, \"incremental_ms\": {}, \
                     \"full_ms\": {} }}",
                    json_str(c.scheme),
                    json_str(c.family.name()),
                    c.n,
                    json_str(c.polarity.name()),
                    c.steps,
                    c.reverified_permille,
                    c.incremental_ms,
                    c.full_ms,
                )
            }),
        );
        w.push_str("  ]\n}\n");
        w
    }
}

/// One churn cell's JSON fields, brace-free — shared between
/// [`ChurnReport::to_json`] and the checkpoint writer. The `"status"`
/// key is emitted only for `crashed`/`timed_out` cells; for the
/// ordinary verdicts it is fully determined by `skipped`/`mismatches`,
/// and omitting it preserves the historical byte layout.
pub(crate) fn churn_cell_fields(c: &ChurnCellResult, include_timing: bool) -> String {
    let mut w = String::with_capacity(256);
    let _ = write!(
        w,
        "\"coord\": {}, \"scheme\": {}, \"family\": {}, \"requested_n\": {}, \"n\": {}, \
         \"polarity\": {}, \"skipped\": {}, \"steps\": {}, \"inserts\": {}, \
         \"deletes\": {}, \"rewrites\": {}, \"checks\": {}, \"mismatches\": {}, \
         \"max_impact\": {}, \"total_reverified\": {}, \"reverified_permille\": {}, \
         \"detail\": {}",
        c.coord,
        json_str(c.scheme),
        json_str(c.family.name()),
        c.requested_n,
        c.n,
        json_str(c.polarity.name()),
        c.skipped,
        c.steps,
        c.kinds.0,
        c.kinds.1,
        c.kinds.2,
        c.checks,
        c.mismatches,
        c.max_impact,
        c.total_reverified,
        c.reverified_permille,
        detail_json(&c.detail, c.timeout, include_timing),
    );
    if matches!(c.status, CellStatus::Crashed | CellStatus::TimedOut) {
        let _ = write!(w, ", \"status\": {}", json_str(c.status.name()));
    }
    if include_timing {
        let _ = write!(
            w,
            ", \"incremental_ms\": {}, \"full_ms\": {}",
            c.incremental_ms, c.full_ms
        );
    }
    w
}

impl ChurnCellResult {
    /// A cell that churned nothing: skipped, or crashed in isolation.
    fn unrun(entry: &SchemeEntry, coord: &Coord, status: CellStatus, detail: String) -> Self {
        ChurnCellResult {
            coord: coord.index,
            scheme: entry.id,
            family: coord.family,
            requested_n: coord.n,
            n: 0,
            polarity: coord.polarity,
            steps: 0,
            kinds: (0, 0, 0),
            checks: 0,
            mismatches: 0,
            max_impact: 0,
            total_reverified: 0,
            reverified_permille: 0,
            skipped: status == CellStatus::Skip,
            status,
            incremental_ms: 0,
            full_ms: 0,
            detail,
            timeout: None,
        }
    }
}

impl CampaignCell for ChurnCellResult {
    fn span() -> SpanId {
        crate::metrics::churn_cell_span()
    }

    fn crashed(entry: &SchemeEntry, coord: &Coord, detail: String) -> Self {
        ChurnCellResult::unrun(entry, coord, CellStatus::Crashed, detail)
    }

    fn outcome(&self) -> (CellStatus, u128) {
        (self.status, self.incremental_ms + self.full_ms)
    }

    fn detail_mut(&mut self) -> &mut String {
        &mut self.detail
    }

    fn coord(&self) -> usize {
        self.coord
    }

    fn checkpoint_line(&self) -> String {
        format!("{{ {} }}", churn_cell_fields(self, true))
    }

    fn from_checkpoint(name: &str, doc: &Json, scheme: &'static str) -> Result<Self, MergeError> {
        let mut cell = crate::merge::churn_cell(name, doc, scheme)?;
        let ms = |key| doc.get(key).and_then(Json::as_u128).unwrap_or(0);
        (cell.incremental_ms, cell.full_ms) = (ms("incremental_ms"), ms("full_ms"));
        restore_timeout(&mut cell.detail, &mut cell.timeout, cell.status);
        Ok(cell)
    }
}

fn churn_one(
    entry: &SchemeEntry,
    coord: &Coord,
    config: &CampaignConfig,
    source: &ArtifactSource,
    steps: usize,
) -> ChurnCellResult {
    let req = coord.request(entry, config.seed);
    let mut result = ChurnCellResult::unrun(
        entry,
        coord,
        CellStatus::Skip,
        "polarity not realizable on this family".into(),
    );
    let Some(cell) = entry.build(&req) else {
        return result;
    };
    // The dynamic cell thaws its mutable store from the shared source,
    // so with `--artifact-dir` even churn cells cold-start from mapped
    // cores — the mutation stream and verdicts are unaffected.
    let mut dynamic = DynamicInstance::from_cell(cell.with_source(source.clone()).dynamic_cell());
    result.n = dynamic.n();
    result.skipped = false;
    // Salted so the churn stream never collides with the static
    // campaign's adversarial/tamper streams for the same cell.
    let churn_config = ChurnConfig::new(req.seed ^ 0xd1_5ea5e);
    let deadline = config.cell_deadline();
    let run = run_churn(&mut dynamic, &churn_config, steps, 1, &deadline);
    result.steps = run.steps.len();
    for step in &run.steps {
        match step.mutation {
            Mutation::EdgeInsert(..) => result.kinds.0 += 1,
            Mutation::EdgeDelete(..) => result.kinds.1 += 1,
            Mutation::ProofRewrite(..) => result.kinds.2 += 1,
            Mutation::NodeLabelChange(..) => {}
        }
    }
    result.checks = run.checks;
    result.mismatches = run.mismatches;
    result.max_impact = run.max_impact;
    result.total_reverified = run.total_reverified;
    let full_work = result.steps * result.n.max(1);
    result.reverified_permille = (run.total_reverified * 1000)
        .checked_div(full_work)
        .unwrap_or(0);
    result.incremental_ms = run.incremental_nanos / 1_000_000;
    result.full_ms = run.full_nanos / 1_000_000;
    if run.timed_out {
        result.status = CellStatus::TimedOut;
        result.detail = format!(
            "wall budget expired after {} of {steps} mutations",
            result.steps
        );
        result.timeout = Some(("churn", deadline.polls()));
    } else if run.mismatches == 0 {
        result.status = CellStatus::Pass;
        result.detail = format!(
            "{} mutations, {}‰ of full-sweep verifier work, all {} cross-checks agreed",
            result.steps, result.reverified_permille, result.checks
        );
    } else {
        result.status = CellStatus::Fail;
        result.detail = format!(
            "incremental reverify diverged from from-scratch evaluation on {} of {} checks",
            run.mismatches, run.checks
        );
    }
    result
}

/// The churn campaign over `entries`, assembled into a [`ChurnReport`].
pub(crate) fn churn_campaign(
    entries: &[SchemeEntry],
    config: &CampaignConfig,
    steps: usize,
    progress: &Progress<ChurnCellResult>,
) -> ChurnReport {
    let swept = sweep(entries, config, progress, |entry, coord, source| {
        churn_one(entry, coord, config, source, steps)
    });
    ChurnReport {
        seed: config.seed,
        profile: config.profile.name(),
        steps,
        parallel: true,
        shard: config.shard,
        cells: swept.cells,
        wall_ms: swept.wall_ms,
    }
}

/// Runs the churn campaign over the same matrix the static campaign
/// sweeps — the coordinates come from the same shared enumeration, so
/// churn cells correspond one-to-one to static cells under the shared
/// seed policy (and shard under `--shard i/N` identically).
pub fn run_churn_campaign(config: &CampaignConfig, steps: usize) -> ChurnReport {
    churn_campaign(&filtered_entries(config), config, steps, &Progress::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profile;

    fn tiny_config(scheme: &str) -> CampaignConfig {
        CampaignConfig {
            sizes: vec![8],
            scheme_filter: Some(scheme.into()),
            ..CampaignConfig::for_profile(Profile::Smoke, 7)
        }
    }

    #[test]
    fn churned_registry_cells_stay_equivalent() {
        for scheme in ["bipartite", "eulerian", "spanning-tree"] {
            let report = run_churn_campaign(&tiny_config(scheme), 16);
            assert!(report.ok(), "{scheme}: {:?}", report.failures());
            assert!(report.ran() >= 1, "{scheme} churned no cells");
            for c in report.cells.iter().filter(|c| !c.skipped) {
                assert_eq!(c.checks, c.steps, "every step cross-checked");
            }
        }
    }

    #[test]
    fn churn_report_json_is_deterministic_modulo_timing() {
        let config = tiny_config("bipartite");
        let a = run_churn_campaign(&config, 12).to_json(false);
        let b = run_churn_campaign(&config, 12).to_json(false);
        assert_eq!(a, b);
        assert!(!a.contains("_ms"));
        assert!(a.contains("\"mode\": \"churn\""));
        let timed = run_churn_campaign(&config, 12).to_json(true);
        assert!(timed.contains("incremental_ms"));
    }

    #[test]
    fn incremental_work_is_a_fraction_of_full_sweeps() {
        // On a 32-node cycle with local mutations, incremental
        // re-verification must re-run well under half the verifiers a
        // full sweep per mutation would.
        let config = CampaignConfig {
            sizes: vec![32],
            family_filter: Some(GraphFamily::Cycle),
            ..tiny_config("bipartite")
        };
        let report = run_churn_campaign(&config, 24);
        assert!(report.ok(), "{:?}", report.failures());
        for c in report.cells.iter().filter(|c| !c.skipped) {
            assert!(
                c.reverified_permille < 500,
                "{}/{}: {}‰ — not incremental",
                c.scheme,
                c.family.name(),
                c.reverified_permille
            );
        }
    }
}
