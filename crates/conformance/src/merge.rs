//! Shard fan-in: merge `--shard i/N` campaign reports back into the
//! whole-matrix report (the `campaign_merge` bin).
//!
//! Sharded campaigns split the shared coordinate enumeration
//! round-robin; each shard writes an ordinary report whose cells carry
//! their **global** coordinate index plus a `"shard"` header block. This
//! module parses those artifacts (via [`lcp_core::json`]), validates the
//! set — same seed/profile/configuration, every shard present exactly
//! once, coordinate union gapless and duplicate-free, per-shard
//! summaries consistent with their cells — and reassembles the full
//! [`Report`] (or [`ChurnReport`] for `--churn` shards), re-deriving the
//! aggregates (summary counts, size points, growth fits) from the
//! *union* of cells rather than trusting any per-shard value.
//!
//! The merged report's `to_json(false)` is byte-identical to what the
//! unsharded campaign would have written with `--no-timing` — the
//! invariant `tests/sharding.rs` pins and CI's 2-shard checks re-check
//! on every merge.

use crate::churn::{ChurnCellResult, ChurnReport};
use crate::{
    campaign_registry, fit_growth, scheme_shells, CampaignReport, CellResult, CellStatus, Report,
};
use lcp_core::dynamic::TamperProbe;
use lcp_core::json::Json;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{Polarity, SchemeEntry};
use std::collections::BTreeSet;
use std::fmt;

/// Why a set of shard reports refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeError(pub String);

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// Parses and merges shard reports; `inputs` pairs a display name (the
/// file path) with the raw JSON text.
///
/// Both campaign modes are accepted (detected from the `"mode"` header),
/// but never mixed in one merge.
///
/// # Errors
///
/// Any syntax error, header mismatch between shards, missing/duplicate
/// shard, or coordinate-coverage gap refuses the whole merge.
pub fn merge_reports(inputs: &[(String, String)]) -> Result<CampaignReport, MergeError> {
    if inputs.is_empty() {
        return Err(MergeError("no shard reports to merge".into()));
    }
    let docs: Vec<(&str, Json)> = inputs
        .iter()
        .map(|(name, text)| {
            Json::parse(text)
                .map(|doc| (name.as_str(), doc))
                .map_err(|e| MergeError(format!("{name}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let churn = docs[0].1.get("mode").and_then(Json::as_str) == Some("churn");
    for (name, doc) in &docs {
        let this = doc.get("mode").and_then(Json::as_str) == Some("churn");
        if this != churn {
            return Err(MergeError(format!(
                "{name}: cannot mix static and churn shard reports in one merge"
            )));
        }
    }
    if churn {
        merge_churn(&docs).map(CampaignReport::Churn)
    } else {
        merge_static(&docs).map(CampaignReport::Static)
    }
}

// ---------------------------------------------------------------------
// Field extraction helpers
// ---------------------------------------------------------------------

fn fail(name: &str, msg: impl fmt::Display) -> MergeError {
    MergeError(format!("{name}: {msg}"))
}

fn field<'j>(name: &str, obj: &'j Json, key: &str) -> Result<&'j Json, MergeError> {
    obj.get(key)
        .ok_or_else(|| fail(name, format_args!("missing field \"{key}\"")))
}

pub(crate) fn str_field<'j>(name: &str, obj: &'j Json, key: &str) -> Result<&'j str, MergeError> {
    field(name, obj, key)?
        .as_str()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not a string")))
}

fn usize_field(name: &str, obj: &Json, key: &str) -> Result<usize, MergeError> {
    field(name, obj, key)?
        .as_usize()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not an integer")))
}

fn u64_field(name: &str, obj: &Json, key: &str) -> Result<u64, MergeError> {
    field(name, obj, key)?
        .as_u64()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not a u64")))
}

fn bool_field(name: &str, obj: &Json, key: &str) -> Result<bool, MergeError> {
    field(name, obj, key)?
        .as_bool()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not a boolean")))
}

/// `null` → `None`, integer → `Some`.
fn opt_usize_field(name: &str, obj: &Json, key: &str) -> Result<Option<usize>, MergeError> {
    match field(name, obj, key)? {
        Json::Null => Ok(None),
        v => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| fail(name, format_args!("\"{key}\" is not an integer or null"))),
    }
}

fn array_field<'j>(name: &str, obj: &'j Json, key: &str) -> Result<&'j [Json], MergeError> {
    field(name, obj, key)?
        .as_array()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not an array")))
}

fn polarity(name: &str, obj: &Json) -> Result<Polarity, MergeError> {
    match str_field(name, obj, "polarity")? {
        "yes" => Ok(Polarity::Yes),
        "no" => Ok(Polarity::No),
        other => Err(fail(name, format_args!("unknown polarity \"{other}\""))),
    }
}

fn family(name: &str, obj: &Json) -> Result<GraphFamily, MergeError> {
    let raw = str_field(name, obj, "family")?;
    GraphFamily::parse(raw).ok_or_else(|| fail(name, format_args!("unknown family \"{raw}\"")))
}

// ---------------------------------------------------------------------
// Shard-set validation
// ---------------------------------------------------------------------

/// The header fields every shard of one campaign must agree on.
struct Header {
    seed: u64,
    profile: String,
    parallel: bool,
    shard_count: usize,
    shard_index: usize,
}

fn header(name: &str, doc: &Json) -> Result<Header, MergeError> {
    let version = u64_field(name, doc, "version")?;
    if version != 1 {
        return Err(fail(name, format_args!("unsupported version {version}")));
    }
    let shard = field(name, doc, "shard").map_err(|_| {
        fail(
            name,
            "not a shard report (no \"shard\" header — was it produced with --shard i/N?)",
        )
    })?;
    Ok(Header {
        seed: u64_field(name, doc, "seed")?,
        profile: str_field(name, doc, "profile")?.to_string(),
        parallel: bool_field(name, doc, "parallel")?,
        shard_count: usize_field(name, shard, "count")?,
        shard_index: usize_field(name, shard, "index")?,
    })
}

/// Validates the shard set as a whole and returns the agreed headers in
/// input order.
fn check_shard_set(docs: &[(&str, Json)]) -> Result<Vec<Header>, MergeError> {
    let headers: Vec<Header> = docs
        .iter()
        .map(|(name, doc)| header(name, doc))
        .collect::<Result<_, _>>()?;
    let first = &headers[0];
    // Sized by the inputs, never by a shard count read from them: a
    // hostile count must not drive an allocation.
    let mut seen = BTreeSet::new();
    for ((name, _), h) in docs.iter().zip(&headers) {
        if h.seed != first.seed || h.profile != first.profile {
            return Err(fail(
                name,
                format_args!(
                    "shard disagrees on the campaign (seed {} profile {} vs seed {} profile {})",
                    h.seed, h.profile, first.seed, first.profile
                ),
            ));
        }
        if h.parallel != first.parallel {
            return Err(fail(name, "shard disagrees on the parallel flag"));
        }
        if h.shard_count != first.shard_count {
            return Err(fail(
                name,
                format_args!(
                    "shard count {} disagrees with {}",
                    h.shard_count, first.shard_count
                ),
            ));
        }
        if h.shard_index >= h.shard_count {
            return Err(fail(name, "shard index out of range"));
        }
        if !seen.insert(h.shard_index) {
            return Err(fail(
                name,
                format_args!("duplicate shard {}/{}", h.shard_index, h.shard_count),
            ));
        }
    }
    // Distinct in-range indices: the set is complete iff there are
    // `count` of them. Otherwise name the first few missing shards.
    if docs.len() != first.shard_count {
        const LISTED: usize = 8;
        let missing: Vec<String> = (0..first.shard_count)
            .filter(|i| !seen.contains(i))
            .take(LISTED)
            .map(|i| format!("{i}/{}", first.shard_count))
            .collect();
        let more = if first.shard_count - docs.len() > LISTED {
            ", …"
        } else {
            ""
        };
        return Err(MergeError(format!(
            "incomplete shard set: got {} of {} shards (missing {}{more})",
            docs.len(),
            first.shard_count,
            missing.join(", ")
        )));
    }
    Ok(headers)
}

/// Checks that the merged coordinates are exactly `0..total`, no
/// duplicates, no gaps.
fn check_coverage(mut coords: Vec<usize>) -> Result<(), MergeError> {
    coords.sort_unstable();
    for (expect, &got) in coords.iter().enumerate() {
        if got != expect {
            return Err(MergeError(format!(
                "coordinate coverage broken at {expect}: {}",
                if got > expect {
                    format!("cell {expect} is missing")
                } else {
                    format!("cell {got} appears twice")
                }
            )));
        }
    }
    Ok(())
}

/// Per-shard invariant: a shard's summary matches its own cells.
fn check_summary(name: &str, doc: &Json, shard_cells: usize) -> Result<(), MergeError> {
    if usize_field(name, field(name, doc, "summary")?, "cells")? != shard_cells {
        return Err(fail(name, "shard summary disagrees with its cell count"));
    }
    Ok(())
}

/// Looks a scheme id up among `entries` (the source of the `&'static`
/// metadata a rebuilt cell needs).
pub(crate) fn find_entry(
    name: &str,
    entries: &[SchemeEntry],
    id: &str,
) -> Result<SchemeEntry, MergeError> {
    entries
        .iter()
        .find(|e| e.id == id)
        .copied()
        .ok_or_else(|| fail(name, format_args!("unknown scheme id \"{id}\"")))
}

// ---------------------------------------------------------------------
// Static merge
// ---------------------------------------------------------------------

fn static_check(name: &str, raw: &str) -> Result<&'static str, MergeError> {
    let known = [
        "completeness",
        "soundness-exhaustive",
        "soundness-adversarial",
        "inapplicable",
        "isolation",
    ];
    known
        .into_iter()
        .find(|&k| k == raw)
        .ok_or_else(|| fail(name, format_args!("unknown check \"{raw}\"")))
}

fn cell_status(name: &str, raw: &str) -> Result<CellStatus, MergeError> {
    use CellStatus::*;
    [Pass, Fail, Skip, Crashed, TimedOut]
        .into_iter()
        .find(|s| s.name() == raw)
        .ok_or_else(|| fail(name, format_args!("unknown status \"{raw}\"")))
}

pub(crate) fn static_cell(
    name: &str,
    obj: &Json,
    scheme: &'static str,
) -> Result<CellResult, MergeError> {
    let status = cell_status(name, str_field(name, obj, "status")?)?;
    let tamper = match field(name, obj, "tamper")? {
        Json::Null => None,
        t => Some(TamperProbe {
            trials: usize_field(name, t, "trials")?,
            detected: usize_field(name, t, "detected")?,
            undetected: usize_field(name, t, "undetected")?,
            witness: opt_usize_field(name, t, "witness")?,
        }),
    };
    Ok(CellResult {
        coord: usize_field(name, obj, "coord")?,
        scheme,
        family: family(name, obj)?,
        requested_n: usize_field(name, obj, "requested_n")?,
        n: usize_field(name, obj, "n")?,
        polarity: polarity(name, obj)?,
        holds: bool_field(name, obj, "holds")?,
        status,
        check: static_check(name, str_field(name, obj, "check")?)?,
        proof_bits: opt_usize_field(name, obj, "proof_bits")?,
        witness_node: opt_usize_field(name, obj, "witness_node")?,
        tamper,
        detail: str_field(name, obj, "detail")?.to_string(),
        // Shards are merged from their deterministic (--no-timing) form;
        // the merged report is only ever serialized without timings, and
        // the timeout enrichment exists only in timed output.
        timeout: None,
        wall_ms: 0,
    })
}

fn merge_static(docs: &[(&str, Json)]) -> Result<Report, MergeError> {
    let headers = check_shard_set(docs)?;
    let registry = campaign_registry();

    // The scheme lists (ids, in order) must agree across shards — they
    // are the same filtered registry in every process.
    let (first, first_doc) = &docs[0];
    let entries: Vec<SchemeEntry> = array_field(first, first_doc, "schemes")?
        .iter()
        .map(|s| find_entry(first, &registry, str_field(first, s, "id")?))
        .collect::<Result<_, _>>()?;

    let mut shells = scheme_shells(&entries);
    let mut coords = Vec::new();
    for (name, doc) in docs {
        let schemes = array_field(name, doc, "schemes")?;
        if schemes.len() != entries.len() {
            return Err(fail(name, "shard disagrees on the scheme list"));
        }
        let mut shard_cells = 0usize;
        for (idx, scheme) in schemes.iter().enumerate() {
            let id = str_field(name, scheme, "id")?;
            if id != entries[idx].id {
                return Err(fail(
                    name,
                    format_args!("shard disagrees on the scheme list at #{idx} ({id})"),
                ));
            }
            for cell in array_field(name, scheme, "cells")? {
                let parsed = static_cell(name, cell, entries[idx].id)?;
                coords.push(parsed.coord);
                shells[idx].cells.push(parsed);
                shard_cells += 1;
            }
        }
        check_summary(name, doc, shard_cells)?;
    }
    check_coverage(coords)?;
    for shell in &mut shells {
        shell.cells.sort_by_key(|c| c.coord);
    }
    fit_growth(&mut shells);

    Ok(Report {
        seed: headers[0].seed,
        profile: profile_static(&headers[0].profile),
        parallel: headers[0].parallel,
        shard: None,
        schemes: shells,
        cache_hits: 0,
        cache_misses: 0,
        wall_ms: 0,
    })
}

/// Maps a parsed profile name back to its `&'static` form (reports store
/// profile names as static strings).
fn profile_static(name: &str) -> &'static str {
    match crate::Profile::parse(name) {
        Some(p) => p.name(),
        // Unknown profile names only arise from hand-edited reports;
        // keep the merge going with a recognizable marker.
        None => "unknown",
    }
}

// ---------------------------------------------------------------------
// Churn merge
// ---------------------------------------------------------------------

pub(crate) fn churn_cell(
    name: &str,
    obj: &Json,
    scheme: &'static str,
) -> Result<ChurnCellResult, MergeError> {
    let skipped = bool_field(name, obj, "skipped")?;
    let mismatches = usize_field(name, obj, "mismatches")?;
    // The "status" key is only written for crashed/timed_out cells; for
    // the ordinary verdicts it is fully determined by skipped/mismatches.
    let status = match obj.get("status") {
        Some(raw) => {
            let raw = raw
                .as_str()
                .ok_or_else(|| fail(name, "\"status\" is not a string"))?;
            cell_status(name, raw)?
        }
        None if skipped => CellStatus::Skip,
        None if mismatches > 0 => CellStatus::Fail,
        None => CellStatus::Pass,
    };
    Ok(ChurnCellResult {
        coord: usize_field(name, obj, "coord")?,
        scheme,
        family: family(name, obj)?,
        requested_n: usize_field(name, obj, "requested_n")?,
        n: usize_field(name, obj, "n")?,
        polarity: polarity(name, obj)?,
        steps: usize_field(name, obj, "steps")?,
        kinds: (
            usize_field(name, obj, "inserts")?,
            usize_field(name, obj, "deletes")?,
            usize_field(name, obj, "rewrites")?,
        ),
        checks: usize_field(name, obj, "checks")?,
        mismatches,
        max_impact: usize_field(name, obj, "max_impact")?,
        total_reverified: usize_field(name, obj, "total_reverified")?,
        reverified_permille: usize_field(name, obj, "reverified_permille")?,
        skipped,
        status,
        incremental_ms: 0,
        full_ms: 0,
        detail: str_field(name, obj, "detail")?.to_string(),
        timeout: None,
    })
}

fn merge_churn(docs: &[(&str, Json)]) -> Result<ChurnReport, MergeError> {
    let headers = check_shard_set(docs)?;
    let registry = campaign_registry();
    let steps = usize_field(docs[0].0, &docs[0].1, "steps_per_cell")?;

    let mut cells = Vec::new();
    for (name, doc) in docs {
        if usize_field(name, doc, "steps_per_cell")? != steps {
            return Err(fail(name, "shard disagrees on steps_per_cell"));
        }
        let shard_cells = array_field(name, doc, "cells")?;
        for cell in shard_cells {
            let entry = find_entry(name, &registry, str_field(name, cell, "scheme")?)?;
            cells.push(churn_cell(name, cell, entry.id)?);
        }
        check_summary(name, doc, shard_cells.len())?;
    }
    check_coverage(cells.iter().map(|c| c.coord).collect())?;
    cells.sort_by_key(|c| c.coord);

    Ok(ChurnReport {
        seed: headers[0].seed,
        profile: profile_static(&headers[0].profile),
        steps,
        parallel: headers[0].parallel,
        shard: None,
        cells,
        wall_ms: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign, CampaignConfig, Profile, Shard};

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

    fn shard_inputs(seed: u64, count: usize) -> Vec<(String, String)> {
        (0..count)
            .map(|index| {
                let report = run_campaign(&tiny(seed, Some(Shard { index, count })));
                (format!("shard{index}.json"), report.to_json(false))
            })
            .collect()
    }

    #[test]
    fn merge_rebuilds_the_unsharded_bytes() {
        let whole = run_campaign(&tiny(7, None)).to_json(false);
        let merged = merge_reports(&shard_inputs(7, 2)).expect("mergeable");
        assert_eq!(merged.to_json(false), whole);
    }

    #[test]
    fn refuses_mixed_seeds_and_missing_shards() {
        let mut inputs = shard_inputs(7, 2);
        let err = merge_reports(&inputs[..1]).unwrap_err();
        assert!(err.0.contains("incomplete shard set"), "{err}");

        inputs[1] = shard_inputs(8, 2).remove(1);
        let err = merge_reports(&inputs).unwrap_err();
        assert!(err.0.contains("disagrees on the campaign"), "{err}");
    }

    #[test]
    fn refuses_duplicate_shards_and_unsharded_inputs() {
        let inputs = shard_inputs(7, 2);
        let dup = vec![inputs[0].clone(), inputs[0].clone()];
        let err = merge_reports(&dup).unwrap_err();
        assert!(err.0.contains("duplicate shard"), "{err}");

        let whole = run_campaign(&tiny(7, None)).to_json(false);
        let err = merge_reports(&[("whole.json".into(), whole)]).unwrap_err();
        assert!(err.0.contains("not a shard report"), "{err}");
    }
}
