//! Checkpoint/resume for campaign runs (`--checkpoint` / `--resume`).
//!
//! A checkpoint file is JSON-lines: one header line carrying the
//! campaign identity (mode, seed, profile, budgets, filters), then one
//! line per *completed* cell, appended and flushed as cells finish. A
//! run killed mid-way therefore loses at most the line it was writing;
//! `--resume` tolerates exactly that — a torn final line — and refuses
//! anything else.
//!
//! Resume splices the recovered cells back into the matrix enumeration
//! by their global coordinate and recomputes every aggregate from the
//! union, so a resumed run's report is **byte-identical** to an
//! uninterrupted run of the same configuration (the standing policy
//! `tests/fault_tolerance.rs` pins and the CI kill-and-resume jobs
//! re-check for both modes). This splice is also how a sharded campaign
//! is reassembled: the header names no shard (cell seeds depend only on
//! coordinates, so which shard ran a cell never changes its result), and
//! `--resume` may be repeated, so one unsharded run resuming every
//! shard's checkpoint rebuilds the whole report, running any cell no
//! file recorded.
//!
//! This module owns the file side only: the header, the writer, the
//! loader and its cell parsers, which together make a `Progress`. The
//! crate's single runner (`sweep` in the crate root, reached through
//! [`crate::run_matrix`]) owns everything around a cell for both modes —
//! splicing resumed cells in, running the rest in isolation, appending
//! each to the checkpoint. Cell lines reuse the exact serializers of the
//! reports (`cell_fields` / `churn_cell_fields`, with timings), and the
//! parsers here read back every field those write, so the checkpoint
//! format can never drift from the report format.

use crate::churn::ChurnCellResult;
use crate::{json_opt, json_str, CampaignCell, CampaignConfig, CellResult, CellStatus, Mode};
use lcp_core::dynamic::TamperProbe;
use lcp_core::json::Json;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{Polarity, SchemeEntry};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;

/// Why a checkpoint file refused to load (or be created).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// The header line: every knob that affects cell results or the matrix
/// enumeration. Two runs may share checkpoints iff their headers are
/// byte-equal — whatever shard each ran, since the shard selects cells
/// but never changes one.
pub(crate) fn header_line(config: &CampaignConfig, mode: Mode) -> String {
    let (mode, steps) = match mode {
        Mode::Static => ("static", None),
        Mode::Churn { steps } => ("churn", Some(steps)),
    };
    let mut w = String::with_capacity(256);
    let _ = write!(
        w,
        "{{ \"checkpoint\": 2, \"mode\": {}, \"seed\": {}, \"profile\": {}, \"parallel\": true, \
         \"sizes\": [{}], \"tamper_trials\": {}, \"adversarial_iterations\": {}, \
         \"exhaustive_limit\": {}, \"cell_budget_ms\": {}, \"scheme\": {}, \"family\": {}",
        json_str(mode),
        config.seed,
        json_str(config.profile.name()),
        config
            .sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        config.tamper_trials,
        config.adversarial_iterations,
        config.exhaustive_limit,
        json_opt(config.cell_budget_ms),
        json_opt(config.scheme_filter.as_deref().map(json_str)),
        json_opt(config.family_filter.map(|f| json_str(f.name()))),
    );
    if let Some(steps) = steps {
        let _ = write!(w, ", \"steps\": {steps}");
    }
    w.push_str(" }");
    w
}

/// Append-and-flush writer shared across worker threads. Write failures
/// degrade to warnings: a broken checkpoint must never take down the
/// campaign it exists to protect.
pub struct CheckpointWriter {
    path: String,
    file: Mutex<std::fs::File>,
}

impl CheckpointWriter {
    /// Creates (truncating) `path` with the header and any cells already
    /// recovered by resume, so the file is self-contained from the first
    /// byte: killing the process at any later point loses at most one
    /// torn trailing line.
    fn create(
        path: &str,
        header: &str,
        initial: impl Iterator<Item = String>,
    ) -> Result<CheckpointWriter, CheckpointError> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| CheckpointError(format!("cannot create checkpoint {path}: {e}")))?;
        let mut text = String::with_capacity(header.len() + 1);
        text.push_str(header);
        text.push('\n');
        for line in initial {
            text.push_str(&line);
            text.push('\n');
        }
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| CheckpointError(format!("cannot write checkpoint {path}: {e}")))?;
        Ok(CheckpointWriter {
            path: path.to_string(),
            file: Mutex::new(file),
        })
    }

    /// Appends one completed-cell line and flushes it to the OS.
    pub(crate) fn append(&self, line: &str) {
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!("warning: checkpoint {}: {e}", self.path);
        }
    }
}

/// Loads the cells a checkpoint recorded, validating its header and
/// tolerating a torn (unparseable) **final** line — the signature a
/// SIGKILL mid-append leaves behind. Any earlier damage refuses the
/// resume. A missing file is a fresh run: nothing to resume.
fn load<C: CampaignCell>(
    path: &str,
    header: &str,
    entries: &[SchemeEntry],
) -> Result<BTreeMap<usize, C>, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => {
            return Err(CheckpointError(format!(
                "cannot read checkpoint {path}: {e}"
            )))
        }
    };
    // Non-blank lines with their 1-based line numbers in the file.
    let lines: Vec<(usize, &str)> = (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let Some(((_, first), lines)) = lines.split_first() else {
        return Ok(BTreeMap::new());
    };
    if *first != header {
        return Err(CheckpointError(format!(
            "checkpoint {path} was written by a different campaign configuration \
             (header mismatch); refusing to resume"
        )));
    }
    let mut cells = BTreeMap::new();
    for (pos, (line_no, line)) in lines.iter().enumerate() {
        let name = format!("{path}:{line_no}");
        let parsed = Json::parse(line)
            .map_err(|e| fail(&name, e))
            .and_then(|doc| {
                let id = str_field(&name, &doc, "scheme")?;
                let entry = entries
                    .iter()
                    .find(|e| e.id == id)
                    .ok_or_else(|| fail(&name, format_args!("unknown scheme id \"{id}\"")))?;
                C::from_checkpoint(&name, &doc, entry.id)
            });
        match parsed {
            // Duplicate coords (an interrupted rewrite) resolve to the
            // latest line, matching append order.
            Ok(cell) => {
                cells.insert(cell.coord(), cell);
            }
            Err(e) if pos + 1 == lines.len() => {
                eprintln!("note: dropping torn final checkpoint line ({e})");
            }
            Err(e) => return Err(e),
        }
    }
    Ok(cells)
}

fn fail(name: &str, msg: impl fmt::Display) -> CheckpointError {
    CheckpointError(format!("{name}: {msg}"))
}

fn field<'j>(name: &str, obj: &'j Json, key: &str) -> Result<&'j Json, CheckpointError> {
    obj.get(key)
        .ok_or_else(|| fail(name, format_args!("missing field \"{key}\"")))
}

fn str_field<'j>(name: &str, obj: &'j Json, key: &str) -> Result<&'j str, CheckpointError> {
    field(name, obj, key)?
        .as_str()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not a string")))
}

fn usize_field(name: &str, obj: &Json, key: &str) -> Result<usize, CheckpointError> {
    field(name, obj, key)?
        .as_usize()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not an integer")))
}

fn bool_field(name: &str, obj: &Json, key: &str) -> Result<bool, CheckpointError> {
    field(name, obj, key)?
        .as_bool()
        .ok_or_else(|| fail(name, format_args!("\"{key}\" is not a boolean")))
}

/// `null` → `None`, integer → `Some`.
fn opt_usize_field(name: &str, obj: &Json, key: &str) -> Result<Option<usize>, CheckpointError> {
    match field(name, obj, key)? {
        Json::Null => Ok(None),
        v => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| fail(name, format_args!("\"{key}\" is not an integer or null"))),
    }
}

/// A timed field (`wall_ms`, `incremental_ms`, `full_ms`); 0 when absent.
fn ms_field(obj: &Json, key: &str) -> u128 {
    obj.get(key).and_then(Json::as_u128).unwrap_or(0)
}

fn polarity(name: &str, obj: &Json) -> Result<Polarity, CheckpointError> {
    match str_field(name, obj, "polarity")? {
        "yes" => Ok(Polarity::Yes),
        "no" => Ok(Polarity::No),
        other => Err(fail(name, format_args!("unknown polarity \"{other}\""))),
    }
}

fn family(name: &str, obj: &Json) -> Result<GraphFamily, CheckpointError> {
    let raw = str_field(name, obj, "family")?;
    GraphFamily::parse(raw).ok_or_else(|| fail(name, format_args!("unknown family \"{raw}\"")))
}

fn static_check(name: &str, raw: &str) -> Result<&'static str, CheckpointError> {
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

fn cell_status(name: &str, raw: &str) -> Result<CellStatus, CheckpointError> {
    use CellStatus::*;
    [Pass, Fail, Skip, Crashed, TimedOut]
        .into_iter()
        .find(|s| s.name() == raw)
        .ok_or_else(|| fail(name, format_args!("unknown status \"{raw}\"")))
}

/// Parses one static cell line (what `cell_fields` wrote, with timings)
/// back into the [`CellResult`] an uninterrupted run would hold.
pub(crate) fn static_cell(
    name: &str,
    obj: &Json,
    scheme: &'static str,
) -> Result<CellResult, CheckpointError> {
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
    let mut cell = CellResult {
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
        timeout: None,
        wall_ms: ms_field(obj, "wall_ms"),
    };
    restore_timeout(&mut cell.detail, &mut cell.timeout, status);
    Ok(cell)
}

/// Parses one churn cell line (what `churn_cell_fields` wrote, with
/// timings) back into the [`ChurnCellResult`] an uninterrupted run would
/// hold.
pub(crate) fn churn_cell(
    name: &str,
    obj: &Json,
    scheme: &'static str,
) -> Result<ChurnCellResult, CheckpointError> {
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
    let mut cell = ChurnCellResult {
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
        incremental_ms: ms_field(obj, "incremental_ms"),
        full_ms: ms_field(obj, "full_ms"),
        detail: str_field(name, obj, "detail")?.to_string(),
        timeout: None,
    };
    restore_timeout(&mut cell.detail, &mut cell.timeout, status);
    Ok(cell)
}

/// The closed set of phase names a timed-out cell can report in its
/// `timeout` field; keeping it closed is what lets the loader map a
/// parsed phase back to a `&'static str`.
const TIMEOUT_PHASES: [&str; 4] = ["completeness", "exhaustive", "adversarial", "churn"];

/// Checkpoint lines are written in the timed form, so a timed-out
/// cell's detail carries the enrichment [`crate::detail_json`] adds.
/// Splitting it back into the structured `timeout` field restores the
/// in-memory shape an uninterrupted run would have produced — the
/// resumed `--no-timing` report stays byte-identical, and a timed
/// re-serialization renders the enrichment (rather than doubling it). A
/// detail without a well-formed suffix is kept untouched.
fn restore_timeout(
    detail: &mut String,
    timeout: &mut Option<(&'static str, u64)>,
    status: CellStatus,
) {
    if status != CellStatus::TimedOut {
        return;
    }
    let split = |detail: &str| {
        let idx = detail.rfind(" [timed out in the ")?;
        let rest = detail[idx..]
            .strip_prefix(" [timed out in the ")?
            .strip_suffix(" deadline polls]")?;
        let (phase_raw, polls_raw) = rest.split_once(" phase after ")?;
        let phase = TIMEOUT_PHASES.iter().find(|&&p| p == phase_raw)?;
        Some((idx, *phase, polls_raw.parse().ok()?))
    };
    if let Some((idx, phase, polls)) = split(detail) {
        detail.truncate(idx);
        *timeout = Some((phase, polls));
    }
}

/// A run's checkpoint state: the cells recovered from `--resume`, and
/// the writer recording this run's progress (`--checkpoint`).
pub(crate) struct Progress<C> {
    pub(crate) resumed: BTreeMap<usize, C>,
    pub(crate) writer: Option<CheckpointWriter>,
}

impl<C: CampaignCell> Progress<C> {
    /// No checkpoint files: nothing resumed, nothing recorded.
    pub(crate) fn none() -> Self {
        Progress {
            resumed: BTreeMap::new(),
            writer: None,
        }
    }

    /// Loads every `resume` file in turn (a missing file recovers
    /// nothing) and unions their cells — on a coordinate recorded twice
    /// the later file wins, as the later line does within one file. Then
    /// opens `checkpoint` seeded with the union, so the file stays
    /// self-contained (and any torn line is compacted away). Every file
    /// is identified by `header`.
    pub(crate) fn open(
        header: &str,
        entries: &[SchemeEntry],
        checkpoint: Option<&str>,
        resume: &[&str],
    ) -> Result<Self, CheckpointError> {
        let mut resumed = BTreeMap::new();
        for path in resume {
            resumed.extend(load(path, header, entries)?);
        }
        let writer = checkpoint
            .map(|path| {
                CheckpointWriter::create(path, header, resumed.values().map(C::checkpoint_line))
            })
            .transpose()?;
        Ok(Progress { resumed, writer })
    }
}
