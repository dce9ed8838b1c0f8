//! Checkpoint/resume for campaign shards (`--checkpoint` / `--resume`).
//!
//! A checkpoint file is JSON-lines: one header line carrying the full
//! campaign identity (mode, seed, profile, budgets, filters, shard),
//! then one line per *completed* cell, appended and flushed as cells
//! finish. A shard killed mid-run therefore loses at most the line it
//! was writing; `--resume` tolerates exactly that — a torn final line —
//! and refuses anything else.
//!
//! Resume splices the recovered cells back into the matrix enumeration
//! by their global coordinate and recomputes every aggregate from the
//! union, so a resumed run's report is **byte-identical** to an
//! uninterrupted run of the same configuration (the standing policy
//! `tests/fault_tolerance.rs` pins and the CI kill-and-resume jobs
//! re-check for both modes). `campaign_merge` accepts resumed shards
//! unchanged — they are ordinary shard reports.
//!
//! This module owns the file side only: the header, the writer and the
//! loader, which together make a `Progress`. The crate's single runner
//! (`sweep` in the crate root, reached through [`crate::run_matrix`])
//! owns everything around a cell for both modes — splicing resumed
//! cells in, running the rest in isolation, appending each to the
//! checkpoint. Cell lines reuse the exact serializers of the reports
//! (`cell_fields` / `churn_cell_fields`, with timings) and the merge
//! parsers on the way back in, through each mode's `CampaignCell`
//! impl, so the checkpoint format can never drift from the report
//! format.

use crate::merge::{find_entry, str_field};
use crate::{json_opt, json_str, CampaignCell, CampaignConfig, CellStatus, Mode};
use lcp_core::json::Json;
use lcp_schemes::registry::SchemeEntry;
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
/// byte-equal.
pub(crate) fn header_line(config: &CampaignConfig, mode: Mode) -> String {
    let (mode, steps) = match mode {
        Mode::Static => ("static", None),
        Mode::Churn { steps } => ("churn", Some(steps)),
    };
    let mut w = String::with_capacity(256);
    let _ = write!(
        w,
        "{{ \"checkpoint\": 1, \"mode\": {}, \"seed\": {}, \"profile\": {}, \"parallel\": true, \
         \"shard\": {}, \"sizes\": [{}], \"tamper_trials\": {}, \"adversarial_iterations\": {}, \
         \"exhaustive_limit\": {}, \"cell_budget_ms\": {}, \"scheme\": {}, \"family\": {}",
        json_str(mode),
        config.seed,
        json_str(config.profile.name()),
        json_opt(config.shard.map(|s| json_str(&s.to_string()))),
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
            .map_err(|e| CheckpointError(format!("{name}: {e}")))
            .and_then(|doc| {
                str_field(&name, &doc, "scheme")
                    .and_then(|id| find_entry(&name, entries, id))
                    .and_then(|entry| C::from_checkpoint(&name, &doc, entry.id))
                    .map_err(|e| CheckpointError(e.0))
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
pub(crate) fn restore_timeout(
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

    /// Loads `resume` (a missing file is a fresh run), then opens
    /// `checkpoint` seeded with the recovered cells, so the file stays
    /// self-contained (and any torn line is compacted away). Both files
    /// are identified by `header`.
    pub(crate) fn open(
        header: &str,
        entries: &[SchemeEntry],
        checkpoint: Option<&str>,
        resume: Option<&str>,
    ) -> Result<Self, CheckpointError> {
        let resumed = match resume {
            Some(path) => load(path, header, entries)?,
            None => BTreeMap::new(),
        };
        let writer = checkpoint
            .map(|path| {
                CheckpointWriter::create(path, header, resumed.values().map(C::checkpoint_line))
            })
            .transpose()?;
        Ok(Progress { resumed, writer })
    }
}
