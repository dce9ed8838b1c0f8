//! The layer replay of a traced run.
//!
//! The benchmark adds no spans to the program. Instead it calls each
//! layer's public function itself, on the same inputs the workloads use,
//! and times every call from outside: one accumulator per function, fed
//! wherever the replay calls it. Where one call contains another the
//! replay reports self time (`sweep` = completeness minus its prove).
//! Counts come from the lcp-obs statics the layers already export.
//!
//! The replay has four parts, the same on every workload:
//!
//! * **resident** — the serve-resident cells: registry build, a fresh
//!   core build, prove and completeness sweep, and the session's mutate
//!   pairs applied in process;
//! * **cold** — the serve-cold cells: registry build, fresh core build,
//!   `FrozenCore::open` of the cell's artifact file, an `ArtifactStore`
//!   prepare with the core evicted, and `InstanceTable::get_or_load`
//!   rotating through a table of capacity 2;
//! * **campaign** — the full-profile static and churn matrices with every
//!   check called one by one (same seeds, budgets and sharing as
//!   `run_campaign`), plus the exhaustive no-cells again under
//!   `BatchPolicy::Scalar` as a reference;
//! * **wire** — a daemon answering raw `mutate` frames, with
//!   `Request::parse` timed in process and the daemon's own
//!   `lcp_serve_request_ns` scraped before and after.

use crate::daemon::{Daemon, DaemonOpts};
use crate::serve::{cold_cells, request_of, resident_cells, session_cell, session_pairs};
use crate::util::{derive, median, ms_since, prom_value, WorkDir};
use lcp_conformance::churn::default_steps;
use lcp_conformance::{campaign_registry, CampaignConfig, Profile};
use lcp_core::harness::{GrowthClass, Soundness};
use lcp_core::json::Json;
use lcp_core::metrics as engine;
use lcp_core::{
    ArtifactSource, ArtifactStore, BatchPolicy, CoreProvenance, Deadline, DynScheme, FrozenCore,
    SkeletonCache,
};
use lcp_dynamic::churn::{ChurnConfig, ChurnStream};
use lcp_dynamic::{DynamicInstance, Mutation};
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{self, CellRequest, Polarity, SchemeEntry};
use lcp_serve::protocol::{read_frame, write_frame};
use lcp_serve::{CellCoord, InstanceTable, Request, WireMutation};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Raw `mutate` frames the wire part sends (pairs of two).
const WIRE_PAIRS: usize = 200;

/// Busy time and call count of one layer function.
#[derive(Default)]
struct Acc {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Acc {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    fn ms(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e6
    }

    fn calls(&self) -> f64 {
        self.calls.load(Relaxed) as f64
    }

    fn mean_us(&self) -> f64 {
        self.ms() * 1e3 / self.calls().max(1.0)
    }
}

/// One accumulator per timed public function.
#[derive(Default)]
struct Timers {
    /// `SchemeEntry::build`.
    registry: Acc,
    /// `DynScheme::prepare_skeletons` through `ArtifactSource::BuildFresh`.
    core_build: Acc,
    /// The same through an `ArtifactStore` whose in-process tier is empty.
    core_load: Acc,
    /// `FrozenCore::open`.
    core_open: Acc,
    open_bytes: AtomicU64,
    /// `DynScheme::prove`.
    prove: Acc,
    proof_bits: AtomicU64,
    /// `DynScheme::check_completeness_within` (prove + sweep).
    completeness: Acc,
    swept_nodes: AtomicU64,
    /// `DynScheme::check_soundness_exhaustive_within`.
    exhaustive: Acc,
    /// The same under `BatchPolicy::Scalar`.
    exhaustive_scalar: Acc,
    /// `DynScheme::adversarial_search_within`.
    adversarial: Acc,
    /// `DynScheme::tamper_probe`.
    tamper: Acc,
    /// `DynamicInstance::apply_verified`.
    apply: Acc,
    /// `DynamicInstance::full_check`.
    full_check: Acc,
    /// `InstanceTable::get_or_load`.
    table_load: Acc,
    /// `Request::parse`.
    parse: Acc,
}

/// Attempted checks and wrong answers of the replay.
#[derive(Default)]
struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    problems: Mutex<Vec<String>>,
}

impl Tally {
    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Relaxed);
        if !ok {
            self.failed.fetch_add(1, Relaxed);
            let mut problems = self.problems.lock().expect("problem list lock");
            if problems.len() < 8 {
                problems.push(what());
            }
        }
    }
}

/// The lcp-obs counters the replay reads, in a fixed order.
#[derive(Clone, Copy)]
enum C {
    Prepares,
    CacheHits,
    CacheMisses,
    ExhaustiveCandidates,
    ExhaustiveBatched,
    ExhaustiveScalar,
    MemoHits,
    MemoMisses,
    FillsKernel,
    FillsScalar,
    AdversarialSteps,
    AdversarialBatched,
    AdversarialScalar,
    ReverifiedNodes,
}

type Counters = [f64; 14];

fn counters() -> Counters {
    [
        engine::PREPARES.get(),
        engine::SKELETON_CACHE_HITS.get(),
        engine::SKELETON_CACHE_MISSES.get(),
        engine::EXHAUSTIVE_CANDIDATES.get(),
        engine::EXHAUSTIVE_BATCHED.get(),
        engine::EXHAUSTIVE_SCALAR.get(),
        engine::MEMO_HITS.get(),
        engine::MEMO_MISSES.get(),
        engine::MASK_FILLS_KERNEL.get(),
        engine::MASK_FILLS_SCALAR.get(),
        engine::ADVERSARIAL_STEPS.get(),
        engine::ADVERSARIAL_BATCHED.get(),
        engine::ADVERSARIAL_SCALAR.get(),
        lcp_dynamic::metrics::REVERIFIED_NODES.get(),
    ]
    .map(|v| v as f64)
}

fn delta(after: &Counters, before: &Counters, c: C) -> f64 {
    after[c as usize] - before[c as usize]
}

/// `part / (part + rest)`, 0 when both are 0.
fn share(part: f64, rest: f64) -> f64 {
    part / (part + rest).max(1.0)
}

/// What the replay measured.
pub struct Replay {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Wall time of the replayed static campaign pass.
    pub static_wall_ms: f64,
    /// Wall time of the replayed churn campaign pass.
    pub churn_wall_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Runs all four parts for `seed` and derives the per-layer metrics.
pub fn replay(seed: u64) -> Result<Replay, String> {
    let work = WorkDir::new("layers")?;
    let t = Timers::default();
    let tally = Tally::default();
    let start = counters();

    resident_part(seed, &t, &tally)?;
    cold_part(seed, &t, &tally, work.path())?;
    let table = table_part(seed, &t, &tally, work.path())?;
    let campaign = campaign_part(seed, &t, &tally);
    let wire = wire_part(seed, &t, &tally, &work)?;
    let end = counters();
    let (s0, s1) = (&campaign.static_before, &campaign.static_after);

    let sweep_ms = t.completeness.ms() - t.prove.ms();
    let metrics: Vec<(&str, f64, &'static str)> = vec![
        ("registry.build_ms", t.registry.ms(), "ms"),
        ("registry.builds", t.registry.calls(), "count"),
        ("core.build_ms", t.core_build.ms(), "ms"),
        ("core.builds", delta(&end, &start, C::Prepares), "count"),
        ("core.load_ms", t.core_load.ms(), "ms"),
        ("core.open_ms", t.core_open.ms(), "ms"),
        (
            "core.open_mb",
            t.open_bytes.load(Relaxed) as f64 / (1 << 20) as f64,
            "MB",
        ),
        (
            "core.cache_hit_ratio",
            share(delta(s1, s0, C::CacheHits), delta(s1, s0, C::CacheMisses)),
            "ratio",
        ),
        ("prover.ms", t.prove.ms(), "ms"),
        ("prover.calls", t.prove.calls(), "count"),
        (
            "prover.bits_per_node",
            t.proof_bits.load(Relaxed) as f64 / t.prove.calls().max(1.0),
            "bits",
        ),
        ("sweep.ms", sweep_ms, "ms"),
        (
            "sweep.ns_per_node",
            sweep_ms * 1e6 / (t.swept_nodes.load(Relaxed) as f64).max(1.0),
            "ns",
        ),
        ("search.exhaustive_ms", t.exhaustive.ms(), "ms"),
        (
            "search.exhaustive_candidates",
            delta(s1, s0, C::ExhaustiveCandidates),
            "count",
        ),
        (
            "search.exhaustive_batched_share",
            share(
                delta(s1, s0, C::ExhaustiveBatched),
                delta(s1, s0, C::ExhaustiveScalar),
            ),
            "ratio",
        ),
        (
            "search.exhaustive_scalar_ms",
            t.exhaustive_scalar.ms(),
            "ms",
        ),
        (
            "search.memo_hit_ratio",
            share(delta(s1, s0, C::MemoHits), delta(s1, s0, C::MemoMisses)),
            "ratio",
        ),
        (
            "search.mask_fill_kernel_share",
            share(delta(s1, s0, C::FillsKernel), delta(s1, s0, C::FillsScalar)),
            "ratio",
        ),
        ("search.adversarial_ms", t.adversarial.ms(), "ms"),
        (
            "search.adversarial_steps",
            delta(s1, s0, C::AdversarialSteps),
            "count",
        ),
        (
            "search.adversarial_batched_share",
            share(
                delta(s1, s0, C::AdversarialBatched),
                delta(s1, s0, C::AdversarialScalar),
            ),
            "ratio",
        ),
        ("search.tamper_ms", t.tamper.ms(), "ms"),
        ("dynamic.apply_us", t.apply.mean_us(), "us"),
        (
            "dynamic.reverified_nodes_per_op",
            delta(&end, &start, C::ReverifiedNodes) / t.apply.calls().max(1.0),
            "count",
        ),
        ("dynamic.full_check_ms", t.full_check.ms(), "ms"),
        ("dynamic.full_checks", t.full_check.calls(), "count"),
        ("wire.server_us", wire.server_us, "us"),
        (
            "wire.overhead_us",
            wire.round_trip_us - wire.server_us,
            "us",
        ),
        ("wire.bytes_per_op", wire.bytes_per_op, "B"),
        ("wire.parse_us", t.parse.mean_us(), "us"),
        (
            "table.load_ms",
            t.table_load.ms() / t.table_load.calls().max(1.0),
            "ms",
        ),
        ("table.loads", table.loads, "count"),
        ("table.evictions", table.evictions, "count"),
        ("table.hit_ratio", table.hit_ratio, "ratio"),
        ("campaign.cell_p50_ms", median(&campaign.cell_ms), "ms"),
        ("campaign.cells", campaign.cells as f64, "count"),
    ];
    Ok(Replay {
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit))
            .collect(),
        static_wall_ms: campaign.static_wall_ms,
        churn_wall_ms: campaign.churn_wall_ms,
        attempted: tally.attempted.load(Relaxed),
        failed: tally.failed.load(Relaxed),
        problems: tally.problems.into_inner().expect("problem list lock"),
    })
}

fn entry_for(c: &CellCoord) -> Result<SchemeEntry, String> {
    registry::find(&c.scheme).ok_or_else(|| format!("{} is not in the registry", c.scheme))
}

fn build(t: &Timers, entry: &SchemeEntry, req: &CellRequest) -> Result<DynScheme, String> {
    t.registry
        .time(|| entry.build(req))
        .ok_or_else(|| format!("{} has no cell for {req:?}", entry.id))
}

fn fresh_cache() -> ArtifactSource {
    ArtifactSource::Cache(Arc::new(SkeletonCache::new()))
}

fn mapped(dir: &Path) -> Result<ArtifactSource, String> {
    ArtifactStore::open(dir)
        .map(|store| ArtifactSource::MappedDir(Arc::new(store)))
        .map_err(|e| format!("artifact dir {}: {e}", dir.display()))
}

/// Prove, then the completeness check that proves again and sweeps —
/// the difference is the sweep's self time.
fn prove_and_sweep(cell: &DynScheme, t: &Timers, tally: &Tally) -> bool {
    if let Some(proof) = t.prove.time(|| cell.prove()) {
        t.proof_bits.fetch_add(proof.size() as u64, Relaxed);
    }
    let verdict = t
        .completeness
        .time(|| cell.check_completeness_within(&Deadline::none()));
    t.swept_nodes.fetch_add(cell.n() as u64, Relaxed);
    let ok = matches!(verdict, Ok(Some(_)));
    tally.check(ok, || {
        format!("completeness failed on {}: {verdict:?}", cell.name())
    });
    ok
}

fn to_mutation(m: &WireMutation) -> Mutation {
    match m {
        WireMutation::EdgeInsert(u, v) => Mutation::EdgeInsert(*u, *v),
        WireMutation::EdgeDelete(u, v) => Mutation::EdgeDelete(*u, *v),
        WireMutation::ProofRewrite(v, bits) => Mutation::ProofRewrite(*v, bits.clone()),
        WireMutation::NodeLabelChange(..) => unreachable!("session pairs never relabel"),
    }
}

// ---------------------------------------------------------------------
// resident
// ---------------------------------------------------------------------

fn resident_part(seed: u64, t: &Timers, tally: &Tally) -> Result<(), String> {
    let cells = resident_cells(seed);
    for c in &cells {
        let entry = entry_for(c)?;
        let cell = build(t, &entry, &request_of(c))?;
        t.core_build.time(|| cell.prepare_skeletons());
        let cell = cell.with_source(fresh_cache());
        cell.prepare_skeletons();
        prove_and_sweep(&cell, t, tally);
    }

    let session = session_cell(&cells);
    let cell = build(t, &entry_for(session)?, &request_of(session))?;
    let mut inst = DynamicInstance::from_cell(cell.dynamic_cell());
    let start = inst.reverify();
    for pair in session_pairs(session, derive(seed, 7))? {
        let mut last = None;
        for m in &pair {
            match t.apply.time(|| inst.apply_verified(&to_mutation(m))) {
                Ok(applied) => last = Some((applied.outcome.accepted, applied.outcome.witness)),
                Err(e) => tally.check(false, || format!("apply {}: {e}", m.kind())),
            }
        }
        tally.check(last == Some((start.accepted, start.witness)), || {
            "a mutate pair did not restore the session verdict".into()
        });
    }
    let full = t.full_check.time(|| inst.full_check());
    tally.check(full.accepted() == start.accepted, || {
        "full check disagrees with the session verdict".into()
    });
    Ok(())
}

// ---------------------------------------------------------------------
// cold
// ---------------------------------------------------------------------

/// Opens an artifact file as the label types its scheme seals.
fn open_core(scheme: &str, path: &Path) -> Result<(), String> {
    let opened = match scheme {
        "leader-election" => FrozenCore::<bool, ()>::open(path, None).map(drop),
        _ => FrozenCore::<(), ()>::open(path, None).map(drop),
    };
    opened.map_err(|e| format!("open {}: {e}", path.display()))
}

fn only_file(dir: &Path) -> Result<PathBuf, String> {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    match files.as_slice() {
        [one] => Ok(one.clone()),
        _ => Err(format!(
            "{} holds {} files, not one",
            dir.display(),
            files.len()
        )),
    }
}

fn cold_part(seed: u64, t: &Timers, tally: &Tally, work: &Path) -> Result<(), String> {
    for (i, c) in cold_cells(seed).iter().enumerate() {
        let (entry, req) = (entry_for(c)?, request_of(c));
        let cell = build(t, &entry, &req)?;
        t.core_build.time(|| cell.prepare_skeletons());

        // Persist this cell's core alone in its own directory.
        let dir = work.join(format!("cold-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let warm = build(t, &entry, &req)?.with_source(mapped(&dir)?);
        let made = warm.prepare_skeletons();
        tally.check(made == CoreProvenance::Built, || {
            format!("warming cold cell {i} gave {made:?}")
        });

        let file = only_file(&dir)?;
        let bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
        t.open_bytes.fetch_add(bytes, Relaxed);
        let opened = t.core_open.time(|| open_core(&c.scheme, &file));
        tally.check(opened.is_ok(), || format!("{opened:?}"));

        // A fresh store over the same directory: the in-process tier is
        // empty, so the core must come back from the file.
        let cold = build(t, &entry, &req)?.with_source(mapped(&dir)?);
        let got = t.core_load.time(|| cold.prepare_skeletons());
        tally.check(got == CoreProvenance::ArtifactLoaded, || {
            format!("cold cell {i} came back as {got:?}")
        });
    }
    Ok(())
}

struct TableCounts {
    loads: f64,
    evictions: f64,
    hit_ratio: f64,
}

/// Two rotations of the cold cells through an in-process table of
/// capacity 2 over one directory holding all their artifact files.
fn table_part(seed: u64, t: &Timers, tally: &Tally, work: &Path) -> Result<TableCounts, String> {
    let cells = cold_cells(seed);
    let dir = work.join("table");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for i in 0..cells.len() {
        let file = only_file(&work.join(format!("cold-{i}")))?;
        let name = file.file_name().expect("artifact files have names");
        std::fs::copy(&file, dir.join(name))
            .map_err(|e| format!("copy {}: {e}", file.display()))?;
    }
    let table = InstanceTable::with_source(2, mapped(&dir)?);
    let rounds = 2;
    for _ in 0..rounds {
        for c in &cells {
            let got = t.table_load.time(|| table.get_or_load(c));
            tally.check(got.as_ref().is_ok_and(|cell| cell.holds()), || {
                format!("table load of {} {}: {got:?}", c.scheme, c.n)
            });
        }
    }
    let s = table.stats();
    tally.check(s.cores_loaded == s.loads && s.cores_built == 0, || {
        format!("table loads were not all from disk: {s:?}")
    });
    let lookups = (rounds * cells.len()) as f64;
    Ok(TableCounts {
        loads: s.loads as f64,
        evictions: s.evictions as f64,
        hit_ratio: 1.0 - s.loads as f64 / lookups,
    })
}

// ---------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------

/// One matrix cell, enumerated as the conformance campaign does.
struct Plan {
    entry: usize,
    req: CellRequest,
}

/// The campaign's cell-seed derivation: FNV-1a over the scheme id, then
/// splitmix rounds over the other coordinates.
fn cell_seed(seed: u64, id: &str, family: GraphFamily, n: usize, polarity: Polarity) -> u64 {
    let id_hash = id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
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

/// The campaign matrix: families × sizes × polarities per entry, sizes
/// clamped by `max_n` and duplicates enumerated once.
fn matrix(entries: &[SchemeEntry], config: &CampaignConfig) -> Vec<Plan> {
    let mut plan = Vec::new();
    for (entry, e) in entries.iter().enumerate() {
        let mut seen = std::collections::BTreeSet::new();
        for &family in e.families {
            for &n in &config.sizes {
                for polarity in [Polarity::Yes, Polarity::No] {
                    if seen.insert((family, n.min(e.max_n), polarity)) {
                        let seed = cell_seed(config.seed, e.id, family, n, polarity);
                        let req = CellRequest {
                            family,
                            n,
                            seed,
                            polarity,
                        };
                        plan.push(Plan { entry, req });
                    }
                }
            }
        }
    }
    plan
}

/// The campaign's adversarial size budget for a claimed growth class.
fn adversarial_budget(class: GrowthClass, n: usize) -> usize {
    match class {
        GrowthClass::Zero => 1,
        GrowthClass::Constant => 2,
        GrowthClass::Logarithmic => n.max(2).ilog2() as usize + 2,
        GrowthClass::Linear => n.min(24),
        GrowthClass::Quadratic => (n * n).min(48),
    }
}

/// Maps `f` over `items` on one thread per core, one contiguous chunk
/// each — the campaign runner's split.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

struct CampaignOut {
    static_wall_ms: f64,
    churn_wall_ms: f64,
    cell_ms: Vec<f64>,
    cells: usize,
    static_before: Counters,
    static_after: Counters,
}

fn campaign_part(seed: u64, t: &Timers, tally: &Tally) -> CampaignOut {
    let entries = campaign_registry();
    let config = CampaignConfig::for_profile(Profile::Full, seed);
    let plan = matrix(&entries, &config);

    let source = fresh_cache();
    let static_before = counters();
    let started = Instant::now();
    let static_cells = par_map(&plan, |p| {
        let t0 = Instant::now();
        let ran = static_cell(&entries[p.entry], &p.req, &config, &source, t, tally);
        ran.map(|exhaustive| (ms_since(t0), exhaustive))
    });
    let static_wall_ms = ms_since(started);
    let static_after = counters();

    // The scalar reference: the exhaustive no-cells again, batching off.
    for (p, ran) in plan.iter().zip(&static_cells) {
        if ran.is_some_and(|(_, exhaustive)| exhaustive) {
            let cell = entries[p.entry]
                .build(&p.req)
                .expect("built once already")
                .with_source(source.clone())
                .with_batch(BatchPolicy::Scalar);
            let r = t
                .exhaustive_scalar
                .time(|| cell.check_soundness_exhaustive_within(1, &Deadline::none()));
            tally.check(!matches!(r, Ok(Soundness::Violated(_))), || {
                format!(
                    "scalar exhaustive search on {} found a violation",
                    cell.name()
                )
            });
        }
    }

    let steps = default_steps(Profile::Full);
    let churn_source = fresh_cache();
    let started = Instant::now();
    let churned = par_map(&plan, |p| {
        churn_cell(&entries[p.entry], &p.req, steps, &churn_source, t, tally)
    });
    let churn_wall_ms = ms_since(started);

    let cell_ms: Vec<f64> = static_cells.iter().flatten().map(|(ms, _)| *ms).collect();
    CampaignOut {
        static_wall_ms,
        churn_wall_ms,
        cells: cell_ms.len() + churned.iter().filter(|&&ran| ran).count(),
        cell_ms,
        static_before,
        static_after,
    }
}

/// One static cell, check by check. `None` for an unbuildable cell,
/// else whether the exhaustive search ran.
fn static_cell(
    entry: &SchemeEntry,
    req: &CellRequest,
    config: &CampaignConfig,
    source: &ArtifactSource,
    t: &Timers,
    tally: &Tally,
) -> Option<bool> {
    let cell = t
        .registry
        .time(|| entry.build(req))?
        .with_source(source.clone());
    if cell.holds() {
        if prove_and_sweep(&cell, t, tally) {
            t.tamper
                .time(|| cell.tamper_probe(config.tamper_trials, req.seed ^ 0xa5a5));
        }
        return Some(false);
    }
    let space = 3u128.checked_pow(cell.n() as u32);
    if space.is_some_and(|s| s <= config.exhaustive_limit) {
        let r = t
            .exhaustive
            .time(|| cell.check_soundness_exhaustive_within(1, &Deadline::none()));
        tally.check(!matches!(r, Ok(Soundness::Violated(_))), || {
            format!("exhaustive search on {} found a violation", cell.name())
        });
        return Some(true);
    }
    let budget = adversarial_budget(entry.claimed_growth, cell.n());
    let forged = t.adversarial.time(|| {
        cell.adversarial_search_within(
            budget,
            config.adversarial_iterations,
            req.seed ^ 0x5a5a,
            &Deadline::none(),
        )
    });
    tally.check(forged.is_none(), || {
        format!("adversarial search forged a proof on {}", cell.name())
    });
    Some(false)
}

/// One churn cell: the campaign's seeded mutation stream, each step
/// applied incrementally and cross-checked from scratch. Whether the
/// cell was buildable.
fn churn_cell(
    entry: &SchemeEntry,
    req: &CellRequest,
    steps: usize,
    source: &ArtifactSource,
    t: &Timers,
    tally: &Tally,
) -> bool {
    let Some(cell) = t.registry.time(|| entry.build(req)) else {
        return false;
    };
    let mut inst = DynamicInstance::from_cell(cell.with_source(source.clone()).dynamic_cell());
    let mut stream = ChurnStream::new(ChurnConfig::new(req.seed ^ 0xd1_5ea5e));
    inst.reverify();
    let mut mismatches = 0;
    for _ in 0..steps {
        let Some(m) = stream.propose(&inst) else {
            break;
        };
        let Ok(applied) = t.apply.time(|| inst.apply_verified(&m)) else {
            mismatches += 1;
            continue;
        };
        let full = t.full_check.time(|| inst.full_check());
        let witness = full.rejecting().first().copied();
        if (full.accepted(), witness) != (applied.outcome.accepted, applied.outcome.witness) {
            mismatches += 1;
        }
    }
    tally.check(mismatches == 0, || {
        format!("{mismatches} churn mismatches on {} {req:?}", entry.id)
    });
    true
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

struct WireOut {
    server_us: f64,
    round_trip_us: f64,
    bytes_per_op: f64,
}

/// One raw frame exchange: the parsed response, its round trip in µs
/// and the bytes both frames took on the wire.
fn exchange(stream: &mut TcpStream, payload: &str) -> Result<(Json, f64, usize), String> {
    let t = Instant::now();
    write_frame(stream, payload).map_err(|e| format!("write frame: {e}"))?;
    let reply = read_frame(stream, &|| false)
        .map_err(|e| format!("read frame: {e}"))?
        .ok_or("the daemon closed the connection")?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    let doc = Json::parse(&reply).map_err(|e| format!("bad response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {reply}"));
    }
    Ok((doc, us, payload.len() + reply.len() + 8))
}

fn scrape(stream: &mut TcpStream) -> Result<String, String> {
    let (doc, _, _) = exchange(stream, "{\"op\":\"metrics\"}")?;
    doc.get("body")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "metrics response without a body".into())
}

fn wire_part(seed: u64, t: &Timers, tally: &Tally, work: &WorkDir) -> Result<WireOut, String> {
    let cells = resident_cells(seed);
    let session = session_cell(&cells);
    let pairs = session_pairs(session, derive(seed, 7))?;
    let opts = DaemonOpts {
        workers: 2,
        capacity: 1,
        preload: None,
    };
    let daemon = Daemon::start(work.path(), &opts)?;
    let mut stream = TcpStream::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let open = format!("{{\"op\":\"session-open\",{}}}", session.render_fields());
    let (opened, _, _) = exchange(&mut stream, &open)?;
    let verdict = |doc: &Json| {
        (
            doc.get("accepted").and_then(Json::as_bool),
            doc.get("witness").and_then(Json::as_u64),
        )
    };
    let start = verdict(&opened);

    let before = scrape(&mut stream)?;
    let (mut round_trip_us, mut bytes, mut ops) = (0.0, 0, 0);
    for pair in pairs.iter().cycle().take(WIRE_PAIRS) {
        let mut last = None;
        for m in pair {
            let payload = format!("{{\"op\":\"mutate\",{}}}", m.render_fields());
            let parsed = t.parse.time(|| Request::parse(&payload));
            tally.check(parsed.is_ok(), || {
                format!("Request::parse refused {payload}")
            });
            let (doc, us, b) = exchange(&mut stream, &payload)?;
            last = Some(verdict(&doc));
            round_trip_us += us;
            bytes += b;
            ops += 1;
        }
        tally.check(last == Some(start), || {
            "a raw mutate pair did not restore the session verdict".into()
        });
    }
    let after = scrape(&mut stream)?;
    drop(stream);
    daemon.stop()?;

    let series = |kind: &str, text: &str| {
        prom_value(
            text,
            &format!("lcp_serve_request_ns_{kind}{{op=\"mutate\"}}"),
        )
    };
    let served = series("count", &after) - series("count", &before);
    tally.check(served == ops as f64, || {
        format!("the daemon counted {served} mutates, the client sent {ops}")
    });
    let ops = ops.max(1) as f64;
    Ok(WireOut {
        server_us: (series("sum", &after) - series("sum", &before)) / 1e3 / served.max(1.0),
        round_trip_us: round_trip_us / ops,
        bytes_per_op: bytes as f64 / ops,
    })
}
