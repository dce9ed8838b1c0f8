//! The two daemon workloads, driven over loopback with `lcp_serve::Client`.
//!
//! * `serve-resident`: three cells stay resident; connection A sends
//!   `verify` requests rotating over them while connection B streams
//!   `mutate` pairs through one churn session.
//! * `serve-cold`: twelve cells rotate through a table of capacity 2 on
//!   a daemon preloaded from a warmed artifact directory, so every
//!   `prepare` maps its core back from disk.

use crate::daemon::{Daemon, DaemonOpts};
use crate::util::{derive, ms_since, prom_value, SplitMix, WorkDir};
use crate::{Run, Stream};
use lcp_core::json::Json;
use lcp_core::BitString;
use lcp_dynamic::DynamicInstance;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{self, CellRequest, Polarity};
use lcp_serve::{CellCoord, Client, WireMutation};
use std::time::{Duration, Instant};

/// The schemes both serve workloads load.
pub const SCHEMES: [&str; 3] = ["bipartite", "spanning-tree", "leader-election"];

/// The scheme whose resident cell holds the churn session.
pub const SESSION_SCHEME: &str = "bipartite";

/// Node count of the resident cells.
pub const RESIDENT_N: usize = 10_000;

/// Mutation pairs generated per session (cycled when exhausted).
const PAIRS: usize = 256;

/// Connection B's pause after each mutate pair.
const PAIR_PAUSE: Duration = Duration::from_millis(1);

/// Mutate pairs a session serves before connection B renews it.
const SESSION_PAIRS: usize = 2048;

/// The resident cell that holds the churn session.
pub fn session_cell(cells: &[CellCoord]) -> &CellCoord {
    cells
        .iter()
        .find(|c| c.scheme == SESSION_SCHEME)
        .expect("the session scheme is resident")
}

/// The resident cells: every scheme on an n = 10⁴ cycle.
pub fn resident_cells(seed: u64) -> Vec<CellCoord> {
    SCHEMES
        .iter()
        .enumerate()
        .map(|(i, scheme)| {
            coord(
                scheme,
                GraphFamily::Cycle,
                RESIDENT_N,
                derive(seed, i as u64),
            )
        })
        .collect()
}

/// The cold rotation: schemes × {cycle, grid} × n ∈ {10⁴, 10⁵}.
pub fn cold_cells(seed: u64) -> Vec<CellCoord> {
    let mut cells = Vec::new();
    for scheme in SCHEMES {
        for family in [GraphFamily::Cycle, GraphFamily::Grid] {
            for n in [10_000, 100_000] {
                let salt = 100 + cells.len() as u64;
                cells.push(coord(scheme, family, n, derive(seed, salt)));
            }
        }
    }
    cells
}

fn coord(scheme: &str, family: GraphFamily, n: usize, seed: u64) -> CellCoord {
    CellCoord {
        scheme: scheme.into(),
        family,
        n,
        seed,
        polarity: Polarity::Yes,
    }
}

pub fn request_of(c: &CellCoord) -> CellRequest {
    CellRequest {
        family: c.family,
        n: c.n,
        seed: c.seed,
        polarity: c.polarity,
    }
}

/// A mutation pair that returns the session to its previous state.
pub type Pair = [WireMutation; 2];

/// Generates mutate pairs for the session cell: even pairs insert and
/// delete a chord, odd pairs rewrite one node's proof and restore it.
/// The generator builds the cell locally only to read its graph and
/// honest proof; the daemon sees nothing but the requests.
pub fn session_pairs(cell: &CellCoord, seed: u64) -> Result<Vec<Pair>, String> {
    let entry = registry::find(&cell.scheme).ok_or("session scheme not in the registry")?;
    let sealed = entry
        .build(&request_of(cell))
        .ok_or("session cell is not buildable")?;
    let inst = DynamicInstance::from_cell(sealed.dynamic_cell());
    let (graph, proof) = (inst.graph(), inst.proof());
    let n = graph.n();
    let mut rng = SplitMix::new(seed);
    let mut pairs = Vec::with_capacity(PAIRS);
    while pairs.len() < PAIRS {
        let u = rng.below(n);
        if pairs.len() % 2 == 0 {
            let v = rng.below(n);
            if u != v && !graph.has_edge(u, v) {
                pairs.push([
                    WireMutation::EdgeInsert(u, v),
                    WireMutation::EdgeDelete(u, v),
                ]);
            }
        } else {
            let honest: Vec<bool> = proof.get(u).iter().collect();
            let mut forged = honest.clone();
            match forged.first_mut() {
                Some(b) => *b = !*b,
                None => forged.push(true),
            }
            pairs.push([
                WireMutation::ProofRewrite(u, BitString::from_bits(forged)),
                WireMutation::ProofRewrite(u, BitString::from_bits(honest)),
            ]);
        }
    }
    Ok(pairs)
}

fn flag(doc: &Json, key: &str) -> Option<bool> {
    doc.get(key).and_then(Json::as_bool)
}

/// `accepted` and `witness` of a session-open or mutate response.
fn verdict(doc: &Json) -> (Option<bool>, Option<u64>) {
    (
        flag(doc, "accepted"),
        doc.get("witness").and_then(Json::as_u64),
    )
}

fn stat(doc: &Json, group: &str, key: &str) -> u64 {
    doc.get(group)
        .and_then(|g| g.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

/// Daemon-side mean of `lcp_serve_request_ns{op}` between two scrapes,
/// in microseconds.
fn server_us(before: &str, after: &str, op: &str) -> f64 {
    let series = |kind: &str, text: &str| {
        prom_value(text, &format!("lcp_serve_request_ns_{kind}{{op=\"{op}\"}}"))
    };
    let count = series("count", after) - series("count", before);
    (series("sum", after) - series("sum", before)) / count.max(1.0) / 1e3
}

// ---------------------------------------------------------------------
// serve-resident
// ---------------------------------------------------------------------

struct Resident {
    daemon: Daemon,
    a: Client,
    b: Client,
    holds: Vec<bool>,
    start: (Option<bool>, Option<u64>),
}

fn start_resident(work: &WorkDir, cells: &[CellCoord]) -> Result<Resident, String> {
    let opts = DaemonOpts {
        workers: 2,
        capacity: cells.len(),
        preload: None,
    };
    let daemon = Daemon::start(work.path(), &opts)?;
    let mut a = daemon.connect()?;
    let mut holds = Vec::new();
    for c in cells {
        let doc = a
            .prepare(c)
            .map_err(|e| format!("prepare {}: {e}", c.scheme))?;
        holds.push(flag(&doc, "holds").ok_or("prepare response without holds")?);
    }
    let mut b = daemon.connect()?;
    let opened = b
        .session_open(session_cell(cells))
        .map_err(|e| format!("session-open: {e}"))?;
    Ok(Resident {
        daemon,
        a,
        b,
        holds,
        start: verdict(&opened),
    })
}

/// Runs `serve-resident`: `setup_reps` timed set-ups (the last one is
/// kept), then `seconds` of closed-loop traffic on both connections.
pub fn resident(seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Result<Run, String> {
    let work = WorkDir::new("resident")?;
    let cells = resident_cells(seed);
    let session = session_cell(&cells);
    let pairs = session_pairs(session, derive(seed, 7))?;

    let mut run = Run::default();
    let mut kept = None;
    for _ in 0..setup_reps.max(1) {
        let t = Instant::now();
        let state = start_resident(&work, &cells)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(Resident { daemon, a, b, .. }) = kept.replace(state) {
            drop((a, b));
            daemon.stop()?;
        }
    }
    let Resident {
        daemon,
        mut a,
        mut b,
        holds,
        start,
    } = kept.expect("at least one set-up");

    let misses = |c: &mut Client| -> Result<u64, String> {
        let s = c.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(stat(&s, "skeletons", "misses"))
    };
    let misses_before = misses(&mut a)?;
    let scrape_before = if traced {
        a.metrics_text().map_err(|e| format!("metrics: {e}"))?
    } else {
        String::new()
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (verify, mutate) = std::thread::scope(|s| {
        let stream_a = s.spawn(|| {
            let mut out = Stream::default();
            let mut i = 0;
            // Whole rotations only, so every run weighs the cells alike.
            while i % cells.len() != 0 || Instant::now() < deadline {
                let k = i % cells.len();
                let t = Instant::now();
                let reply = a.verify(&cells[k], None);
                out.record(k, ms_since(t));
                match reply {
                    Ok(doc) if flag(&doc, "accepted") == Some(holds[k]) => {}
                    Ok(_) => out.wrong(format!("verify {} disagrees with holds", cells[k].scheme)),
                    Err(e) => out.wrong(format!("verify {}: {e}", cells[k].scheme)),
                }
                i += 1;
            }
            out
        });
        let stream_b = s.spawn(|| {
            let mut out = Stream::default();
            let mut i = 0;
            while Instant::now() < deadline {
                let pair = &pairs[i % pairs.len()];
                let mut last = None;
                for (half, m) in pair.iter().enumerate() {
                    let t = Instant::now();
                    let reply = b.mutate(m);
                    // Classes: chord insert, chord delete, proof
                    // rewrite, proof restore.
                    out.record(2 * (i % 2) + half, ms_since(t));
                    match reply {
                        Ok(doc) => last = Some(verdict(&doc)),
                        Err(e) => out.wrong(format!("mutate {}: {e}", m.kind())),
                    }
                }
                if last.is_some_and(|v| v != start) {
                    out.wrong(format!(
                        "mutate pair {i} did not restore the session verdict"
                    ));
                }
                i += 1;
                // Think time between pairs: a busy-looping writer would
                // hold a core of its own and of the daemon, and verify
                // latencies would swing with how the two streams happen
                // to interleave.
                std::thread::sleep(PAIR_PAUSE);
                // A session logs every mutation; renewing it bounds the
                // daemon's memory by SESSION_PAIRS, not by how many
                // pairs fit in the run (which would tie peak_rss_mb to
                // mutate speed). The renewal is not timed.
                if i % SESSION_PAIRS == 0 {
                    let renewed = b
                        .session_close()
                        .and_then(|_| b.session_open(session))
                        .map(|doc| verdict(&doc));
                    match renewed {
                        Ok(v) if v == start => {}
                        Ok(_) => out.wrong("a renewed session changed its verdict".into()),
                        Err(e) => out.wrong(format!("session renewal: {e}")),
                    }
                }
            }
            out
        });
        (
            stream_a.join().expect("connection A thread"),
            stream_b.join().expect("connection B thread"),
        )
    });

    if misses(&mut a)? != misses_before {
        run.problems
            .push("skeletons.misses moved while timing resident verifies".into());
    }
    if traced {
        let scrape_after = a.metrics_text().map_err(|e| format!("metrics: {e}"))?;
        eprintln!(
            "serve-resident trace: daemon-side verify {:.1} us, mutate {:.1} us",
            server_us(&scrape_before, &scrape_after, "verify"),
            server_us(&scrape_before, &scrape_after, "mutate")
        );
    }
    run.peak_rss_mb = daemon.peak_rss_mb();
    b.session_close()
        .map_err(|e| format!("session-close: {e}"))?;
    drop((a, b));
    daemon.stop()?;
    run.attempted = (verify.count() + mutate.count()) as u64;
    (run.main, run.side) = (verify, mutate);
    Ok(run)
}

// ---------------------------------------------------------------------
// serve-cold
// ---------------------------------------------------------------------

/// Warms a fresh artifact directory through a daemon of its own, then
/// starts the daemon under test over it. Returns the daemon, its client
/// and each cell's ground truth.
fn start_cold(
    work: &WorkDir,
    rep: usize,
    cells: &[CellCoord],
) -> Result<(Daemon, Client, Vec<bool>), String> {
    let dir = work.path().join(format!("artifacts-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let warm = DaemonOpts {
        workers: 1,
        capacity: cells.len(),
        preload: Some(dir.clone()),
    };
    let warmer = Daemon::start(work.path(), &warm)?;
    let mut client = warmer.connect()?;
    let mut holds = Vec::new();
    for c in cells {
        let doc = client
            .prepare(c)
            .map_err(|e| format!("warm {} {}: {e}", c.scheme, c.n))?;
        holds.push(flag(&doc, "holds").ok_or("prepare response without holds")?);
    }
    drop(client);
    warmer.stop()?;

    let opts = DaemonOpts {
        workers: 2,
        capacity: 2,
        preload: Some(dir),
    };
    let daemon = Daemon::start(work.path(), &opts)?;
    let client = daemon.connect()?;
    Ok((daemon, client, holds))
}

/// Runs `serve-cold`: timed set-ups (warm a directory, start the daemon
/// over it), then `seconds` of `prepare` requests rotating over twelve
/// cells, each followed by a `stats` read that checks its provenance.
pub fn cold(seed: u64, seconds: f64, setup_reps: usize, traced: bool) -> Result<Run, String> {
    let work = WorkDir::new("cold")?;
    let cells = cold_cells(seed);
    let mut run = Run::default();
    let mut kept: Option<(Daemon, Client, Vec<bool>)> = None;
    for rep in 0..setup_reps.max(1) {
        let t = Instant::now();
        let state = start_cold(&work, rep, &cells)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, client, _)) = kept.replace(state) {
            drop(client);
            old.stop()?;
        }
    }
    let (daemon, mut client, holds) = kept.expect("at least one set-up");
    let scrape_before = if traced {
        client.metrics_text().map_err(|e| format!("metrics: {e}"))?
    } else {
        String::new()
    };

    // One untimed rotation first. Without it a run settles into one of
    // two speeds some 30 % apart, depending on how the daemon's first
    // large allocations and frees happened to fall.
    for c in &cells {
        client
            .prepare(c)
            .map_err(|e| format!("warm-up prepare {}: {e}", c.scheme))?;
    }
    let warmed = cells.len() as u64;

    // Loads of the n = 10⁴ cells (even positions of the rotation) and of
    // the n = 10⁵ cells (odd positions); one class per cell.
    let mut loads = [Stream::default(), Stream::default()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    // Whole rotations only: the twelve cells differ tenfold in cost, so
    // a partial rotation would shift the percentiles.
    while i % cells.len() != 0 || Instant::now() < deadline {
        let k = i % cells.len();
        let stream = &mut loads[k % 2];
        let t = Instant::now();
        let reply = client.prepare(&cells[k]);
        stream.record(k / 2, ms_since(t));
        match reply {
            Ok(doc) if flag(&doc, "holds") == Some(holds[k]) => {}
            Ok(_) => stream.wrong(format!(
                "prepare {} changed its ground truth",
                cells[k].scheme
            )),
            Err(e) => stream.wrong(format!("prepare {}: {e}", cells[k].scheme)),
        }
        // The provenance read is a check, not a timed operation.
        match client.stats() {
            Ok(doc) => {
                // Every timed load must be a map from disk: nothing
                // built, nothing adopted from the in-process cache.
                let got = (
                    stat(&doc, "cores", "artifact_loaded"),
                    stat(&doc, "cores", "built"),
                    stat(&doc, "cores", "cache_hit"),
                );
                if got != (warmed + i as u64 + 1, 0, 0) && run.problems.is_empty() {
                    run.problems.push(format!(
                        "load {i} was not cold: cores (artifact_loaded, built, cache_hit) = {got:?}"
                    ));
                }
            }
            Err(e) => loads[k % 2].wrong(format!("stats: {e}")),
        }
        i += 1;
    }

    if traced {
        let scrape_after = client.metrics_text().map_err(|e| format!("metrics: {e}"))?;
        eprintln!(
            "serve-cold trace: daemon-side prepare {:.1} us",
            server_us(&scrape_before, &scrape_after, "prepare"),
        );
    }
    run.peak_rss_mb = daemon.peak_rss_mb();
    drop(client);
    daemon.stop()?;
    // Each load is followed by its provenance read.
    run.attempted = 2 * i as u64;
    [run.main, run.side] = loads;
    Ok(run)
}
