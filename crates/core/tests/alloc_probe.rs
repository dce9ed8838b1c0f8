//! Allocation probe: the in-place search loops perform **zero heap
//! allocations per candidate proof**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! probes run the exhaustive odometer, the adversarial bit-flip search,
//! and a view-binding loop inside a counting window and assert that the
//! allocation totals are flat in the number of candidates — setup
//! (string table, proof, output vectors) allocates a bounded amount,
//! the per-candidate steady state allocates nothing.
//!
//! Every search-loop phase runs under **both** batch policies: `Auto`
//! (the block odometer) and `Scalar` (the per-candidate odometer). The
//! zero-allocations guarantee covers both: the block odometer allocates
//! only bounded setup (mask tables, spread patterns), never per
//! 64-candidate block. The adversarial search has one loop, which runs
//! under both policies all the same.
//!
//! The search loops counted here run **instrumented**: they carry the
//! `lcp_core::metrics` catalog's flush-at-exit accounting, so the
//! zero-per-candidate assertions pin that observability never
//! reintroduced an allocation. A final phase probes the metric
//! primitives themselves — the counter adds and histogram observes the
//! loops flush into are single relaxed atomics and must be strictly
//! allocation-free.
//!
//! Preparation is probed too: a fresh core build allocates a count
//! that does not grow with `n`, and opening a `CoreBuilder` over an
//! existing core allocates nothing; opening a mapped artifact allocates
//! a fixed few bytes (no edge-key pool). So is the resident sweep: the first
//! `evaluate` over a proof allocates its outputs vector and, when the
//! verifier reads decoded labels, the proof's label column — nothing per
//! node; a repeat verify of a resident cell, whose kept proof already
//! holds its column, allocates the outputs vector alone. Generating a
//! cycle, path or grid, and cloning one, allocates two vectors whatever
//! the size: the identifiers and the per-node neighbour slots.
//!
//! One `#[test]` drives all phases: the counter is process-global, so
//! concurrent test functions would double-count.

use lcp_core::components::TreeCert;
use lcp_core::engine::PreparedInstance;
use lcp_core::harness::{
    adversarial_proof_search, check_soundness_exhaustive, random_proof, Run, Soundness,
};
use lcp_core::{
    BatchPolicy, BitWriter, CoreBuilder, Deadline, DynScheme, FrozenCore, Instance, Proof, Scheme,
    View,
};
use lcp_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// System allocator with an allocation-event counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Bytes requested by allocations and reallocations.
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Minimum allocation count of `f` over several runs.
///
/// The counter is process-global, so other threads (libtest's harness
/// thread, lazy runtime initialization) occasionally add a few events
/// inside the window. That noise is strictly additive; the minimum over
/// repeats recovers the loop's true allocation count and keeps the
/// zero-per-candidate assertions deterministic.
fn min_allocs<R>(mut f: impl FnMut() -> R) -> (usize, R) {
    let (mut best, mut out) = count_allocs(&mut f);
    for _ in 0..4 {
        let (allocs, run_out) = count_allocs(&mut f);
        if allocs < best {
            best = allocs;
        }
        out = run_out;
    }
    (best, out)
}

/// Minimum bytes allocated by `f` over several runs (the noise argument
/// of [`min_allocs`] holds for bytes as well).
fn min_alloc_bytes<R>(mut f: impl FnMut() -> R) -> (usize, R) {
    let mut run = || {
        let before = BYTES.load(Ordering::Relaxed);
        let out = f();
        (BYTES.load(Ordering::Relaxed) - before, out)
    };
    let (mut best, mut out) = run();
    for _ in 0..4 {
        let (bytes, run_out) = run();
        best = best.min(bytes);
        out = run_out;
    }
    (best, out)
}

/// The 1-bit bipartiteness scheme; its verifier reads proof bits without
/// allocating, so every counted allocation belongs to the harness.
struct Bipartite;
impl Scheme for Bipartite {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "bipartite".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::traversal::is_bipartite(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = lcp_graph::traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.n(), |v| {
            lcp_core::BitString::from_bits([colors[v] == 1])
        }))
    }
    fn verify(&self, view: &View) -> bool {
        let c = view.center();
        let mine = view.proof(c).first();
        mine.is_some()
            && view
                .neighbors(c)
                .iter()
                .all(|&u| view.proof(u).first().is_some_and(|b| Some(b) != mine))
    }
}

/// The bare §5.1 tree certificate: its verifier reads every visible
/// proof as a decoded `TreeCert` label.
struct Tree;
impl Scheme for Tree {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "tree".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::traversal::is_connected(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let tree = lcp_graph::spanning::bfs_spanning_tree(inst.graph(), 0);
        let certs = TreeCert::prove(inst.graph(), &tree);
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            certs[v].encode(&mut w);
            w.finish()
        }))
    }
    fn verify(&self, view: &View) -> bool {
        TreeCert::verify_at_center(view, |c| c, |_, _, _| true).is_some()
    }
}

#[test]
fn search_loops_do_not_allocate_per_candidate() {
    // --- Exhaustive odometer -----------------------------------------
    // Two workloads whose candidate counts differ by ~8x: the
    // allocation totals must differ only by O(n) setup, proving the
    // steady state allocates nothing per candidate.
    let small = Instance::unlabeled(generators::cycle(5)); // 3^5 = 243
    let large = Instance::unlabeled(generators::cycle(7)); // 3^7 = 2187
    let prep_small = PreparedInstance::new(&small, 1);
    let prep_large = PreparedInstance::new(&large, 1);

    for policy in [BatchPolicy::Auto, BatchPolicy::Scalar] {
        let run = Run {
            policy,
            ..Run::default()
        };
        let (allocs_small, result) =
            min_allocs(|| check_soundness_exhaustive(&Bipartite, &prep_small, 1, &run).unwrap());
        assert!(matches!(result, Soundness::Holds(243)));
        let (allocs_large, result) =
            min_allocs(|| check_soundness_exhaustive(&Bipartite, &prep_large, 1, &run).unwrap());
        assert!(matches!(result, Soundness::Holds(2187)));

        assert!(
            allocs_small < 100,
            "odometer setup should allocate a bounded amount, \
             counted {allocs_small} under {policy:?}"
        );
        // 1944 extra candidates (72 extra 27-lane blocks under `Auto`)
        // may not buy even one extra allocation beyond the slightly
        // larger O(n) setup vectors.
        assert!(
            allocs_large <= allocs_small + 20,
            "odometer allocations grew with the candidate count under {policy:?}: \
             {allocs_small} for 243 candidates vs {allocs_large} for 2187"
        );
    }

    // --- Adversarial bit-flip search ---------------------------------
    // Run under both policies like every search phase, although the
    // policy does not route this loop.
    for policy in [BatchPolicy::Auto, BatchPolicy::Scalar] {
        let run = Run {
            policy,
            ..Run::default()
        };
        let (allocs_short, _) = min_allocs(|| {
            let mut rng = StdRng::seed_from_u64(11);
            adversarial_proof_search(&Bipartite, &prep_large, 1, 250, &mut rng, &run).is_some()
        });
        let (allocs_long, _) = min_allocs(|| {
            let mut rng = StdRng::seed_from_u64(11);
            adversarial_proof_search(&Bipartite, &prep_large, 1, 2_250, &mut rng, &run).is_some()
        });
        assert!(
            allocs_short < 60,
            "adversarial setup should allocate a bounded amount, \
             counted {allocs_short} under {policy:?}"
        );
        // 2000 extra candidate steps (including 10 in-place restarts)
        // must not allocate.
        assert!(
            allocs_long <= allocs_short,
            "adversarial allocations grew with the iteration count under {policy:?}: \
             {allocs_short} for 250 iters vs {allocs_long} for 2250"
        );
    }

    // --- Binding and in-place mutation -------------------------------
    // bind + verify + flip on a live proof: strictly zero allocations.
    let mut rng = StdRng::seed_from_u64(13);
    let mut proof = random_proof(prep_large.n(), 1, &mut rng);
    let (allocs, _) = min_allocs(|| {
        let mut rejections = 0usize;
        for round in 0..1_000 {
            let v = round % prep_large.n();
            proof.flip(v, 0);
            for owner in prep_large.dependents(v) {
                if !Bipartite.verify(&prep_large.bind(owner, &proof)) {
                    rejections += 1;
                }
            }
        }
        rejections
    });
    assert_eq!(
        allocs, 0,
        "bind + verify + flip must be allocation-free, counted {allocs}"
    );

    // --- Resident sweep ----------------------------------------------
    // The first sweep of a tree-certificate scheme over a proof on a
    // 10⁴-node cycle allocates its outputs vector plus the proof's label
    // column (the slot array and the box that erases its type); a repeat
    // sweep over the same proof finds the column filled and allocates
    // the outputs vector alone, as does a verifier that reads no labels.
    let cycle = Instance::unlabeled(generators::cycle(10_000));
    let prep_cycle = PreparedInstance::new(&cycle, 1);
    let unbounded = Deadline::none();
    let tree_proof = Tree.prove(&cycle).expect("a cycle is connected");
    // `min_allocs` runs five times: each run gets a fresh copy, whose
    // column starts empty.
    let fresh: Vec<Proof> = (0..5).map(|_| tree_proof.clone()).collect();
    let mut fresh = fresh.iter();
    let (allocs, verdict) = min_allocs(|| {
        let proof = fresh.next().expect("one copy per run");
        prep_cycle.evaluate(&Tree, proof, &unbounded).unwrap()
    });
    assert!(verdict.accepted());
    assert!(
        allocs <= 3,
        "a first label-reading sweep allocates outputs + one column, counted {allocs}"
    );
    prep_cycle.evaluate(&Tree, &tree_proof, &unbounded).unwrap();
    let (allocs, verdict) =
        min_allocs(|| prep_cycle.evaluate(&Tree, &tree_proof, &unbounded).unwrap());
    assert!(verdict.accepted());
    assert_eq!(
        allocs, 1,
        "a repeat label-reading sweep allocates its outputs only, counted {allocs}"
    );
    // The same through a resident cell: its kept honest proof decodes on
    // the first verify, and every later verify allocates its outputs
    // vector alone.
    let resident = DynScheme::seal(Tree, cycle.clone());
    let size = tree_proof.size();
    assert_eq!(
        resident.check_completeness_within(&unbounded),
        Ok(Some(size))
    );
    let (allocs, complete) = min_allocs(|| resident.check_completeness_within(&unbounded));
    assert_eq!(complete, Ok(Some(size)));
    assert_eq!(
        allocs, 1,
        "a repeat resident verify allocates its outputs only, counted {allocs}"
    );
    let colors = Bipartite.prove(&cycle).expect("an even cycle is bipartite");
    let (allocs, verdict) = min_allocs(|| {
        prep_cycle
            .evaluate(&Bipartite, &colors, &unbounded)
            .unwrap()
    });
    assert!(verdict.accepted());
    assert!(
        allocs <= 1,
        "a sweep that reads no labels allocates its outputs only, counted {allocs}"
    );

    // --- Core build and builder open ---------------------------------
    // A fresh build writes each ball straight into the frozen pools from
    // one reusable ball buffer: a 16x larger graph may not cost one more
    // allocation. (Pool growth past the first n entries depends on the
    // mean ball size alone, which is the same on every cycle.)
    let small = Instance::unlabeled(generators::cycle(512));
    let large = Instance::unlabeled(generators::cycle(8192));
    let (build_small, _) = min_allocs(|| PreparedInstance::new(&small, 2));
    let (build_large, _) = min_allocs(|| PreparedInstance::new(&large, 2));
    assert!(
        build_small < 64 && build_large <= build_small,
        "a core build should allocate a bounded amount that does not grow with n: \
         {build_small} for n = 512 vs {build_large} for n = 8192"
    );
    // Opening a builder shares the core instead of copying it.
    let core_small = Arc::new(FrozenCore::build(&small, 2));
    let core_large = Arc::new(FrozenCore::build(&large, 2));
    let (open_small, _) = min_allocs(|| CoreBuilder::new(Arc::clone(&core_small)));
    let (open_large, _) = min_allocs(|| CoreBuilder::new(Arc::clone(&core_large)));
    assert_eq!(
        (open_small, open_large),
        (0, 0),
        "opening a builder over a core must not allocate"
    );

    // --- Mapped core open ---------------------------------------------
    // A core image serves its edge-label keys in place and decodes only
    // typed labels, so opening a mapped spanning-tree core (a unit label
    // on each of n − 1 tree edges) allocates no key pool: what it
    // allocates is the same at 10² and 10⁴ nodes, and at most a path
    // buffer (nothing, when the path fits std's stack buffer).
    let dir = std::env::temp_dir().join(format!("lcp-alloc-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut opened = Vec::new();
    for (tag, side) in [("small", 10), ("large", 100)] {
        let g = generators::grid(side, side);
        let tree = lcp_graph::spanning::bfs_spanning_tree(&g, 0).edges();
        let inst = Instance::unlabeled(g).with_edge_set(tree);
        let path = dir.join(format!("{tag}.lcpc"));
        FrozenCore::build(&inst, 1)
            .save(&path, (1, 2))
            .expect("save core");
        let (bytes, core) =
            min_alloc_bytes(|| FrozenCore::<(), ()>::open(&path, None).expect("open core"));
        assert_eq!(core.n(), side * side);
        opened.push((bytes, std::fs::metadata(&path).expect("core file").len()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let [(small, _), (large, file)] = opened[..] else {
        unreachable!()
    };
    assert!(
        large == small && large < 1024,
        "opening a mapped core should allocate a fixed few bytes: {small} B at n = 100, \
         {large} B at n = 10⁴ (file {file} B)"
    );

    // --- Graph generation and clone ----------------------------------
    // Cycles, paths and grids keep every neighbour list in its node's
    // slot: building or cloning one allocates the identifier vector and
    // the slot vector, at 10³ nodes and at 10⁵ alike.
    for n in [1_000, 100_000] {
        let side = (n as f64).sqrt() as usize;
        let (cycle, _) = min_allocs(|| generators::cycle(n));
        let (path, _) = min_allocs(|| generators::path(n));
        let (grid, square) = min_allocs(|| generators::grid(side, side));
        let (clone, _) = min_allocs(|| square.clone());
        assert_eq!(
            (cycle, path, grid, clone),
            (2, 2, 2, 2),
            "cycle, path, grid and clone at n = {n} should allocate ids + slots only"
        );
    }

    // --- Metric primitives -------------------------------------------
    // What the loops above flush into at their exits. A counter add and
    // a histogram observe are relaxed atomic ops on `static` storage:
    // zero allocations, however many samples land.
    let (allocs, _) = min_allocs(|| {
        for i in 0..10_000u64 {
            lcp_core::metrics::BINDS.add(i & 7);
            lcp_core::metrics::EVALUATE_NS.observe(i);
        }
        lcp_core::metrics::DEADLINE_POLLS.inc();
    });
    assert_eq!(
        allocs, 0,
        "metric increments must be allocation-free, counted {allocs}"
    );
}
