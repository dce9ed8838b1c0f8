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
//! One `#[test]` drives all phases: the counter is process-global, so
//! concurrent test functions would double-count.

use lcp_core::engine::PreparedInstance;
use lcp_core::harness::{
    adversarial_proof_search, check_soundness_exhaustive, random_proof, Run, Soundness,
};
use lcp_core::{BatchPolicy, Instance, Proof, Scheme, View};
use lcp_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with an allocation-event counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
