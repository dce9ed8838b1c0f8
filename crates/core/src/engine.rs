//! The cached-view verification engine: skeletons once, proof bits per
//! candidate.
//!
//! # Why
//!
//! Every `∀` quantifier of the model becomes a loop in [`crate::harness`],
//! and the innermost operation — extracting a node's radius-`r` view —
//! depends only on `(instance, radius)`, never on the proof. The naive
//! executor ([`crate::evaluate`]) nevertheless re-runs a BFS, rebuilds
//! adjacency, and re-copies labels for **every candidate proof**;
//! exhaustive soundness checks multiply that waste by up to `10^8` proofs
//! and adversarial searches by thousands of restarts.
//!
//! # The skeleton / binding split
//!
//! A [`PreparedInstance`] precomputes, once per `(instance, radius)`, a
//! [`FrozenCore`]:
//!
//! * every node's view **skeleton** — the radius-`r` ball in CSR form
//!   (flat adjacency + offsets), distance arrays, identifiers, labels,
//!   and sorted edge-label slices — packed into one contiguous word
//!   image;
//! * the flat **membership table** (`members`): which global nodes appear
//!   in each ball, in view-local order;
//! * the inverted **dependency table** (`dependents`): for each global
//!   node `v`, the views that contain `v` and `v`'s local index in each —
//!   exactly the verifiers whose output can change when `v`'s bits
//!   change.
//!
//! Binding a proof ([`PreparedInstance::bind`]) is then **free**: a
//! bound view borrows slices of the word-packed [`crate::Proof`] through
//! the membership table — no graph traversal, no bit copies, no
//! allocation.
//! Incremental workloads (the odometer of
//! [`crate::harness::check_soundness_exhaustive`], the single-bit flips
//! of [`crate::harness::adversarial_proof_search`]) mutate one
//! preallocated proof in place between candidates and re-run just the
//! `O(|ball|)` verifiers listed in [`PreparedInstance::dependents`] —
//! zero heap allocations per candidate proof (pinned by the
//! `alloc_probe` test).
//!
//! # Core provenance
//!
//! The frozen core is origin-agnostic: a `PreparedInstance` binds views
//! identically whether its core was **built** in process, adopted from a
//! [`SkeletonCache`] hit, or **mapped** from an on-disk artifact file by
//! [`crate::artifact::ArtifactStore`] (the `docs/FORMAT.md` format). The
//! mutable sibling is [`CoreBuilder`](crate::frozen::CoreBuilder), whose
//! [`freeze`](crate::frozen::CoreBuilder::freeze) /
//! [`thaw`](crate::frozen::CoreBuilder::thaw) round-trip makes dynamic
//! churn and frozen artifacts share one invariant surface.
//!
//! # Parallelism
//!
//! [`PreparedInstance::new`] and the sweep helper [`prepare_sweep`] fan
//! out across cores (rayon) once the input is large enough to amortize
//! thread startup: at least `PAR_THRESHOLD` (256) nodes, or more than
//! one instance. The choice is made from the input size alone and
//! cannot change a result. The verifier sweep itself is sequential: one
//! local round over every node, as in the model, with its callers
//! parallel at a coarser grain.
//!
//! ```
//! use lcp_core::engine::PreparedInstance;
//! use lcp_core::{evaluate, Deadline, Instance, Proof, Scheme, View};
//! use lcp_graph::generators;
//!
//! struct EvenDegrees;
//! impl Scheme for EvenDegrees {
//!     type Node = ();
//!     type Edge = ();
//!     fn name(&self) -> String { "even-degrees".into() }
//!     fn radius(&self) -> usize { 1 }
//!     fn holds(&self, inst: &Instance) -> bool {
//!         lcp_graph::euler::all_degrees_even(inst.graph())
//!     }
//!     fn prove(&self, inst: &Instance) -> Option<Proof> {
//!         self.holds(inst).then(|| Proof::empty(inst.n()))
//!     }
//!     fn verify(&self, view: &View) -> bool {
//!         view.degree(view.center()) % 2 == 0
//!     }
//! }
//!
//! let inst = Instance::unlabeled(generators::cycle(6));
//! let prep = PreparedInstance::new(&inst, EvenDegrees.radius());
//! let proof = Proof::empty(6);
//! let unbounded = Deadline::none();
//! // Same verdict as the naive executor, without re-extracting views.
//! assert_eq!(
//!     prep.evaluate(&EvenDegrees, &proof, &unbounded),
//!     Ok(evaluate(&EvenDegrees, &inst, &proof))
//! );
//! assert_eq!(prep.evaluate_until_reject(&EvenDegrees, &proof, &unbounded), Ok(None));
//! ```

use crate::artifact::CoreProvenance;
use crate::deadline::{Deadline, DeadlineExpired};
use crate::frozen::{build_all, FrozenCore};
use crate::instance::Instance;
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::{Scheme, Verdict};
use crate::view::View;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Below this node count, parallel paths fall back to sequential code:
/// spawning workers costs more than the whole sweep.
pub(crate) const PAR_THRESHOLD: usize = 256;

/// An instance with every node's radius-`r` view skeleton precomputed,
/// ready to bind candidate proofs cheaply.
///
/// Borrows the instance (skeletons reference nothing mutable, but keeping
/// the borrow makes it impossible to evaluate against a stale graph); the
/// skeletons themselves live in a shared [`FrozenCore`], so cloning is
/// cheap and a [`SkeletonCache`] or an artifact store can hand the same
/// core to many cells.
#[derive(Clone, Debug)]
pub struct PreparedInstance<'i, N = (), E = ()> {
    inst: &'i Instance<N, E>,
    core: Arc<FrozenCore<N, E>>,
}

impl<'i, N: Clone, E: Clone> PreparedInstance<'i, N, E> {
    /// Precomputes every node's radius-`radius` view skeleton.
    ///
    /// Cost: one bounded BFS per node (`O(Σ|ball|)` total work), done
    /// exactly once; every subsequent proof binding reuses the result.
    /// On large instances the per-node BFS fans out across cores.
    pub fn new(inst: &'i Instance<N, E>, radius: usize) -> Self
    where
        N: Send + Sync,
        E: Send + Sync,
    {
        PreparedInstance {
            inst,
            core: build_core(inst, radius),
        }
    }

    /// Pairs `inst` with an already-materialized core (a cache hit or a
    /// mapped artifact). The caller is responsible for the pairing being
    /// right — the cache compares full instance content, the artifact
    /// store checks the embedded fingerprint.
    pub(crate) fn from_core(inst: &'i Instance<N, E>, core: Arc<FrozenCore<N, E>>) -> Self {
        PreparedInstance { inst, core }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &'i Instance<N, E> {
        self.inst
    }

    /// The shared core, for callers that outlive this borrow.
    pub(crate) fn core(&self) -> &Arc<FrozenCore<N, E>> {
        &self.core
    }

    /// The preparation radius `r`.
    pub fn radius(&self) -> usize {
        self.core.radius()
    }

    /// Number of nodes (`n(G)`).
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// Global indices of node `v`'s ball members, in view-local order.
    ///
    /// Crate-visible: the block odometer splits each ball into the
    /// block's low digits and the high odometer's digits.
    pub(crate) fn members_of(&self, v: usize) -> &[u32] {
        self.core.members_of(v)
    }

    /// The global indices of the nodes in `v`'s radius-`r` ball — the
    /// nodes whose proof bits, labels, and incident visible edges `v`'s
    /// verifier reads — in view-local (sorted, ascending) order.
    ///
    /// This is the forward direction of the engine's locality tables;
    /// [`Self::dependents`] is the inverse. Together they let callers
    /// reason about *impact*: after changing anything at node `u`, the
    /// verifiers to re-run are exactly `dependents(u)`, and each such
    /// view reads exactly `members(w)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn members(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.members_of(v).iter().map(|&m| m as usize)
    }

    /// The nodes whose verifier output can change when `v`'s proof bits
    /// (or label, or incident edges) change — the centres whose balls
    /// contain `v`, in ascending order.
    ///
    /// Inverse of [`Self::members`]: `w ∈ dependents(v)` iff
    /// `v ∈ members(w)` (pinned by the `members_and_dependents_are_
    /// inverse_tables` test). On an undirected graph both relations are
    /// the radius-`r` ball, but callers should not rely on that symmetry
    /// — it is an artefact of distance being symmetric, not part of the
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.core.dependents_of(v).map(|(owner, _)| owner as usize)
    }

    /// Binds `proof` to node `v`'s cached skeleton, producing its view.
    ///
    /// Free: the view borrows both the cached skeleton and the proof
    /// (through the membership table) — no traversal, no bit copies, no
    /// allocation, no refcount traffic. Because the binding borrows, a
    /// bound view always reads the proof's *current* bits:
    /// mutate the proof in place, re-bind, and only the affected
    /// verifiers ([`Self::dependents`]) need re-running.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `proof.n()` mismatches.
    #[inline]
    pub fn bind<'s>(&'s self, v: usize, proof: &'s Proof) -> View<'s, N, E> {
        assert_eq!(proof.n(), self.n(), "proof must label every node");
        View::bind(self.core.skel_view(v), proof, self.members_of(v))
    }

    /// Runs `scheme`'s verifier at every node against cached skeletons,
    /// in node order, polling `deadline` between nodes (a single
    /// verifier may still overrun — cooperative budgets cannot preempt
    /// scheme code). An unbounded `deadline` never expires.
    ///
    /// Semantically identical to [`crate::evaluate`] (property-tested in
    /// `tests/engine_equivalence.rs`), but per-proof cost drops from
    /// `O(n · BFS · alloc)` to `O(Σ|ball|)` bit copies. The sweep never
    /// fans out over nodes: its callers are already parallel at a
    /// coarser grain — instances, campaign cells, daemon connections.
    ///
    /// # Errors
    ///
    /// [`DeadlineExpired`] when the budget runs out before the sweep
    /// finishes.
    pub fn evaluate<S>(
        &self,
        scheme: &S,
        proof: &Proof,
        deadline: &Deadline,
    ) -> Result<Verdict, DeadlineExpired>
    where
        S: Scheme<Node = N, Edge = E>,
    {
        let started = std::time::Instant::now();
        let mut outputs = Vec::with_capacity(self.n());
        for v in 0..self.n() {
            if deadline.expired() {
                return Err(DeadlineExpired);
            }
            outputs.push(scheme.verify(&self.bind(v, proof)));
        }
        metrics::EVALUATE_SWEEPS.inc();
        metrics::EVALUATE_NS.observe(started.elapsed().as_nanos() as u64);
        metrics::BINDS.add(self.n() as u64);
        Ok(Verdict::from_outputs(outputs))
    }

    /// Runs the verifier node by node and stops at the first rejection,
    /// returning the rejecting node — or `None` when every node accepts.
    /// Polls `deadline` between nodes, as [`Self::evaluate`] does.
    ///
    /// The accept/reject decision (`∃` rejecting node) does not need the
    /// remaining outputs, and on no-instances most candidate proofs are
    /// rejected early, so this is the right primitive for accept/reject
    /// checks.
    ///
    /// # Errors
    ///
    /// [`DeadlineExpired`] when the budget runs out before a verdict.
    pub fn evaluate_until_reject<S>(
        &self,
        scheme: &S,
        proof: &Proof,
        deadline: &Deadline,
    ) -> Result<Option<usize>, DeadlineExpired>
    where
        S: Scheme<Node = N, Edge = E>,
    {
        for v in 0..self.n() {
            if deadline.expired() {
                return Err(DeadlineExpired);
            }
            if !scheme.verify(&self.bind(v, proof)) {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }
}

/// Builds a fresh frozen core, counted in the engine metrics — every
/// from-scratch build in the process shows up in
/// `lcp_engine_prepares_total`, whatever tier requested it.
pub(crate) fn build_core<N, E>(inst: &Instance<N, E>, radius: usize) -> Arc<FrozenCore<N, E>>
where
    N: Clone + Send + Sync,
    E: Clone + Send + Sync,
{
    let started = std::time::Instant::now();
    let core = Arc::new(FrozenCore::from_built(radius, build_all(inst, radius)));
    metrics::PREPARES.inc();
    metrics::PREPARE_NS.observe(started.elapsed().as_nanos() as u64);
    core
}

/// An instance handed to the keyed cache path: the sealed cell's own
/// `Arc`, which an insert shares, or a plain borrow, which an insert
/// copies.
pub(crate) enum Held<'a, N, E> {
    /// A sealed cell's instance.
    Shared(&'a Arc<Instance<N, E>>),
    /// A caller's borrow (the public `prepare(&Instance, r)` entry
    /// points).
    Lent(&'a Instance<N, E>),
}

impl<N, E> Clone for Held<'_, N, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<N, E> Copy for Held<'_, N, E> {}

impl<'a, N: Clone, E: Clone> Held<'a, N, E> {
    /// The instance itself.
    pub(crate) fn get(self) -> &'a Instance<N, E> {
        match self {
            Held::Shared(inst) => inst,
            Held::Lent(inst) => inst,
        }
    }

    /// The `Arc` a cache entry keeps: the cell's own, or a copy of a
    /// borrow.
    fn to_shared(self) -> Arc<Instance<N, E>> {
        match self {
            Held::Shared(inst) => Arc::clone(inst),
            Held::Lent(inst) => Arc::new(inst.clone()),
        }
    }
}

/// One cached `(instance, radius)` preparation: the instance is the
/// collision-proof identity (hash keys only shortlist candidates), the
/// core is what gets shared. The instance is the inserting cell's own
/// `Arc`, not a copy, so a cell looking up or evicting its own entry
/// matches by pointer before any content compare.
struct CachedPrep<N, E> {
    inst: Arc<Instance<N, E>>,
    radius: usize,
    core: Arc<FrozenCore<N, E>>,
}

impl<N: PartialEq, E: PartialEq> CachedPrep<N, E> {
    /// Whether this entry prepares exactly `(inst, radius)`: the same
    /// allocation (`Arc::ptr_eq`) answers at once, anything else is
    /// compared in full, so a key collision costs a compare and never a
    /// wrong share.
    fn is(&self, inst: &Instance<N, E>, radius: usize) -> bool {
        self.radius == radius
            && (std::ptr::eq(Arc::as_ptr(&self.inst), inst) || *self.inst == *inst)
    }
}

/// The core of the entry for exactly `(inst, radius)` in `bucket`.
fn lookup<N, E>(
    bucket: &[Arc<dyn Any + Send + Sync>],
    inst: &Instance<N, E>,
    radius: usize,
) -> Option<Arc<FrozenCore<N, E>>>
where
    N: PartialEq + Send + Sync + 'static,
    E: PartialEq + Send + Sync + 'static,
{
    bucket.iter().find_map(|e| {
        e.downcast_ref::<CachedPrep<N, E>>()
            .filter(|c| c.is(inst, radius))
            .map(|c| Arc::clone(&c.core))
    })
}

/// A cross-instance skeleton cache: one CSR build per distinct
/// `(instance content, radius)`, shared by every caller that prepares an
/// equal instance.
///
/// # Why
///
/// The conformance campaign sweeps ~30 schemes over the *same* generated
/// graphs: every scheme asked about `(cycle, n = 32)` re-BFSes the same
/// 32 balls. Graph preparation dominates cell cost on the full profile,
/// so the campaign threads one `SkeletonCache` through all its cells
/// ([`crate::dynamic::DynScheme::with_source`]) and each distinct graph is
/// prepared exactly once. [`crate::artifact::ArtifactStore`] extends the
/// same sharing across *processes*: it wraps this cache and backfills
/// misses from mapped artifact files before falling back to a build.
///
/// # Correctness
///
/// Entries are bucketed by the structural half of the instance
/// fingerprint (`docs/FORMAT.md` word 12), which a sealed cell computes
/// once and passes in. A hit requires the same instance — the entry
/// shares the inserting cell's `Arc`, so a pointer test (`Arc::ptr_eq`)
/// answers first and **full structural equality** (graph, node labels,
/// edge labels) decides otherwise — and an equal radius. The key only
/// shortlists candidates, so a collision can cost a linear compare,
/// never a wrong share. Cached cores are immutable; a
/// [`PreparedInstance`] built from the cache is indistinguishable from a
/// freshly built one (pinned by the cache-equivalence tests).
///
/// The cache is `Send + Sync`; lookups take one short mutex hold while
/// skeleton construction itself runs outside the lock, so parallel
/// campaign cells never serialize behind each other's BFS.
#[derive(Default)]
pub struct SkeletonCache {
    entries: Mutex<HashMap<(TypeId, u64), Vec<Arc<dyn Any + Send + Sync>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl std::fmt::Debug for SkeletonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkeletonCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl SkeletonCache {
    /// An empty cache.
    pub fn new() -> Self {
        SkeletonCache::default()
    }

    /// The core of `(inst, radius)` under its structural `key`: the
    /// cached one (a [`CoreProvenance::CacheHit`]), or on a miss the one
    /// `fill` produces, inserted for later callers. Every source tier
    /// goes through here, counting one hit or one miss per call.
    ///
    /// `fill` runs outside the lock; when a racing twin inserted first,
    /// its core is returned instead, so every later hit shares one
    /// `Arc`.
    pub(crate) fn get_or_fill<N, E>(
        &self,
        inst: Held<'_, N, E>,
        radius: usize,
        key: u64,
        fill: impl FnOnce() -> (Arc<FrozenCore<N, E>>, CoreProvenance),
    ) -> (Arc<FrozenCore<N, E>>, CoreProvenance)
    where
        N: Clone + PartialEq + Send + Sync + 'static,
        E: Clone + PartialEq + Send + Sync + 'static,
    {
        let key = (TypeId::of::<CachedPrep<N, E>>(), key);
        let found = {
            let entries = self.entries.lock().expect("cache lock");
            entries
                .get(&key)
                .and_then(|bucket| lookup(bucket, inst.get(), radius))
        };
        if let Some(core) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            metrics::SKELETON_CACHE_HITS.inc();
            return (core, CoreProvenance::CacheHit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics::SKELETON_CACHE_MISSES.inc();

        let (core, provenance) = fill();
        let mut entries = self.entries.lock().expect("cache lock");
        let bucket = entries.entry(key).or_default();
        if let Some(twin) = lookup(bucket, inst.get(), radius) {
            return (twin, provenance);
        }
        bucket.push(Arc::new(CachedPrep {
            inst: inst.to_shared(),
            radius,
            core: Arc::clone(&core),
        }));
        (core, provenance)
    }

    /// Cached preparations (across all instance types).
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("cache lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a fresh core so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached preparation (counters keep running).
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock").clear();
    }

    /// Drops the cached core of exactly `(inst, radius)` under its
    /// structural `key`, if present, and reports whether anything was
    /// removed.
    ///
    /// This is the eviction hook of resident services (`lcp-serve`,
    /// through [`crate::dynamic::DynScheme::evict_skeletons`]): when an
    /// instance table drops a cell, its skeleton core must leave the
    /// process-wide cache too, or evicted cells would pin their BFS
    /// results forever. Removal matches entries exactly as a lookup
    /// does, so it never evicts a different instance that merely
    /// collides on the key. Cores still borrowed by live
    /// [`PreparedInstance`]s stay valid — the `Arc` only drops once the
    /// last user does.
    pub(crate) fn remove<N, E>(&self, inst: &Instance<N, E>, radius: usize, key: u64) -> bool
    where
        N: PartialEq + Send + Sync + 'static,
        E: PartialEq + Send + Sync + 'static,
    {
        let key = (TypeId::of::<CachedPrep<N, E>>(), key);
        let mut entries = self.entries.lock().expect("cache lock");
        let Some(bucket) = entries.get_mut(&key) else {
            return false;
        };
        let before = bucket.len();
        bucket.retain(|e| {
            e.downcast_ref::<CachedPrep<N, E>>()
                .is_none_or(|c| !c.is(inst, radius))
        });
        let removed = bucket.len() != before;
        if bucket.is_empty() {
            entries.remove(&key);
        }
        removed
    }
}

/// Prepares an instance at `scheme`'s radius — the common entry point.
///
/// The `Send + Sync` bounds come from the fan-out on large instances.
/// Every scheme type in this workspace is trivially thread-safe.
pub fn prepare<'i, S: Scheme>(
    scheme: &S,
    inst: &'i Instance<S::Node, S::Edge>,
) -> PreparedInstance<'i, S::Node, S::Edge>
where
    S::Node: Send + Sync,
    S::Edge: Send + Sync,
{
    PreparedInstance::new(inst, scheme.radius())
}

/// Prepares a whole instance sweep (completeness checks, size
/// measurements, Table 1 rows), one instance per task when there is more
/// than one.
pub fn prepare_sweep<'i, S: Scheme>(
    scheme: &S,
    instances: &'i [Instance<S::Node, S::Edge>],
) -> Vec<PreparedInstance<'i, S::Node, S::Edge>>
where
    S::Node: Send + Sync,
    S::Edge: Send + Sync,
{
    let radius = scheme.radius();
    map_indices(instances.len(), instances.len() > 1, |i| {
        PreparedInstance::new(&instances[i], radius)
    })
}

/// Maps `f` over `0..len` and collects the results in index order —
/// fanned out across cores when `fan_out` holds, sequentially
/// otherwise. The crate's one rayon call site: callers decide `fan_out`
/// from their input size.
pub(crate) fn map_indices<R: Send>(
    len: usize,
    fan_out: bool,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if fan_out {
        use rayon::prelude::*;
        return (0..len).into_par_iter().map(f).collect();
    }
    (0..len).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::frozen::CoreBuilder;
    use crate::scheme::{evaluate, evaluate_until_reject};
    use lcp_graph::generators;

    #[test]
    fn cache_entries_share_the_sealed_instance() {
        let cache = SkeletonCache::new();
        let inst = Arc::new(Instance::unlabeled(generators::cycle(8)));
        let (core, provenance) = cache.get_or_fill(Held::Shared(&inst), 1, 7, || {
            (build_core(&inst, 1), CoreProvenance::Built)
        });
        assert_eq!(provenance, CoreProvenance::Built);
        assert_eq!(
            Arc::strong_count(&inst),
            2,
            "the entry keeps the Arc, no copy"
        );
        let (again, provenance) = cache.get_or_fill(Held::Shared(&inst), 1, 7, || {
            unreachable!("a hit never fills")
        });
        assert_eq!(provenance, CoreProvenance::CacheHit);
        assert!(Arc::ptr_eq(&core, &again));
        assert!(
            !cache.remove(&inst, 2, 7),
            "another radius is another entry"
        );
        assert!(cache.remove(&inst, 1, 7));
        assert_eq!(Arc::strong_count(&inst), 1, "eviction drops the shared Arc");
    }

    /// Radius-1 scheme exercising topology, labels, and proofs together.
    struct Fingerprint;
    impl Scheme for Fingerprint {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "fingerprint".into()
        }
        fn radius(&self) -> usize {
            2
        }
        fn holds(&self, _: &Instance) -> bool {
            true
        }
        fn prove(&self, inst: &Instance) -> Option<Proof> {
            Some(Proof::empty(inst.n()))
        }
        fn verify(&self, view: &View) -> bool {
            let mut h: u64 = 0;
            for u in view.nodes() {
                h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
                h = h.wrapping_mul(31).wrapping_add(view.dist(u) as u64);
                for b in view.proof(u).iter() {
                    h = h.wrapping_mul(2).wrapping_add(b as u64);
                }
                for &w in view.neighbors(u) {
                    h = h.wrapping_mul(131).wrapping_add(view.id(w).0);
                }
            }
            !h.is_multiple_of(3)
        }
    }

    #[test]
    fn bound_views_match_extracted_views() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let prep = PreparedInstance::new(&inst, 2);
        let proof = Proof::from_fn(inst.n(), |v| {
            BitString::from_bits((0..v % 4).map(|i| i % 2 == 0))
        });
        for v in 0..inst.n() {
            assert_eq!(
                prep.bind(v, &proof),
                View::extract(&inst, &proof, v, 2),
                "node {v}"
            );
        }
    }

    #[test]
    fn evaluate_matches_naive_executor() {
        // The 20 × 20 grid is past PAR_THRESHOLD, so its preparation
        // takes the fanned-out path.
        for g in [generators::cycle(9), generators::grid(20, 20)] {
            let inst = Instance::unlabeled(g);
            let prep = PreparedInstance::new(&inst, Fingerprint.radius());
            for seed in 0..8u64 {
                let proof = Proof::from_fn(inst.n(), |v| {
                    BitString::from_bits((0..3).map(|i| (seed >> i) & 1 == 1 && v % 2 == 0))
                });
                let verdict = prep
                    .evaluate(&Fingerprint, &proof, &Deadline::none())
                    .unwrap();
                assert_eq!(verdict, evaluate(&Fingerprint, &inst, &proof));
                if inst.n() >= PAR_THRESHOLD {
                    assert!(!verdict.rejecting().is_empty(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn until_reject_agrees_with_full_verdict() {
        let inst = Instance::unlabeled(generators::barbell(4));
        let prep = PreparedInstance::new(&inst, Fingerprint.radius());
        let proof = Proof::empty(inst.n());
        let unbounded = Deadline::none();
        let verdict = prep.evaluate(&Fingerprint, &proof, &unbounded).unwrap();
        let first = prep.evaluate_until_reject(&Fingerprint, &proof, &unbounded);
        assert_eq!(first, Ok(verdict.rejecting().first().copied()));
    }

    #[test]
    fn arena_mutation_is_visible_through_bindings() {
        let inst = Instance::unlabeled(generators::path(7));
        let prep = PreparedInstance::new(&inst, 1);
        let mut proof = Proof::with_capacity(7, 2);
        proof.set(3, BitString::from_bits([true, false]));
        let touched: Vec<usize> = prep.dependents(3).collect();
        assert_eq!(touched, vec![2, 3, 4], "radius-1 ball of node 3 on a path");
        // Bound views read the proof's current bits: they agree with a
        // naive extraction of the mutated proof, with zero re-binding.
        for v in 0..7 {
            assert_eq!(
                prep.bind(v, &proof),
                View::extract(&inst, &proof, v, 1),
                "view {v}"
            );
        }
        // Mutating again is immediately visible through fresh bindings.
        proof.flip(3, 0);
        assert_eq!(
            prep.bind(2, &proof)
                .proof(prep.bind(2, &proof).n() - 1)
                .first(),
            Some(false),
            "flip visible through the borrowed binding"
        );
    }

    #[test]
    fn members_and_dependents_are_inverse_tables() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let prep = PreparedInstance::new(&inst, 2);
        for v in 0..inst.n() {
            // members(v) is the sorted radius-r ball around v.
            let ms: Vec<usize> = prep.members(v).collect();
            assert_eq!(ms, lcp_graph::traversal::ball(inst.graph(), v, 2));
            // Exact inversion: w ∈ dependents(v) ⇔ v ∈ members(w).
            for w in 0..inst.n() {
                assert_eq!(
                    prep.dependents(v).any(|o| o == w),
                    prep.members(w).any(|m| m == v),
                    "inversion broken at (v={v}, w={w})"
                );
            }
        }
    }

    #[test]
    fn skeleton_store_matches_prepared_instance_when_static() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let prep = PreparedInstance::new(&inst, 2);
        let store = CoreBuilder::build(&inst, 2);
        let proof = Proof::from_fn(inst.n(), |v| {
            BitString::from_bits((0..v % 3).map(|i| i % 2 == 0))
        });
        for v in 0..inst.n() {
            assert_eq!(store.bind(v, &proof), prep.bind(v, &proof), "view {v}");
            assert_eq!(
                store
                    .members_of(v)
                    .iter()
                    .map(|&m| m as usize)
                    .collect::<Vec<_>>(),
                prep.members(v).collect::<Vec<_>>()
            );
            assert_eq!(
                store.dependents(v).collect::<Vec<_>>(),
                prep.dependents(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            Ok(store.evaluate(&Fingerprint, &proof)),
            prep.evaluate(&Fingerprint, &proof, &Deadline::none())
        );
    }

    #[test]
    fn rebuild_repairs_exactly_the_changed_views() {
        let mut inst = Instance::unlabeled(generators::cycle(10));
        let mut store = CoreBuilder::build(&inst, 2);
        let proof = Proof::empty(10);

        // Insert a chord, rebuild its scope, and check against a fresh
        // full preparation of the mutated instance.
        inst.insert_edge(0, 5).unwrap();
        let scope = store.edge_scope(&inst, 0, 5);
        let expected_scope: Vec<usize> = {
            let mut s = lcp_graph::traversal::ball(inst.graph(), 0, 2);
            s.extend(lcp_graph::traversal::ball(inst.graph(), 5, 2));
            s.sort_unstable();
            s.dedup();
            s
        };
        assert_eq!(scope, expected_scope);
        let changed = store.rebuild(&inst, &scope);
        assert!(!changed.is_empty());
        assert!(changed.iter().all(|c| scope.contains(c)));
        let fresh = CoreBuilder::build(&inst, 2);
        for v in 0..10 {
            assert_eq!(store.bind(v, &proof), fresh.bind(v, &proof), "view {v}");
            assert_eq!(
                store.dependents(v).collect::<Vec<_>>(),
                fresh.dependents(v).collect::<Vec<_>>(),
                "dependents of {v}"
            );
        }

        // A repaired store refreezes to the same word image as a fresh
        // preparation of the mutated instance — churn and artifacts
        // share one invariant surface.
        assert_eq!(
            store.freeze().words(),
            fresh.freeze().words(),
            "refreeze after rebuild is byte-identical to a fresh freeze"
        );

        // Rebuilding an unaffected scope is a no-op and reports nothing.
        assert_eq!(store.rebuild(&inst, &scope), Vec::<usize>::new());

        // Deleting the chord again: scope computed while the edge exists.
        let scope = store.edge_scope(&inst, 0, 5);
        inst.remove_edge(0, 5).unwrap();
        let changed = store.rebuild(&inst, &scope);
        assert!(!changed.is_empty());
        let fresh = CoreBuilder::build(&inst, 2);
        for v in 0..10 {
            assert_eq!(store.bind(v, &proof), fresh.bind(v, &proof), "view {v}");
        }
    }

    #[test]
    fn injected_skeleton_corruption_is_repaired_by_rebuild() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let mut store = CoreBuilder::build(&inst, 2);
        let proof = Proof::empty(inst.n());
        let fresh = CoreBuilder::build(&inst, 2);
        let damage = store.corrupt_skeleton_for_tests(5);
        assert_ne!(damage, "empty skeleton: nothing to corrupt");
        // The corrupted view diverges from the truth...
        assert_ne!(store.bind(5, &proof), fresh.bind(5, &proof));
        // ...and a rebuild over a scope containing it repairs exactly it.
        let changed = store.rebuild(&inst, &[4, 5, 6]);
        assert_eq!(changed, vec![5]);
        for v in 0..inst.n() {
            assert_eq!(store.bind(v, &proof), fresh.bind(v, &proof), "view {v}");
        }
    }

    #[test]
    fn store_round_trips_through_a_frozen_core() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let store = CoreBuilder::<(), ()>::build(&inst, 2);
        let frozen = store.freeze();
        let thawed = CoreBuilder::thaw(&frozen);
        let proof = Proof::empty(inst.n());
        for v in 0..inst.n() {
            assert_eq!(thawed.bind(v, &proof), store.bind(v, &proof), "view {v}");
            assert_eq!(
                thawed.dependents(v).collect::<Vec<_>>(),
                store.dependents(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(thawed.freeze().words(), frozen.words());
    }

    #[test]
    fn prepared_instance_from_core_matches_new() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let prep = PreparedInstance::new(&inst, 2);
        let adopted = PreparedInstance::from_core(&inst, Arc::clone(prep.core()));
        let proof = Proof::empty(inst.n());
        for v in 0..inst.n() {
            assert_eq!(adopted.bind(v, &proof), prep.bind(v, &proof), "view {v}");
        }
        assert_eq!(
            adopted.evaluate(&Fingerprint, &proof, &Deadline::none()),
            prep.evaluate(&Fingerprint, &proof, &Deadline::none())
        );
    }

    #[test]
    fn deadline_aware_sweeps_match_their_unbounded_twins() {
        let inst = Instance::unlabeled(generators::cycle(9));
        let prep = PreparedInstance::new(&inst, Fingerprint.radius());
        let proof = Proof::empty(inst.n());
        // The unbounded twins are the naive oracle's sweeps.
        let unbounded = Deadline::none();
        assert_eq!(
            prep.evaluate(&Fingerprint, &proof, &unbounded),
            Ok(evaluate(&Fingerprint, &inst, &proof))
        );
        assert_eq!(
            prep.evaluate_until_reject(&Fingerprint, &proof, &unbounded),
            Ok(evaluate_until_reject(&Fingerprint, &inst, &proof))
        );
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(
            prep.evaluate(&Fingerprint, &proof, &expired),
            Err(DeadlineExpired)
        );
        assert_eq!(
            prep.evaluate_until_reject(&Fingerprint, &proof, &expired),
            Err(DeadlineExpired)
        );
    }

    #[test]
    fn label_patches_flow_through_dependents() {
        let g = generators::path(6);
        let mut inst: Instance<u8> = Instance::with_node_data(g, vec![0u8; 6]);
        let mut store = CoreBuilder::build(&inst, 1);
        inst.set_node_label(3, 9);
        let touched = store.set_node_label(3, &9);
        assert_eq!(touched, vec![2, 3, 4], "radius-1 dependents on a path");
        let proof = Proof::empty(6);
        let fresh = CoreBuilder::build(&inst, 1);
        for v in 0..6 {
            assert_eq!(store.bind(v, &proof), fresh.bind(v, &proof), "view {v}");
        }
    }

    #[test]
    fn dependents_are_the_ball_inverses() {
        let inst = Instance::unlabeled(generators::cycle(8));
        let prep = PreparedInstance::new(&inst, 2);
        for v in 0..8 {
            let mut deps: Vec<usize> = prep.dependents(v).collect();
            deps.sort_unstable();
            let expected = lcp_graph::traversal::ball(inst.graph(), v, 2);
            assert_eq!(deps, expected, "ball symmetry on a cycle");
        }
    }

    #[test]
    fn prepare_sweep_prepares_every_instance() {
        let instances: Vec<Instance> = (3..7)
            .map(|n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        let prepared = prepare_sweep(&Fingerprint, &instances);
        assert_eq!(prepared.len(), 4);
        for (p, inst) in prepared.iter().zip(&instances) {
            assert_eq!(p.n(), inst.n());
            assert_eq!(p.radius(), Fingerprint.radius());
        }
    }

    #[test]
    fn labelled_instances_bind_labels() {
        let g = generators::path(4);
        let inst: Instance<u8> = Instance::with_node_data(g, vec![9u8, 8, 7, 6]);
        struct LabelSum;
        impl Scheme for LabelSum {
            type Node = u8;
            type Edge = ();
            fn name(&self) -> String {
                "label-sum".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, _: &Instance<u8>) -> bool {
                true
            }
            fn prove(&self, inst: &Instance<u8>) -> Option<Proof> {
                Some(Proof::empty(inst.n()))
            }
            fn verify(&self, view: &View<u8>) -> bool {
                view.nodes()
                    .map(|u| *view.node_label(u) as usize)
                    .sum::<usize>()
                    % 2
                    == 1
            }
        }
        let prep = PreparedInstance::new(&inst, 1);
        let proof = Proof::empty(4);
        assert_eq!(
            prep.evaluate(&LabelSum, &proof, &Deadline::none()),
            Ok(evaluate(&LabelSum, &inst, &proof))
        );
    }
}
