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
//! Binding a proof ([`PreparedInstance::bind`] /
//! [`PreparedInstance::bind_all`]) is then **free**: a bound view borrows
//! slices of the proof's word-packed [`crate::ProofArena`] through the
//! membership table — no graph traversal, no bit copies, no allocation.
//! Incremental workloads (the odometer of
//! [`crate::harness::check_soundness_exhaustive`], the single-bit flips
//! of [`crate::harness::adversarial_proof_search`]) mutate one
//! preallocated arena in place between candidates and re-run just the
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
//! With the `parallel` feature, [`PreparedInstance::new`],
//! [`PreparedInstance::evaluate`], and the sweep helper
//! [`prepare_sweep`] fan out across cores (rayon) once the instance is
//! large enough to amortize thread startup; the sequential semantics are
//! unchanged (outputs stay in node order).
//!
//! ```
//! use lcp_core::engine::PreparedInstance;
//! use lcp_core::{evaluate, Instance, Proof, Scheme, View};
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
//! // Same verdict as the naive executor, without re-extracting views.
//! assert_eq!(prep.evaluate(&EvenDegrees, &proof), evaluate(&EvenDegrees, &inst, &proof));
//! assert_eq!(prep.evaluate_until_reject(&EvenDegrees, &proof), None);
//! ```

use crate::arena::BatchArena;
use crate::batch::BatchView;
use crate::deadline::{Deadline, DeadlineExpired};
use crate::frozen::{build_all, FrozenCore};
use crate::instance::Instance;
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::{Scheme, Verdict};
use crate::view::{SkelView, View};
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
    /// With the `parallel` feature the per-node BFS fans out across
    /// cores for large instances.
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
    /// Crate-visible: the harness's exhaustive memo keys verifier
    /// outputs on the member string indices.
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
    /// Free: the view borrows both the cached skeleton and the proof's
    /// arena (through the membership table) — no traversal, no bit
    /// copies, no allocation, no refcount traffic. Because the binding
    /// borrows, a bound view always reads the arena's *current* bits:
    /// mutate the proof in place, re-bind, and only the affected
    /// verifiers ([`Self::dependents`]) need re-running.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `proof.n()` mismatches.
    #[inline]
    pub fn bind<'s>(&'s self, v: usize, proof: &'s Proof) -> View<'s, N, E> {
        assert_eq!(proof.n(), self.n(), "proof must label every node");
        View::bind_arena(self.core.skel_view(v), proof.arena(), self.members_of(v))
    }

    /// Binds `proof` to every node's skeleton at once.
    pub fn bind_all<'s>(&'s self, proof: &'s Proof) -> Vec<View<'s, N, E>> {
        (0..self.n()).map(|v| self.bind(v, proof)).collect()
    }

    /// Node `v`'s cached skeleton as a flat borrow — the batch layer
    /// binds it against a transposed arena instead of a single proof.
    pub(crate) fn skel_view_of(&self, v: usize) -> SkelView<'_, N, E> {
        self.core.skel_view(v)
    }

    /// Binds a transposed candidate [`BatchArena`] to node `v`'s cached
    /// skeleton: the 64-lane analogue of [`Self::bind`], consumed by
    /// [`Scheme::verify_batch`] kernels.
    ///
    /// Free in the same sense as [`Self::bind`]: the view borrows the
    /// cached skeleton and the arena's lane words through the membership
    /// table — no traversal, no bit copies, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `arena.n()` mismatches.
    #[inline]
    pub fn bind_batch<'s>(&'s self, v: usize, arena: &'s BatchArena) -> BatchView<'s, N, E> {
        assert_eq!(arena.n(), self.n(), "arena must cover every node");
        BatchView::bind(self.core.skel_view(v), arena, self.members_of(v))
    }

    /// Runs `scheme`'s batched verifier at every node against up to 64
    /// candidate proofs at once, returning the mask of candidates **all**
    /// nodes accept (restricted to [`BatchArena::active`] lanes).
    ///
    /// The 64-lane analogue of [`Self::evaluate`]'s accept bit: bit `i`
    /// of the result is `evaluate(scheme, lane i).accepted()`. Sweeps
    /// stop as soon as every lane has a rejecting node.
    ///
    /// # Panics
    ///
    /// Panics if `arena.n()` mismatches, or if `scheme` has no batch
    /// kernel ([`Scheme::supports_batch`] is `false` — probe it first).
    pub fn evaluate_batch<S>(&self, scheme: &S, arena: &BatchArena) -> u64
    where
        S: Scheme<Node = N, Edge = E>,
    {
        assert!(
            scheme.supports_batch(),
            "scheme '{}' has no batch kernel",
            scheme.name()
        );
        let mut acc = arena.active();
        for v in 0..self.n() {
            if acc == 0 {
                break;
            }
            acc &= scheme.verify_batch(&self.bind_batch(v, arena));
        }
        acc
    }

    /// Runs `scheme`'s verifier at every node against cached skeletons.
    ///
    /// Semantically identical to [`crate::evaluate`] (property-tested in
    /// `tests/engine_equivalence.rs`), but per-proof cost drops from
    /// `O(n · BFS · alloc)` to `O(Σ|ball|)` bit copies. With the
    /// `parallel` feature, node verification fans out across cores for
    /// large instances; outputs stay in node order either way. The
    /// `Sync`/`Send` bounds apply in both feature configurations
    /// (additive features).
    pub fn evaluate<S>(&self, scheme: &S, proof: &Proof) -> Verdict
    where
        S: Scheme<Node = N, Edge = E> + Sync,
        N: Send + Sync,
        E: Send + Sync,
    {
        let started = std::time::Instant::now();
        let outputs = map_indices(self.n(), self.n() >= PAR_THRESHOLD, |v| {
            scheme.verify(&self.bind(v, proof))
        });
        self.record_sweep(started);
        Verdict::from_outputs(outputs)
    }

    /// Counts one finished whole-instance sweep in the engine metrics.
    fn record_sweep(&self, started: std::time::Instant) {
        metrics::EVALUATE_SWEEPS.inc();
        metrics::EVALUATE_NS.observe(started.elapsed().as_nanos() as u64);
        metrics::BINDS.add(self.n() as u64);
    }

    /// Runs the verifier node by node and stops at the first rejection,
    /// returning the rejecting node — or `None` when every node accepts.
    ///
    /// The accept/reject decision (`∃` rejecting node) does not need the
    /// remaining outputs, and on no-instances most candidate proofs are
    /// rejected early, so this is the right primitive for soundness
    /// search loops.
    pub fn evaluate_until_reject<S>(&self, scheme: &S, proof: &Proof) -> Option<usize>
    where
        S: Scheme<Node = N, Edge = E>,
    {
        (0..self.n()).find(|&v| !scheme.verify(&self.bind(v, proof)))
    }

    /// Deadline-aware verifier sweep: sequential, polling `deadline`
    /// between nodes (a single verifier may still overrun — cooperative
    /// budgets cannot preempt scheme code). Identical outputs to
    /// [`Self::evaluate`] when the budget holds.
    ///
    /// This is the sweep for callers that are already parallel at a
    /// coarser grain — campaign cells, daemon connections — where a
    /// per-node fan-out would take cores from their siblings. An
    /// unbounded `deadline` never expires.
    ///
    /// # Errors
    ///
    /// [`DeadlineExpired`] when the budget runs out before the sweep
    /// finishes.
    pub fn evaluate_within<S>(
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
        self.record_sweep(started);
        Ok(Verdict::from_outputs(outputs))
    }

    /// Deadline-aware [`Self::evaluate_until_reject`]: polls `deadline`
    /// between nodes.
    ///
    /// # Errors
    ///
    /// [`DeadlineExpired`] when the budget runs out before a verdict.
    pub fn evaluate_until_reject_within<S>(
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

/// One cached `(instance, radius)` preparation: the instance copy is the
/// collision-proof identity (hash keys only shortlist candidates), the
/// core is what gets shared.
struct CachedPrep<N, E> {
    inst: Instance<N, E>,
    radius: usize,
    core: Arc<FrozenCore<N, E>>,
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
/// A hit requires **full structural equality** of the instance (graph,
/// node labels, edge labels) and an equal radius — the content hash only
/// shortlists candidates, so a hash collision can cost a linear compare,
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

/// Structural content hash of `(inst, radius)`: radius, node ids,
/// adjacency, and edge-label keys, FNV-folded. Node/edge label *values*
/// are deliberately left out (they carry no trait bounds here); the
/// equality check on lookup covers them.
pub(crate) fn content_key<N, E>(inst: &Instance<N, E>, radius: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    };
    let g = inst.graph();
    mix(radius as u64);
    mix(g.n() as u64);
    mix(g.m() as u64);
    for v in g.nodes() {
        mix(g.id(v).0);
        mix(g.degree(v) as u64);
        for &u in g.neighbors(v) {
            mix(u as u64);
        }
    }
    for (u, v) in g.edges() {
        let labelled = u64::from(inst.edge_label(u, v).is_some());
        mix(((u as u64) << 32) | (v as u64) | (labelled << 63));
    }
    h
}

impl SkeletonCache {
    /// An empty cache.
    pub fn new() -> Self {
        SkeletonCache::default()
    }

    /// Looks up the cached core of exactly `(inst, radius)` — no counter
    /// side effects, so composite stores can wrap the lookup in their
    /// own hit/miss accounting.
    pub(crate) fn find_core<N, E>(
        &self,
        inst: &Instance<N, E>,
        radius: usize,
    ) -> Option<Arc<FrozenCore<N, E>>>
    where
        N: PartialEq + Send + Sync + 'static,
        E: PartialEq + Send + Sync + 'static,
    {
        let key = (TypeId::of::<CachedPrep<N, E>>(), content_key(inst, radius));
        let entries = self.entries.lock().expect("cache lock");
        let bucket = entries.get(&key)?;
        bucket.iter().find_map(|e| {
            e.downcast_ref::<CachedPrep<N, E>>()
                .filter(|c| c.radius == radius && c.inst == *inst)
                .map(|c| Arc::clone(&c.core))
        })
    }

    /// Inserts `core` for `(inst, radius)`, adopting a racing twin's
    /// copy if one won the insert — the returned `Arc` is the one every
    /// later hit will share.
    pub(crate) fn insert_core<N, E>(
        &self,
        inst: &Instance<N, E>,
        radius: usize,
        core: Arc<FrozenCore<N, E>>,
    ) -> Arc<FrozenCore<N, E>>
    where
        N: Clone + PartialEq + Send + Sync + 'static,
        E: Clone + PartialEq + Send + Sync + 'static,
    {
        let key = (TypeId::of::<CachedPrep<N, E>>(), content_key(inst, radius));
        let mut entries = self.entries.lock().expect("cache lock");
        let bucket = entries.entry(key).or_default();
        for e in bucket.iter() {
            if let Some(c) = e.downcast_ref::<CachedPrep<N, E>>() {
                if c.radius == radius && c.inst == *inst {
                    return Arc::clone(&c.core);
                }
            }
        }
        bucket.push(Arc::new(CachedPrep {
            inst: inst.clone(),
            radius,
            core: Arc::clone(&core),
        }));
        core
    }

    /// Counts one lookup served from memory.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        metrics::SKELETON_CACHE_HITS.inc();
    }

    /// Counts one lookup that missed memory (whatever satisfied it).
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics::SKELETON_CACHE_MISSES.inc();
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

    /// Drops the cached core of exactly `(inst, radius)`, if present, and
    /// reports whether anything was removed.
    ///
    /// This is the eviction hook of resident services (`lcp-serve`): when
    /// an instance table drops a cell, its skeleton core must leave the
    /// process-wide cache too, or evicted cells would pin their BFS
    /// results forever. Removal uses the same key and full structural
    /// equality as a lookup, so it never evicts a different
    /// instance that merely collides on the content hash. Cores still
    /// borrowed by live [`PreparedInstance`]s stay valid — the `Arc` only
    /// drops once the last user does.
    pub fn remove<N, E>(&self, inst: &Instance<N, E>, radius: usize) -> bool
    where
        N: PartialEq + Send + Sync + 'static,
        E: PartialEq + Send + Sync + 'static,
    {
        let key = (TypeId::of::<CachedPrep<N, E>>(), content_key(inst, radius));
        let mut entries = self.entries.lock().expect("cache lock");
        let Some(bucket) = entries.get_mut(&key) else {
            return false;
        };
        let before = bucket.len();
        bucket.retain(|e| {
            e.downcast_ref::<CachedPrep<N, E>>()
                .is_none_or(|c| c.radius != radius || c.inst != *inst)
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
/// The `Send + Sync` bounds are required in *both* feature
/// configurations on purpose: Cargo features must be additive, so
/// enabling `parallel` is not allowed to newly reject schemes that the
/// sequential build accepted. Every scheme type in this workspace is
/// trivially thread-safe.
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
/// measurements, Table 1 rows), in parallel under the `parallel` feature.
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
/// fanned out across cores when the `parallel` feature is compiled in
/// and `fan_out` holds, sequentially otherwise. The crate's one rayon
/// call site: callers decide `fan_out` from their input size.
#[cfg_attr(not(feature = "parallel"), allow(unused_variables))]
pub(crate) fn map_indices<R: Send>(
    len: usize,
    fan_out: bool,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    #[cfg(feature = "parallel")]
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
    use crate::scheme::evaluate;
    use lcp_graph::generators;

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
        let inst = Instance::unlabeled(generators::cycle(9));
        let prep = PreparedInstance::new(&inst, Fingerprint.radius());
        for seed in 0..8u64 {
            let proof = Proof::from_fn(inst.n(), |v| {
                BitString::from_bits((0..3).map(|i| (seed >> i) & 1 == 1 && v % 2 == 0))
            });
            assert_eq!(
                prep.evaluate(&Fingerprint, &proof),
                evaluate(&Fingerprint, &inst, &proof)
            );
        }
    }

    #[test]
    fn until_reject_agrees_with_full_verdict() {
        let inst = Instance::unlabeled(generators::barbell(4));
        let prep = PreparedInstance::new(&inst, Fingerprint.radius());
        let proof = Proof::empty(inst.n());
        let verdict = prep.evaluate(&Fingerprint, &proof);
        let first = prep.evaluate_until_reject(&Fingerprint, &proof);
        assert_eq!(first, verdict.rejecting().first().copied());
    }

    #[test]
    fn arena_mutation_is_visible_through_bindings() {
        let inst = Instance::unlabeled(generators::path(7));
        let prep = PreparedInstance::new(&inst, 1);
        let mut proof = Proof::with_capacity(7, 2);
        proof.set(3, BitString::from_bits([true, false]));
        let touched: Vec<usize> = prep.dependents(3).collect();
        assert_eq!(touched, vec![2, 3, 4], "radius-1 ball of node 3 on a path");
        // Bound views read the arena's current bits: they agree with a
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
            store.evaluate(&Fingerprint, &proof),
            prep.evaluate(&Fingerprint, &proof)
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
            adopted.evaluate(&Fingerprint, &proof),
            prep.evaluate(&Fingerprint, &proof)
        );
    }

    #[test]
    fn deadline_aware_sweeps_match_their_unbounded_twins() {
        let inst = Instance::unlabeled(generators::cycle(9));
        let prep = PreparedInstance::new(&inst, Fingerprint.radius());
        let proof = Proof::empty(inst.n());
        let unbounded = Deadline::none();
        assert_eq!(
            prep.evaluate_within(&Fingerprint, &proof, &unbounded),
            Ok(prep.evaluate(&Fingerprint, &proof))
        );
        assert_eq!(
            prep.evaluate_until_reject_within(&Fingerprint, &proof, &unbounded),
            Ok(prep.evaluate_until_reject(&Fingerprint, &proof))
        );
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(
            prep.evaluate_within(&Fingerprint, &proof, &expired),
            Err(DeadlineExpired)
        );
        assert_eq!(
            prep.evaluate_until_reject_within(&Fingerprint, &proof, &expired),
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
            prep.evaluate(&LabelSum, &proof),
            evaluate(&LabelSum, &inst, &proof)
        );
    }
}
