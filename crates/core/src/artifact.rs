//! Persistent skeleton artifacts: the disk-backed tier of core reuse.
//!
//! # Why
//!
//! A [`SkeletonCache`] deduplicates
//! skeleton builds *within* a process; every new process still pays the
//! full BFS bill on its first touch of each graph. For campaign shards
//! sweeping the same generated instances, a resident `lcp-serve` daemon
//! restarting, or a nightly matrix re-running the seed graphs, that cold
//! start is pure waste: the frozen core is already a flat little-endian
//! word image ([`docs/FORMAT.md`]), so it can be written to disk once and
//! mapped back by any later process with **zero deserialization**.
//!
//! An [`ArtifactStore`] stacks the two tiers:
//!
//! 1. in-process [`SkeletonCache`] lookup (pointer or full structural
//!    equality);
//! 2. on miss, open `dir/n{n}-r{r}-{fingerprint}.lcpc` — `mmap` + header
//!    / checksum / structure validation ([`FrozenCore::open`]);
//! 3. on miss or rejection, build from scratch and persist the result
//!    (atomic tmp-file + rename, so racing shards never expose a torn
//!    file — and since serialization is deterministic, racing writers
//!    produce identical bytes anyway).
//!
//! Both tiers are keyed by the instance's fingerprint (`docs/FORMAT.md`
//! words 12–13), which a sealed cell computes once and keeps for every
//! later prepare and evict.
//!
//! Every prepared core reports its [`CoreProvenance`] so services can
//! account for artifact effectiveness (`lcp-serve stats`, campaign
//! summaries) and CI can assert that warmed shards build nothing.
//!
//! A corrupt, truncated, or version-skewed file is **never** trusted:
//! validation rejects it with a precise [`ArtifactError`], the store
//! counts the rejection, warns on stderr, and transparently rebuilds
//! (overwriting the bad file). Verdicts and report bytes can therefore
//! never depend on artifact state — only wall-clock time can.
//!
//! [`docs/FORMAT.md`]: https://github.com/../docs/FORMAT.md

use crate::engine::{Held, PreparedInstance, SkeletonCache};
use crate::frozen::{ArtifactError, FrozenCore, PortableLabel};
use crate::instance::Instance;
use crate::metrics;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Where a [`PreparedInstance`]'s frozen core came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreProvenance {
    /// Built in this process by a fresh BFS sweep.
    Built,
    /// Adopted from the in-process [`SkeletonCache`].
    CacheHit,
    /// Loaded (mapped) from an on-disk artifact file.
    ArtifactLoaded,
}

impl CoreProvenance {
    /// Stable snake_case name, used in serve stats and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CoreProvenance::Built => "built",
            CoreProvenance::CacheHit => "cache_hit",
            CoreProvenance::ArtifactLoaded => "artifact_loaded",
        }
    }
}

/// The full `(instance, radius)` identity an artifact file is checked
/// against before it may be shared (`docs/FORMAT.md` words 12–13):
///
/// * `.0`, the structural content key — an FNV fold of the radius, the
///   node and edge counts, every node's id, degree and neighbour list,
///   then one word per edge: its endpoint pair shifted up a bit, with
///   label *presence* in bit 0, where an FNV step carries it into every
///   higher bit. The [`SkeletonCache`] buckets by it.
/// * `.1`, an FNV fold of what the structural key omits: both label
///   type tags, every node label's encoded words (length-prefixed, node
///   order), then every present edge label's endpoints and encoded
///   words (edge order).
///
/// One pass computes both: the node loop feeds both folds, and the edge
/// loop merge-walks the sorted edge labelling against `g.edges()` —
/// sorted adjacency makes both run in `(u, v)` order with `u < v` — so
/// no edge is looked up. Collisions in either word cannot cause a wrong
/// share: the cache compares full content on a hit, and the fingerprint
/// is embedded in (and re-derived from) the file name, so a mismatched
/// file is never opened as this instance's artifact.
pub(crate) fn fingerprint<N: PortableLabel, E: PortableLabel>(
    inst: &Instance<N, E>,
    radius: usize,
) -> (u64, u64) {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let started = Instant::now();
    let (mut structural, mut labels) = (BASIS, BASIS);
    let mut key = |x: u64| structural = (structural ^ x).wrapping_mul(PRIME);
    let mut fold = |x: u64| labels = (labels ^ x).wrapping_mul(PRIME);
    let g = inst.graph();
    key(radius as u64);
    key(g.n() as u64);
    key(g.m() as u64);
    fold(N::TAG);
    fold(E::TAG);
    let mut buf = Vec::new();
    for v in g.nodes() {
        key(g.id(v).0);
        key(g.degree(v) as u64);
        for &u in g.neighbors(v) {
            key(u as u64);
        }
        buf.clear();
        inst.node_label(v).encode(&mut buf);
        fold(buf.len() as u64);
        buf.iter().for_each(|&w| fold(w));
    }
    let mut labelled = inst.edge_labels().iter().peekable();
    for (u, v) in g.edges() {
        // Keys are edges, so nothing is skipped here; skipping keeps the
        // definition exact (edge-driven) regardless.
        while labelled.next_if(|&(&e, _)| e < (u, v)).is_some() {}
        let label = labelled.next_if(|&(&e, _)| e == (u, v)).map(|(_, l)| l);
        let pair = ((u as u64) << 32) | v as u64;
        key((pair << 1) | u64::from(label.is_some()));
        if let Some(label) = label {
            buf.clear();
            label.encode(&mut buf);
            fold(pair);
            fold(buf.len() as u64);
            buf.iter().for_each(|&w| fold(w));
        }
    }
    metrics::IDENTITY_NS.observe(started.elapsed().as_nanos() as u64);
    (structural, labels)
}

/// A directory of frozen-core artifact files fronted by an in-process
/// [`SkeletonCache`] — the cross-process skeleton tier.
///
/// Thread-safe; campaign cells and serve workers share one store behind
/// an `Arc`. Files are immutable once renamed into place: a store never
/// modifies an existing artifact except to overwrite one that failed
/// validation.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    cache: SkeletonCache,
    loads: AtomicUsize,
    writes: AtomicUsize,
    builds: AtomicUsize,
    rejects: AtomicUsize,
}

impl ArtifactStore {
    /// Opens (creating if needed) the artifact directory `dir`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ArtifactError::Io {
            path: dir.clone(),
            source: e,
        })?;
        Ok(ArtifactStore {
            dir,
            cache: SkeletonCache::new(),
            loads: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
            rejects: AtomicUsize::new(0),
        })
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The in-process cache tier (hit/miss counters live there).
    pub fn cache(&self) -> &SkeletonCache {
        &self.cache
    }

    /// Cores served from artifact files so far.
    pub fn loads(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Artifact files written so far.
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Cores built from scratch so far (cache and directory both missed).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Artifact files rejected by validation so far.
    pub fn rejects(&self) -> usize {
        self.rejects.load(Ordering::Relaxed)
    }

    /// The canonical file path of `(n, radius, fingerprint)`. Embedding
    /// the fingerprint in the name makes the directory self-describing
    /// and collision-free across instances without any index file.
    pub fn path_for(&self, n: usize, radius: usize, fingerprint: (u64, u64)) -> PathBuf {
        self.dir.join(format!(
            "n{n}-r{radius}-{:016x}{:016x}.lcpc",
            fingerprint.0, fingerprint.1
        ))
    }

    /// Prepares `inst` at `radius` through the two-tier hierarchy,
    /// reporting where the core came from.
    ///
    /// Hit/miss accounting on the embedded [`SkeletonCache`] is
    /// identical to a plain cache's: a disk load and a from-scratch
    /// build both count as one cache miss, so campaign reports stay
    /// byte-identical whether or not an artifact directory is attached.
    pub fn prepare<'i, N, E>(
        &self,
        inst: &'i Instance<N, E>,
        radius: usize,
    ) -> (PreparedInstance<'i, N, E>, CoreProvenance)
    where
        N: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        E: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        let (core, provenance) =
            self.prepare_held(Held::Lent(inst), radius, fingerprint(inst, radius));
        (PreparedInstance::from_core(inst, core), provenance)
    }

    /// [`Self::prepare`] under a precomputed [`fingerprint`].
    fn prepare_held<N, E>(
        &self,
        inst: Held<'_, N, E>,
        radius: usize,
        fp: (u64, u64),
    ) -> (Arc<FrozenCore<N, E>>, CoreProvenance)
    where
        N: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        E: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        self.cache.get_or_fill(inst, radius, fp.0, || {
            self.load_or_build(inst.get(), radius, fp)
        })
    }

    /// The disk tier behind a cache miss: maps the artifact file, or
    /// builds the core and persists it for the next process.
    fn load_or_build<N, E>(
        &self,
        inst: &Instance<N, E>,
        radius: usize,
        fp: (u64, u64),
    ) -> (Arc<FrozenCore<N, E>>, CoreProvenance)
    where
        N: Clone + PortableLabel,
        E: Clone + PortableLabel,
    {
        let path = self.path_for(inst.n(), radius, fp);
        match FrozenCore::<N, E>::open(&path, Some(fp)) {
            Ok(core) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                metrics::ARTIFACT_LOADS.inc();
                return (Arc::new(core), CoreProvenance::ArtifactLoaded);
            }
            Err(ArtifactError::Io { ref source, .. }) if source.kind() == ErrorKind::NotFound => {
                // First touch of this instance on this machine: build
                // below and persist for the next process.
            }
            Err(err) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                metrics::ARTIFACT_REJECTS.inc();
                eprintln!("warning: rejecting skeleton artifact ({err}); rebuilding");
            }
        }

        let core = Arc::new(FrozenCore::build(inst, radius));
        self.builds.fetch_add(1, Ordering::Relaxed);
        match core.save(&path, fp) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                metrics::ARTIFACT_WRITES.inc();
            }
            Err(err) => {
                // Persistence is best-effort: a read-only or full disk
                // degrades to per-process builds, never to a failure.
                eprintln!("warning: could not persist skeleton artifact ({err})");
            }
        }
        (core, CoreProvenance::Built)
    }

    /// Ensures `(inst, radius)`'s artifact file exists (building and
    /// writing it if needed) without keeping anything resident beyond
    /// the cache entry — the `--warm-artifacts` primitive.
    pub fn warm<N, E>(&self, inst: &Instance<N, E>, radius: usize) -> CoreProvenance
    where
        N: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        E: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        let (_, provenance) = self.prepare(inst, radius);
        provenance
    }
}

/// Where a cell gets its prepared cores from — the single entry point
/// threaded through [`DynScheme`](crate::dynamic::DynScheme).
///
/// The old `Option<Arc<SkeletonCache>>` plumbing collapses into this
/// enum: `None` is [`ArtifactSource::BuildFresh`], `Some(cache)` is
/// [`ArtifactSource::Cache`], and the new disk tier is
/// [`ArtifactSource::MappedDir`]. All three produce observably identical
/// [`PreparedInstance`]s; only provenance and wall-clock differ.
#[derive(Clone, Debug, Default)]
pub enum ArtifactSource {
    /// No sharing: every preparation runs its own BFS sweep.
    #[default]
    BuildFresh,
    /// In-process sharing through a [`SkeletonCache`].
    Cache(Arc<SkeletonCache>),
    /// Two-tier sharing: in-process cache over an artifact directory.
    MappedDir(Arc<ArtifactStore>),
}

impl ArtifactSource {
    /// Prepares `inst` at `radius` through this source, reporting where
    /// the core came from.
    pub fn prepare<'i, N, E>(
        &self,
        inst: &'i Instance<N, E>,
        radius: usize,
    ) -> (PreparedInstance<'i, N, E>, CoreProvenance)
    where
        N: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        E: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        let (core, provenance) = self.prepare_held(Held::Lent(inst), radius, &OnceLock::new());
        (PreparedInstance::from_core(inst, core), provenance)
    }

    /// The one keyed preparation path. `identity` holds the
    /// [`fingerprint`] of `(inst, radius)`; it is computed here on first
    /// need (an [`ArtifactSource::BuildFresh`] source never needs it) and
    /// kept by the caller for later prepares and evictions.
    pub(crate) fn prepare_held<N, E>(
        &self,
        inst: Held<'_, N, E>,
        radius: usize,
        identity: &OnceLock<(u64, u64)>,
    ) -> (Arc<FrozenCore<N, E>>, CoreProvenance)
    where
        N: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        E: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        let fp = || *identity.get_or_init(|| fingerprint(inst.get(), radius));
        let build = || {
            let core = FrozenCore::build(inst.get(), radius);
            (Arc::new(core), CoreProvenance::Built)
        };
        match self {
            ArtifactSource::BuildFresh => build(),
            ArtifactSource::Cache(cache) => cache.get_or_fill(inst, radius, fp().0, build),
            ArtifactSource::MappedDir(store) => store.prepare_held(inst, radius, fp()),
        }
    }

    /// Drops `(inst, radius)`'s core from whatever in-process tier this
    /// source carries, reporting whether anything was resident. Artifact
    /// *files* are never deleted — they are the durable tier.
    pub fn evict<N, E>(&self, inst: &Instance<N, E>, radius: usize) -> bool
    where
        N: PartialEq + Send + Sync + PortableLabel + 'static,
        E: PartialEq + Send + Sync + PortableLabel + 'static,
    {
        self.evict_held(inst, radius, &OnceLock::new())
    }

    /// [`Self::evict`] under the caller's kept `identity` slot (see
    /// [`Self::prepare_held`]).
    pub(crate) fn evict_held<N, E>(
        &self,
        inst: &Instance<N, E>,
        radius: usize,
        identity: &OnceLock<(u64, u64)>,
    ) -> bool
    where
        N: PartialEq + Send + Sync + PortableLabel + 'static,
        E: PartialEq + Send + Sync + PortableLabel + 'static,
    {
        self.cache().is_some_and(|cache| {
            let fp = identity.get_or_init(|| fingerprint(inst, radius));
            cache.remove(inst, radius, fp.0)
        })
    }

    /// The in-process cache tier, when this source has one.
    pub fn cache(&self) -> Option<&SkeletonCache> {
        match self {
            ArtifactSource::BuildFresh => None,
            ArtifactSource::Cache(cache) => Some(cache),
            ArtifactSource::MappedDir(store) => Some(&store.cache),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::EdgeMap;
    use crate::proof::Proof;
    use lcp_graph::{generators, Graph};

    /// The structural key as `docs/FORMAT.md` v2 defines it, with one
    /// `edge_label` lookup per edge. Kept verbatim as the reference the
    /// one-pass [`fingerprint`] must reproduce bit for bit.
    fn reference_content_key<N, E>(inst: &Instance<N, E>, radius: usize) -> u64 {
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
            mix(((((u as u64) << 32) | v as u64) << 1) | labelled);
        }
        h
    }

    /// The v2 fingerprint by its definition: the reference structural
    /// key plus a separate label fold that looks every edge up.
    fn reference_fingerprint<N: PortableLabel, E: PortableLabel>(
        inst: &Instance<N, E>,
        radius: usize,
    ) -> (u64, u64) {
        let structural = reference_content_key(inst, radius);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(N::TAG);
        mix(E::TAG);
        let mut buf = Vec::new();
        for v in 0..inst.n() {
            buf.clear();
            inst.node_label(v).encode(&mut buf);
            mix(buf.len() as u64);
            for &w in &buf {
                mix(w);
            }
        }
        for (u, v) in inst.graph().edges() {
            if let Some(label) = inst.edge_label(u, v) {
                buf.clear();
                label.encode(&mut buf);
                mix(((u as u64) << 32) | v as u64);
                mix(buf.len() as u64);
                for &w in &buf {
                    mix(w);
                }
            }
        }
        (structural, h)
    }

    fn assert_frozen<N: PortableLabel, E: PortableLabel>(inst: &Instance<N, E>, what: &str) {
        for radius in 0..3 {
            assert_eq!(
                fingerprint(inst, radius),
                reference_fingerprint(inst, radius),
                "{what} at radius {radius}"
            );
        }
    }

    /// Every other edge of `g` (a sparse subset with gaps), labelled by
    /// its position.
    fn every_other_edge(g: &Graph) -> EdgeMap<u32> {
        g.edges()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0 || i % 7 == 3)
            .map(|(i, e)| (e, i as u32))
            .collect()
    }

    #[test]
    fn one_pass_fingerprint_matches_the_v2_definition() {
        let graphs = [
            ("grid", generators::grid(4, 5)),
            ("cycle", generators::cycle(9)),
            ("path", generators::path(7)),
            ("complete", generators::complete(6)),
        ];
        for (name, g) in &graphs {
            assert_frozen(
                &Instance::unlabeled(g.clone()),
                &format!("unlabelled {name}"),
            );
            let colours: Vec<bool> = g.nodes().map(|v| v % 3 == 1).collect();
            assert_frozen(
                &Instance::<bool>::with_node_data(g.clone(), colours),
                &format!("bool-labelled {name}"),
            );
            let edges = every_other_edge(g);
            assert!(!edges.is_empty() && edges.len() < g.m(), "{name}");
            assert_frozen(
                &Instance::with_data(g.clone(), vec![(); g.n()], edges),
                &format!("sparse edge subset of {name}"),
            );
            let subset: Vec<_> = g.edges().skip(1).step_by(3).collect();
            assert_frozen(
                &Instance::unlabeled(g.clone()).with_edge_set(subset),
                &format!("unit edge subset of {name}"),
            );
            assert_frozen(
                &Instance::<(), u64>::with_data(g.clone(), vec![(); g.n()], EdgeMap::new()),
                &format!("empty edge map on {name}"),
            );
        }
        assert_frozen(
            &Instance::unlabeled(Graph::with_contiguous_ids(5)),
            "no-edge graph",
        );
        assert_frozen(&Instance::unlabeled(Graph::new()), "empty graph");
    }

    #[test]
    fn fingerprint_matches_the_pinned_v2_golden() {
        // Computed by the v2 per-edge-lookup definition; an artifact
        // directory written under it must keep loading.
        let mut edges = EdgeMap::new();
        edges.insert((0, 1), 5u64);
        edges.insert((1, 5), 9u64);
        edges.insert((10, 11), u64::MAX);
        let nodes: Vec<u32> = (0..12u32).map(|v| v * 7 + 1).collect();
        let inst = Instance::with_data(generators::grid(3, 4), nodes, edges);
        assert_eq!(
            fingerprint(&inst, 2),
            (0xdf19_2970_659c_b12c, 0x632a_5d9b_1be7_c4f5)
        );
    }

    #[test]
    fn structural_key_sees_which_edges_are_labelled() {
        // Two labelled edges either way: the same count, and so the same
        // parity. A presence bit folded in at bit 63 would leave word 12
        // equal; folded in at bit 0 it reaches every bit.
        let g = generators::cycle(6);
        let near = Instance::unlabeled(g.clone()).with_edge_set([(0, 1), (1, 2)]);
        let far = Instance::unlabeled(g.clone()).with_edge_set([(2, 3), (4, 5)]);
        let (a, b) = (fingerprint(&near, 1).0, fingerprint(&far, 1).0);
        assert_ne!(a, b, "labelled-edge sets of equal parity");
        assert_ne!(a, fingerprint(&Instance::unlabeled(g), 1).0);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcp-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_round_trips_through_disk() {
        let dir = scratch_dir("roundtrip");
        let inst = Instance::unlabeled(generators::grid(4, 5));
        let proof = Proof::empty(inst.n());

        let store = ArtifactStore::open(&dir).unwrap();
        let (first, prov) = store.prepare(&inst, 2);
        assert_eq!(prov, CoreProvenance::Built);
        assert_eq!((store.builds(), store.writes(), store.loads()), (1, 1, 0));
        let (again, prov) = store.prepare(&inst, 2);
        assert_eq!(prov, CoreProvenance::CacheHit);
        assert_eq!(store.cache().hits(), 1);

        // A second "process": a fresh store over the same directory
        // loads the file instead of building.
        let cold = ArtifactStore::open(&dir).unwrap();
        let (loaded, prov) = cold.prepare(&inst, 2);
        assert_eq!(prov, CoreProvenance::ArtifactLoaded);
        assert_eq!((cold.builds(), cold.loads()), (0, 1));
        for v in 0..inst.n() {
            assert_eq!(loaded.bind(v, &proof), first.bind(v, &proof), "view {v}");
            assert_eq!(again.bind(v, &proof), first.bind(v, &proof), "view {v}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_are_rejected_and_rebuilt() {
        let dir = scratch_dir("corrupt");
        let inst = Instance::unlabeled(generators::cycle(12));
        let store = ArtifactStore::open(&dir).unwrap();
        let (_, prov) = store.prepare(&inst, 1);
        assert_eq!(prov, CoreProvenance::Built);

        let fp = fingerprint(&inst, 1);
        let path = store.path_for(inst.n(), 1, fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let cold = ArtifactStore::open(&dir).unwrap();
        let (prep, prov) = cold.prepare(&inst, 1);
        assert_eq!(prov, CoreProvenance::Built, "corrupt file must not load");
        assert_eq!(cold.rejects(), 1);
        assert_eq!(prep.n(), inst.n());

        // The rebuild overwrote the damaged file with a valid one.
        let healed = ArtifactStore::open(&dir).unwrap();
        let (_, prov) = healed.prepare(&inst, 1);
        assert_eq!(prov, CoreProvenance::ArtifactLoaded);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_label_values_get_distinct_artifacts() {
        // The structural key ignores label values; the label fold must
        // not.
        let g = generators::path(6);
        let a: Instance<u8> = Instance::with_node_data(g.clone(), vec![1u8; 6]);
        let b: Instance<u8> = Instance::with_node_data(g, vec![2u8; 6]);
        assert_eq!(fingerprint(&a, 1).0, fingerprint(&b, 1).0);
        assert_ne!(fingerprint(&a, 1), fingerprint(&b, 1));

        let dir = scratch_dir("labels");
        let store = ArtifactStore::open(&dir).unwrap();
        let (pa, _) = store.prepare(&a, 1);
        let (pb, _) = store.prepare(&b, 1);
        assert_eq!(store.builds(), 2, "different label values never share");
        let proof = Proof::empty(6);
        assert_ne!(
            pa.bind(3, &proof).node_label(pa.bind(3, &proof).center()),
            pb.bind(3, &proof).node_label(pb.bind(3, &proof).center()),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_source_prepares_identically() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let proof = Proof::empty(inst.n());
        let dir = scratch_dir("sources");

        let fresh = ArtifactSource::BuildFresh;
        let cached = ArtifactSource::Cache(Arc::new(SkeletonCache::new()));
        let mapped = ArtifactSource::MappedDir(Arc::new(ArtifactStore::open(&dir).unwrap()));

        let (p0, prov0) = fresh.prepare(&inst, 2);
        let (p1, prov1) = cached.prepare(&inst, 2);
        let (p2, prov2) = mapped.prepare(&inst, 2);
        assert_eq!(
            (prov0, prov1, prov2),
            (
                CoreProvenance::Built,
                CoreProvenance::Built,
                CoreProvenance::Built
            )
        );
        for v in 0..inst.n() {
            assert_eq!(p0.bind(v, &proof), p1.bind(v, &proof), "view {v}");
            assert_eq!(p0.bind(v, &proof), p2.bind(v, &proof), "view {v}");
        }

        // Second round: each stateful source reports its tier.
        let (_, prov1) = cached.prepare(&inst, 2);
        let (_, prov2) = mapped.prepare(&inst, 2);
        assert_eq!(
            (prov1, prov2),
            (CoreProvenance::CacheHit, CoreProvenance::CacheHit)
        );

        assert!(!fresh.evict(&inst, 2));
        assert!(cached.evict(&inst, 2));
        assert!(mapped.evict(&inst, 2));
        // After eviction the mapped source reloads from disk, not a BFS.
        let (_, prov2) = mapped.prepare(&inst, 2);
        assert_eq!(prov2, CoreProvenance::ArtifactLoaded);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
