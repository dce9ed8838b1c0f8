//! The LRU-bounded instance table: resident cells keyed by coordinates,
//! sharing one process-wide [`ArtifactSource`].
//!
//! Loading a cell is the expensive part of every request — registry
//! build, ground truth, one bounded BFS per node — so the table pays it
//! once per coordinate and hands out `Arc<DynScheme>` clones after
//! that. The skeleton core comes from the shared source (attached via
//! `DynScheme::with_source`) once, when `prepare_skeletons` warms the
//! cell at load; the cell keeps it, so a resident `verify` issues **zero**
//! skeleton rebuilds and zero cache lookups. The cell also keeps its
//! honest proof from the first request that needs it, and the proof
//! keeps the labels the first sweep decoded, so a repeated `verify` is
//! the verifier sweep alone, with no prover run and no label decode.
//! With `--preload <dir>` the source is a two-tier
//! [`ArtifactStore`](lcp_core::ArtifactStore), so even a *restarted*
//! daemon skips the BFS: cores come back by `mmap` from the artifact
//! files the previous process (or a campaign's `--warm-artifacts` pass)
//! left behind. Every load's [`CoreProvenance`] is tallied and reported
//! by the `stats` op.
//!
//! Eviction is the other half of residency: when the table exceeds its
//! capacity the least-recently-used cell is dropped *and* its skeleton
//! core is removed from the source's in-process tier
//! (`DynScheme::evict_skeletons`, under the cell's kept fingerprint; artifact
//! *files* are durable and never deleted), so a long-lived daemon's
//! memory is bounded by the capacity, not by the history of cells it
//! ever served.

use crate::protocol::{CellCoord, ProtoError, ERR_INAPPLICABLE, ERR_UNKNOWN_SCHEME};
use lcp_core::{ArtifactSource, CoreProvenance, DynScheme, SkeletonCache};
use lcp_schemes::registry::{self, CellRequest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Point-in-time counters of an [`InstanceTable`] (the `stats` op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableStats {
    /// Resident cells right now.
    pub resident: usize,
    /// The configured capacity.
    pub capacity: usize,
    /// Cells evicted since the table was created.
    pub evictions: usize,
    /// Cells loaded (registry build + skeleton warm) since creation.
    pub loads: usize,
    /// Cached skeleton preparations right now.
    pub skeleton_len: usize,
    /// Skeleton-cache lookups served from the cache.
    pub skeleton_hits: usize,
    /// Skeleton-cache lookups that had to build.
    pub skeleton_misses: usize,
    /// Cell loads whose skeleton core was built in-process.
    pub cores_built: usize,
    /// Cell loads whose core was adopted from the in-process cache.
    pub cores_cache_hits: usize,
    /// Cell loads whose core was mapped from an artifact file
    /// (`--preload`).
    pub cores_loaded: usize,
}

/// An LRU-bounded map from [`CellCoord`] to resident, skeleton-warmed
/// [`DynScheme`] cells.
pub struct InstanceTable {
    source: ArtifactSource,
    capacity: usize,
    /// LRU order: front = least recently used, back = most recent.
    entries: Mutex<Vec<(CellCoord, Arc<DynScheme>)>>,
    evictions: AtomicUsize,
    loads: AtomicUsize,
    cores_built: AtomicUsize,
    cores_cache_hits: AtomicUsize,
    cores_loaded: AtomicUsize,
}

impl std::fmt::Debug for InstanceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("InstanceTable")
            .field("resident", &stats.resident)
            .field("capacity", &stats.capacity)
            .field("evictions", &stats.evictions)
            .finish_non_exhaustive()
    }
}

impl InstanceTable {
    /// An empty table bounded to `capacity` resident cells (minimum 1),
    /// sharing cores through an in-process cache only.
    pub fn new(capacity: usize) -> Self {
        Self::with_source(
            capacity,
            ArtifactSource::Cache(Arc::new(SkeletonCache::new())),
        )
    }

    /// An empty table preparing through an explicit [`ArtifactSource`]
    /// — the `--preload <dir>` path hands in a
    /// [`MappedDir`](ArtifactSource::MappedDir) so cores come back by
    /// `mmap` across daemon restarts.
    pub fn with_source(capacity: usize, source: ArtifactSource) -> Self {
        InstanceTable {
            source,
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            evictions: AtomicUsize::new(0),
            loads: AtomicUsize::new(0),
            cores_built: AtomicUsize::new(0),
            cores_cache_hits: AtomicUsize::new(0),
            cores_loaded: AtomicUsize::new(0),
        }
    }

    /// The in-process skeleton-cache tier every resident cell prepares
    /// through (`None` only for a `BuildFresh` source, which the daemon
    /// never configures).
    pub fn cache(&self) -> Option<&SkeletonCache> {
        self.source.cache()
    }

    /// Returns the resident cell at `coord`, loading (and LRU-evicting)
    /// as needed. The returned cell has its skeletons warm in
    /// [`Self::cache`].
    ///
    /// # Errors
    ///
    /// [`ERR_UNKNOWN_SCHEME`] for ids outside the registry and
    /// [`ERR_INAPPLICABLE`] when the builder cannot realize the
    /// requested `(family, polarity)`.
    pub fn get_or_load(&self, coord: &CellCoord) -> Result<Arc<DynScheme>, ProtoError> {
        if let Some(cell) = self.touch(coord) {
            return Ok(cell);
        }
        // Build outside the lock: loading a 10⁴-node cell takes
        // milliseconds and must not serialize unrelated requests. A
        // racing twin may insert first; the re-check below adopts it.
        let entry = registry::find(&coord.scheme).ok_or_else(|| {
            ProtoError::new(
                ERR_UNKNOWN_SCHEME,
                format!("no scheme {:?} in the registry", coord.scheme),
            )
        })?;
        let request = CellRequest {
            family: coord.family,
            n: coord.n,
            seed: coord.seed,
            polarity: coord.polarity,
        };
        let cell = entry
            .build(&request)
            .ok_or_else(|| {
                ProtoError::new(
                    ERR_INAPPLICABLE,
                    format!(
                        "scheme {:?} has no {} cell on family {:?}",
                        coord.scheme,
                        coord.polarity.name(),
                        coord.family.name()
                    ),
                )
            })?
            .with_source(self.source.clone());
        match cell.prepare_skeletons() {
            CoreProvenance::Built => &self.cores_built,
            CoreProvenance::CacheHit => &self.cores_cache_hits,
            CoreProvenance::ArtifactLoaded => &self.cores_loaded,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(cell);

        let evicted = {
            let mut entries = self.entries.lock().expect("table lock");
            if let Some(pos) = entries.iter().position(|(k, _)| k == coord) {
                // Racing twin won; adopt its cell (ours evaporates, and
                // its identical skeleton core was already cached).
                let (key, theirs) = entries.remove(pos);
                entries.push((key, Arc::clone(&theirs)));
                return Ok(theirs);
            }
            entries.push((coord.clone(), Arc::clone(&cell)));
            if entries.len() > self.capacity {
                Some(entries.remove(0))
            } else {
                None
            }
        };
        if let Some((_, old)) = evicted {
            // Outside the lock: eviction touches the skeleton cache's
            // own mutex and needs no table state.
            old.evict_skeletons();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(cell)
    }

    /// Looks `coord` up and refreshes its recency, without loading.
    fn touch(&self, coord: &CellCoord) -> Option<Arc<DynScheme>> {
        let mut entries = self.entries.lock().expect("table lock");
        let pos = entries.iter().position(|(k, _)| k == coord)?;
        let entry = entries.remove(pos);
        let cell = Arc::clone(&entry.1);
        entries.push(entry);
        Some(cell)
    }

    /// Current table + skeleton-cache counters.
    pub fn stats(&self) -> TableStats {
        let cache = self.source.cache();
        TableStats {
            resident: self.entries.lock().expect("table lock").len(),
            capacity: self.capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            skeleton_len: cache.map_or(0, SkeletonCache::len),
            skeleton_hits: cache.map_or(0, SkeletonCache::hits),
            skeleton_misses: cache.map_or(0, SkeletonCache::misses),
            cores_built: self.cores_built.load(Ordering::Relaxed),
            cores_cache_hits: self.cores_cache_hits.load(Ordering::Relaxed),
            cores_loaded: self.cores_loaded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::Deadline;
    use lcp_graph::families::GraphFamily;
    use lcp_schemes::registry::Polarity;

    fn coord(n: usize) -> CellCoord {
        CellCoord {
            scheme: "bipartite".into(),
            family: GraphFamily::Cycle,
            n,
            seed: 7,
            polarity: Polarity::Yes,
        }
    }

    #[test]
    fn loads_are_cached_and_skeletons_warm() {
        let table = InstanceTable::new(4);
        let a = table.get_or_load(&coord(16)).unwrap();
        assert!(a.holds());
        let stats = table.stats();
        assert_eq!((stats.resident, stats.loads), (1, 1));
        assert_eq!(stats.skeleton_misses, 1, "prepare_skeletons built once");

        // Resident verifies run on the core the load kept: no rebuilds,
        // and no lookups either.
        assert_eq!(a.check_completeness_within(&Deadline::none()), Ok(Some(1)));
        let b = table.get_or_load(&coord(16)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same resident cell");
        assert_eq!(b.check_completeness_within(&Deadline::none()), Ok(Some(1)));
        let after = table.stats();
        assert_eq!((after.loads, after.skeleton_misses), (1, 1));
        assert_eq!(after.skeleton_hits, stats.skeleton_hits);
    }

    #[test]
    fn eviction_is_lru_and_drops_skeletons() {
        let table = InstanceTable::new(2);
        table.get_or_load(&coord(8)).unwrap();
        table.get_or_load(&coord(10)).unwrap();
        // Touch 8 so 10 becomes the LRU victim.
        table.get_or_load(&coord(8)).unwrap();
        table.get_or_load(&coord(12)).unwrap();
        let stats = table.stats();
        assert_eq!((stats.resident, stats.evictions), (2, 1));
        assert_eq!(stats.skeleton_len, 2, "evicted cell left the cache too");

        // The evicted cell reloads (a fresh build, not a hit).
        table.get_or_load(&coord(10)).unwrap();
        let stats = table.stats();
        assert_eq!(stats.loads, 4);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn preloaded_tables_map_cores_instead_of_building() {
        use lcp_core::{ArtifactSource, ArtifactStore};

        let dir = std::env::temp_dir().join(format!("lcp-serve-preload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source =
            || ArtifactSource::MappedDir(Arc::new(ArtifactStore::open(&dir).expect("open store")));

        // First daemon lifetime: the core is built and persisted.
        let table = InstanceTable::with_source(4, source());
        table.get_or_load(&coord(16)).unwrap();
        let stats = table.stats();
        assert_eq!((stats.cores_built, stats.cores_loaded), (1, 0));

        // "Restarted" daemon over the same directory: mapped, not built.
        let table = InstanceTable::with_source(4, source());
        let cell = table.get_or_load(&coord(16)).unwrap();
        assert!(cell.holds());
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        let stats = table.stats();
        assert_eq!((stats.cores_built, stats.cores_loaded), (0, 1));
        assert_eq!(
            stats.skeleton_misses, 1,
            "a disk load still counts as one cache miss"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bipartite cycle(16) cell's core as a version-1 writer saved
    /// it (`docs/FORMAT.md`).
    const V1_IMAGE: &[u8] = include_bytes!("../tests/fixtures/bipartite-cycle16-r1.v1.lcpc");

    /// The same core as a version-2 writer saved it.
    const V2_IMAGE: &[u8] = include_bytes!("../tests/fixtures/bipartite-cycle16-r1.v2.lcpc");

    /// Lays `image`, a core of an older format version, down as the
    /// bipartite cycle(16) cell's file in a preload dir. Checks that the
    /// store rejects it at byte 8 (the version word), rebuilds the core
    /// and overwrites the file, and that the next table maps that file
    /// with no build.
    fn old_image_is_rebuilt_then_mapped(image: &[u8], version: u64) {
        use lcp_core::{ArtifactSource, ArtifactStore, FrozenCore};

        assert_eq!(
            image[8..16],
            version.to_le_bytes(),
            "a version-{version} image"
        );
        let dir = std::env::temp_dir().join(format!("lcp-serve-v{version}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = || Arc::new(ArtifactStore::open(&dir).expect("open store"));
        let table = |store: &Arc<ArtifactStore>| {
            InstanceTable::with_source(4, ArtifactSource::MappedDir(Arc::clone(store)))
        };

        // Lay down the cell's file, then overwrite it with the same
        // cell's core as the older writer saved it.
        table(&store()).get_or_load(&coord(16)).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        std::fs::write(&files[0], image).unwrap();
        let err = FrozenCore::<(), ()>::open(&files[0], None).unwrap_err();
        assert!(err.to_string().contains("invalid at byte 8:"), "{err}");

        // The old file is rejected, and the core rebuilt.
        let old = store();
        let first = table(&old);
        let cell = first.get_or_load(&coord(16)).unwrap();
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        let stats = first.stats();
        assert_eq!((stats.cores_built, stats.cores_loaded), (1, 0));
        assert_eq!((old.rejects(), old.writes()), (1, 1));

        // The rebuild overwrote it: the next daemon maps the file.
        let written = std::fs::read(&files[0]).unwrap();
        assert_eq!(
            written[8..16],
            lcp_core::frozen::FORMAT_VERSION.to_le_bytes()
        );
        let next = table(&store());
        let cell = next.get_or_load(&coord(16)).unwrap();
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        let stats = next.stats();
        assert_eq!((stats.cores_built, stats.cores_loaded), (0, 1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_artifacts_in_a_preload_dir_are_rebuilt_then_mapped() {
        old_image_is_rebuilt_then_mapped(V1_IMAGE, 1);
    }

    #[test]
    fn v2_artifacts_in_a_preload_dir_are_rebuilt_then_mapped() {
        old_image_is_rebuilt_then_mapped(V2_IMAGE, 2);
    }

    #[test]
    fn unknown_cells_are_typed_errors() {
        let table = InstanceTable::new(2);
        let mut bad = coord(8);
        bad.scheme = "no-such-scheme".into();
        assert_eq!(
            table.get_or_load(&bad).unwrap_err().kind,
            ERR_UNKNOWN_SCHEME
        );
        let mut inapplicable = coord(8);
        inapplicable.polarity = Polarity::No;
        inapplicable.scheme = "eulerian".into();
        // Eulerian has no no-instance on cycles (cycles are Eulerian).
        assert_eq!(
            table.get_or_load(&inapplicable).unwrap_err().kind,
            ERR_INAPPLICABLE
        );
        assert_eq!(table.stats().resident, 0);
    }
}
