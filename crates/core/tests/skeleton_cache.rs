//! `SkeletonCache` contract: preparations served from the cache are
//! indistinguishable from fresh ones, sharing only happens between
//! *equal* instances at equal radii, and the hit/miss counters report
//! what actually happened.

use lcp_core::dynamic::DynScheme;
use lcp_core::{
    evaluate, ArtifactSource, Deadline, Instance, PreparedInstance, Proof, Scheme, SkeletonCache,
    View,
};
use lcp_graph::generators;
use std::sync::Arc;

/// The usual 1-bit bipartiteness scheme.
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
            && view.neighbors(c).iter().all(|&u| {
                view.proof(u as usize)
                    .first()
                    .is_some_and(|b| Some(b) != mine)
            })
    }
}

/// A second radius-1 scheme over the same unlabeled instances.
struct EvenDegrees;
impl Scheme for EvenDegrees {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "even-degrees".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        lcp_graph::euler::all_degrees_even(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        self.holds(inst).then(|| Proof::empty(inst.n()))
    }
    fn verify(&self, view: &View) -> bool {
        view.degree(view.center()).is_multiple_of(2)
    }
}

#[test]
fn cached_preparation_is_indistinguishable_from_fresh() {
    let inst = Instance::unlabeled(generators::grid(3, 4));
    let cache = ArtifactSource::Cache(Arc::new(SkeletonCache::new()));
    let fresh = PreparedInstance::new(&inst, 1);
    let (cached, _) = cache.prepare(&inst, 1);
    let proof = Bipartite.prove(&inst).expect("grids are bipartite");
    for v in 0..inst.n() {
        assert_eq!(cached.bind(v, &proof), fresh.bind(v, &proof), "view {v}");
        assert_eq!(
            cached.members(v).collect::<Vec<_>>(),
            fresh.members(v).collect::<Vec<_>>()
        );
        assert_eq!(
            cached.dependents(v).collect::<Vec<_>>(),
            fresh.dependents(v).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        cached.evaluate(&Bipartite, &proof, &Deadline::none()),
        Ok(evaluate(&Bipartite, &inst, &proof))
    );
}

#[test]
fn equal_instances_share_a_build_and_count_hits() {
    let cache = Arc::new(SkeletonCache::new());
    let source = ArtifactSource::Cache(Arc::clone(&cache));
    let a = Instance::unlabeled(generators::cycle(8));
    let b = Instance::unlabeled(generators::cycle(8)); // equal, distinct allocation
    let _pa = source.prepare(&a, 1);
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
    let _pb = source.prepare(&b, 1);
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    // A different radius is a different preparation.
    let _pc = source.prepare(&a, 2);
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    // A different topology never shares.
    let c = Instance::unlabeled(generators::cycle(9));
    let _pd = source.prepare(&c, 1);
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 3));
    cache.clear();
    assert!(cache.is_empty());
}

#[test]
fn label_differences_are_never_shared() {
    let cache = Arc::new(SkeletonCache::new());
    let source = ArtifactSource::Cache(Arc::clone(&cache));
    let g = generators::path(6);
    let a: Instance<u8> = Instance::with_node_data(g.clone(), vec![0; 6]);
    let b: Instance<u8> = Instance::with_node_data(g, vec![0, 0, 0, 9, 0, 0]);
    let (pa, _) = source.prepare(&a, 1);
    let (pb, _) = source.prepare(&b, 1);
    // Same topology (same content hash bucket), different labels: the
    // equality check must fork the builds.
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 0);
    let proof = Proof::empty(6);
    let (va, vb) = (pa.bind(3, &proof), pb.bind(3, &proof));
    assert_eq!(*va.node_label(va.center()), 0u8);
    assert_eq!(*vb.node_label(vb.center()), 9u8);
}

#[test]
fn dyn_schemes_share_one_build_through_a_cache_source() {
    let cache = Arc::new(SkeletonCache::new());
    let source = || ArtifactSource::Cache(Arc::clone(&cache));
    // Two different schemes sealed over equal instances — the campaign's
    // cross-cell sharing situation in miniature.
    let c6 = || Instance::unlabeled(generators::cycle(6));
    let bip = DynScheme::seal(Bipartite, c6()).with_source(source());
    let even = DynScheme::seal(EvenDegrees, c6()).with_source(source());

    let uncached_bip = DynScheme::seal(Bipartite, c6());
    let uncached_even = DynScheme::seal(EvenDegrees, c6());

    // Identical results with and without the cache...
    assert_eq!(
        bip.check_completeness_within(&Deadline::none()),
        uncached_bip.check_completeness_within(&Deadline::none())
    );
    assert_eq!(
        bip.tamper_probe(8, 3).expect("bits to tamper"),
        uncached_bip.tamper_probe(8, 3).expect("bits to tamper")
    );
    assert_eq!(
        even.check_completeness_within(&Deadline::none()),
        uncached_even.check_completeness_within(&Deadline::none())
    );
    // ...one CSR build served both schemes (radius 1 over equal
    // instances), and each cell looked its core up exactly once: the
    // tamper probe and later checks run on the kept core.
    assert_eq!(cache.misses(), 1, "one build for the shared graph");
    assert_eq!(cache.hits(), 1, "the second cell's one lookup hit");
    bip.check_completeness_within(&Deadline::none()).unwrap();
    even.tamper_probe(8, 3);
    assert_eq!((cache.misses(), cache.hits()), (1, 1), "{cache:?}");
}
