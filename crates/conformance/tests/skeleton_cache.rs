//! Cross-cell skeleton sharing over the real registry: schemes asked
//! about the same generated graph reuse one CSR build, and cached cells
//! report exactly what fresh cells report.

use lcp_conformance::{campaign_registry, run_campaign, CampaignConfig, Profile};
use lcp_core::{ArtifactSource, Deadline, SkeletonCache};
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{CellRequest, Polarity};
use std::sync::Arc;

/// A registry sample over one deterministic family member: every entry
/// that sweeps cycles, asked about the same `(cycle, n = 8)` cell.
fn cycle_requests() -> Vec<(&'static str, CellRequest)> {
    campaign_registry()
        .into_iter()
        .filter(|e| e.families.contains(&GraphFamily::Cycle))
        .map(|e| {
            (
                e.id,
                CellRequest {
                    family: GraphFamily::Cycle,
                    n: 8,
                    seed: 7,
                    polarity: Polarity::Yes,
                },
            )
        })
        .collect()
}

#[test]
fn cached_and_fresh_registry_cells_agree_and_the_cache_is_hit() {
    let cache = Arc::new(SkeletonCache::new());
    let mut checked = 0usize;
    for (id, req) in cycle_requests() {
        let entry = lcp_conformance::campaign_registry()
            .into_iter()
            .find(|e| e.id == id)
            .expect("sampled from the registry");
        let Some(fresh) = entry.build(&req) else {
            continue;
        };
        let cached = entry
            .build(&req)
            .expect("deterministic builder")
            .with_source(ArtifactSource::Cache(Arc::clone(&cache)));
        // Verdicts and witnesses are identical through the cache.
        assert_eq!(
            cached.check_completeness_within(&Deadline::none()),
            fresh.check_completeness_within(&Deadline::none()),
            "{id}: completeness drifted under caching"
        );
        assert_eq!(
            cached.tamper_probe(6, 11),
            fresh.tamper_probe(6, 11),
            "{id}: tamper probe drifted under caching"
        );
        checked += 1;
    }
    assert!(checked >= 5, "sample too small: {checked} cells");
    // Each cell looked its core up exactly once: the tamper probe ran on
    // the core the completeness check kept.
    assert_eq!(
        cache.hits() + cache.misses(),
        checked,
        "one lookup per cell: {cache:?}"
    );
    // Cycle(8) is seed-independent, and many cycle schemes run at radius
    // 1 over the unlabeled C₈ — those cells must have shared one build,
    // and every distinct (instance, radius) was built exactly once.
    assert!(
        cache.hits() > 0,
        "cross-cell sharing did not happen: {cache:?}"
    );
    assert_eq!(cache.misses(), cache.len(), "{cache:?}");
}

#[test]
fn campaign_report_counts_cache_traffic() {
    // One deterministic family at one size: every radius-1 unlabeled
    // scheme over cycles shares the same C₈ skeletons.
    let config = CampaignConfig {
        sizes: vec![8],
        tamper_trials: 4,
        adversarial_iterations: 60,
        family_filter: Some(GraphFamily::Cycle),
        ..CampaignConfig::for_profile(Profile::Smoke, 7)
    };
    let report = run_campaign(&config);
    assert!(report.ok(), "failures: {:?}", report.failures());
    assert!(
        report.cache_hits > 0,
        "campaign cells never shared a skeleton build"
    );
    // The cache stats ride only in the timed JSON; the deterministic
    // form stays free of schedule-dependent numbers.
    assert!(report.to_json(true).contains("\"skeleton_cache\""));
    assert!(!report.to_json(false).contains("\"skeleton_cache\""));
}
