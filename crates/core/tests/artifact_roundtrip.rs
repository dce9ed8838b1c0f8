//! The artifact tier's public contract, end to end: a core that went
//! through `save` → disk → `mmap` `open` is observationally identical
//! to the core built in process — same members, same dependents, same
//! verdicts from a label-sensitive verifier — and every way a file can
//! be wrong (corrupted, truncated, version-skewed, mistyped) is a
//! diagnosable rejection naming the file and byte offset, never UB and
//! never a silently different answer.

use lcp_core::{
    ArtifactSource, ArtifactStore, CoreProvenance, Deadline, EdgeMap, FrozenCore, Instance, Proof,
    Scheme, View,
};
use lcp_graph::generators;
use std::path::PathBuf;

const RADIUS: usize = 2;

/// A verifier whose output depends on everything an artifact persists:
/// topology, identifiers, distances, proof bits, and both label types.
struct LabelFingerprint;

impl Scheme for LabelFingerprint {
    type Node = bool;
    type Edge = u8;
    fn name(&self) -> String {
        "label-fingerprint".into()
    }
    fn radius(&self) -> usize {
        RADIUS
    }
    fn holds(&self, _: &Instance<bool, u8>) -> bool {
        true
    }
    fn prove(&self, inst: &Instance<bool, u8>) -> Option<Proof> {
        Some(Proof::empty(inst.n()))
    }
    fn verify(&self, view: &View<bool, u8>) -> bool {
        let mut h: u64 = view.center() as u64;
        for u in view.nodes() {
            h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
            h = h.wrapping_mul(31).wrapping_add(view.dist(u) as u64);
            h = h.wrapping_mul(3).wrapping_add(*view.node_label(u) as u64);
            for &w in view.neighbors(u) {
                let w = w as usize;
                h = h.wrapping_mul(131).wrapping_add(view.id(w).0);
                if let Some(&e) = view.edge_label(u, w) {
                    h = h.wrapping_mul(257).wrapping_add(e as u64);
                }
            }
        }
        !h.is_multiple_of(7)
    }
}

/// A deterministic labelled instance: grid topology, alternating node
/// marks, edge labels derived from the endpoint ids.
fn labelled_instance() -> Instance<bool, u8> {
    let g = generators::grid(4, 5);
    let nodes = (0..g.n()).map(|v| v % 3 == 0).collect();
    let mut edges = EdgeMap::new();
    for v in 0..g.n() {
        for &w in g.neighbors(v) {
            if v < w {
                edges.insert((v, w), ((v * 7 + w) % 251) as u8);
            }
        }
    }
    Instance::with_data(g, nodes, edges)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcp-artifact-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one `.lcpc` file in `dir`.
fn artifact_file(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("list artifact dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "lcpc"))
        .expect("one persisted artifact")
}

#[test]
fn mapped_cores_are_observationally_identical_to_built_cores() {
    let dir = temp_dir("equiv");
    let inst = labelled_instance();
    let scheme = LabelFingerprint;
    let proof = scheme.prove(&inst).expect("honest proof");

    // Ground truth: a from-scratch in-process preparation.
    let (fresh, prov) = ArtifactSource::BuildFresh.prepare(&inst, RADIUS);
    assert_eq!(prov, CoreProvenance::Built);
    let baseline = fresh.evaluate(&scheme, &proof, &Deadline::none());

    // First process: builds, and persists the frozen core on the way.
    {
        let store = ArtifactStore::open(&dir).expect("open artifact dir");
        let (prep, prov) = store.prepare(&inst, RADIUS);
        assert_eq!(prov, CoreProvenance::Built);
        assert_eq!((store.writes(), store.loads()), (1, 0));
        assert_eq!(prep.evaluate(&scheme, &proof, &Deadline::none()), baseline);
    }

    // "Restarted process": a fresh store over the same directory maps
    // the artifact instead of rebuilding, and nothing observable moves.
    let store = ArtifactStore::open(&dir).expect("reopen artifact dir");
    let (mapped, prov) = store.prepare(&inst, RADIUS);
    assert_eq!(prov, CoreProvenance::ArtifactLoaded);
    assert_eq!((store.loads(), store.builds()), (1, 0));
    assert_eq!(
        mapped.evaluate(&scheme, &proof, &Deadline::none()),
        baseline
    );
    for v in 0..inst.n() {
        assert_eq!(
            mapped.members(v).collect::<Vec<_>>(),
            fresh.members(v).collect::<Vec<_>>(),
            "ball membership of {v} drifted through the disk round-trip"
        );
        assert_eq!(
            mapped.dependents(v).collect::<Vec<_>>(),
            fresh.dependents(v).collect::<Vec<_>>(),
            "dependent set of {v} drifted through the disk round-trip"
        );
    }

    // Within one store, the second prepare is an in-process cache hit.
    let (_, prov) = store.prepare(&inst, RADIUS);
    assert_eq!(prov, CoreProvenance::CacheHit);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_are_rejected_rebuilt_and_replaced() {
    let dir = temp_dir("corrupt");
    let inst = labelled_instance();

    ArtifactStore::open(&dir)
        .expect("open artifact dir")
        .prepare(&inst, RADIUS);
    let path = artifact_file(&dir);

    // Flip one payload byte; the store must notice, rebuild, and leave
    // a good file behind — corruption costs time, never correctness.
    let mut bytes = std::fs::read(&path).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("corrupt artifact");

    let store = ArtifactStore::open(&dir).expect("reopen artifact dir");
    let (_, prov) = store.prepare(&inst, RADIUS);
    assert_eq!(prov, CoreProvenance::Built, "corrupt file must not serve");
    assert_eq!((store.rejects(), store.writes()), (1, 1));

    // The rewritten file serves the next process from disk again.
    let healed = ArtifactStore::open(&dir).expect("reopen after heal");
    let (_, prov) = healed.prepare(&inst, RADIUS);
    assert_eq!(prov, CoreProvenance::ArtifactLoaded);
    assert_eq!(healed.rejects(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejections_name_the_file_and_byte_offset() {
    let dir = temp_dir("reject");
    std::fs::create_dir_all(&dir).expect("create dir");

    // Not an artifact at all: rejected at the magic word, byte 0.
    let bogus = dir.join("bogus.lcpc");
    std::fs::write(&bogus, [0u8; 16 * 8]).expect("write bogus file");
    let err = FrozenCore::<(), ()>::open(&bogus, None).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("bogus.lcpc"), "no file name in: {msg}");
    assert!(msg.contains("byte 0"), "no offset in: {msg}");
    assert!(msg.contains("magic"), "no diagnosis in: {msg}");

    // A real artifact truncated mid-section is caught by the header's
    // total-word count before any section is trusted.
    let store_dir = dir.join("store");
    let inst = Instance::unlabeled(generators::cycle(32));
    ArtifactStore::open(&store_dir)
        .expect("open artifact dir")
        .prepare(&inst, RADIUS);
    let path = artifact_file(&store_dir);
    let bytes = std::fs::read(&path).expect("read artifact");
    let cut = dir.join("cut.lcpc");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("truncate");
    let msg = FrozenCore::<(), ()>::open(&cut, None)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("cut.lcpc"), "no file name in: {msg}");
    assert!(msg.contains("byte"), "no offset in: {msg}");

    // Opening a unit-labelled core as a differently-typed one is a tag
    // mismatch at header word 8 (byte 64) — type confusion cannot map.
    let msg = FrozenCore::<bool, ()>::open(&path, None)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("byte 64"), "no tag offset in: {msg}");
    assert!(msg.contains("tag"), "no diagnosis in: {msg}");

    std::fs::remove_dir_all(&dir).ok();
}
