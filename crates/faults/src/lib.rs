//! # `lcp-faults` — deterministic fault injection for the verification stack
//!
//! The conformance campaign proves the schemes behave; this crate
//! proves the *infrastructure* notices when its own state is damaged.
//! Every experiment plants a seeded fault in a layer the campaign
//! trusts implicitly and asserts the stack either **detects** it (a
//! soundness-style check observes the damage) or **repairs** it (the
//! incremental machinery restores a state indistinguishable from
//! scratch):
//!
//! * [`FaultKind::ArenaBitFlip`] — flip one bit of an honest,
//!   fully-accepted proof in its word-packed storage. The verifier
//!   sweep must reject somewhere (detected); flipping the bit back must
//!   restore acceptance everywhere (repaired).
//! * [`FaultKind::SkeletonCorruption`] — corrupt one cached view
//!   skeleton's CSR adjacency/distances inside a [`CoreBuilder`]. The
//!   builder's outputs must diverge from those of a second builder over
//!   the same shared core, which the damage must not reach (detected),
//!   and [`CoreBuilder::rebuild`] over the damaged node must make every
//!   view match the untouched builder again (repaired).
//! * [`FaultKind::ChurnDrop`] / [`FaultKind::ChurnDuplicate`] /
//!   [`FaultKind::ChurnReorder`] — perturb a valid churn mutation
//!   stream before replaying it into a [`DynamicInstance`]. Structurally
//!   impossible mutations must be refused by `apply` (detected), and
//!   whatever state survives must keep `reverify()` in agreement with
//!   `full_check()` (repaired) — the dirty-ball invariant under a
//!   faulty driver.
//!
//! Everything is seeded ([`run_standard_plan`] is a pure function of
//! its seed): a failing outcome is replayable from the report alone,
//! matching the workspace seed policy. `lcp-campaign --inject-faults`
//! runs the standard plan and exits nonzero if any fault goes both
//! undetected and unrepaired.

use lcp_core::bits::BitString;
use lcp_core::{CoreBuilder, FrozenCore, Instance, Proof, Scheme, View};
use lcp_dynamic::churn::{ChurnConfig, ChurnStream};
use lcp_dynamic::{DynamicInstance, Mutation};
use lcp_graph::{generators, traversal, Graph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Probe schemes
// ---------------------------------------------------------------------

/// The 1-bit bipartiteness scheme (§1.2 of the paper): every flipped
/// colour bit breaks both incident edge constraints, so a single-bit
/// arena fault is always *detectable* — the right probe for storage
/// faults.
struct Bipartite;

impl Scheme for Bipartite {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "fault-probe-bipartite".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn holds(&self, inst: &Instance) -> bool {
        traversal::is_bipartite(inst.graph())
    }
    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let colors = traversal::bipartition(inst.graph())?;
        Some(Proof::from_fn(inst.graph().n(), |v| {
            BitString::from_bits([colors[v] == 1])
        }))
    }
    fn verify(&self, view: &View) -> bool {
        let me = view.proof(view.center());
        view.neighbors(view.center())
            .iter()
            .all(|&u| view.proof(u as usize).first() != me.first())
    }
}

/// A radius-2 verifier whose output hashes the *entire* view —
/// membership, distances, adjacency order, proof bits. Any structural
/// skeleton corruption perturbs the hash, so cached-view damage cannot
/// hide from it.
struct Fingerprint;

impl Scheme for Fingerprint {
    type Node = ();
    type Edge = ();
    fn name(&self) -> String {
        "fault-probe-fingerprint".into()
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
        let mut h: u64 = view.center() as u64;
        for u in view.nodes() {
            h = h.wrapping_mul(1_000_003).wrapping_add(view.id(u).0);
            h = h.wrapping_mul(31).wrapping_add(view.dist(u) as u64);
            for b in view.proof(u).iter() {
                h = h.wrapping_mul(2).wrapping_add(b as u64);
            }
            for &w in view.neighbors(u) {
                let w = w as usize;
                h = h.wrapping_mul(131).wrapping_add(view.id(w).0);
            }
        }
        !h.is_multiple_of(3)
    }
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

/// The layer a fault was injected into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One bit of an honest proof flipped in its packed storage.
    ArenaBitFlip,
    /// One cached view skeleton's CSR adjacency/distances corrupted.
    SkeletonCorruption,
    /// One mutation silently removed from a churn stream.
    ChurnDrop,
    /// One mutation applied twice in a churn stream.
    ChurnDuplicate,
    /// Two adjacent churn mutations applied in swapped order.
    ChurnReorder,
}

impl FaultKind {
    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ArenaBitFlip => "arena-bit-flip",
            FaultKind::SkeletonCorruption => "skeleton-corruption",
            FaultKind::ChurnDrop => "churn-drop",
            FaultKind::ChurnDuplicate => "churn-duplicate",
            FaultKind::ChurnReorder => "churn-reorder",
        }
    }
}

/// One injected fault and what the stack did about it.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Which layer was damaged.
    pub kind: FaultKind,
    /// Where (deterministic, human-readable — e.g. `cycle(12) node 5`).
    pub site: String,
    /// A check observed the damage.
    pub detected: bool,
    /// The repair path restored a state indistinguishable from scratch.
    pub repaired: bool,
    /// Deterministic narrative of the experiment.
    pub detail: String,
}

impl FaultOutcome {
    /// A fault is handled when it is detected, repaired, or both; an
    /// unhandled fault is silent corruption — the thing this crate
    /// exists to rule out.
    pub fn handled(&self) -> bool {
        self.detected || self.repaired
    }
}

/// The outcome of a whole fault plan.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The plan seed (the report is a pure function of it).
    pub seed: u64,
    /// Every injected fault, in plan order.
    pub outcomes: Vec<FaultOutcome>,
}

impl FaultReport {
    /// Whether every fault was detected or repaired.
    pub fn all_handled(&self) -> bool {
        self.outcomes.iter().all(FaultOutcome::handled)
    }

    /// Outcomes that were neither detected nor repaired.
    pub fn unhandled(&self) -> Vec<&FaultOutcome> {
        self.outcomes.iter().filter(|o| !o.handled()).collect()
    }

    /// Deterministic JSON rendering (same seed → same bytes).
    pub fn to_json(&self) -> String {
        let mut w = String::with_capacity(1 << 12);
        w.push_str("{\n");
        let _ = writeln!(w, "  \"mode\": \"fault-injection\",");
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"faults\": {},", self.outcomes.len());
        let _ = writeln!(w, "  \"all_handled\": {},", self.all_handled());
        w.push_str("  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let _ = write!(
                w,
                "    {{ \"kind\": {}, \"site\": {}, \"detected\": {}, \"repaired\": {}, \
                 \"detail\": {} }}",
                lcp_core::json::escape(o.kind.name()),
                lcp_core::json::escape(&o.site),
                o.detected,
                o.repaired,
                lcp_core::json::escape(&o.detail),
            );
            w.push_str(if i + 1 < self.outcomes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        w.push_str("  ]\n}\n");
        w
    }
}

// ---------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------

/// Flip one seeded bit of the honest bipartition proof and ask the
/// verifier sweep about it; then flip it back.
fn inject_arena_flip(site: &str, g: Graph, rng: &mut StdRng) -> FaultOutcome {
    let inst = Instance::unlabeled(g);
    let scheme = Bipartite;
    assert!(scheme.holds(&inst), "arena probes start from yes-instances");
    let mut proof = scheme.prove(&inst).expect("bipartition exists");
    let store: CoreBuilder = CoreBuilder::new(Arc::new(FrozenCore::build(&inst, scheme.radius())));
    let clean = store.evaluate(&scheme, &proof);
    debug_assert!(clean.accepted(), "honest proof accepted before the fault");

    let victim = rng.random_range(0..inst.n());
    proof.flip(victim, 0);
    let corrupted = store.evaluate(&scheme, &proof);
    let detected = !corrupted.accepted();
    let witness = corrupted.rejecting().first().copied();

    proof.flip(victim, 0);
    let repaired = store.evaluate(&scheme, &proof).accepted();

    FaultOutcome {
        kind: FaultKind::ArenaBitFlip,
        site: format!("{site} node {victim} bit 0"),
        detected,
        repaired,
        detail: match witness {
            Some(w) => format!(
                "flipped colour bit rejected (first witness node {w}); restored bit re-accepted: {repaired}"
            ),
            None => "flipped colour bit was accepted everywhere — soundness check missed it".into(),
        },
    }
}

/// Everything a verifier can observe in one bound view: node identity,
/// distance-from-center, and adjacency order. Two stores agree on a
/// node's verification iff these signatures match.
fn view_signature(store: &CoreBuilder, v: usize, proof: &Proof) -> Vec<(u64, usize, Vec<u64>)> {
    let view = store.bind(v, proof);
    view.nodes()
        .map(|u| {
            (
                view.id(u).0,
                view.dist(u),
                view.neighbors(u)
                    .iter()
                    .map(|&w| view.id(w as usize).0)
                    .collect(),
            )
        })
        .collect()
}

/// Corrupt one cached skeleton, compare the store against a fresh
/// build, then let [`CoreBuilder::rebuild`] repair it.
fn inject_skeleton_corruption(site: &str, g: Graph, rng: &mut StdRng) -> FaultOutcome {
    let inst = Instance::unlabeled(g);
    let scheme = Fingerprint;
    let proof = scheme.prove(&inst).expect("fingerprint always proves");
    let base = Arc::new(FrozenCore::build(&inst, scheme.radius()));
    let fresh: CoreBuilder = CoreBuilder::new(Arc::clone(&base));
    let mut store: CoreBuilder = CoreBuilder::new(base);

    let victim = rng.random_range(0..inst.n());
    let damage = store.corrupt_skeleton_for_tests(victim);
    let truth = fresh.evaluate(&scheme, &proof);
    // Detection = an integrity sweep comparing what each verifier would
    // see against a fresh build (corruption always perturbs distance or
    // adjacency order, both verifier-visible).
    let detected = (0..inst.n())
        .any(|v| view_signature(&store, v, &proof) != view_signature(&fresh, v, &proof));

    // The repair primitive: rebuild the damaged scope from the (intact)
    // instance, exactly as the incremental engine does after a mutation.
    let changed = store.rebuild(&inst, &[victim]);
    let repaired = (0..inst.n())
        .all(|v| view_signature(&store, v, &proof) == view_signature(&fresh, v, &proof))
        && store.evaluate(&scheme, &proof) == truth;

    FaultOutcome {
        kind: FaultKind::SkeletonCorruption,
        site: format!("{site} node {victim}"),
        detected,
        repaired,
        detail: format!(
            "{damage}; fresh-build divergence observed: {detected}; rebuild touched {} view(s) and restored agreement: {repaired}",
            changed.len()
        ),
    }
}

/// How a churn stream is perturbed before replay.
#[derive(Clone, Copy)]
enum Perturbation {
    Drop,
    Duplicate,
    Reorder,
}

/// Generates a *valid* mutation sequence by driving a pristine twin,
/// perturbs it, replays it into a fresh instance, and checks that every
/// impossible mutation is refused while incremental and from-scratch
/// verification stay in agreement on whatever state results.
fn inject_churn_fault(
    kind: FaultKind,
    perturbation: Perturbation,
    site: &str,
    build: impl Fn() -> Graph,
    steps: usize,
    stream_seed: u64,
    rng: &mut StdRng,
) -> FaultOutcome {
    // The twin records the mutations a faithful driver would apply.
    let mut twin = DynamicInstance::seal(Fingerprint, Instance::unlabeled(build()));
    let mut stream = ChurnStream::new(ChurnConfig::new(stream_seed));
    let mut script: Vec<Mutation> = Vec::with_capacity(steps);
    for _ in 0..steps {
        let Some(m) = stream.propose(&twin) else {
            break;
        };
        if twin.apply(&m).is_ok() {
            script.push(m);
        }
    }
    assert!(
        script.len() >= 2,
        "churn probes need at least two mutations"
    );

    let at = rng.random_range(0..script.len() - 1);
    match perturbation {
        Perturbation::Drop => {
            script.remove(at);
        }
        Perturbation::Duplicate => {
            let m = script[at].clone();
            script.insert(at + 1, m);
        }
        Perturbation::Reorder => {
            script.swap(at, at + 1);
        }
    }

    let mut target = DynamicInstance::seal(Fingerprint, Instance::unlabeled(build()));
    let mut refused = 0usize;
    let mut applied = 0usize;
    for m in &script {
        match target.apply(m) {
            Ok(_) => applied += 1,
            Err(_) => refused += 1,
        }
    }
    let incremental = target.reverify();
    let full = target.full_check();
    // The dirty-ball invariant under a faulty driver: whatever state the
    // perturbed script produced, incremental and from-scratch agree.
    let repaired = incremental.accepted == full.accepted()
        && incremental.witness == full.rejecting().first().copied();

    FaultOutcome {
        kind,
        site: format!("{site} mutation #{at}"),
        detected: refused > 0,
        repaired,
        detail: format!(
            "{applied} of {} perturbed mutations applied, {refused} refused; \
             incremental-vs-full agreement after replay: {repaired}",
            script.len()
        ),
    }
}

/// The standard plan `lcp-campaign --inject-faults` runs: several sites
/// per fault kind, all derived from `seed`. Deterministic — same seed,
/// same [`FaultReport::to_json`] bytes.
pub fn run_standard_plan(seed: u64) -> FaultReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa_17_5e_ed);
    let mut outcomes = Vec::new();

    for (site, g) in [
        ("cycle(12)", generators::cycle(12)),
        ("path(9)", generators::path(9)),
        ("grid(3,4)", generators::grid(3, 4)),
    ] {
        outcomes.push(inject_arena_flip(site, g, &mut rng));
    }

    for (site, g) in [
        ("grid(3,4)", generators::grid(3, 4)),
        ("cycle(9)", generators::cycle(9)),
    ] {
        outcomes.push(inject_skeleton_corruption(site, g, &mut rng));
    }

    for (kind, perturbation) in [
        (FaultKind::ChurnDrop, Perturbation::Drop),
        (FaultKind::ChurnDuplicate, Perturbation::Duplicate),
        (FaultKind::ChurnReorder, Perturbation::Reorder),
    ] {
        outcomes.push(inject_churn_fault(
            kind,
            perturbation,
            "grid(3,4)",
            || generators::grid(3, 4),
            24,
            seed ^ 0xc0_ffee,
            &mut rng,
        ));
    }

    FaultReport { seed, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_plan_handles_every_fault() {
        let report = run_standard_plan(7);
        assert!(
            report.all_handled(),
            "unhandled faults: {:?}",
            report.unhandled()
        );
        let kinds: std::collections::HashSet<FaultKind> =
            report.outcomes.iter().map(|o| o.kind).collect();
        assert!(kinds.len() >= 5, "plan must span every fault kind");
    }

    #[test]
    fn arena_flips_are_detected_and_reversible() {
        let report = run_standard_plan(3);
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.kind == FaultKind::ArenaBitFlip)
        {
            assert!(o.detected, "{}: flipped bit must be rejected", o.site);
            assert!(o.repaired, "{}: restored bit must re-accept", o.site);
        }
    }

    #[test]
    fn skeleton_corruption_is_repaired_by_rebuild() {
        let report = run_standard_plan(11);
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.kind == FaultKind::SkeletonCorruption)
        {
            assert!(o.detected, "{}: corruption must diverge from fresh", o.site);
            assert!(o.repaired, "{}: rebuild must restore agreement", o.site);
        }
    }

    #[test]
    fn churn_faults_keep_incremental_and_full_in_agreement() {
        let report = run_standard_plan(5);
        for o in report.outcomes.iter().filter(|o| {
            matches!(
                o.kind,
                FaultKind::ChurnDrop | FaultKind::ChurnDuplicate | FaultKind::ChurnReorder
            )
        }) {
            assert!(o.repaired, "{} ({}): {}", o.site, o.kind.name(), o.detail);
        }
    }

    #[test]
    fn the_plan_is_deterministic() {
        assert_eq!(
            run_standard_plan(7).to_json(),
            run_standard_plan(7).to_json()
        );
        assert_ne!(
            run_standard_plan(7).to_json(),
            run_standard_plan(8).to_json()
        );
    }
}
