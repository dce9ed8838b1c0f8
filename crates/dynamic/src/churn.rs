//! Seeded churn workloads: replayable mutation streams and the
//! incremental-vs-full equivalence driver behind `lcp-campaign --churn`.
//!
//! A [`ChurnStream`] draws [`Mutation`]s from an [`rand::rngs::StdRng`]
//! seeded per the workspace seed policy: callers derive the stream seed
//! from their own coordinates (the campaign splitmixes `(campaign seed,
//! scheme, family, n, polarity)`), so adding cells never perturbs
//! existing streams and any failure is replayable from the seed alone.
//! Proposals are valid by construction against the instance's *current*
//! state — the stream looks at the graph before proposing, so a replay
//! of the same seed against the same start state yields the same
//! mutation sequence.
//!
//! [`run_churn`] is the measurement loop: apply, incrementally
//! [`DynamicInstance::reverify`], periodically cross-check against the
//! from-scratch [`DynamicInstance::full_check`], and record per-mutation
//! impact and cost. The label-free mutation kinds (edge insert/delete,
//! proof rewrite) are generated; typed label churn is driven explicitly
//! through [`DynamicInstance::set_node_label`] by typed callers.

use crate::{DynamicInstance, Mutation};
use lcp_core::{BitString, Deadline};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Tuning for a churn stream.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Stream seed (derive it from your cell coordinates).
    pub seed: u64,
    /// Maximum length of a rewritten proof string, in bits.
    pub max_proof_bits: usize,
    /// Relative weight of edge insertions.
    pub insert_weight: u32,
    /// Relative weight of edge deletions.
    pub delete_weight: u32,
    /// Relative weight of proof rewrites.
    pub rewrite_weight: u32,
}

impl ChurnConfig {
    /// Balanced default: equal-weight mutation kinds, rewrites of up to
    /// 4 bits.
    pub fn new(seed: u64) -> Self {
        ChurnConfig {
            seed,
            max_proof_bits: 4,
            insert_weight: 1,
            delete_weight: 1,
            rewrite_weight: 1,
        }
    }
}

/// A deterministic mutation proposer over a [`DynamicInstance`].
#[derive(Debug)]
pub struct ChurnStream {
    rng: StdRng,
    config: ChurnConfig,
}

/// Rejection-sampling attempts before a mutation kind is abandoned for
/// this step (e.g. edge insertion on a near-complete graph).
const ATTEMPTS: usize = 32;

impl ChurnStream {
    /// Seeds a stream from `config`.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnStream {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Proposes the next mutation, valid against `target`'s current
    /// state, or `None` when no kind is currently applicable (empty
    /// graphs, mostly).
    ///
    /// The proposal consumes RNG state whether or not the caller applies
    /// it; applying every proposal keeps replays exact.
    pub fn propose(&mut self, target: &DynamicInstance) -> Option<Mutation> {
        if target.n() == 0 {
            return None;
        }
        let (iw, dw, rw) = (
            self.config.insert_weight,
            self.config.delete_weight,
            self.config.rewrite_weight,
        );
        let total = iw + dw + rw;
        if total == 0 {
            return None;
        }
        let r = self.rng.random_range(0..total);
        let picked = if r < iw {
            0
        } else if r < iw + dw {
            1
        } else {
            2
        };
        // Rotate through the kinds starting at the picked one, so an
        // inapplicable pick (complete graph, edgeless graph) falls back
        // deterministically — zero-weight kinds never fire, even as
        // fallbacks.
        for offset in 0..3 {
            match (picked + offset) % 3 {
                0 if iw > 0 => {
                    if let Some(m) = self.propose_insert(target) {
                        return Some(m);
                    }
                }
                1 if dw > 0 => {
                    if let Some(m) = self.propose_delete(target) {
                        return Some(m);
                    }
                }
                2 if rw > 0 => return Some(self.propose_rewrite(target)),
                _ => {}
            }
        }
        None
    }

    fn propose_insert(&mut self, target: &DynamicInstance) -> Option<Mutation> {
        let g = target.graph();
        let n = target.n();
        if n < 2 {
            return None;
        }
        for _ in 0..ATTEMPTS {
            let u = self.rng.random_range(0..n);
            let v = self.rng.random_range(0..n);
            if u != v && !g.has_edge(u, v) {
                return Some(Mutation::EdgeInsert(u, v));
            }
        }
        None
    }

    fn propose_delete(&mut self, target: &DynamicInstance) -> Option<Mutation> {
        let g = target.graph();
        if g.m() == 0 {
            return None;
        }
        for _ in 0..ATTEMPTS {
            let u = self.rng.random_range(0..target.n());
            if g.degree(u) > 0 {
                let v = g.neighbors(u)[self.rng.random_range(0..g.degree(u))];
                return Some(Mutation::EdgeDelete(u, v));
            }
        }
        None
    }

    fn propose_rewrite(&mut self, target: &DynamicInstance) -> Mutation {
        let v = self.rng.random_range(0..target.n());
        let len = self.rng.random_range(0..=self.config.max_proof_bits);
        let bits = BitString::from_bits((0..len).map(|_| self.rng.random_bool(0.5)));
        Mutation::ProofRewrite(v, bits)
    }
}

/// Per-mutation record of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnStep {
    /// The applied mutation.
    pub mutation: Mutation,
    /// Views whose output could change (what got dirtied).
    pub impact: usize,
    /// Verifiers actually re-run by the incremental pass.
    pub reverified: usize,
    /// Global verdict after the mutation.
    pub accepted: bool,
    /// First rejecting node, when rejected.
    pub witness: Option<usize>,
    /// Whether the from-scratch cross-check ran and agreed
    /// (`None` = not checked this step).
    pub matched_full: Option<bool>,
}

/// Aggregate outcome of [`run_churn`].
#[derive(Clone, Debug, Default)]
pub struct ChurnRun {
    /// Every applied step, in order.
    pub steps: Vec<ChurnStep>,
    /// From-scratch cross-checks performed.
    pub checks: usize,
    /// Cross-checks where incremental and full verification disagreed —
    /// any nonzero value is a correctness bug.
    pub mismatches: usize,
    /// Largest single-mutation impact set.
    pub max_impact: usize,
    /// Total verifiers re-run across all incremental passes.
    pub total_reverified: usize,
    /// Wall time spent in incremental apply+reverify, in nanoseconds.
    pub incremental_nanos: u128,
    /// Wall time spent in from-scratch cross-checks, in nanoseconds.
    pub full_nanos: u128,
    /// Whether the run stopped early because its `deadline` expired.
    pub timed_out: bool,
}

/// Drives `steps` mutations from a fresh [`ChurnStream`] through
/// `target`, incrementally re-verifying after every mutation and
/// cross-checking against from-scratch evaluation every `check_every`
/// steps (and on the final step; `0` disables periodic checks but keeps
/// the final one).
///
/// The cross-check compares the *entire* cached output vector — not
/// just the verdict — so a stale cached output at any node counts as a
/// mismatch even when it cannot flip the global decision. This is the
/// strongest form of the dirty-ball invariant: a node whose output
/// changed but was never dirtied cannot escape detection.
///
/// The loop polls `deadline` before each step and stops early —
/// flagging [`ChurnRun::timed_out`] — once it has expired (pass
/// [`Deadline::none`] for an unbounded run). Everything applied before
/// the stop is still cross-checked (the final-step check below runs
/// regardless), so a timed-out run's partial trace remains a valid
/// equivalence witness.
pub fn run_churn(
    target: &mut DynamicInstance,
    config: &ChurnConfig,
    steps: usize,
    check_every: usize,
    deadline: &Deadline,
) -> ChurnRun {
    let mut stream = ChurnStream::new(*config);
    let mut run = ChurnRun::default();
    // Seed the cache so per-step reverified counts measure increments.
    target.reverify();
    for step in 1..=steps {
        if deadline.expired() {
            run.timed_out = true;
            break;
        }
        let Some(mutation) = stream.propose(target) else {
            break;
        };
        let started = Instant::now();
        let impact = match target.apply(&mutation) {
            Ok(impact) => impact.len(),
            // A stream proposal is valid by construction; a refusal here
            // is a bug worth surfacing as a failed check.
            Err(_) => {
                run.checks += 1;
                run.mismatches += 1;
                continue;
            }
        };
        let outcome = target.reverify();
        run.incremental_nanos += started.elapsed().as_nanos();

        let matched_full = (check_every > 0 && step.is_multiple_of(check_every))
            .then(|| cross_check(target, &mut run));

        run.max_impact = run.max_impact.max(impact);
        run.total_reverified += outcome.reverified;
        run.steps.push(ChurnStep {
            mutation,
            impact,
            reverified: outcome.reverified,
            accepted: outcome.accepted,
            witness: outcome.witness,
            matched_full,
        });
    }
    // The final applied mutation is always cross-checked, whether the
    // budget ran out, the stream dried up, or periodic checks were off.
    if let Some(last) = run.steps.last() {
        if last.matched_full.is_none() {
            let matched = cross_check(target, &mut run);
            run.steps
                .last_mut()
                .expect("just observed a last step")
                .matched_full = Some(matched);
        }
    }
    run
}

/// One from-scratch cross-check against the (clean) cached outputs,
/// with its cost and outcome folded into `run`.
fn cross_check(target: &DynamicInstance, run: &mut ChurnRun) -> bool {
    let started = Instant::now();
    let full = target.full_check();
    run.full_nanos += started.elapsed().as_nanos();
    let cached = target
        .cached_verdict()
        .expect("cross-checks run on a re-verified instance");
    let matched = cached == full;
    run.checks += 1;
    run.mismatches += usize::from(!matched);
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::{Instance, Proof, Scheme, View};
    use lcp_graph::generators;

    /// Radius-2 scheme reading everything in sight (equivalence stressor).
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
            let mut h: u64 = view.center() as u64;
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
    fn streams_are_replayable() {
        let build =
            || DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::grid(3, 4)));
        let mut a = build();
        let mut b = build();
        let config = ChurnConfig::new(7);
        let ra = run_churn(&mut a, &config, 40, 8, &Deadline::none());
        let rb = run_churn(&mut b, &config, 40, 8, &Deadline::none());
        assert_eq!(ra.steps.len(), rb.steps.len());
        for (x, y) in ra.steps.iter().zip(&rb.steps) {
            assert_eq!(x.mutation, y.mutation);
            assert_eq!(x.accepted, y.accepted);
            assert_eq!(x.witness, y.witness);
        }
        assert_ne!(
            run_churn(&mut build(), &ChurnConfig::new(8), 40, 8, &Deadline::none())
                .steps
                .iter()
                .map(|s| s.mutation.clone())
                .collect::<Vec<_>>(),
            ra.steps
                .iter()
                .map(|s| s.mutation.clone())
                .collect::<Vec<_>>(),
            "different seeds diverge"
        );
    }

    #[test]
    fn churn_runs_stay_equivalent_to_full_checks() {
        for seed in 0..4 {
            let mut d =
                DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::cycle(14)));
            let run = run_churn(&mut d, &ChurnConfig::new(seed), 60, 1, &Deadline::none());
            assert_eq!(run.mismatches, 0, "seed {seed}: {run:?}");
            assert_eq!(run.checks, run.steps.len());
            assert!(run.total_reverified > 0);
        }
    }

    #[test]
    fn expired_deadlines_stop_the_churn_loop_cleanly() {
        use std::time::Duration;
        let mut d = DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::cycle(14)));
        let run = run_churn(
            &mut d,
            &ChurnConfig::new(5),
            60,
            1,
            &Deadline::after(Duration::ZERO),
        );
        assert!(run.timed_out);
        assert!(run.steps.is_empty(), "expired before the first step");
        // A budget that never expires reproduces the unbounded run exactly.
        let mut a = DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::cycle(14)));
        let mut b = DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::cycle(14)));
        let full = run_churn(&mut a, &ChurnConfig::new(5), 20, 4, &Deadline::none());
        let budget = Deadline::after(Duration::from_secs(3600));
        let within = run_churn(&mut b, &ChurnConfig::new(5), 20, 4, &budget);
        assert!(!within.timed_out);
        assert_eq!(full.steps.len(), within.steps.len());
        assert_eq!(full.mismatches, within.mismatches);
        for (x, y) in full.steps.iter().zip(&within.steps) {
            assert_eq!(x.mutation, y.mutation);
            assert_eq!(x.accepted, y.accepted);
        }
    }

    #[test]
    fn final_step_is_always_cross_checked() {
        let mut d = DynamicInstance::seal(Fingerprint, Instance::unlabeled(generators::path(6)));
        let run = run_churn(&mut d, &ChurnConfig::new(3), 10, 0, &Deadline::none());
        assert_eq!(run.checks, 1, "only the final check with check_every=0");
        assert_eq!(run.steps.last().unwrap().matched_full, Some(true));
        assert_eq!(run.mismatches, 0);
    }
}
