//! # `lcp-dynamic` — incremental verification for dynamic graphs
//!
//! The whole point of a locally checkable proof (Göös & Suomela, PODC
//! 2011) is that a node's verdict depends only on its radius-`r` ball —
//! so when an edge appears, a label changes, or a proof string is
//! rewritten, only the nodes within distance `r` of the change can flip
//! their output. Everything farther away keeps its cached verdict, by
//! *locality*, not by optimism. This crate makes that observation
//! executable:
//!
//! * a [`DynamicInstance`] wraps a mutable `(instance, proof)` pair
//!   behind the engine's repairable skeleton cache
//!   ([`lcp_core::CoreBuilder`] via [`lcp_core::MutableCell`]),
//!   applies [`Mutation`]s from a **mutation log**, and tracks the
//!   **dirty set** — the exact view centres whose output can have
//!   changed since the last verification;
//! * [`DynamicInstance::reverify`] re-runs the verifier on dirty nodes
//!   only, reusing cached verdicts for the rest, and returns the same
//!   accept/reject decision — including the first rejecting node as
//!   witness — as re-preparing and fully evaluating from scratch
//!   (property-tested in `tests/equivalence.rs`);
//! * the [`churn`] module generates seeded, replayable mutation
//!   workloads and drives incremental-vs-full equivalence runs — the
//!   engine behind `lcp-campaign --churn`.
//!
//! ## The dirty-ball invariant
//!
//! Every mutator returns (and marks dirty) its *impact set*:
//!
//! * **edge insert/delete on `{u, v}`** — the centres in
//!   `ball(u, r) ∪ ball(v, r)` of the graph *containing* the edge whose
//!   cached skeleton actually changed structurally (membership,
//!   adjacency, or distances); the engine rebuilds exactly those balls;
//! * **proof rewrite / label change at `v`** — the centres whose balls
//!   contain `v` (the engine's `dependents(v)`: by symmetry, the nodes
//!   of `v`'s own ball).
//!
//! A node outside the impact set has a byte-identical view before and
//! after the mutation, so its cached output is still correct — the
//! invariant the equivalence suite pins.
//!
//! ```
//! use lcp_dynamic::DynamicInstance;
//! use lcp_core::{Instance, Proof, Scheme, View};
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
//! let mut dynamic = DynamicInstance::seal(EvenDegrees, Instance::unlabeled(generators::cycle(8)));
//! assert!(dynamic.reverify().accepted);
//! // A chord gives two nodes odd degree; only its radius-1 scope is re-run.
//! dynamic.insert_edge(0, 4).unwrap();
//! let outcome = dynamic.reverify();
//! assert!(!outcome.accepted);
//! assert_eq!(outcome.witness, Some(0));
//! assert!(outcome.reverified < 8, "incremental, not a full sweep");
//! ```
#![deny(missing_docs)]

pub mod churn;
pub mod metrics;

use lcp_core::{
    seal_mutable, BitString, CellMutationError, Instance, MutableCell, Proof, Scheme, Verdict,
};
use lcp_graph::Graph;
use std::any::Any;
use std::collections::BTreeSet;

/// One mutation event, as recorded in the [`DynamicInstance`] log.
///
/// The log stores *what happened*, replayably for edge and proof events;
/// a [`Mutation::NodeLabelChange`] records only the node (the label value
/// itself is typed and lives in the instance). Edge pairs are stored as
/// applied (unnormalized).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Edge `{u, v}` was inserted.
    EdgeInsert(usize, usize),
    /// Edge `{u, v}` was deleted (with its label, if any).
    EdgeDelete(usize, usize),
    /// Node `v`'s input label was replaced.
    NodeLabelChange(usize),
    /// Node `v`'s proof string was replaced with the recorded bits.
    ProofRewrite(usize, BitString),
}

impl Mutation {
    /// Stable lowercase kind name (report keys).
    pub fn kind(&self) -> &'static str {
        match self {
            Mutation::EdgeInsert(..) => "edge-insert",
            Mutation::EdgeDelete(..) => "edge-delete",
            Mutation::NodeLabelChange(..) => "node-label-change",
            Mutation::ProofRewrite(..) => "proof-rewrite",
        }
    }
}

/// Outcome of one [`DynamicInstance::reverify`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reverified {
    /// Whether every node currently accepts (the global verdict).
    pub accepted: bool,
    /// The first rejecting node in index order — the same witness a
    /// from-scratch `evaluate` would report — or `None` when accepted.
    pub witness: Option<usize>,
    /// How many verifiers actually ran (the dirty-set size).
    pub reverified: usize,
}

/// Outcome of one [`DynamicInstance::apply_verified`] round-trip: the
/// mutation's exact impact set plus the incremental verdict reached
/// immediately after applying it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    /// The view centres this mutation dirtied, ascending.
    pub impact: Vec<usize>,
    /// The incremental re-verification outcome after the mutation.
    pub outcome: Reverified,
}

/// A mutable instance + proof under incremental verification.
///
/// Built over an [`MutableCell`] (a typed scheme sealed behind an
/// object-safe handle), a `DynamicInstance` maintains three things the
/// cell does not: the **mutation log**, the **dirty set** of view
/// centres awaiting re-verification, and the **cached outputs** of every
/// verifier from the last verification. See the crate docs for the
/// dirty-ball invariant that keeps the cache sound.
pub struct DynamicInstance {
    cell: Box<dyn MutableCell>,
    /// Cached verifier outputs; trustworthy except at dirty nodes.
    outputs: Vec<bool>,
    /// Sorted rejecting nodes per the cached outputs (witness = first).
    rejecting: BTreeSet<usize>,
    /// Dirty membership flags (parallel to `dirty_list`).
    dirty: Vec<bool>,
    /// Dirty nodes in insertion order (deduplicated via `dirty`).
    dirty_list: Vec<usize>,
    log: Vec<Mutation>,
}

impl std::fmt::Debug for DynamicInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicInstance")
            .field("scheme", &self.cell.name())
            .field("n", &self.n())
            .field("dirty", &self.dirty_list.len())
            .field("log", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl DynamicInstance {
    /// Wraps an already-sealed cell (e.g. from
    /// [`lcp_core::DynScheme::dynamic_cell`]). Every node starts dirty,
    /// so the first [`Self::reverify`] is a full sweep that seeds the
    /// output cache.
    pub fn from_cell(cell: Box<dyn MutableCell>) -> Self {
        let n = cell.n();
        DynamicInstance {
            cell,
            outputs: vec![false; n],
            rejecting: BTreeSet::new(),
            dirty: vec![true; n],
            dirty_list: (0..n).collect(),
            log: Vec::new(),
        }
    }

    /// Seals `scheme` and `inst` into a dynamic instance, starting from
    /// the honest proof when the prover certifies `inst`, else from the
    /// empty proof.
    pub fn seal<S>(scheme: S, inst: Instance<S::Node, S::Edge>) -> Self
    where
        S: Scheme + Send + Sync + 'static,
        S::Node: Clone + Send + Sync + 'static,
        S::Edge: Clone + Send + Sync + 'static,
    {
        Self::from_cell(seal_mutable(scheme, inst, None))
    }

    /// Seals `scheme` and `inst` starting from an explicit proof.
    ///
    /// # Panics
    ///
    /// Panics if `proof.n() != inst.n()`.
    pub fn seal_with_proof<S>(scheme: S, inst: Instance<S::Node, S::Edge>, proof: Proof) -> Self
    where
        S: Scheme + Send + Sync + 'static,
        S::Node: Clone + Send + Sync + 'static,
        S::Edge: Clone + Send + Sync + 'static,
    {
        Self::from_cell(seal_mutable(scheme, inst, Some(proof)))
    }

    /// Number of nodes (fixed: the mutation model churns edges, labels,
    /// and proofs, not the node set).
    pub fn n(&self) -> usize {
        self.outputs.len()
    }

    /// The sealed scheme's verification radius.
    pub fn radius(&self) -> usize {
        self.cell.radius()
    }

    /// The sealed scheme's name.
    pub fn scheme_name(&self) -> String {
        self.cell.name()
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        self.cell.graph()
    }

    /// The current proof.
    pub fn proof(&self) -> &Proof {
        self.cell.proof()
    }

    /// Ground truth of the current instance (recomputed on demand).
    pub fn holds_now(&self) -> bool {
        self.cell.holds_now()
    }

    /// Runs the sealed prover against the current instance — e.g. to
    /// re-certify after churn flipped the instance back to a
    /// yes-instance.
    pub fn prove_now(&self) -> Option<Proof> {
        self.cell.prove_now()
    }

    /// The mutation log since construction (or the last
    /// [`Self::clear_log`]).
    pub fn log(&self) -> &[Mutation] {
        &self.log
    }

    /// Empties the mutation log, returning the drained entries.
    pub fn clear_log(&mut self) -> Vec<Mutation> {
        std::mem::take(&mut self.log)
    }

    /// Number of nodes awaiting re-verification.
    pub fn dirty_len(&self) -> usize {
        self.dirty_list.len()
    }

    /// The dirty view centres, ascending.
    pub fn dirty_nodes(&self) -> Vec<usize> {
        let mut nodes = self.dirty_list.clone();
        nodes.sort_unstable();
        nodes
    }

    fn mark_dirty(&mut self, nodes: &[usize]) {
        for &v in nodes {
            if !self.dirty[v] {
                self.dirty[v] = true;
                self.dirty_list.push(v);
            }
        }
    }

    /// Inserts edge `{u, v}`, repairing the affected cached balls and
    /// dirtying exactly the views that structurally changed. Returns the
    /// impact set.
    ///
    /// # Errors
    ///
    /// Out-of-range indices, self-loops, and duplicate edges are refused;
    /// nothing is logged or dirtied on error.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError> {
        let impact = self.cell.insert_edge(u, v)?;
        self.mark_dirty(&impact);
        self.log.push(Mutation::EdgeInsert(u, v));
        metrics::MUTATIONS_EDGE_INSERT.inc();
        Ok(impact)
    }

    /// Deletes edge `{u, v}` (dropping any edge label), repairing the
    /// affected cached balls and dirtying exactly the views that
    /// structurally changed. Returns the impact set.
    ///
    /// # Errors
    ///
    /// Out-of-range indices and absent edges are refused; nothing is
    /// logged or dirtied on error.
    pub fn delete_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError> {
        let impact = self.cell.remove_edge(u, v)?;
        self.mark_dirty(&impact);
        self.log.push(Mutation::EdgeDelete(u, v));
        metrics::MUTATIONS_EDGE_DELETE.inc();
        Ok(impact)
    }

    /// Replaces node `v`'s proof string, dirtying the views whose balls
    /// contain `v` (none when the bits are unchanged). Returns the
    /// impact set.
    ///
    /// # Errors
    ///
    /// Refuses out-of-range nodes.
    pub fn rewrite_proof(
        &mut self,
        v: usize,
        bits: &BitString,
    ) -> Result<Vec<usize>, CellMutationError> {
        let impact = self.cell.rewrite_proof(v, bits)?;
        if !impact.is_empty() {
            self.mark_dirty(&impact);
            self.log.push(Mutation::ProofRewrite(v, bits.clone()));
            metrics::MUTATIONS_PROOF_REWRITE.inc();
        }
        Ok(impact)
    }

    /// Replaces node `v`'s input label (typed — `L` must match the
    /// sealed scheme's `Node` type), dirtying the views whose balls
    /// contain `v`. Returns the impact set.
    ///
    /// # Errors
    ///
    /// Refuses out-of-range nodes and mismatched label types.
    pub fn set_node_label<L: Any>(
        &mut self,
        v: usize,
        label: L,
    ) -> Result<Vec<usize>, CellMutationError> {
        let impact = self.cell.set_node_label(v, Box::new(label))?;
        self.mark_dirty(&impact);
        self.log.push(Mutation::NodeLabelChange(v));
        metrics::MUTATIONS_NODE_LABEL.inc();
        Ok(impact)
    }

    /// Applies a data-carrying [`Mutation`] — the churn-stream entry
    /// point. Returns the impact set.
    ///
    /// # Errors
    ///
    /// Propagates the underlying mutator's error;
    /// [`Mutation::NodeLabelChange`] is refused here (label values are
    /// typed — use [`Self::set_node_label`]).
    pub fn apply(&mut self, m: &Mutation) -> Result<Vec<usize>, CellMutationError> {
        match m {
            Mutation::EdgeInsert(u, v) => self.insert_edge(*u, *v),
            Mutation::EdgeDelete(u, v) => self.delete_edge(*u, *v),
            Mutation::ProofRewrite(v, bits) => self.rewrite_proof(*v, bits),
            Mutation::NodeLabelChange(_) => Err(CellMutationError::LabelType),
        }
    }

    /// Applies `m` and immediately re-verifies, atomically from the
    /// caller's point of view — the mutation-per-request entry point of
    /// session layers (`lcp-serve`). The client streams one mutation and
    /// gets back the exact impact set together with the post-mutation
    /// verdict; the instance is never observable in a
    /// mutated-but-unverified state between the two.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::apply`]'s errors; on error the instance is
    /// untouched — nothing applied, dirtied, or logged, and any cached
    /// verdict stays valid.
    pub fn apply_verified(&mut self, m: &Mutation) -> Result<Applied, CellMutationError> {
        let mut impact = self.apply(m)?;
        impact.sort_unstable();
        let outcome = self.reverify();
        Ok(Applied { impact, outcome })
    }

    /// Re-verifies exactly the dirty nodes, updating the cached outputs,
    /// and reports the global verdict with the same first-rejector
    /// witness a from-scratch `evaluate` would produce.
    ///
    /// Cost: `O(Σ|dirty ball|)` verifier work plus `O(dirty · log n)`
    /// bookkeeping — independent of `n` for local mutations.
    pub fn reverify(&mut self) -> Reverified {
        let started = std::time::Instant::now();
        let mut nodes = std::mem::take(&mut self.dirty_list);
        nodes.sort_unstable();
        for &v in &nodes {
            self.dirty[v] = false;
            let out = self.cell.verify(v);
            if out != self.outputs[v] {
                self.outputs[v] = out;
                if out {
                    self.rejecting.remove(&v);
                } else {
                    self.rejecting.insert(v);
                }
            } else if !out {
                // First sweep: outputs started false without being
                // registered as rejecting.
                self.rejecting.insert(v);
            }
        }
        metrics::REVERIFIES.inc();
        metrics::DIRTY_SET_SIZE.observe(nodes.len() as u64);
        metrics::REVERIFIED_NODES.add(nodes.len() as u64);
        metrics::REVERIFY_NS.observe(started.elapsed().as_nanos() as u64);
        Reverified {
            accepted: self.rejecting.is_empty(),
            witness: self.rejecting.first().copied(),
            reverified: nodes.len(),
        }
    }

    /// The cached per-node outputs as a [`Verdict`], or `None` while
    /// mutations are pending re-verification.
    pub fn cached_verdict(&self) -> Option<Verdict> {
        self.dirty_list
            .is_empty()
            .then(|| Verdict::from_outputs(self.outputs.clone()))
    }

    /// From-scratch reference: re-prepares the current instance and
    /// evaluates every node — what [`Self::reverify`] must agree with
    /// (and the baseline the churn bench compares against).
    pub fn full_check(&self) -> Verdict {
        self.cell.evaluate_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::View;
    use lcp_graph::generators;

    /// The 1-bit bipartiteness scheme — rigid proofs, radius 1.
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
                BitString::from_bits([colors[v] == 1])
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

    #[test]
    fn first_reverify_is_a_full_sweep() {
        let mut d = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        assert_eq!(d.dirty_len(), 6);
        let outcome = d.reverify();
        assert_eq!(
            outcome,
            Reverified {
                accepted: true,
                witness: None,
                reverified: 6
            }
        );
        assert_eq!(d.dirty_len(), 0);
        assert!(d.cached_verdict().unwrap().accepted());
    }

    #[test]
    fn incremental_verdicts_track_mutations() {
        let mut d = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(8)));
        d.reverify();

        // Chord {0, 2} closes a triangle: not bipartite, and the stale
        // 2-colouring is caught locally by the chord's endpoints.
        d.insert_edge(0, 2).unwrap();
        assert!(d.dirty_len() > 0);
        assert!(d.cached_verdict().is_none(), "dirty ⇒ no cached verdict");
        let outcome = d.reverify();
        assert!(!outcome.accepted);
        let full = d.full_check();
        assert_eq!(outcome.witness, full.rejecting().first().copied());
        assert_eq!(d.cached_verdict().unwrap(), full);

        // Deleting the chord heals the instance.
        d.delete_edge(0, 2).unwrap();
        let outcome = d.reverify();
        assert!(outcome.accepted);
        assert_eq!(outcome.witness, None);
        assert_eq!(
            d.log(),
            &[Mutation::EdgeInsert(0, 2), Mutation::EdgeDelete(0, 2)]
        );
    }

    #[test]
    fn proof_rewrites_dirty_only_the_ball() {
        let mut d = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(8)));
        d.reverify();
        let flipped = BitString::from_bits([d.proof().get(4).first() == Some(false)]);
        let impact = d.rewrite_proof(4, &flipped).unwrap();
        assert_eq!(impact, vec![3, 4, 5]);
        assert_eq!(d.dirty_nodes(), vec![3, 4, 5]);
        let outcome = d.reverify();
        assert_eq!(outcome.reverified, 3);
        assert!(!outcome.accepted);
        assert_eq!(outcome.witness, Some(3));
        assert_eq!(d.cached_verdict().unwrap(), d.full_check());
        // No-op rewrite: nothing dirtied, nothing logged.
        let noop = d.rewrite_proof(4, &flipped).unwrap();
        assert!(noop.is_empty());
        assert_eq!(d.log().len(), 1);
    }

    #[test]
    fn batched_mutations_reverify_once() {
        let mut d = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(12)));
        d.reverify();
        d.insert_edge(0, 6).unwrap();
        d.insert_edge(2, 8).unwrap();
        d.delete_edge(4, 5).unwrap();
        let dirty = d.dirty_len();
        assert!(dirty < 12, "local mutations must not dirty everything");
        let outcome = d.reverify();
        assert_eq!(outcome.reverified, dirty);
        assert_eq!(d.cached_verdict().unwrap(), d.full_check());
        assert_eq!(d.log().len(), 3);
    }

    #[test]
    fn failed_mutations_change_nothing() {
        let mut d = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::path(4)));
        d.reverify();
        assert!(d.insert_edge(0, 0).is_err());
        assert!(d.insert_edge(0, 1).is_err());
        assert!(d.delete_edge(0, 2).is_err());
        assert!(d.rewrite_proof(7, &BitString::new()).is_err());
        assert!(d.apply(&Mutation::NodeLabelChange(1)).is_err());
        assert_eq!(d.dirty_len(), 0);
        assert!(d.log().is_empty());
    }

    #[test]
    fn apply_verified_is_apply_plus_reverify() {
        let mut a = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(8)));
        a.reverify();
        let mut b = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(8)));
        b.reverify();

        // Same verdicts as the two-step path, with the impact attached.
        let applied = a.apply_verified(&Mutation::EdgeInsert(0, 2)).unwrap();
        let impact = b.apply(&Mutation::EdgeInsert(0, 2)).unwrap();
        assert_eq!(applied.impact, impact);
        assert_eq!(applied.outcome, b.reverify());
        assert!(!applied.outcome.accepted);
        assert!(a.cached_verdict().is_some(), "never left dirty");

        // Errors leave the instance untouched, verdict intact.
        let before = a.cached_verdict();
        assert!(a.apply_verified(&Mutation::EdgeInsert(0, 2)).is_err());
        assert!(a.apply_verified(&Mutation::NodeLabelChange(1)).is_err());
        assert_eq!(a.cached_verdict(), before);
        assert_eq!(a.log().len(), 1);
    }

    #[test]
    fn apply_replays_a_recorded_log() {
        let mut a = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(10)));
        a.reverify();
        a.insert_edge(1, 5).unwrap();
        a.rewrite_proof(7, &BitString::from_bits([true, false]))
            .unwrap();
        a.delete_edge(2, 3).unwrap();
        a.reverify();
        let log = a.clear_log();

        let mut b = DynamicInstance::seal(Bipartite, Instance::unlabeled(generators::cycle(10)));
        b.reverify();
        for m in &log {
            b.apply(m).unwrap();
        }
        b.reverify();
        assert_eq!(a.cached_verdict(), b.cached_verdict());
        assert_eq!(a.graph().m(), b.graph().m());
        assert_eq!(a.proof(), b.proof());
    }
}
