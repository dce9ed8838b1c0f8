//! The type-erased scheme layer: one object-safe handle per
//! `(scheme, instance)` cell.
//!
//! [`Scheme`] has two associated types, so a heterogeneous collection —
//! the scheme registry, the conformance campaign's `(scheme, instance)`
//! matrix — cannot hold `&dyn Scheme` directly. [`DynScheme::seal`]
//! erases the types at the only moment they are all known (when the
//! typed instance is constructed): it moves the scheme *and* its
//! instance behind one `Arc` and exposes every harness operation as a
//! method of one object-safe handle. Each heavy operation (completeness,
//! exhaustive soundness, adversarial search, tamper probing) runs
//! entirely on the cached engine over a skeleton core the cell takes from
//! its source once and keeps, so erasure costs one core lookup per cell —
//! never one per operation, let alone per candidate proof.
//!
//! ```
//! use lcp_core::dynamic::DynScheme;
//! use lcp_core::{Deadline, Instance, Proof, Scheme, View};
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
//! // Cells of different Node/Edge types live in one collection.
//! let cells: Vec<DynScheme> = vec![
//!     DynScheme::seal(EvenDegrees, Instance::unlabeled(generators::cycle(6))),
//!     DynScheme::seal(EvenDegrees, Instance::unlabeled(generators::path(4))),
//! ];
//! assert!(cells[0].holds());
//! assert!(!cells[1].holds());
//! assert_eq!(cells[0].check_completeness_within(&Deadline::none()), Ok(Some(0)));
//! ```

use crate::artifact::{ArtifactSource, CoreProvenance};
use crate::batch::BatchPolicy;
use crate::bits::{AsBits, BitString};
use crate::deadline::Deadline;
use crate::engine::{Held, PreparedInstance};
use crate::frozen::{CoreBuilder, FrozenCore, PortableLabel};
use crate::harness::{
    adversarial_proof_search, check_honest, check_soundness_exhaustive, CompletenessError, Run,
    Soundness, SoundnessError,
};
use crate::instance::Instance;
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::{Scheme, Verdict};
use lcp_graph::{Graph, GraphError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Result of a seeded bit-flip tamper probe against the honest proof of
/// a yes-instance (see [`DynScheme::tamper_probe`]).
///
/// A flip that still fully accepts is *not* a soundness violation — the
/// instance is still a yes-instance and proofs need not be unique — but
/// the detection rate is a useful sensitivity signal, and the witness
/// node feeds the campaign report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TamperProbe {
    /// Single-bit flips attempted.
    pub trials: usize,
    /// Flips some node rejected.
    pub detected: usize,
    /// Flips every node still accepted.
    pub undetected: usize,
    /// A node that rejected a tampered proof, when any flip was detected.
    pub witness: Option<usize>,
}

/// Why a [`MutableCell`] mutation was refused. The cell is untouched
/// whenever a mutator returns this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellMutationError {
    /// The underlying graph rejected the edge operation.
    Graph(GraphError),
    /// A node index was out of range for the cell.
    NodeOutOfRange(usize),
    /// [`MutableCell::set_node_label`] received a label of the wrong
    /// dynamic type for the sealed scheme's `Node` associated type.
    LabelType,
}

impl fmt::Display for CellMutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellMutationError::Graph(e) => write!(f, "{e}"),
            CellMutationError::NodeOutOfRange(v) => write!(f, "node index {v} out of range"),
            CellMutationError::LabelType => {
                write!(f, "label type mismatches the sealed scheme's node type")
            }
        }
    }
}

impl std::error::Error for CellMutationError {}

impl From<GraphError> for CellMutationError {
    fn from(e: GraphError) -> Self {
        CellMutationError::Graph(e)
    }
}

/// An object-safe, *mutable* `(scheme, instance, proof)` cell: the
/// type-erased substrate of dynamic-graph workloads (`lcp-dynamic`).
///
/// Where [`DynScheme`] freezes its instance behind an `Arc`, a mutable
/// cell owns a private copy of the instance and the current proof, plus
/// an engine [`CoreBuilder`] over a shared core that it repairs after
/// every mutation. Each mutator returns the **impact set** — the view
/// centres whose verifier output can differ because of that mutation —
/// which is exactly what a dirty-set tracker needs to mark; the cell
/// itself keeps no dirty state, so callers are free to batch mutations
/// between re-verifications.
///
/// Obtain one from [`DynScheme::dynamic_cell`] (registry/campaign path)
/// or [`seal_mutable`] (typed path).
pub trait MutableCell: Send {
    /// The sealed scheme's name.
    fn name(&self) -> String;
    /// The verifier's horizon `r`.
    fn radius(&self) -> usize;
    /// `n(G)` — fixed for the lifetime of the cell (edge churn only).
    fn n(&self) -> usize;
    /// The current topology (read-only; mutate through the cell).
    fn graph(&self) -> &Graph;
    /// The current proof (read-only; mutate through the cell).
    fn proof(&self) -> &Proof;
    /// Ground truth of the **current** instance, recomputed on demand
    /// (mutations routinely flip it).
    fn holds_now(&self) -> bool;
    /// Runs the sealed prover against the current instance.
    fn prove_now(&self) -> Option<Proof>;
    /// Inserts edge `{u, v}` and repairs the affected skeletons.
    ///
    /// Returns the centres whose views structurally changed, ascending.
    ///
    /// # Errors
    ///
    /// Out-of-range indices, self-loops, and duplicate edges are refused
    /// and leave the cell untouched.
    fn insert_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError>;
    /// Removes edge `{u, v}` (dropping any edge label) and repairs the
    /// affected skeletons.
    ///
    /// Returns the centres whose views structurally changed, ascending.
    ///
    /// # Errors
    ///
    /// Out-of-range indices and absent edges are refused and leave the
    /// cell untouched.
    fn remove_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError>;
    /// Replaces node `v`'s proof string.
    ///
    /// Returns the centres whose balls contain `v` — empty when the new
    /// bits equal the old ones (a no-op rewrite changes no output).
    ///
    /// # Errors
    ///
    /// Refuses out-of-range nodes.
    fn rewrite_proof(
        &mut self,
        v: usize,
        bits: &BitString,
    ) -> Result<Vec<usize>, CellMutationError>;
    /// Replaces node `v`'s input label. The label is passed type-erased;
    /// the cell downcasts it to the sealed scheme's `Node` type.
    ///
    /// Returns the centres whose balls contain `v`.
    ///
    /// # Errors
    ///
    /// Refuses out-of-range nodes and mismatched label types.
    fn set_node_label(
        &mut self,
        v: usize,
        label: Box<dyn Any>,
    ) -> Result<Vec<usize>, CellMutationError>;
    /// Runs the verifier at one node against the cached (repaired)
    /// skeletons and the current proof.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn verify(&self, v: usize) -> bool;
    /// From-scratch reference: prepares the current instance anew and
    /// evaluates every node — what incremental re-verification must
    /// agree with.
    fn evaluate_full(&self) -> Verdict;
}

/// The typed implementation behind [`MutableCell`]: a shared scheme plus
/// privately owned mutable state.
struct TypedCell<S: Scheme> {
    scheme: Arc<S>,
    inst: Instance<S::Node, S::Edge>,
    proof: Proof,
    core: CoreBuilder<S::Node, S::Edge>,
}

impl<S> TypedCell<S>
where
    S: Scheme + Send + Sync,
    S::Node: Clone + Send + Sync + 'static,
    S::Edge: Clone + Send + Sync + 'static,
{
    fn new(scheme: S, inst: Instance<S::Node, S::Edge>, proof: Option<Proof>) -> Self {
        let proof = proof.unwrap_or_else(|| {
            run_prover(&scheme, &inst).unwrap_or_else(|| Proof::empty(inst.n()))
        });
        assert_eq!(proof.n(), inst.n(), "proof must label every node");
        let core = CoreBuilder::new(Arc::new(FrozenCore::build(&inst, scheme.radius())));
        TypedCell {
            scheme: Arc::new(scheme),
            inst,
            proof,
            core,
        }
    }

    fn check_node(&self, v: usize) -> Result<(), CellMutationError> {
        if v < self.inst.n() {
            Ok(())
        } else {
            Err(CellMutationError::NodeOutOfRange(v))
        }
    }
}

impl<S> MutableCell for TypedCell<S>
where
    S: Scheme + Send + Sync,
    S::Node: Clone + Send + Sync + 'static,
    S::Edge: Clone + Send + Sync + 'static,
{
    fn name(&self) -> String {
        self.scheme.name()
    }

    fn radius(&self) -> usize {
        self.scheme.radius()
    }

    fn n(&self) -> usize {
        self.inst.n()
    }

    fn graph(&self) -> &Graph {
        self.inst.graph()
    }

    fn proof(&self) -> &Proof {
        &self.proof
    }

    fn holds_now(&self) -> bool {
        self.scheme.holds(&self.inst)
    }

    fn prove_now(&self) -> Option<Proof> {
        run_prover(&*self.scheme, &self.inst)
    }

    fn insert_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError> {
        self.inst.insert_edge(u, v)?;
        // Scope while the edge exists — here, after insertion.
        let scope = self.core.edge_scope(&self.inst, u, v);
        Ok(self.core.rebuild(&self.inst, &scope))
    }

    fn remove_edge(&mut self, u: usize, v: usize) -> Result<Vec<usize>, CellMutationError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !self.inst.graph().has_edge(u, v) {
            return Err(
                GraphError::UnknownEdge(self.inst.graph().id(u), self.inst.graph().id(v)).into(),
            );
        }
        // Scope while the edge exists — here, before removal.
        let scope = self.core.edge_scope(&self.inst, u, v);
        self.inst.remove_edge(u, v)?;
        Ok(self.core.rebuild(&self.inst, &scope))
    }

    fn rewrite_proof(
        &mut self,
        v: usize,
        bits: &BitString,
    ) -> Result<Vec<usize>, CellMutationError> {
        self.check_node(v)?;
        if self.proof.get(v) == bits.as_bits() {
            return Ok(Vec::new());
        }
        self.proof.set(v, bits);
        Ok(self.core.dependents(v).collect())
    }

    fn set_node_label(
        &mut self,
        v: usize,
        label: Box<dyn Any>,
    ) -> Result<Vec<usize>, CellMutationError> {
        self.check_node(v)?;
        let label = *label
            .downcast::<S::Node>()
            .map_err(|_| CellMutationError::LabelType)?;
        let touched = self.core.set_node_label(v, &label);
        self.inst.set_node_label(v, label);
        Ok(touched)
    }

    fn verify(&self, v: usize) -> bool {
        let accepted = self.scheme.verify(&self.core.bind(v, &self.proof));
        self.proof.flush_label_decodes();
        accepted
    }

    fn evaluate_full(&self) -> Verdict {
        PreparedInstance::new(&self.inst, self.scheme.radius())
            .evaluate(&*self.scheme, &self.proof, &Deadline::none())
            .expect("an unbounded sweep runs to the end")
    }
}

/// Seals `scheme` and `inst` into a [`MutableCell`] — the typed entry
/// point for dynamic-graph workloads.
///
/// The cell starts from `proof`, or (when `None`) from the honest proof
/// of `inst` if the prover certifies it, else the empty proof.
///
/// # Panics
///
/// Panics if an explicit `proof` labels a different number of nodes.
pub fn seal_mutable<S>(
    scheme: S,
    inst: Instance<S::Node, S::Edge>,
    proof: Option<Proof>,
) -> Box<dyn MutableCell>
where
    S: Scheme + Send + Sync + 'static,
    S::Node: Clone + Send + Sync + 'static,
    S::Edge: Clone + Send + Sync + 'static,
{
    Box::new(TypedCell::new(scheme, inst, proof))
}

/// A type-erased `(scheme, instance)` cell: every associated-type-bound
/// [`Scheme`] operation re-exposed behind one object-safe handle, plus
/// engine-backed harness checks.
///
/// Build one with [`DynScheme::seal`]; collections of `DynScheme` are the
/// currency of the scheme registry and the conformance campaign.
///
/// # Resident state
///
/// A sealed cell never changes, so it keeps what every request would
/// otherwise recompute:
///
/// * the ground truth, computed once by [`Self::seal`];
/// * the skeleton core, taken from the attached [`ArtifactSource`] by
///   [`Self::prepare_skeletons`] or by the first engine-backed operation
///   and never looked up again;
/// * the honest proof, computed by the first operation that needs it
///   ([`Self::check_completeness_within`], [`Self::tamper_probe`],
///   [`Self::dynamic_cell`]) — never by [`Self::prepare_skeletons`], so
///   loading a cell does not pay the prover.
///
/// The kept proof also keeps its label column (see [`Proof`]): the
/// first sweep decodes each node's certificate once, and later sweeps
/// read the decoded labels. A repeated completeness check is therefore
/// the verifier sweep alone, with no label decode; every node's
/// verifier still runs on every call, as only labels are kept, never
/// outputs or verdicts. [`Self::with_source`]
/// drops the kept core and proof; [`Self::prove`] always runs the prover
/// afresh.
pub struct DynScheme {
    name: String,
    radius: usize,
    n: usize,
    holds: bool,
    /// Where engine-backed operations get their prepared cores
    /// ([`Self::with_source`]); [`ArtifactSource::BuildFresh`] by
    /// default.
    source: ArtifactSource,
    /// Routing policy for the exhaustive search's block odometer
    /// ([`Self::with_batch`]); `Auto` by default.
    batch: BatchPolicy,
    /// The typed cell behind the erased surface.
    cell: Box<dyn ErasedCell>,
}

/// The operations of a sealed cell with its associated types erased
/// (implemented by [`Sealed`]).
trait ErasedCell: Send + Sync {
    fn prove(&self) -> Option<Proof>;
    fn completeness(
        &self,
        holds: bool,
        source: &ArtifactSource,
        deadline: &Deadline,
    ) -> Result<Option<usize>, CompletenessError>;
    fn soundness(
        &self,
        max_bits: usize,
        source: &ArtifactSource,
        run: &Run,
    ) -> Result<Soundness, SoundnessError>;
    fn adversarial(
        &self,
        size_budget: usize,
        iterations: usize,
        seed: u64,
        source: &ArtifactSource,
        run: &Run,
    ) -> Option<Proof>;
    fn tamper_probe(
        &self,
        trials: usize,
        seed: u64,
        source: &ArtifactSource,
    ) -> Option<TamperProbe>;
    fn dynamic_cell(&self, source: &ArtifactSource) -> Box<dyn MutableCell>;
    fn prepare(&self, source: &ArtifactSource) -> CoreProvenance;
    fn evict(&self, source: &ArtifactSource) -> bool;
    /// Drops the kept core and honest proof (the identity stays).
    fn forget(&mut self);
}

/// The typed cell behind a [`DynScheme`]: the scheme (shared with the
/// mutable cells it opens), the instance (shared with the skeleton
/// cache entry it inserts) and its resident state.
struct Sealed<S: Scheme> {
    scheme: Arc<S>,
    inst: Arc<Instance<S::Node, S::Edge>>,
    /// The `(instance, radius)` fingerprint, computed by the first
    /// preparation or eviction through a caching source. Identity does
    /// not depend on the source, so [`ErasedCell::forget`] keeps it.
    identity: OnceLock<(u64, u64)>,
    /// The skeleton core, kept from the first preparation.
    core: OnceLock<Arc<FrozenCore<S::Node, S::Edge>>>,
    /// The prover's output, kept from the first operation that needs it.
    proof: OnceLock<Option<Proof>>,
}

/// Runs `scheme`'s prover on `inst`, recording it in the prover metrics.
fn run_prover<S: Scheme>(scheme: &S, inst: &Instance<S::Node, S::Edge>) -> Option<Proof> {
    let started = Instant::now();
    let proof = scheme.prove(inst);
    metrics::PROVES.inc();
    metrics::PROVE_NS.observe(started.elapsed().as_nanos() as u64);
    proof
}

impl<S> Sealed<S>
where
    S: Scheme + Send + Sync + 'static,
    S::Node: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    S::Edge: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
{
    /// The sealed instance on its kept core, taking the core from
    /// `source` on first use.
    fn prep(&self, source: &ArtifactSource) -> PreparedInstance<'_, S::Node, S::Edge> {
        let core = self.core.get_or_init(|| self.core_from(source).0);
        PreparedInstance::from_core(&self.inst, Arc::clone(core))
    }

    /// The sealed instance's core from `source`, under the kept identity.
    fn core_from(
        &self,
        source: &ArtifactSource,
    ) -> (Arc<FrozenCore<S::Node, S::Edge>>, CoreProvenance) {
        source.prepare_held(
            Held::Shared(&self.inst),
            self.scheme.radius(),
            &self.identity,
        )
    }

    /// The honest proof, proving on first use only.
    fn honest(&self) -> Option<&Proof> {
        self.proof
            .get_or_init(|| run_prover(&*self.scheme, &self.inst))
            .as_ref()
    }
}

impl<S> ErasedCell for Sealed<S>
where
    S: Scheme + Send + Sync + 'static,
    S::Node: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    S::Edge: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
{
    fn prove(&self) -> Option<Proof> {
        run_prover(&*self.scheme, &self.inst)
    }

    fn completeness(
        &self,
        holds: bool,
        source: &ArtifactSource,
        deadline: &Deadline,
    ) -> Result<Option<usize>, CompletenessError> {
        check_honest(
            &*self.scheme,
            &self.prep(source),
            holds,
            self.honest(),
            deadline,
        )
    }

    fn soundness(
        &self,
        max_bits: usize,
        source: &ArtifactSource,
        run: &Run,
    ) -> Result<Soundness, SoundnessError> {
        check_soundness_exhaustive(&*self.scheme, &self.prep(source), max_bits, run)
    }

    fn adversarial(
        &self,
        size_budget: usize,
        iterations: usize,
        seed: u64,
        source: &ArtifactSource,
        run: &Run,
    ) -> Option<Proof> {
        let mut rng = StdRng::seed_from_u64(seed);
        adversarial_proof_search(
            &*self.scheme,
            &self.prep(source),
            size_budget,
            iterations,
            &mut rng,
            run,
        )
    }

    fn tamper_probe(
        &self,
        trials: usize,
        seed: u64,
        source: &ArtifactSource,
    ) -> Option<TamperProbe> {
        let honest = self.honest()?;
        tamper_probe(&*self.scheme, &self.prep(source), honest, trials, seed)
    }

    fn dynamic_cell(&self, source: &ArtifactSource) -> Box<dyn MutableCell> {
        let core = CoreBuilder::new(Arc::clone(self.prep(source).core()));
        let inst = (*self.inst).clone();
        let proof = self
            .honest()
            .cloned()
            .unwrap_or_else(|| Proof::empty(inst.n()));
        Box::new(TypedCell {
            scheme: Arc::clone(&self.scheme),
            inst,
            proof,
            core,
        })
    }

    fn prepare(&self, source: &ArtifactSource) -> CoreProvenance {
        let (core, provenance) = self.core_from(source);
        // A core kept earlier is the same content; keep the first.
        let _ = self.core.set(core);
        provenance
    }

    fn evict(&self, source: &ArtifactSource) -> bool {
        source.evict_held(&self.inst, self.scheme.radius(), &self.identity)
    }

    fn forget(&mut self) {
        self.core.take();
        self.proof.take();
    }
}

impl fmt::Debug for DynScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynScheme")
            .field("name", &self.name)
            .field("radius", &self.radius)
            .field("n", &self.n)
            .field("holds", &self.holds)
            .finish()
    }
}

impl DynScheme {
    /// Seals `scheme` together with one concrete `inst`, erasing the
    /// associated types. Ground truth is computed here, once.
    ///
    /// The `Send + Sync + 'static` bounds let campaign cells and daemon
    /// workers share sealed cells across threads; every scheme in this
    /// workspace satisfies them.
    pub fn seal<S>(scheme: S, inst: Instance<S::Node, S::Edge>) -> DynScheme
    where
        S: Scheme + Send + Sync + 'static,
        S::Node: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
        S::Edge: Clone + PartialEq + Send + Sync + PortableLabel + 'static,
    {
        DynScheme {
            name: scheme.name(),
            radius: scheme.radius(),
            n: inst.n(),
            holds: scheme.holds(&inst),
            source: ArtifactSource::BuildFresh,
            batch: BatchPolicy::default(),
            cell: Box::new(Sealed {
                scheme: Arc::new(scheme),
                inst: Arc::new(inst),
                identity: OnceLock::new(),
                core: OnceLock::new(),
                proof: OnceLock::new(),
            }),
        }
    }

    /// Attaches an [`ArtifactSource`]: the cell takes its skeleton core
    /// through it — an in-process cache, a two-tier artifact store, or
    /// neither — at the next preparation or engine-backed operation.
    /// Any core and honest proof kept so far are dropped.
    ///
    /// Results are identical across sources (pinned by the cache- and
    /// artifact-equivalence tests) — only the preparation work is
    /// shared.
    pub fn with_source(mut self, source: ArtifactSource) -> DynScheme {
        self.source = source;
        self.cell.forget();
        self
    }

    /// Sets the [`BatchPolicy`] for the exhaustive soundness check. The
    /// default is [`BatchPolicy::Auto`]; `Scalar` forces the scalar
    /// odometer. Results are identical either way — only the evaluation
    /// strategy changes.
    pub fn with_batch(mut self, policy: BatchPolicy) -> DynScheme {
        self.batch = policy;
        self
    }

    /// The sealed scheme's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The verifier's horizon `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// `n(G)` of the sealed instance.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ground truth of the sealed instance (computed once at seal time).
    pub fn holds(&self) -> bool {
        self.holds
    }

    /// Runs the sealed prover afresh (the kept honest proof is neither
    /// read nor filled).
    pub fn prove(&self) -> Option<Proof> {
        self.cell.prove()
    }

    /// Single-instance completeness check on the cached engine
    /// ([`crate::harness::check_honest`]): the verifier sweep over the
    /// honest proof, which the first call computes and later calls
    /// reuse.
    ///
    /// The sweep polls `deadline` and degrades to
    /// [`CompletenessError::DeadlineExpired`] when it runs out; pass
    /// [`Deadline::none`] for an unbounded check. The budget is per call,
    /// so one shared `Arc<DynScheme>` can serve many requests, each with
    /// its own.
    pub fn check_completeness_within(
        &self,
        deadline: &Deadline,
    ) -> Result<Option<usize>, CompletenessError> {
        self.cell.completeness(self.holds, &self.source, deadline)
    }

    /// Exhaustive soundness check on the cached engine
    /// ([`crate::harness::check_soundness_exhaustive`]) under a per-call
    /// `deadline` and the attached [`BatchPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the sealed instance is a yes-instance.
    pub fn check_soundness_exhaustive_within(
        &self,
        max_bits: usize,
        deadline: &Deadline,
    ) -> Result<Soundness, SoundnessError> {
        self.cell
            .soundness(max_bits, &self.source, &self.run(deadline))
    }

    /// Seeded adversarial proof search on the cached engine
    /// ([`crate::harness::adversarial_proof_search`]) under a per-call
    /// `deadline`; `Some` is a soundness violation within the size
    /// budget, and an expired `deadline` ends the search with `None`.
    ///
    /// # Panics
    ///
    /// Panics if the sealed instance is a yes-instance.
    pub fn adversarial_search_within(
        &self,
        size_budget: usize,
        iterations: usize,
        seed: u64,
        deadline: &Deadline,
    ) -> Option<Proof> {
        self.cell.adversarial(
            size_budget,
            iterations,
            seed,
            &self.source,
            &self.run(deadline),
        )
    }

    /// The search options of one call: its `deadline` and the attached
    /// policy.
    fn run(&self, deadline: &Deadline) -> Run {
        Run {
            deadline: deadline.clone(),
            policy: self.batch,
        }
    }

    /// Eagerly prepares the sealed instance's skeletons through the
    /// attached [`ArtifactSource`], keeps the core for every later
    /// operation, and reports where it came from.
    ///
    /// This is how a resident service front-loads the one core lookup a
    /// cell ever needs: `prepare` once at load time, then every `verify`
    /// and `tamper-probe` on the resident cell runs on the kept core
    /// without touching the source. It never runs the prover. Each call
    /// goes through the source (a second call reports
    /// [`CoreProvenance::CacheHit`] on a caching source).
    pub fn prepare_skeletons(&self) -> CoreProvenance {
        self.cell.prepare(&self.source)
    }

    /// Drops this cell's skeleton core from the attached source's
    /// in-process tier, reporting whether anything was evicted.
    ///
    /// The counterpart of [`Self::prepare_skeletons`]: an instance table
    /// evicting this cell calls it so the shared cache does not pin the
    /// core forever (the cell's own kept core goes when the cell does).
    /// `false` when the source has no in-process tier or the core was
    /// never cached (or already evicted). Artifact *files* are never
    /// deleted.
    pub fn evict_skeletons(&self) -> bool {
        self.cell.evict(&self.source)
    }

    /// Seeded single-bit tamper probe against the honest proof: flips
    /// land on a copy, so the kept proof never changes.
    ///
    /// Returns `None` when there is nothing to probe: the prover refused,
    /// or the honest proof is not fully accepted (a completeness failure,
    /// reported by [`Self::check_completeness_within`] instead).
    pub fn tamper_probe(&self, trials: usize, seed: u64) -> Option<TamperProbe> {
        self.cell.tamper_probe(trials, seed, &self.source)
    }

    /// Opens a fresh [`MutableCell`] over a private copy of the sealed
    /// instance — the entry point of churn workloads on registry cells.
    ///
    /// The cell starts from the honest proof when the prover certifies
    /// the sealed instance, else from the empty proof; mutations to the
    /// cell never affect this `DynScheme` or sibling cells. Its
    /// [`CoreBuilder`] opens over the kept core, shared rather than
    /// copied: the cell's repairs land in its own overlay.
    pub fn dynamic_cell(&self) -> Box<dyn MutableCell> {
        self.cell.dynamic_cell(&self.source)
    }
}

/// Engine-backed tamper probe: flip one random bit of a copy of the
/// honest proof per trial, re-verify only the views containing the
/// flipped node, and flip the bit back — zero allocations per trial.
fn tamper_probe<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    honest: &Proof,
    trials: usize,
    seed: u64,
) -> Option<TamperProbe> {
    let rejected = prep
        .evaluate_until_reject(scheme, honest, &Deadline::none())
        .expect("an unbounded sweep runs to the end");
    if rejected.is_some() {
        return None; // honest proof rejected — that is a completeness failure
    }
    let flippable: Vec<usize> = (0..prep.n())
        .filter(|&v| !honest.get(v).is_empty())
        .collect();
    let mut probe = TamperProbe::default();
    if flippable.is_empty() {
        return Some(probe); // LCP(0): no bits to tamper with
    }
    let mut proof = honest.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..trials {
        let v = flippable[rng.random_range(0..flippable.len())];
        let idx = rng.random_range(0..proof.get(v).len());
        proof.flip(v, idx);
        match prep
            .dependents(v)
            .find(|&o| !scheme.verify(&prep.bind(o, &proof)))
        {
            Some(w) => {
                probe.detected += 1;
                if probe.witness.is_none() {
                    probe.witness = Some(w);
                }
            }
            None => probe.undetected += 1,
        }
        probe.trials += 1;
        proof.flip(v, idx);
    }
    Some(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::engine::SkeletonCache;
    use crate::view::View;
    use lcp_graph::generators;

    /// The 1-bit bipartiteness scheme (the harness guinea pig again).
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
                && view
                    .neighbors(c)
                    .iter()
                    .all(|&u| view.proof(u).first().is_some_and(|b| Some(b) != mine))
        }
    }

    #[test]
    fn sealed_cell_matches_direct_calls() {
        let inst = Instance::unlabeled(generators::cycle(6));
        let dyn_cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        assert_eq!(dyn_cell.name(), "bipartite");
        assert_eq!(dyn_cell.radius(), 1);
        assert_eq!(dyn_cell.n(), 6);
        assert!(dyn_cell.holds());
        let proof = dyn_cell.prove().expect("even cycle provable");
        assert_eq!(proof, Bipartite.prove(&inst).unwrap());
        assert_eq!(
            dyn_cell.dynamic_cell().evaluate_full(),
            crate::evaluate(&Bipartite, &inst, &proof)
        );
        assert_eq!(
            dyn_cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
    }

    #[test]
    fn sealed_soundness_checks_agree_with_harness() {
        let dyn_cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(5)));
        assert!(!dyn_cell.holds());
        match dyn_cell
            .check_soundness_exhaustive_within(1, &Deadline::none())
            .unwrap()
        {
            Soundness::Holds(tried) => assert_eq!(tried, 3u64.pow(5)),
            Soundness::Violated(p) => panic!("odd cycle certified bipartite by {p:?}"),
        }
        assert!(dyn_cell
            .adversarial_search_within(1, 400, 9, &Deadline::none())
            .is_none());
    }

    #[test]
    fn adversarial_seed_is_reproducible() {
        /// Deliberately unsound: accepts iff the centre holds bit 1.
        struct Gullible;
        impl Scheme for Gullible {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "gullible".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, _: &Instance) -> bool {
                false
            }
            fn prove(&self, _: &Instance) -> Option<Proof> {
                None
            }
            fn verify(&self, view: &View) -> bool {
                view.proof(view.center()).first() == Some(true)
            }
        }
        let cell = DynScheme::seal(Gullible, Instance::unlabeled(generators::cycle(6)));
        let a = cell
            .adversarial_search_within(1, 2000, 42, &Deadline::none())
            .expect("breakable");
        let b = cell
            .adversarial_search_within(1, 2000, 42, &Deadline::none())
            .expect("breakable");
        assert_eq!(a, b, "same seed, same forged proof");
    }

    #[test]
    fn tamper_probe_detects_flips_on_rigid_proofs() {
        let cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(8)));
        let probe = cell.tamper_probe(16, 3).expect("yes-instance probes");
        assert_eq!(probe.trials, 16);
        // Flipping any single colour bit breaks both adjacent constraints.
        assert_eq!(probe.detected, 16);
        assert_eq!(probe.undetected, 0);
        assert!(probe.witness.is_some());
        // Seeded: byte-identical reruns.
        assert_eq!(probe, cell.tamper_probe(16, 3).unwrap());
    }

    #[test]
    fn tamper_probe_handles_empty_proofs_and_no_instances() {
        /// Proofless scheme (LCP(0)).
        struct Trivial;
        impl Scheme for Trivial {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "trivial".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, _: &Instance) -> bool {
                true
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                Some(Proof::empty(inst.n()))
            }
            fn verify(&self, _: &View) -> bool {
                true
            }
        }
        let cell = DynScheme::seal(Trivial, Instance::unlabeled(generators::path(4)));
        let probe = cell.tamper_probe(8, 0).unwrap();
        assert_eq!((probe.trials, probe.detected), (0, 0));

        let no = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(5)));
        assert!(
            no.tamper_probe(8, 0).is_none(),
            "prover refuses no-instances"
        );
    }

    #[test]
    fn attached_deadlines_bound_the_sealed_checks() {
        use std::time::Duration;
        let yes = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        // C9 has 3^9 ≤1-bit proofs: past the first poll of the odometer.
        let no = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(9)));
        // Expired: each op degrades to its budget outcome, deterministically.
        let expired = Deadline::after(Duration::ZERO);
        assert_eq!(
            yes.check_completeness_within(&expired),
            Err(CompletenessError::DeadlineExpired)
        );
        assert!(matches!(
            no.check_soundness_exhaustive_within(1, &expired),
            Err(SoundnessError::DeadlineExpired { .. })
        ));
        assert!(no.adversarial_search_within(1, 50, 7, &expired).is_none());
        // Unbounded, and a generous budget, reach the same verdicts.
        for deadline in [Deadline::none(), Deadline::after(Duration::from_secs(3600))] {
            assert_eq!(yes.check_completeness_within(&deadline), Ok(Some(1)));
            assert_eq!(
                no.check_soundness_exhaustive_within(1, &deadline),
                Ok(Soundness::Holds(3u64.pow(9)))
            );
            assert!(no.adversarial_search_within(1, 50, 7, &deadline).is_none());
        }
    }

    #[test]
    fn request_scoped_deadlines_leave_the_attached_one_alone() {
        // The cell keeps no deadline: a cancelled request budget never
        // sticks to it, so the next unbounded call runs in full.
        let cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        let expired = Deadline::manual();
        expired.cancel();
        assert_eq!(
            cell.check_completeness_within(&expired),
            Err(CompletenessError::DeadlineExpired)
        );
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1)),
            "later unbounded call unaffected by the request budget"
        );
        let no = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(5)));
        assert!(
            no.adversarial_search_within(1, 50, 7, &expired).is_none(),
            "expired request budget degrades the search to None"
        );
        assert_eq!(
            no.check_soundness_exhaustive_within(1, &Deadline::none()),
            Ok(Soundness::Holds(3u64.pow(5))),
            "later unbounded search unaffected by the request budget"
        );
    }

    #[test]
    fn prepare_and_evict_manage_the_shared_cache() {
        let cache = Arc::new(SkeletonCache::new());
        let cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)))
            .with_source(ArtifactSource::Cache(Arc::clone(&cache)));
        assert!(!cell.evict_skeletons(), "nothing cached yet");
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::Built);
        assert_eq!((cache.len(), cache.misses()), (1, 1));
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::CacheHit);
        assert_eq!(cache.hits(), 1, "second preparation hits");
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        assert_eq!(cache.misses(), 1, "resident check rebuilds nothing");
        assert!(cell.evict_skeletons());
        assert!(!cell.evict_skeletons(), "already evicted");
        assert!(cache.is_empty());
        // Without a cache both calls are harmless no-ops.
        let free = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        assert_eq!(free.prepare_skeletons(), CoreProvenance::Built);
        assert!(!free.evict_skeletons());
    }

    #[test]
    fn equal_cells_share_one_entry_through_the_content_fallback() {
        // Two separate seals of equal content hold distinct instance
        // `Arc`s: the second preparation misses the pointer test and
        // must hit through full equality.
        let cache = Arc::new(SkeletonCache::new());
        let source = ArtifactSource::Cache(Arc::clone(&cache));
        let seal = || {
            DynScheme::seal(Bipartite, Instance::unlabeled(generators::grid(3, 4)))
                .with_source(source.clone())
        };
        let (first, second) = (seal(), seal());
        assert_eq!(first.prepare_skeletons(), CoreProvenance::Built);
        assert_eq!(second.prepare_skeletons(), CoreProvenance::CacheHit);
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (1, 1, 1));
        // The entry holds the first cell's instance; the second removes
        // it by content, and then nothing is left for either.
        assert!(second.evict_skeletons());
        assert!(cache.is_empty());
        assert!(!second.evict_skeletons(), "already evicted");
        assert!(!first.evict_skeletons(), "the shared entry is gone");
    }

    #[test]
    fn resident_cells_prove_once_and_never_at_prepare() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Bipartite, counting its prover runs.
        struct Counted(Arc<AtomicUsize>);
        impl Scheme for Counted {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                Bipartite.name()
            }
            fn radius(&self) -> usize {
                Bipartite.radius()
            }
            fn holds(&self, inst: &Instance) -> bool {
                Bipartite.holds(inst)
            }
            fn prove(&self, inst: &Instance) -> Option<Proof> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Bipartite.prove(inst)
            }
            fn verify(&self, view: &View) -> bool {
                Bipartite.verify(view)
            }
        }
        let proves = Arc::new(AtomicUsize::new(0));
        let cache = Arc::new(SkeletonCache::new());
        let cell = DynScheme::seal(
            Counted(Arc::clone(&proves)),
            Instance::unlabeled(generators::cycle(8)),
        )
        .with_source(ArtifactSource::Cache(Arc::clone(&cache)));
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::Built);
        assert_eq!(proves.load(Ordering::Relaxed), 0, "prepare never proves");

        let probe = cell.tamper_probe(16, 3);
        for _ in 0..2 {
            assert_eq!(
                cell.check_completeness_within(&Deadline::none()),
                Ok(Some(1))
            );
            assert_eq!(cell.tamper_probe(16, 3), probe, "flips land on a copy");
        }
        assert!(cell.dynamic_cell().evaluate_full().accepted());
        assert_eq!(proves.load(Ordering::Relaxed), 1, "one fill serves all");
        assert_eq!((cache.misses(), cache.hits()), (1, 0), "one lookup ever");

        // An explicit prove always runs the prover.
        let c8 = Instance::unlabeled(generators::cycle(8));
        assert_eq!(cell.prove(), Bipartite.prove(&c8));
        assert_eq!(proves.load(Ordering::Relaxed), 2);

        // A new source drops the kept core and proof.
        let other = Arc::new(SkeletonCache::new());
        let cell = cell.with_source(ArtifactSource::Cache(Arc::clone(&other)));
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        assert_eq!(proves.load(Ordering::Relaxed), 3);
        assert_eq!(other.misses(), 1);
    }

    #[test]
    fn artifact_sources_back_sealed_cells() {
        use crate::artifact::ArtifactStore;
        let dir = std::env::temp_dir().join(format!("lcp-dyn-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let seal = || {
            DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)))
                .with_source(ArtifactSource::MappedDir(Arc::clone(&store)))
        };

        let cell = seal();
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::Built);
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::CacheHit);
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
        assert!(cell.evict_skeletons());
        // Evicted from memory, but the artifact file remains: the next
        // preparation maps it instead of re-running the BFS.
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::ArtifactLoaded);

        // A dynamic cell opened over the mapped core behaves exactly
        // like one built fresh.
        let mut dynamic = cell.dynamic_cell();
        assert!((0..6).all(|v| dynamic.verify(v)));
        let impact = dynamic.insert_edge(0, 2).unwrap();
        assert_eq!(impact, vec![0, 1, 2]);
        let full = dynamic.evaluate_full();
        for v in 0..6 {
            assert_eq!(dynamic.verify(v), full.outputs()[v], "node {v}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutable_cell_tracks_edge_and_proof_churn() {
        let cell = DynScheme::seal(Bipartite, Instance::unlabeled(generators::cycle(6)));
        let mut dynamic = cell.dynamic_cell();
        assert_eq!(dynamic.n(), 6);
        assert!(dynamic.holds_now());
        // Starts from the honest proof: everything accepts.
        assert!((0..6).all(|v| dynamic.verify(v)));
        assert!(dynamic.evaluate_full().accepted());

        // A chord closing a triangle flips ground truth. The impact set
        // is *exact*: at radius 1 the changed views are the chord's
        // endpoints plus node 1, whose ball contains both ends and so
        // gains the newly visible edge — nodes 3, 4, 5 see nothing.
        let impact = dynamic.insert_edge(0, 2).unwrap();
        assert_eq!(impact, vec![0, 1, 2]);
        assert!(!dynamic.holds_now());
        let full = dynamic.evaluate_full();
        for v in 0..6 {
            assert_eq!(dynamic.verify(v), full.outputs()[v], "node {v}");
        }

        // Removing the chord restores the original cell exactly.
        let impact = dynamic.remove_edge(0, 2).unwrap();
        assert!(!impact.is_empty());
        assert!(dynamic.holds_now());
        assert!((0..6).all(|v| dynamic.verify(v)));

        // Proof rewrites dirty the radius-1 ball; a no-op rewrite none.
        let old = dynamic.proof().get(2).to_bitstring();
        assert_eq!(dynamic.rewrite_proof(2, &old).unwrap(), Vec::<usize>::new());
        let flipped = BitString::from_bits(old.iter().map(|b| !b));
        assert_eq!(dynamic.rewrite_proof(2, &flipped).unwrap(), vec![1, 2, 3]);
        assert!(!dynamic.verify(2), "flipped colour breaks the constraint");

        // Errors leave the cell untouched.
        assert!(dynamic.insert_edge(0, 1).is_err(), "duplicate edge");
        assert!(dynamic.remove_edge(0, 2).is_err(), "already removed");
        assert!(dynamic.rewrite_proof(9, &old).is_err(), "out of range");
        assert_eq!(dynamic.graph().m(), 6);

        // The sealed parent cell never observed any of this.
        assert!(cell.holds());
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(1))
        );
    }

    #[test]
    fn sessions_never_write_the_shared_core() {
        /// Bipartiteness with one more rule: every label in the ball is
        /// even.
        struct EvenLabelBipartite;
        impl Scheme for EvenLabelBipartite {
            type Node = u8;
            type Edge = ();
            fn name(&self) -> String {
                "even-label-bipartite".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn holds(&self, inst: &Instance<u8>) -> bool {
                lcp_graph::traversal::is_bipartite(inst.graph())
                    && (0..inst.n()).all(|v| inst.node_label(v).is_multiple_of(2))
            }
            fn prove(&self, inst: &Instance<u8>) -> Option<Proof> {
                let colors = lcp_graph::traversal::bipartition(inst.graph())?;
                Some(Proof::from_fn(inst.n(), |v| {
                    BitString::from_bits([colors[v] == 1])
                }))
            }
            fn verify(&self, view: &View<u8>) -> bool {
                let c = view.center();
                let mine = view.proof(c).first();
                view.nodes().all(|u| view.node_label(u).is_multiple_of(2))
                    && view
                        .neighbors(c)
                        .iter()
                        .all(|&u| mine.is_some() && view.proof(u).first() != mine)
            }
        }

        let inst = Instance::with_node_data(generators::cycle(8), vec![0u8; 8]);
        let cache = Arc::new(SkeletonCache::new());
        let cell = DynScheme::seal(EvenLabelBipartite, inst.clone())
            .with_source(ArtifactSource::Cache(Arc::clone(&cache)));
        assert_eq!(cell.prepare_skeletons(), CoreProvenance::Built);
        let key = crate::artifact::fingerprint(&inst, 1).0;
        let (core, _) = cache.get_or_fill(Held::Lent(&inst), 1, key, || {
            unreachable!("the sealed cell's core is cached")
        });
        let words = core.words().to_vec();
        let resident = cell.check_completeness_within(&Deadline::none());
        assert_eq!(resident, Ok(Some(1)));

        // One session applies an edge insert, a proof rewrite and a
        // label change; its own views see all three.
        let mut session = cell.dynamic_cell();
        assert!((0..8).all(|v| session.verify(v)));
        assert_eq!(session.insert_edge(0, 4).unwrap(), vec![0, 4]);
        session
            .rewrite_proof(2, &BitString::from_bits([true, true]))
            .unwrap();
        assert_eq!(
            session.set_node_label(6, Box::new(1u8)).unwrap(),
            vec![5, 6, 7]
        );
        let full = session.evaluate_full();
        assert!(!full.accepted());
        for v in 0..8 {
            assert_eq!(session.verify(v), full.outputs()[v], "node {v}");
        }

        // Nothing of it reaches the resident cell, a second session on
        // the same cell, or the cached core's words.
        assert_eq!(cell.check_completeness_within(&Deadline::none()), resident);
        let second = cell.dynamic_cell();
        assert_eq!(second.graph(), inst.graph());
        assert!((0..8).all(|v| second.verify(v)));
        assert!(second.evaluate_full().accepted());
        assert_eq!(core.words(), words.as_slice(), "cached core written");
    }

    #[test]
    fn mutable_cell_label_changes_are_typed() {
        struct ParityOfLabels;
        impl Scheme for ParityOfLabels {
            type Node = u8;
            type Edge = ();
            fn name(&self) -> String {
                "label-parity".into()
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
                    .is_multiple_of(2)
            }
        }
        let g = generators::path(5);
        let inst = Instance::with_node_data(g, vec![0u8, 0, 0, 0, 0]);
        let mut cell = crate::dynamic::seal_mutable(ParityOfLabels, inst, None);
        assert!((0..5).all(|v| cell.verify(v)));
        let touched = cell.set_node_label(2, Box::new(1u8)).unwrap();
        assert_eq!(touched, vec![1, 2, 3]);
        for v in touched {
            assert!(!cell.verify(v), "odd sum visible at node {v}");
        }
        let full = cell.evaluate_full();
        assert_eq!(full.rejecting(), vec![1, 2, 3]);
        // Wrong label type is refused, right type accepted again.
        assert_eq!(
            cell.set_node_label(2, Box::new("nope")).unwrap_err(),
            CellMutationError::LabelType
        );
        cell.set_node_label(2, Box::new(0u8)).unwrap();
        assert!(cell.evaluate_full().accepted());
    }

    #[test]
    fn labelled_schemes_seal_too() {
        struct LeaderIsLabelled;
        impl Scheme for LeaderIsLabelled {
            type Node = bool;
            type Edge = ();
            fn name(&self) -> String {
                "leader-labelled".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, inst: &Instance<bool>) -> bool {
                inst.node_labels().iter().filter(|&&l| l).count() == 1
            }
            fn prove(&self, inst: &Instance<bool>) -> Option<Proof> {
                self.holds(inst).then(|| Proof::empty(inst.n()))
            }
            fn verify(&self, _: &View<bool>) -> bool {
                true
            }
        }
        let g = generators::path(3);
        let cell = DynScheme::seal(
            LeaderIsLabelled,
            Instance::with_node_data(g, vec![false, true, false]),
        );
        assert!(cell.holds());
        assert_eq!(
            cell.check_completeness_within(&Deadline::none()),
            Ok(Some(0))
        );
    }
}
