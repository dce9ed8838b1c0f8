//! # `lcp-core` — the locally-checkable-proofs model
//!
//! This crate is the executable form of the definitions in §2 of Göös &
//! Suomela, *Locally Checkable Proofs* (PODC 2011):
//!
//! * a **proof** `P : V(G) → {0,1}*` assigns a bit string to every node
//!   ([`Proof`], built on [`BitString`]); its size is the maximum number
//!   of bits at any node;
//! * a **local verifier** with horizon `r` maps each node's radius-`r`
//!   view `(G[v,r], P[v,r], v)` to accept/reject; views are *extracted*
//!   ([`View`]) so a verifier physically cannot read outside its horizon;
//! * a **proof labelling scheme** pairs a prover `f` with a verifier `A`
//!   ([`Scheme`]); a property is in `LCP(s)` when yes-instances have
//!   all-accepted proofs of size ≤ `s(n)` and no-instances never do.
//!
//! The [`harness`] module turns those ∀/∃ quantifiers into executable
//! checks: completeness sweeps, exhaustive proof enumeration on small
//! instances, randomized adversarial proof search, and proof-size
//! measurement with growth-class fitting (the "Proof size s" column of
//! Table 1). The [`engine`] module is the substrate those checks run on:
//! a [`PreparedInstance`] caches every node's view *skeleton* (the
//! proof-independent ball topology) once per `(instance, radius)`, and
//! candidate proofs are word-packed [`Proof`]s that bound views borrow
//! directly — search loops mutate one preallocated proof in place,
//! performing zero heap allocations per candidate — and the engine fans
//! large instances out across cores, a choice made from input size alone.
//!
//! ## Example: the bipartiteness scheme in miniature
//!
//! ```
//! use lcp_core::{evaluate, Instance, Proof, Scheme, View};
//! use lcp_core::bits::BitString;
//! use lcp_graph::{generators, traversal};
//!
//! /// 1-bit scheme: the proof is a 2-colouring (§1.2).
//! struct Bipartite;
//!
//! impl Scheme for Bipartite {
//!     type Node = ();
//!     type Edge = ();
//!     fn name(&self) -> String { "bipartite".into() }
//!     fn radius(&self) -> usize { 1 }
//!     fn holds(&self, inst: &Instance) -> bool {
//!         traversal::is_bipartite(inst.graph())
//!     }
//!     fn prove(&self, inst: &Instance) -> Option<Proof> {
//!         let colors = traversal::bipartition(inst.graph())?;
//!         Some(Proof::from_fn(inst.graph().n(), |v| {
//!             BitString::from_bits([colors[v] == 1])
//!         }))
//!     }
//!     fn verify(&self, view: &View) -> bool {
//!         let me = view.proof(view.center());
//!         view.neighbors(view.center()).iter().all(|&u| {
//!             view.proof(u).first() != me.first()
//!         })
//!     }
//! }
//!
//! let yes = Instance::unlabeled(generators::cycle(6));
//! let proof = Bipartite.prove(&yes).unwrap();
//! assert_eq!(proof.size(), 1);
//! assert!(evaluate(&Bipartite, &yes, &proof).accepted());
//! ```

pub mod artifact;
pub mod batch;
pub mod bits;
pub mod components;
pub mod deadline;
pub mod dynamic;
pub mod engine;
pub mod frozen;
pub mod harness;
pub mod instance;
pub mod json;
pub mod metrics;
pub mod proof;
pub mod scheme;
pub mod view;

pub use artifact::{ArtifactSource, ArtifactStore, CoreProvenance};
pub use batch::BatchPolicy;
pub use bits::{AsBits, BitReader, BitString, BitWriter, CodecError, ProofRef};
pub use deadline::{Deadline, DeadlineExpired};
pub use dynamic::{seal_mutable, CellMutationError, DynScheme, MutableCell, TamperProbe};
pub use engine::{prepare, prepare_sweep, PreparedInstance, SkeletonCache};
pub use frozen::{ArtifactError, CoreBuilder, FrozenCore, PortableLabel};
pub use instance::{EdgeMap, Instance};
pub use proof::Proof;
pub use scheme::{evaluate, evaluate_until_reject, Scheme, Verdict};
pub use view::{Label, View};
