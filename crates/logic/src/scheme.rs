//! The §7.5 compiler: a monadic Σ¹₁ sentence plus a witness finder
//! becomes a LogLCP proof labelling scheme.

use crate::eval::{evaluate_at, evaluate_global};
use crate::formula::Sigma11;
use lcp_core::components::TreeCert;
use lcp_core::{BitReader, BitWriter, Instance, Label, Proof, ProofRef, Scheme, View};
use lcp_graph::spanning::bfs_spanning_tree;
use lcp_graph::{traversal, Graph, NodeId};

/// A witness for a Σ¹₁ sentence: the monadic relations `A₀ … A_{k−1}`
/// plus the node interpreting `∃x`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// `relations[r][v]` = whether node `v` is in `X_r`.
    pub relations: Vec<Vec<bool>>,
    /// The witness node `a` interpreting `∃x`.
    pub leader: usize,
}

/// The most relations a compiled sentence may quantify.
pub const MAX_RELATIONS: usize = 8;

/// The compiled LogLCP scheme for one sentence (§7.5): per node, `k`
/// relation bits followed by a spanning-tree certificate rooted at the
/// witness node.
///
/// The proof size is `k + O(log n)` bits, so every monadic Σ¹₁ property
/// of connected graphs lands in `LogLCP` — the paper's Theorem from §7.5
/// made executable.
///
/// The family promise is *connected* graphs (the tree certificate needs
/// it, see `lcp_core::components::TreeCert`).
///
/// A compiled sentence has at most [`MAX_RELATIONS`] relations: the
/// verifier reads each node's proof as a decoded [`Label`], and the
/// label's type names the length of the relation-bit prefix.
pub struct Sigma11Scheme<W> {
    sentence: Sigma11,
    witness_finder: W,
}

impl<W> Sigma11Scheme<W>
where
    W: Fn(&Graph) -> Option<Witness>,
{
    /// Compiles a sentence with its witness finder.
    ///
    /// The finder is the prover's nondeterminism: it must return a
    /// witness for every graph satisfying the sentence and `None`
    /// otherwise (the constructors in [`crate::formulas`] pair sentences
    /// with complete finders).
    ///
    /// # Panics
    ///
    /// Panics if the sentence quantifies more than [`MAX_RELATIONS`]
    /// relations.
    pub fn new(sentence: Sigma11, witness_finder: W) -> Self {
        assert!(
            sentence.relations <= MAX_RELATIONS,
            "a compiled sentence has at most {MAX_RELATIONS} relations, not {}",
            sentence.relations
        );
        Sigma11Scheme {
            sentence,
            witness_finder,
        }
    }

    /// The compiled sentence.
    pub fn sentence(&self) -> &Sigma11 {
        &self.sentence
    }
}

impl<W> Scheme for Sigma11Scheme<W>
where
    W: Fn(&Graph) -> Option<Witness>,
{
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        format!("sigma11:{}", self.sentence.name)
    }

    fn radius(&self) -> usize {
        self.sentence.verifier_radius()
    }

    fn holds(&self, inst: &Instance) -> bool {
        let g = inst.graph();
        if g.n() == 0 || !traversal::is_connected(g) {
            return false; // outside the family promise / vacuous
        }
        match (self.witness_finder)(g) {
            Some(w) => evaluate_global(&self.sentence.matrix, g, w.leader, &w.relations),
            None => false,
        }
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        let g = inst.graph();
        if g.n() == 0 || !traversal::is_connected(g) {
            return None;
        }
        let witness = (self.witness_finder)(g)?;
        debug_assert!(
            evaluate_global(&self.sentence.matrix, g, witness.leader, &witness.relations),
            "witness finder returned a non-witness"
        );
        let tree = bfs_spanning_tree(g, witness.leader);
        let certs = TreeCert::prove(g, &tree);
        let k = self.sentence.relations;
        Some(Proof::from_fn(g.n(), |v| {
            let mut w = BitWriter::new();
            for r in 0..k {
                w.write_bit(witness.relations[r][v]);
            }
            certs[v].encode(&mut w);
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        match self.sentence.relations {
            0 => self.verify_with::<0>(view),
            1 => self.verify_with::<1>(view),
            2 => self.verify_with::<2>(view),
            3 => self.verify_with::<3>(view),
            4 => self.verify_with::<4>(view),
            5 => self.verify_with::<5>(view),
            6 => self.verify_with::<6>(view),
            7 => self.verify_with::<7>(view),
            8 => self.verify_with::<8>(view),
            k => unreachable!("Sigma11Scheme::new admits no sentence with {k} relations"),
        }
    }
}

/// One node's decoded proof for a sentence with `K` relations: `K`
/// relation bits, then the tree certificate.
#[derive(Clone, Copy, Debug)]
struct Sigma11Cert<const K: usize> {
    relations: [bool; K],
    tree: TreeCert,
}

impl<const K: usize> Label for Sigma11Cert<K> {
    fn decode(proof: ProofRef<'_>) -> Option<Sigma11Cert<K>> {
        let mut r = BitReader::new(proof);
        let mut relations = [false; K];
        for bit in &mut relations {
            *bit = r.read_bit().ok()?;
        }
        let tree = TreeCert::decode(&mut r).ok()?;
        r.is_exhausted().then_some(Sigma11Cert { relations, tree })
    }
}

impl<W> Sigma11Scheme<W>
where
    W: Fn(&Graph) -> Option<Witness>,
{
    /// The verifier for a sentence with `K` relations.
    fn verify_with<const K: usize>(&self, view: &View) -> bool {
        let Some(mine) =
            TreeCert::verify_at_center(view, |c: &Sigma11Cert<K>| &c.tree, |_, _, _| true)
        else {
            return false;
        };
        // The witness x is the root; visible iff its identifier is in view.
        let x = view.index_of(NodeId(mine.tree.root_id));
        evaluate_at(&self.sentence.matrix, view, x, |u, r| {
            view.label::<Sigma11Cert<K>>(u)
                .is_some_and(|c| c.relations[r])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulas;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        adversarial_proof_search, check_completeness, check_soundness_exhaustive, Run, Soundness,
    };
    use lcp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_col() -> Sigma11Scheme<impl Fn(&Graph) -> Option<Witness>> {
        Sigma11Scheme::new(formulas::k_colorable(3), |g| {
            formulas::k_colorable_witness(g, 3)
        })
    }

    #[test]
    fn three_colorable_graphs_certified() {
        let scheme = three_col();
        let instances: Vec<Instance> = vec![
            Instance::unlabeled(generators::cycle(5)),
            Instance::unlabeled(generators::cycle(6)),
            Instance::unlabeled(generators::grid(3, 4)),
            Instance::unlabeled(generators::complete(3)),
        ];
        let sizes = check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
        assert_eq!(sizes.len(), 4);
    }

    #[test]
    fn k4_is_not_three_colorable_and_resists_forgery() {
        let scheme = three_col();
        let inst = Instance::unlabeled(generators::complete(4));
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
        let mut rng = StdRng::seed_from_u64(7);
        assert!(
            adversarial_proof_search(
                &scheme,
                &lcp_core::engine::prepare(&scheme, &inst),
                8,
                800,
                &mut rng,
                &Run::default()
            )
            .is_none(),
            "no small proof should 3-colour K4"
        );
    }

    #[test]
    fn perfect_code_scheme_roundtrip() {
        let scheme = Sigma11Scheme::new(formulas::perfect_code(), formulas::perfect_code_witness);
        let yes = Instance::unlabeled(generators::cycle(6));
        let proof = scheme.prove(&yes).unwrap();
        assert!(evaluate(&scheme, &yes, &proof).accepted());
        // C5 has no perfect code.
        let no = Instance::unlabeled(generators::cycle(5));
        assert!(!scheme.holds(&no));
        assert!(scheme.prove(&no).is_none());
    }

    #[test]
    fn perfect_code_exhaustive_soundness_on_tiny_no_instance() {
        // K3 with a pendant: closed neighbourhoods overlap so no perfect
        // code… actually verify via ground truth first.
        let scheme = Sigma11Scheme::new(formulas::perfect_code(), formulas::perfect_code_witness);
        let no = Instance::unlabeled(generators::cycle(4));
        assert!(!scheme.holds(&no));
        // Budget 2: relation bit + tiny certs; the space stays feasible.
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &no),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("perfect-code scheme fooled by {p:?}"),
        }
    }

    #[test]
    fn triangle_witness_scheme() {
        let scheme = Sigma11Scheme::new(formulas::has_triangle(), formulas::has_triangle_witness);
        let yes = Instance::unlabeled(generators::complete(4));
        let proof = scheme.prove(&yes).unwrap();
        assert!(evaluate(&scheme, &yes, &proof).accepted());
        let no = Instance::unlabeled(generators::cycle(8));
        assert!(!scheme.holds(&no));
        let mut rng = StdRng::seed_from_u64(9);
        assert!(adversarial_proof_search(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &no),
            6,
            500,
            &mut rng,
            &Run::default()
        )
        .is_none());
    }

    #[test]
    fn proof_size_is_logarithmic() {
        use lcp_core::harness::{classify_growth, measure_sizes, GrowthClass};
        let scheme = Sigma11Scheme::new(formulas::independent_dominating_set(), |g| {
            formulas::independent_dominating_witness(g)
        });
        let instances: Vec<Instance> = [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&n| Instance::unlabeled(generators::cycle(n)))
            .collect();
        let points = measure_sizes(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Logarithmic);
    }

    #[test]
    fn disconnected_inputs_are_outside_the_family() {
        let scheme = three_col();
        let g = lcp_graph::ops::disjoint_union(
            &generators::cycle(3),
            &lcp_graph::ops::shift_ids(&generators::cycle(3), 10),
        )
        .unwrap();
        let inst = Instance::unlabeled(g);
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
    }
}
