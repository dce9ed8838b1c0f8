//! The `Θ(n)` universal scheme on trees (§6.2): "for each node `v` of the
//! tree we encode the structure of `G` and an index that identifies which
//! node of `G` is `v`; the structure of a tree can be encoded in `Θ(n)`
//! bits, and the index requires `Θ(log n)` bits."
//!
//! The tree structure is a 2n-bit balanced-parentheses string (1 =
//! descend, 0 = ascend) over a DFS of a rooted version of the tree; each
//! node also carries its preorder position. Soundness is the covering
//! argument: a connected graph with a locally-bijective map onto a tree
//! *is* that tree.

use lcp_core::{BitReader, BitString, BitWriter, Instance, Proof, Scheme, View};
use lcp_graph::{iso, tree, Graph};

/// A rooted tree shape decoded from parentheses: parent per preorder
/// position (`None` at the root).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Shape {
    parent: Vec<Option<usize>>,
}

impl Shape {
    fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = *p {
                ch[p].push(v);
            }
        }
        ch
    }

    /// Materializes the shape as a [`Graph`] with identifiers `1..=n`.
    fn to_graph(&self) -> Graph {
        let mut g = Graph::with_contiguous_ids(self.parent.len());
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = *p {
                g.add_edge(v, p).expect("tree edges are fresh");
            }
        }
        g
    }
}

/// The universal tree scheme for an arbitrary computable pure property of
/// trees; `Θ(n)` bits per node.
pub struct TreeUniversal<F> {
    name: String,
    decide: F,
}

impl<F> TreeUniversal<F>
where
    F: Fn(&Graph) -> bool,
{
    /// Builds the scheme for `decide` (evaluated on the decoded tree).
    pub fn new(name: impl Into<String>, decide: F) -> Self {
        TreeUniversal {
            name: name.into(),
            decide,
        }
    }

    /// Parentheses encoding + preorder positions for a tree rooted at 0.
    fn encode(g: &Graph) -> (BitString, Vec<usize>) {
        debug_assert!(tree::is_tree(g));
        let t = lcp_graph::spanning::bfs_spanning_tree(g, 0);
        let children = t.children();
        let mut shape = BitWriter::new();
        let mut position = vec![0usize; g.n()];
        let mut next_pos = 0usize;
        // Iterative DFS emitting 1 on entry, 0 on exit.
        let mut stack = vec![(t.root(), 0usize)];
        shape.write_bit(true);
        position[t.root()] = next_pos;
        next_pos += 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < children[v].len() {
                let c = children[v][*i];
                *i += 1;
                shape.write_bit(true);
                position[c] = next_pos;
                next_pos += 1;
                stack.push((c, 0));
            } else {
                shape.write_bit(false);
                stack.pop();
            }
        }
        (shape.finish(), position)
    }

    /// Parses a parentheses string back into a shape.
    fn parse_shape(bits: &[bool]) -> Option<Shape> {
        if bits.is_empty() || !bits[0] {
            return None;
        }
        let mut parent = vec![None];
        let mut stack = vec![0usize];
        for &b in &bits[1..] {
            if b {
                let p = *stack.last()?;
                parent.push(Some(p));
                stack.push(parent.len() - 1);
            } else {
                stack.pop()?;
            }
        }
        stack.is_empty().then_some(Shape { parent })
    }
}

impl<F> Scheme for TreeUniversal<F>
where
    F: Fn(&Graph) -> bool,
{
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        format!("tree-universal:{}", self.name)
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, inst: &Instance) -> bool {
        tree::is_tree(inst.graph()) && (self.decide)(inst.graph())
    }

    fn prove(&self, inst: &Instance) -> Option<Proof> {
        if !self.holds(inst) {
            return None;
        }
        let (shape, position) = Self::encode(inst.graph());
        Some(Proof::from_fn(inst.n(), |v| {
            let mut w = BitWriter::new();
            w.write_gamma(position[v] as u64);
            for b in shape.iter() {
                w.write_bit(b);
            }
            w.finish()
        }))
    }

    fn verify(&self, view: &View) -> bool {
        let decode = |u: usize| -> Option<(usize, Vec<bool>)> {
            let mut r = BitReader::new(view.proof(u));
            let pos = r.read_gamma().ok()? as usize;
            let mut bits = Vec::with_capacity(r.remaining());
            while !r.is_exhausted() {
                bits.push(r.read_bit().ok()?);
            }
            Some((pos, bits))
        };
        let c = view.center();
        let Some((my_pos, my_shape_bits)) = decode(c) else {
            return false;
        };
        let Some(shape) = Self::parse_shape(&my_shape_bits) else {
            return false;
        };
        let n = shape.parent.len();
        if my_pos >= n {
            return false;
        }
        // Local bijection: my neighbours' positions are exactly my
        // encoded parent and children, each exactly once, and all
        // neighbours carry the same shape.
        let children = shape.children();
        let mut expected: Vec<usize> = children[my_pos].clone();
        if let Some(p) = shape.parent[my_pos] {
            expected.push(p);
        }
        expected.sort_unstable();
        let mut got = Vec::with_capacity(view.degree(c));
        for &u in view.neighbors(c) {
            let Some((u_pos, u_shape)) = decode(u) else {
                return false;
            };
            if u_shape != my_shape_bits {
                return false;
            }
            got.push(u_pos);
        }
        got.sort_unstable();
        if got != expected {
            return false;
        }
        // Decide on the decoded tree (a pure property: ids irrelevant).
        (self.decide)(&shape.to_graph())
    }
}

/// §6.2: trees with a *fixpoint-free* automorphism — the `Θ(n)`-complete
/// property of trees.
pub fn tree_fixpoint_free() -> TreeUniversal<impl Fn(&Graph) -> bool> {
    TreeUniversal::new("fixpoint-free-symmetry", |g: &Graph| {
        iso::fixpoint_free_automorphism(g).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_core::evaluate;
    use lcp_core::harness::{
        check_completeness, check_soundness_exhaustive, classify_growth, measure_sizes,
        GrowthClass, Run, Soundness,
    };
    use lcp_graph::{generators, ops, NodeId};

    /// Two copies of a tree joined by an edge between their roots — has
    /// an obvious fixpoint-free swap when the copies are identical.
    fn doubled_tree(n_half: usize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = generators::random_tree(n_half, &mut rng);
        let t2 = ops::shift_ids(&t, 1000);
        ops::join_with_path(&t, 0, &t2, 0, &[]).unwrap()
    }
    use rand::SeedableRng;

    #[test]
    fn doubled_trees_have_fixpoint_free_symmetry() {
        let scheme = tree_fixpoint_free();
        let instances: Vec<Instance> = (3..7)
            .map(|k| Instance::unlabeled(doubled_tree(k, k as u64)))
            .collect();
        check_completeness(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        )
        .unwrap();
    }

    #[test]
    fn star_rejected() {
        // Stars have symmetries but all fix the hub.
        let scheme = tree_fixpoint_free();
        let inst = Instance::unlabeled(generators::star(4));
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
    }

    #[test]
    fn proof_size_linear() {
        let scheme = TreeUniversal::new("always", |_: &Graph| true);
        let instances: Vec<Instance> = [8usize, 16, 32, 64, 128]
            .iter()
            .map(|&n| Instance::unlabeled(generators::path(n)))
            .collect();
        let points = measure_sizes(
            &scheme,
            &lcp_core::engine::prepare_sweep(&scheme, &instances),
        );
        assert_eq!(classify_growth(&points), GrowthClass::Linear);
    }

    #[test]
    fn wrong_shape_rejected() {
        // Proof encodes a star, instance is a path.
        let scheme = TreeUniversal::new("always", |_: &Graph| true);
        let star = generators::star(3);
        let (shape, position) = TreeUniversal::<fn(&Graph) -> bool>::encode(&star);
        let inst = Instance::unlabeled(generators::path(4));
        let proof = Proof::from_fn(4, |v| {
            let mut w = BitWriter::new();
            w.write_gamma(position[v] as u64);
            for b in shape.iter() {
                w.write_bit(b);
            }
            w.finish()
        });
        assert!(!evaluate(&scheme, &inst, &proof).accepted());
    }

    #[test]
    fn path_with_even_length_fixpoint_free() {
        // P2k has the reversal automorphism with no fixpoint.
        let scheme = tree_fixpoint_free();
        let yes = Instance::unlabeled(generators::path(6));
        let proof = scheme.prove(&yes).unwrap();
        assert!(evaluate(&scheme, &yes, &proof).accepted());
        // P2k+1 fixes its middle node under every automorphism.
        let no = Instance::unlabeled(generators::path(7));
        assert!(!scheme.holds(&no));
    }

    #[test]
    fn tiny_no_instance_exhaustive() {
        // P3: every automorphism fixes the middle; no ≤2-bit proof helps.
        let scheme = tree_fixpoint_free();
        let inst = Instance::unlabeled(generators::path(3));
        match check_soundness_exhaustive(
            &scheme,
            &lcp_core::engine::prepare(&scheme, &inst),
            2,
            &Run::default(),
        )
        .unwrap()
        {
            Soundness::Holds(_) => {}
            Soundness::Violated(p) => panic!("P3 forged by {p:?}"),
        }
    }

    #[test]
    fn non_tree_is_outside_family() {
        let scheme = tree_fixpoint_free();
        let inst = Instance::unlabeled(generators::cycle(6));
        assert!(!scheme.holds(&inst));
        assert!(scheme.prove(&inst).is_none());
    }

    #[test]
    fn decoy_identifiers_do_not_matter() {
        let scheme = tree_fixpoint_free();
        let g = doubled_tree(4, 9)
            .relabel(|id| NodeId(id.0 * 13 + 5))
            .unwrap();
        let inst = Instance::unlabeled(g);
        let proof = scheme.prove(&inst).unwrap();
        assert!(evaluate(&scheme, &inst, &proof).accepted());
    }
}
