//! Differential test for the proof's label column.
//!
//! Every view bound to a whole proof (`PreparedInstance::bind`, the
//! sweeps `evaluate` and `evaluate_until_reject`, `CoreBuilder::bind`)
//! reads decoded labels from the proof's own label column, which decodes
//! each node's proof once and keeps it until a mutator rewrites that
//! node; the naive `lcp_core::evaluate` and `evaluate_until_reject`
//! extract every view afresh and decode per view. This file asserts that
//! the two give the same per-node outputs and the same first rejecting
//! node for every scheme whose verifier reads labels (`View::label`), on
//! cycles, grids and random connected graphs:
//!
//! * with honest proofs, every single-node tamper of them (a bit flip, a
//!   truncation, the empty string, γ-coded values near `u64::MAX`) and
//!   seeded hostile proofs;
//! * after every single-node rewrite of one long-lived proof through each
//!   mutator (`set`, `write_bits`, `clear`, `flip`), its column filled by
//!   the sweep before;
//! * after every mutation of a churn cell (`seal_mutable`): proof
//!   rewrites, chord inserts and removals, node-label rewrites;
//! * after every step of a bit-flip hill-climb that re-scores only the
//!   views that see the flipped node, as the adversarial search does.

use lcp_core::engine::PreparedInstance;
use lcp_core::{
    seal_mutable, BitString, BitWriter, Deadline, Instance, MutableCell, Proof, Scheme,
};
use lcp_graph::{generators, spanning, Graph};
use lcp_logic::{formulas, Sigma11Scheme};
use lcp_schemes::chromatic::NonBipartite;
use lcp_schemes::complement::Complement;
use lcp_schemes::cycles::{MaxMatchingCycle, OddCycle};
use lcp_schemes::eulerian::Eulerian;
use lcp_schemes::hamiltonian::HamiltonianCycle;
use lcp_schemes::leader::LeaderElection;
use lcp_schemes::spanning_tree::{Acyclic, SpanningTree};
use lcp_schemes::weak::WeakLeaderElection;
use lcp_sim::port::PortView;
use lcp_sim::{AnonymousScheme, IdentifiedFromAnonymous};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The three graph families: an odd cycle, a grid and a random
/// connected graph.
fn families(rng: &mut StdRng) -> Vec<Graph> {
    vec![
        generators::cycle(11),
        generators::grid(3, 4),
        generators::random_connected(12, 5, rng),
    ]
}

/// One string of γ-coded values near `u64::MAX` (the largest γ-codable
/// value is `u64::MAX − 1`).
fn gamma_extreme(values: usize, rng: &mut StdRng) -> BitString {
    let mut w = BitWriter::new();
    for _ in 0..values {
        w.write_gamma(u64::MAX - 1 - rng.random_range(0..4u64));
    }
    w.finish()
}

/// A seeded hostile proof string: random bits or a few γ-coded values
/// spread over the whole `u64` range.
fn hostile_string(rng: &mut StdRng) -> BitString {
    if rng.random_bool(0.4) {
        let len = rng.random_range(0..40usize);
        return BitString::from_bits((0..len).map(|_| rng.random_bool(0.5)));
    }
    let mut w = BitWriter::new();
    for _ in 0..rng.random_range(1..=5usize) {
        let v = match rng.random_range(0..3u32) {
            0 => rng.random_range(0..16u64),
            1 => u64::MAX - 1 - rng.random_range(0..16u64),
            _ => rng.random_range(0..u64::MAX),
        };
        w.write_gamma(v);
    }
    w.finish()
}

/// The base proof, each single-node tamper of it, and seeded hostile
/// proofs (every node forged, and one node forged at a time).
fn proofs(base: &Proof, rng: &mut StdRng) -> Vec<Proof> {
    let n = base.n();
    let mut out = vec![base.clone()];
    for v in 0..n {
        let s = base.get(v).to_bitstring();
        let tampers = [
            (!s.is_empty()).then(|| {
                let mut t = s.clone();
                t.flip(rng.random_range(0..s.len()));
                t
            }),
            (!s.is_empty()).then(|| BitString::from_bits(s.iter().take(s.len() - 1))),
            Some(BitString::new()),
            Some(gamma_extreme(rng.random_range(1..=5), rng)),
        ];
        for t in tampers.into_iter().flatten() {
            let mut p = base.clone();
            p.set(v, t);
            out.push(p);
        }
    }
    for _ in 0..4 {
        out.push(Proof::from_strings(
            (0..n).map(|_| hostile_string(rng)).collect(),
        ));
        let mut p = base.clone();
        p.set(rng.random_range(0..n), hostile_string(rng));
        out.push(p);
    }
    out
}

/// Counts compared sweeps, so each scheme must show both verdicts.
#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

/// Runs fresh proofs (see [`proofs`]) through both sweeps and the naive
/// oracle on `inst`.
fn compare<S>(scheme: &S, inst: &Instance<S::Node, S::Edge>, rng: &mut StdRng, tally: &mut Tally)
where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    let base = base_proof(scheme, inst, rng);
    let prep = PreparedInstance::new(inst, scheme.radius());
    for proof in proofs(&base, rng) {
        sweeps_match(scheme, &prep, &proof, "a fresh proof", tally);
    }
}

/// The honest proof, or (on a no-instance) a hostile one.
fn base_proof<S: Scheme>(scheme: &S, inst: &Instance<S::Node, S::Edge>, rng: &mut StdRng) -> Proof {
    scheme.prove(inst).unwrap_or_else(|| {
        Proof::from_strings((0..inst.n()).map(|_| hostile_string(rng)).collect())
    })
}

/// Asserts that both sweeps over `proof` equal the naive oracle, and
/// tallies the verdict.
fn sweeps_match<S>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    proof: &Proof,
    step: &str,
    tally: &mut Tally,
) where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    let inst = prep.instance();
    let naive = lcp_core::evaluate(scheme, inst, proof);
    let unbounded = Deadline::none();
    assert_eq!(
        prep.evaluate(scheme, proof, &unbounded),
        Ok(naive.clone()),
        "{}: sweep outputs differ after {step} on {proof:?}",
        scheme.name()
    );
    assert_eq!(
        prep.evaluate_until_reject(scheme, proof, &unbounded),
        Ok(lcp_core::evaluate_until_reject(scheme, inst, proof)),
        "{}: first rejecting node differs after {step} on {proof:?}",
        scheme.name()
    );
    tally.accepted += usize::from(naive.accepted());
    tally.rejected += usize::from(!naive.accepted());
}

/// One long-lived proof, rewritten one node at a time through each
/// mutator; after every rewrite both sweeps, whose column holds the
/// labels decoded before it, must equal the naive oracle.
fn rewrite_in_place<S>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    rng: &mut StdRng,
    tally: &mut Tally,
) where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    let base = base_proof(scheme, inst, rng);
    let prep = PreparedInstance::new(inst, scheme.radius());
    let mut proof = base.clone();
    sweeps_match(scheme, &prep, &proof, "the first sweep", tally);
    for v in 0..inst.n() {
        let s = base.get(v).to_bitstring();
        proof.set(v, gamma_extreme(rng.random_range(1..=3), rng));
        sweeps_match(scheme, &prep, &proof, &format!("set({v})"), tally);
        proof.write_bits(v, s.iter());
        sweeps_match(scheme, &prep, &proof, &format!("write_bits({v})"), tally);
        if !s.is_empty() {
            let i = rng.random_range(0..s.len());
            proof.flip(v, i);
            sweeps_match(scheme, &prep, &proof, &format!("flip({v}, {i})"), tally);
            proof.flip(v, i);
            sweeps_match(
                scheme,
                &prep,
                &proof,
                &format!("flip({v}, {i}) back"),
                tally,
            );
        }
        proof.clear(v);
        sweeps_match(scheme, &prep, &proof, &format!("clear({v})"), tally);
        proof.set(v, &s);
        sweeps_match(scheme, &prep, &proof, &format!("set({v}) back"), tally);
    }
}

/// A churn cell driven through every kind of mutation; after each, the
/// cell's per-node verdicts (views bound to the cell's kept proof) must
/// equal the naive oracle on a copy of the instance mutated alike.
/// `sealed` is a second copy of `scheme`, which the cell takes over.
fn churn<S>(
    scheme: &S,
    sealed: S,
    mut inst: Instance<S::Node, S::Edge>,
    rng: &mut StdRng,
    tally: &mut Tally,
) where
    S: Scheme + Send + Sync + 'static,
    S::Node: Clone + Send + Sync + 'static,
    S::Edge: Clone + Send + Sync + 'static,
{
    let base = base_proof(scheme, &inst, rng);
    let n = inst.n();
    let mut cell = seal_mutable(sealed, inst.clone(), Some(base.clone()));
    let mut matches = |cell: &dyn MutableCell, inst: &Instance<S::Node, S::Edge>, step: &str| {
        let outputs: Vec<bool> = (0..n).map(|v| cell.verify(v)).collect();
        let naive = lcp_core::evaluate(scheme, inst, cell.proof());
        assert_eq!(
            outputs,
            naive.outputs(),
            "{}: churn cell differs after {step} on {:?}",
            scheme.name(),
            cell.proof()
        );
        tally.accepted += usize::from(naive.accepted());
        tally.rejected += usize::from(!naive.accepted());
    };
    matches(&*cell, &inst, "sealing");
    for v in 0..n {
        let s = base.get(v).to_bitstring();
        let forged = if s.is_empty() || rng.random_bool(0.3) {
            hostile_string(rng)
        } else {
            let mut t = s.clone();
            t.flip(rng.random_range(0..s.len()));
            t
        };
        cell.rewrite_proof(v, &forged).expect("node in range");
        matches(&*cell, &inst, &format!("rewrite_proof({v})"));
        cell.rewrite_proof(v, &s).expect("node in range");
        matches(&*cell, &inst, &format!("restoring {v}"));
    }
    for _ in 0..3 {
        let u = rng.random_range(0..n);
        let w = rng.random_range(0..n);
        if u == w || inst.graph().has_edge(u, w) {
            continue;
        }
        cell.insert_edge(u, w).expect("a fresh chord");
        inst.insert_edge(u, w).expect("a fresh chord");
        matches(&*cell, &inst, &format!("insert_edge({u}, {w})"));
        let v = rng.random_range(0..n);
        cell.rewrite_proof(v, &hostile_string(rng))
            .expect("node in range");
        matches(&*cell, &inst, &format!("rewrite_proof({v}) beside a chord"));
        cell.remove_edge(u, w).expect("the chord is there");
        inst.remove_edge(u, w).expect("the chord is there");
        matches(&*cell, &inst, &format!("remove_edge({u}, {w})"));
    }
    for _ in 0..3 {
        let (v, w) = (rng.random_range(0..n), rng.random_range(0..n));
        let label = inst.node_label(w).clone();
        cell.set_node_label(v, Box::new(label.clone()))
            .expect("the sealed label type");
        inst.set_node_label(v, label);
        matches(&*cell, &inst, &format!("set_node_label({v}) from {w}"));
    }
}

/// A bit-flip hill-climb on the accepting-node count, shaped like the
/// adversarial search: each step flips one bit (or fills an empty
/// string), re-scores only the views that see that node through
/// `PreparedInstance::bind`, and reverts a step that lowers the score.
/// After every step the kept outputs must equal the naive oracle.
fn hill_climb<S>(scheme: &S, inst: &Instance<S::Node, S::Edge>, rng: &mut StdRng)
where
    S: Scheme,
    S::Node: Clone,
    S::Edge: Clone,
{
    let prep = PreparedInstance::new(inst, scheme.radius());
    let mut proof = base_proof(scheme, inst, rng);
    let n = inst.n();
    let mut outputs: Vec<bool> = (0..n)
        .map(|v| scheme.verify(&prep.bind(v, &proof)))
        .collect();
    for step in 0..3 * n {
        let v = rng.random_range(0..n);
        let before = proof.get(v).len();
        let flipped = if before == 0 {
            proof.write_bits(v, (0..6).map(|_| rng.random_bool(0.5)));
            None
        } else {
            let i = rng.random_range(0..before);
            proof.flip(v, i);
            Some(i)
        };
        let rescored: Vec<(usize, bool)> = prep
            .dependents(v)
            .map(|o| (o, scheme.verify(&prep.bind(o, &proof))))
            .collect();
        let gain: isize = rescored
            .iter()
            .map(|&(o, now)| isize::from(now) - isize::from(outputs[o]))
            .sum();
        if gain >= 0 {
            for (o, now) in rescored {
                outputs[o] = now;
            }
        } else {
            match flipped {
                Some(i) => proof.flip(v, i),
                None => proof.clear(v),
            }
        }
        assert_eq!(
            outputs,
            lcp_core::evaluate(scheme, inst, &proof).outputs(),
            "{}: hill-climb outputs differ after step {step} at node {v} on {proof:?}",
            scheme.name()
        );
    }
}

/// Runs `scheme` (made by `make`: once for the oracle, once more for
/// each churn cell) over the three families, each graph turned into an
/// instance by `instance`, through every owner: fresh proofs, in-place
/// rewrites, a churn cell and a hill-climb. Insists both verdicts were
/// seen.
fn check<S>(make: impl Fn() -> S, instance: impl Fn(Graph) -> Instance<S::Node, S::Edge>)
where
    S: Scheme + Send + Sync + 'static,
    S::Node: Clone + Send + Sync + 'static,
    S::Edge: Clone + Send + Sync + 'static,
{
    let scheme = &make();
    let mut rng = StdRng::seed_from_u64(24);
    let mut tally = Tally::default();
    for g in families(&mut rng) {
        let inst = instance(g);
        compare(scheme, &inst, &mut rng, &mut tally);
        rewrite_in_place(scheme, &inst, &mut rng, &mut tally);
        churn(scheme, make(), inst.clone(), &mut rng, &mut tally);
        hill_climb(scheme, &inst, &mut rng);
    }
    assert!(
        tally.accepted > 0 && tally.rejected > 0,
        "{}: {} accepted, {} rejected",
        scheme.name(),
        tally.accepted,
        tally.rejected
    );
}

/// The graph's BFS spanning tree from node 0, as edge pairs.
fn bfs_tree_edges(g: &Graph) -> Vec<(usize, usize)> {
    let tree = spanning::bfs_spanning_tree(g, 0);
    g.nodes()
        .filter_map(|v| tree.parent(v).map(|p| (v, p)))
        .collect()
}

/// The graph restricted to its BFS spanning tree (a forest).
fn bfs_tree(g: &Graph) -> Graph {
    let mut t = Graph::from_ids(g.nodes().map(|v| g.id(v))).expect("ids are unique");
    for (v, p) in bfs_tree_edges(g) {
        t.add_edge(v, p).expect("tree edges are simple");
    }
    t
}

/// A graph's edges that form a Hamiltonian cycle through `0, 1, …, n−1`
/// when the graph is a cycle, else none.
fn cycle_edges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.n();
    let all: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    if all.iter().all(|&(u, w)| g.has_edge(u, w)) {
        all
    } else {
        Vec::new()
    }
}

#[test]
fn tree_certificate_schemes_match_the_naive_oracle() {
    let leader = |g: Graph| {
        let labels = (0..g.n()).map(|v| v == g.n() / 2).collect();
        Instance::with_node_data(g, labels)
    };
    check(|| LeaderElection, leader);
    check(|| WeakLeaderElection, Instance::unlabeled);
    check(
        || SpanningTree,
        |g| {
            let edges = bfs_tree_edges(&g);
            Instance::unlabeled(g).with_edge_set(edges)
        },
    );
    check(|| Acyclic, |g| Instance::unlabeled(bfs_tree(&g)));
    check(|| Complement::new(Eulerian), Instance::unlabeled);
}

#[test]
fn decoded_label_schemes_match_the_naive_oracle() {
    check(|| NonBipartite, Instance::unlabeled);
    check(|| OddCycle, Instance::unlabeled);
    check(
        || HamiltonianCycle,
        |g| {
            let edges = cycle_edges(&g);
            Instance::unlabeled(g).with_edge_set(edges)
        },
    );
    check(
        || MaxMatchingCycle,
        |g| {
            let matching: Vec<_> = cycle_edges(&g)
                .into_iter()
                .step_by(2)
                .take(g.n() / 2)
                .collect();
            Instance::unlabeled(g).with_edge_set(matching)
        },
    );
    let sigma = || {
        Sigma11Scheme::new(formulas::k_colorable(3), |g| {
            formulas::k_colorable_witness(g, 3)
        })
    };
    check(sigma, Instance::unlabeled);
    check(
        || IdentifiedFromAnonymous::new(LeaderBit),
        Instance::unlabeled,
    );
}

/// An anonymous scheme whose one-bit proof repeats the node's leader
/// flag, for the `M2 → M1` translation's decoded labels.
struct LeaderBit;

impl AnonymousScheme for LeaderBit {
    type Node = ();
    type Edge = ();

    fn name(&self) -> String {
        "leader-bit".into()
    }

    fn radius(&self) -> usize {
        1
    }

    fn holds(&self, _: &Instance) -> bool {
        true
    }

    fn prove(&self, inst: &Instance, leader: usize) -> Option<Proof> {
        Some(Proof::from_fn(inst.n(), |v| {
            BitString::from_bits([v == leader])
        }))
    }

    fn verify(&self, view: &PortView<((), bool), ()>) -> bool {
        let c = view.center();
        view.proof(c).first() == Some(view.node_label(c).1)
    }
}

#[test]
fn an_undecodable_label_rejects_at_every_centre_that_reads_it() {
    // One empty proof string on a cycle: the node and both neighbours
    // read it, so all three reject, in the column sweep as in the naive
    // oracle.
    let g = generators::cycle(12);
    let labels = (0..12).map(|v| v == 0).collect();
    let inst = Instance::with_node_data(g, labels);
    let mut proof = LeaderElection.prove(&inst).expect("one leader on a cycle");
    proof.set(5, BitString::new());
    let prep = PreparedInstance::new(&inst, LeaderElection.radius());
    let unbounded = Deadline::none();
    let naive = lcp_core::evaluate(&LeaderElection, &inst, &proof);
    assert_eq!(naive.rejecting(), vec![4, 5, 6]);
    let sweep = prep.evaluate(&LeaderElection, &proof, &unbounded).unwrap();
    assert_eq!(sweep.rejecting(), naive.rejecting());
    assert_eq!(
        prep.evaluate_until_reject(&LeaderElection, &proof, &unbounded),
        Ok(Some(4))
    );
}
