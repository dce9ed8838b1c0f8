//! Local views: the triple `(G[v,r], P[v,r], v)` a verifier sees (§2.1).
//!
//! A [`View`] is *extracted* — a standalone copy of the radius-`r` ball
//! around the centre, with its own dense indices. A verifier receives only
//! the view, so locality is enforced by construction rather than by
//! convention: there is no way to read labels, proofs, or edges beyond the
//! horizon.
//!
//! Internally a view is split into two parts:
//!
//! * a skeleton — everything that depends only on `(instance, radius)`:
//!   identifiers, CSR adjacency, distances, node labels, and edge labels
//!   behind a sorted key column. Skeletons are shared behind an [`Arc`],
//!   so cloning a view or re-binding it to a new proof never re-runs a
//!   BFS or re-copies the topology;
//! * the **proof binding** — where the per-node bits come from, the only
//!   part that changes between candidate proofs. A binding either *owns*
//!   a word-packed [`Proof`] of the ball (the naive [`View::extract`]
//!   path and the simulator's [`View::from_parts`]) or *borrows* slices
//!   of the whole proof (the engine path): binding a cached skeleton to
//!   a new candidate proof then costs nothing at all — the view reads
//!   the proof's current bits through [`View::proof`].
//!
//! [`View::extract`] builds a fresh skeleton each call (the naive path);
//! [`crate::engine::PreparedInstance`] precomputes every node's skeleton
//! once and stamps out zero-copy bindings per candidate proof.
//!
//! A verifier that reads its proofs as structured certificates asks for
//! them decoded with [`View::label`]. A view bound to a whole proof
//! reads the proof's own **label column** (see [`crate::Proof`]), so each
//! node's proof is decoded once for as long as its bits stand, rather
//! than once per view that sees it (1 + deg times) in every sweep; a
//! view that owns its bits decodes on each call. Both run the same
//! [`Label::decode`], so they give the same value.

use crate::bits::{BitString, ProofRef};
use crate::instance::{EdgeMap, Instance};
use crate::proof::Proof;
use lcp_graph::{norm_edge, Graph, NodeId};
use std::sync::Arc;

/// A proof string's decoded form: the value a verifier reads out of one
/// node's whole proof.
///
/// Tying the type to its only decoder is what lets a proof cache the
/// decoded value: [`View::label`] returns `decode` of the node's proof,
/// whether it decoded it just now or at an earlier read of the same
/// bits. A label is `Send + Sync` because the cache is: several threads
/// may verify one shared proof at once.
pub trait Label: Copy + Send + Sync + 'static {
    /// Decodes one node's whole proof string. `None` (malformed, or bits
    /// left over) means the proof is invalid, and verifiers reject it.
    fn decode(proof: ProofRef<'_>) -> Option<Self>;
}

/// The proof-independent part of a view: topology, identifiers, labels.
///
/// Adjacency is stored in CSR form (one flat neighbour array plus
/// offsets) and edge labels as a sorted key column beside a label
/// column, so a skeleton is a handful of contiguous allocations
/// regardless of ball size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Skeleton<N, E> {
    pub(crate) center: usize,
    pub(crate) radius: usize,
    pub(crate) ids: Vec<NodeId>,
    /// CSR offsets into `adj`; node `u`'s neighbours are
    /// `adj[adj_off[u] as usize .. adj_off[u + 1] as usize]`.
    pub(crate) adj_off: Vec<u32>,
    pub(crate) adj: Vec<usize>,
    pub(crate) dist: Vec<u32>,
    pub(crate) node_data: Vec<N>,
    /// Labelled edges as [`edge_key`]s, strictly ascending
    /// (binary-searched on access).
    pub(crate) edge_keys: Vec<u64>,
    /// The label of each key in `edge_keys`, in the same order.
    pub(crate) edge_labels: Vec<E>,
}

// Manual Default: the derive would demand `N: Default`/`E: Default`,
// but an empty skeleton holds no labels.
impl<N, E> Default for Skeleton<N, E> {
    fn default() -> Self {
        Skeleton {
            center: 0,
            radius: 0,
            ids: Vec::new(),
            adj_off: Vec::new(),
            adj: Vec::new(),
            dist: Vec::new(),
            node_data: Vec::new(),
            edge_keys: Vec::new(),
            edge_labels: Vec::new(),
        }
    }
}

impl<N: Clone, E: Clone> Skeleton<N, E> {
    /// An owned copy of a borrowed skeleton.
    pub(crate) fn from_view(sv: SkelView<'_, N, E>) -> Self {
        Skeleton {
            center: sv.center,
            radius: sv.radius,
            ids: sv.ids.to_vec(),
            adj_off: sv.adj_off.to_vec(),
            adj: sv.adj.to_vec(),
            dist: sv.dist.to_vec(),
            node_data: sv.node_data.to_vec(),
            edge_keys: sv.edge_keys.to_vec(),
            edge_labels: sv.edge_labels.to_vec(),
        }
    }
}

impl<N, E> Skeleton<N, E> {
    /// This skeleton as a borrow-only [`SkelView`].
    #[inline]
    pub(crate) fn as_view(&self) -> SkelView<'_, N, E> {
        SkelView {
            center: self.center,
            radius: self.radius,
            ids: &self.ids,
            adj_off: &self.adj_off,
            adj: &self.adj,
            dist: &self.dist,
            node_data: &self.node_data,
            edge_keys: &self.edge_keys,
            edge_labels: &self.edge_labels,
        }
    }
}

/// A borrowed, flat skeleton: the same data as [`Skeleton`], but every
/// section is a slice, so the backing storage can be an owned
/// `Skeleton`'s vectors *or* contiguous pools inside a
/// [`crate::engine::FrozenCore`] (possibly an `mmap`ed artifact file).
/// Everything downstream of skeleton construction — [`View`], the
/// verifier loops — consumes this type and is thereby agnostic to where
/// the skeleton came from.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SkelView<'c, N, E> {
    pub(crate) center: usize,
    pub(crate) radius: usize,
    pub(crate) ids: &'c [NodeId],
    /// CSR offsets into `adj`; node `u`'s neighbours are
    /// `adj[adj_off[u] as usize .. adj_off[u + 1] as usize]`.
    pub(crate) adj_off: &'c [u32],
    pub(crate) adj: &'c [usize],
    pub(crate) dist: &'c [u32],
    pub(crate) node_data: &'c [N],
    /// Labelled edges as [`edge_key`]s, strictly ascending
    /// (binary-searched on access).
    pub(crate) edge_keys: &'c [u64],
    /// The label of each key in `edge_keys`, in the same order.
    pub(crate) edge_labels: &'c [E],
}

// Manual Copy/Clone: the derives would demand `N: Copy`/`E: Copy`, but
// the fields are slices, copyable for any label type.
impl<N, E> Clone for SkelView<'_, N, E> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<N, E> Copy for SkelView<'_, N, E> {}

impl<'c, N, E> SkelView<'c, N, E> {
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub(crate) fn neighbors(&self, u: usize) -> &'c [usize] {
        &self.adj[self.adj_off[u] as usize..self.adj_off[u + 1] as usize]
    }
}

/// The key of the view-local edge `{u, w}` with `u < w`: `(u << 32) | w`,
/// so keys sort as the pairs do. Ball-local indices fit in 32 bits (the
/// skeleton's CSR offsets are `u32`).
#[inline]
pub(crate) fn edge_key(u: usize, w: usize) -> u64 {
    ((u as u64) << 32) | w as u64
}

/// Where a view's proof bits come from.
///
/// Owned bindings copy the ball's bits into a private proof; borrowed
/// bindings read straight out of the bound proof through the
/// ball-membership table — the engine's zero-copy path.
#[derive(Clone, Debug)]
enum Binding<'p> {
    /// A private proof, one slot per view-local node.
    Owned(Proof),
    /// Borrowed slices of a whole proof; view-local node `u` reads
    /// global slot `members[u]`, and its decoded label from the proof's
    /// label column.
    Borrowed {
        proof: &'p Proof,
        members: &'p [u32],
    },
}

/// How a view holds its skeleton.
///
/// The naive constructors share an [`Arc`]; the engine's per-candidate
/// bindings borrow the prepared instance's cached skeleton instead, so
/// stamping out a view costs no refcount traffic at all — the verifier
/// loops construct millions of views per second.
#[derive(Clone, Debug)]
enum SkelRef<'p, N, E> {
    /// Shared ownership (extraction, simulator, restriction).
    Shared(Arc<Skeleton<N, E>>),
    /// Borrowed from a [`crate::engine::FrozenCore`] (in-process or
    /// mapped from an artifact file) — the engine's zero-copy path.
    Flat(SkelView<'p, N, E>),
}

/// The radius-`r` view of one node: induced subgraph, identifiers, labels,
/// proof restriction, and the centre.
///
/// The lifetime `'p` is the proof binding's: views produced by
/// [`crate::engine::PreparedInstance::bind`] borrow the proof,
/// while [`View::extract`] / [`View::from_parts`] own their bits and are
/// `'static` in `'p`.
#[derive(Clone, Debug)]
pub struct View<'p, N = (), E = ()> {
    skel: SkelRef<'p, N, E>,
    binding: Binding<'p>,
}

impl<N: PartialEq, E: PartialEq> PartialEq for View<'_, N, E> {
    /// Observational equality: same skeleton content, same proof bits —
    /// regardless of whether either side owns or borrows its binding.
    fn eq(&self, other: &Self) -> bool {
        self.skeleton() == other.skeleton() && self.nodes().all(|u| self.proof(u) == other.proof(u))
    }
}

impl<N: Eq, E: Eq> Eq for View<'_, N, E> {}

impl<'p, N: Clone, E: Clone> View<'p, N, E> {
    /// Extracts the view `(G[v,r], P[v,r], v)` from an instance.
    ///
    /// This is the naive path: it runs a BFS and rebuilds the skeleton on
    /// every call. When many proofs are checked against one instance, use
    /// [`crate::engine::PreparedInstance`], which builds each node's
    /// skeleton once and binds candidate proofs for free.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `proof.n()` mismatches the graph.
    pub fn extract(inst: &Instance<N, E>, proof: &Proof, v: usize, radius: usize) -> Self {
        let mut scratch = BallScratch::new(inst.graph().n());
        Self::extract_with(inst, proof, v, radius, &mut scratch)
    }

    /// [`Self::extract`] over a caller's scratch (one per naive sweep).
    pub(crate) fn extract_with(
        inst: &Instance<N, E>,
        proof: &Proof,
        v: usize,
        radius: usize,
        scratch: &mut BallScratch,
    ) -> Self {
        assert_eq!(proof.n(), inst.n(), "proof must label every node");
        let mut skel = Skeleton::default();
        let mut members = Vec::new();
        build_skeleton(inst, v, radius, scratch, &mut skel, &mut members);
        let proofs = Proof::from_refs(members.iter().map(|&u| proof.get(u as usize)));
        View {
            skel: SkelRef::Shared(Arc::new(skel)),
            binding: Binding::Owned(proofs),
        }
    }
}

/// Reusable scratch buffers for skeleton construction, so preparing every
/// ball of an instance performs no per-ball map allocations.
pub(crate) struct BallScratch {
    /// Visit stamp per global node; `stamp[u] == cur` marks membership.
    stamp: Vec<u64>,
    cur: u64,
    /// BFS distance per global node (valid where stamped).
    dist: Vec<u32>,
    /// Ball-local index per global node (valid where stamped).
    local: Vec<u32>,
    /// BFS queue (reused).
    queue: Vec<usize>,
}

impl BallScratch {
    pub(crate) fn new(n: usize) -> Self {
        BallScratch {
            stamp: vec![0; n],
            cur: 0,
            dist: vec![0; n],
            local: vec![0; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// One multi-source BFS to depth `r`, costing `O(Σ|ball|)`: leaves
    /// the stamped ball in `queue` (BFS order) with its distances in
    /// `dist`, and returns the stamp.
    fn bfs(&mut self, g: &Graph, sources: &[usize], r: usize) -> u64 {
        self.cur += 1;
        let cur = self.cur;
        self.queue.clear();
        for &s in sources {
            assert!(s < g.n(), "ball source {s} out of range");
            if self.stamp[s] != cur {
                self.stamp[s] = cur;
                self.dist[s] = 0;
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u];
            if du as usize == r {
                continue;
            }
            for &w in g.neighbors(u) {
                if self.stamp[w] != cur {
                    self.stamp[w] = cur;
                    self.dist[w] = du + 1;
                    self.queue.push(w);
                }
            }
        }
        cur
    }

    /// The sorted union of the radius-`r` balls around `sources`.
    ///
    /// This is the *scope* of an edge mutation: every node whose view can
    /// change when an edge `{u, v}` appears or disappears lies in
    /// `ball(u, r) ∪ ball(v, r)` of the graph that contains the edge.
    pub(crate) fn ball_union(&mut self, g: &Graph, sources: &[usize], r: usize) -> Vec<usize> {
        self.bfs(g, sources, r);
        let mut members = self.queue.clone();
        members.sort_unstable();
        members
    }
}

/// Builds the skeleton of `(G[v,r], v)` into `skel`, and the sorted
/// global indices of the ball members (the information needed to bind a
/// proof later) into `members`. Both buffers are overwritten, so a
/// caller that builds ball after ball reuses their allocations.
pub(crate) fn build_skeleton<N: Clone, E: Clone>(
    inst: &Instance<N, E>,
    v: usize,
    radius: usize,
    scratch: &mut BallScratch,
    skel: &mut Skeleton<N, E>,
    members: &mut Vec<u32>,
) {
    let g = inst.graph();
    assert!(v < g.n(), "view centre {v} out of range");
    let cur = scratch.bfs(g, &[v], radius);
    // Sorted members give the view its dense index order (stable with the
    // historical `traversal::ball` contract).
    members.clear();
    members.extend(scratch.queue.iter().map(|&u| u as u32));
    members.sort_unstable();
    for (new, &old) in members.iter().enumerate() {
        scratch.local[old as usize] = new as u32;
    }
    // CSR adjacency over the induced ball; graph adjacency is sorted and
    // the member order is monotone in global index, so each local list
    // comes out sorted without an explicit sort.
    skel.adj_off.clear();
    skel.adj.clear();
    skel.edge_keys.clear();
    skel.edge_labels.clear();
    let has_edge_labels = !inst.edge_labels().is_empty();
    skel.adj_off.push(0u32);
    for (nu, &ou) in members.iter().enumerate() {
        for &ow in g.neighbors(ou as usize) {
            if scratch.stamp[ow] != cur {
                continue; // beyond the horizon
            }
            let nw = scratch.local[ow] as usize;
            skel.adj.push(nw);
            if has_edge_labels && nu < nw {
                if let Some(label) = inst.edge_label(ou as usize, ow) {
                    skel.edge_keys.push(edge_key(nu, nw));
                    skel.edge_labels.push(label.clone());
                }
            }
        }
        skel.adj_off.push(skel.adj.len() as u32);
    }
    skel.center = scratch.local[v] as usize;
    skel.radius = radius;
    skel.ids.clear();
    skel.ids.extend(members.iter().map(|&u| g.id(u as usize)));
    skel.dist.clear();
    skel.dist
        .extend(members.iter().map(|&u| scratch.dist[u as usize]));
    skel.node_data.clear();
    skel.node_data
        .extend(members.iter().map(|&u| inst.node_label(u as usize).clone()));
}

impl<'p, N, E> View<'p, N, E> {
    /// Assembles a view from a borrowed flat skeleton and a borrowed
    /// proof — the engine's zero-copy constructor.
    pub(crate) fn bind(skel: SkelView<'p, N, E>, proof: &'p Proof, members: &'p [u32]) -> Self {
        debug_assert_eq!(skel.n(), members.len(), "one proof slot per view node");
        View {
            skel: SkelRef::Flat(skel),
            binding: Binding::Borrowed { proof, members },
        }
    }

    /// The underlying skeleton as a flat view, whichever way it is held.
    #[inline]
    fn skeleton(&self) -> SkelView<'_, N, E> {
        match &self.skel {
            SkelRef::Shared(arc) => arc.as_view(),
            SkelRef::Flat(sv) => *sv,
        }
    }

    /// Assembles a view from raw parts — the constructor used by the
    /// message-passing simulator in `lcp-sim`, which must build the view
    /// from knowledge a node gathered over `radius` communication rounds.
    ///
    /// All vectors are indexed by view-node index; `adj` lists must be
    /// sorted and symmetric, and `edge_data` keys normalized. Library
    /// users normally want [`View::extract`] instead.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree, the centre is out of range, adjacency
    /// is unsorted/asymmetric, or a distance exceeds `radius`.
    pub fn from_parts(
        center: usize,
        radius: usize,
        ids: Vec<NodeId>,
        adj: Vec<Vec<usize>>,
        dist: Vec<usize>,
        node_data: Vec<N>,
        edge_data: EdgeMap<E>,
        proofs: Vec<BitString>,
    ) -> Self {
        let n = ids.len();
        assert!(center < n, "centre out of range");
        assert_eq!(adj.len(), n, "adjacency length mismatch");
        assert_eq!(dist.len(), n, "distance length mismatch");
        assert_eq!(node_data.len(), n, "node data length mismatch");
        assert_eq!(proofs.len(), n, "proof length mismatch");
        assert_eq!(dist[center], 0, "centre must be at distance 0");
        for (u, list) in adj.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "adjacency unsorted");
            for &w in list {
                assert!(w < n, "adjacency index out of range");
                assert!(adj[w].binary_search(&u).is_ok(), "adjacency asymmetric");
            }
        }
        for d in &dist {
            assert!(*d <= radius, "distance beyond radius");
        }
        for &(u, w) in edge_data.keys() {
            assert!(
                u <= w && adj[u].binary_search(&w).is_ok(),
                "edge label off-edge"
            );
        }
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        let mut flat = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        for list in &adj {
            flat.extend_from_slice(list);
            adj_off.push(flat.len() as u32);
        }
        View {
            skel: SkelRef::Shared(Arc::new(Skeleton {
                center,
                radius,
                ids,
                adj_off,
                adj: flat,
                dist: dist.into_iter().map(|d| d as u32).collect(),
                node_data,
                edge_keys: edge_data.keys().map(|&(u, w)| edge_key(u, w)).collect(),
                edge_labels: edge_data.into_values().collect(),
            })),
            binding: Binding::Owned(Proof::from_strings(proofs)),
        }
    }

    /// The centre's index *within the view*.
    pub fn center(&self) -> usize {
        self.skeleton().center
    }

    /// The extraction radius `r`.
    pub fn radius(&self) -> usize {
        self.skeleton().radius
    }

    /// Number of nodes in the view.
    pub fn n(&self) -> usize {
        self.skeleton().n()
    }

    /// Identifier of view node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn id(&self, u: usize) -> NodeId {
        self.skeleton().ids[u]
    }

    /// All identifiers in view-index order.
    pub fn ids(&self) -> &[NodeId] {
        self.skeleton().ids
    }

    /// View index of the node with identifier `id`, if visible.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.skeleton().ids.iter().position(|&x| x == id)
    }

    /// Distance from the centre (in the original graph, ≤ radius).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn dist(&self, u: usize) -> usize {
        self.skeleton().dist[u] as usize
    }

    /// Sorted neighbours of `u` within the view.
    ///
    /// Note: for `u` at distance exactly `r` this can be a strict subset
    /// of its true neighbourhood — exactly as in the paper's `G[v,r]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        self.skeleton().neighbors(u)
    }

    /// Degree of `u` within the view.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors(u).len()
    }

    /// Whether `{u, w}` is an edge of the view.
    pub fn has_edge(&self, u: usize, w: usize) -> bool {
        u < self.n() && w < self.n() && self.neighbors(u).binary_search(&w).is_ok()
    }

    /// Iterates over view node indices.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.n()
    }

    /// All view edges as normalized pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in self.nodes() {
            for &w in self.neighbors(u) {
                if u < w {
                    out.push((u, w));
                }
            }
        }
        out
    }

    /// The node label of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_label(&self, u: usize) -> &N {
        &self.skeleton().node_data[u]
    }

    /// The edge label of `{u, w}` within the view, if present.
    pub fn edge_label(&self, u: usize, w: usize) -> Option<&E> {
        let (u, w) = norm_edge(u, w);
        if w >= self.n() {
            return None;
        }
        let skel = self.skeleton();
        let i = skel.edge_keys.binary_search(&edge_key(u, w)).ok()?;
        Some(&skel.edge_labels[i])
    }

    /// The proof string of `u` (the restriction `P[v,r]`), as a borrowed
    /// word-packed slice.
    ///
    /// Borrowed bindings read the bound proof's *current* bits — no copy
    /// ever happened, so this is always fresh.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline(always)]
    pub fn proof(&self, u: usize) -> ProofRef<'_> {
        match &self.binding {
            Binding::Owned(proof) => proof.get(u),
            Binding::Borrowed { proof, members, .. } => proof.get(members[u] as usize),
        }
    }

    /// The proof of `u` decoded as a `C` — `C::decode(self.proof(u))`.
    ///
    /// Views bound to a whole proof ([`crate::engine::PreparedInstance::bind`],
    /// [`crate::CoreBuilder::bind`] and the sweeps) read it from the
    /// proof's label column, which decodes each node once until its bits
    /// are rewritten; views that own their bits ([`View::extract`],
    /// [`View::from_parts`]) decode on each call.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn label<C: Label>(&self, u: usize) -> Option<C> {
        match &self.binding {
            Binding::Owned(proof) => C::decode(proof.get(u)),
            Binding::Borrowed { proof, members } => proof.label(members[u] as usize),
        }
    }

    /// Restricts the view to a smaller radius `r' ≤ r`, producing the
    /// view `(G[v,r'], P[v,r'], v)` a shorter-horizon verifier would see.
    ///
    /// Used by scheme *combinators* — e.g. the §7.3 complement adapter
    /// simulates an inner radius-`r'` verifier at the root of its
    /// spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if `new_radius` exceeds the current radius.
    pub fn restrict(&self, new_radius: usize) -> Self
    where
        N: Clone,
        E: Clone,
    {
        assert!(
            new_radius <= self.radius(),
            "cannot widen a view ({new_radius} > {})",
            self.radius()
        );
        let keep: Vec<usize> = self
            .nodes()
            .filter(|&u| self.dist(u) <= new_radius)
            .collect();
        let mut old_to_new = vec![usize::MAX; self.n()];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old] = new;
        }
        let mut adj_off = vec![0u32];
        let mut adj = Vec::new();
        let mut edge_keys = Vec::new();
        let mut edge_labels = Vec::new();
        for (nu, &ou) in keep.iter().enumerate() {
            for &ow in self.neighbors(ou) {
                let nw = old_to_new[ow];
                if nw == usize::MAX {
                    continue;
                }
                adj.push(nw);
                if nu < nw {
                    if let Some(l) = self.edge_label(ou, ow) {
                        edge_keys.push(edge_key(nu, nw));
                        edge_labels.push(l.clone());
                    }
                }
            }
            let start = adj_off[nu] as usize;
            adj[start..].sort_unstable();
            adj_off.push(adj.len() as u32);
        }
        View {
            skel: SkelRef::Shared(Arc::new(Skeleton {
                center: old_to_new[self.center()],
                radius: new_radius,
                ids: keep.iter().map(|&u| self.skeleton().ids[u]).collect(),
                adj_off,
                adj,
                dist: keep.iter().map(|&u| self.skeleton().dist[u]).collect(),
                node_data: keep
                    .iter()
                    .map(|&u| self.skeleton().node_data[u].clone())
                    .collect(),
                edge_keys,
                edge_labels,
            })),
            binding: Binding::Owned(Proof::from_refs(keep.iter().map(|&u| self.proof(u)))),
        }
    }

    /// A copy of the view with every proof string blanked to `ε` — what an
    /// inner `LCP(0)` verifier must be shown (§7.3 simulates the inner
    /// verifier "with the empty proof").
    ///
    /// Cheap: the topology skeleton is shared, only the proof binding is
    /// replaced.
    pub fn with_proofs_cleared(&self) -> View<'_, N, E> {
        View {
            skel: SkelRef::Flat(self.skeleton()),
            binding: Binding::Owned(Proof::empty(self.n())),
        }
    }

    /// Materializes the view's topology as a standalone [`Graph`]
    /// (same identifiers), so graph algorithms can run on it.
    pub fn to_graph(&self) -> Graph {
        let mut g =
            Graph::from_ids(self.skeleton().ids.iter().copied()).expect("view ids are unique");
        for (u, w) in self.edges() {
            g.add_edge(u, w).expect("view is simple");
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_graph::generators;

    fn proof_of_ids(g: &Graph) -> Proof {
        Proof::from_fn(g.n(), |v| {
            let mut w = crate::bits::BitWriter::new();
            w.write_gamma(g.id(v).0);
            w.finish()
        })
    }

    #[test]
    fn radius_zero_view_is_lonely() {
        let g = generators::cycle(5);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &Proof::empty(5), 2, 0);
        assert_eq!(v.n(), 1);
        assert_eq!(v.center(), 0);
        assert_eq!(v.degree(0), 0);
        assert_eq!(v.id(0), NodeId(3));
    }

    #[test]
    fn radius_one_view_of_cycle() {
        let g = generators::cycle(6);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &Proof::empty(6), 0, 1);
        assert_eq!(v.n(), 3);
        assert_eq!(v.dist(v.center()), 0);
        // Centre sees both neighbours, which are not adjacent to each other.
        assert_eq!(v.degree(v.center()), 2);
        let others: Vec<usize> = v.nodes().filter(|&u| u != v.center()).collect();
        assert!(!v.has_edge(others[0], others[1]));
        // Boundary nodes have visible degree 1 (their far edges are hidden).
        assert_eq!(v.degree(others[0]), 1);
    }

    #[test]
    fn view_on_triangle_sees_closing_edge() {
        let g = generators::cycle(3);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &Proof::empty(3), 0, 1);
        assert_eq!(v.n(), 3);
        assert_eq!(v.edges().len(), 3, "induced view includes the far edge");
    }

    #[test]
    fn proofs_and_ids_restricted_consistently() {
        let g = generators::path(7);
        let p = proof_of_ids(&g);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &p, 3, 2);
        assert_eq!(v.n(), 5);
        for u in v.nodes() {
            let mut r = crate::bits::BitReader::new(v.proof(u));
            assert_eq!(r.read_gamma().unwrap(), v.id(u).0, "proof follows node");
        }
    }

    #[test]
    fn labels_travel_with_the_view() {
        let g = generators::path(4);
        let inst: Instance<u8> = Instance::with_node_data(g, vec![0u8, 1, 2, 3]);
        let v = View::extract(&inst, &Proof::empty(4), 1, 1);
        let idx2 = v.index_of(NodeId(3)).unwrap(); // node index 2 has id 3
        assert_eq!(*v.node_label(idx2), 2);
    }

    #[test]
    fn edge_labels_restricted_to_view() {
        let g = generators::path(5); // 0-1-2-3-4
        let inst = Instance::unlabeled(g).with_edge_set([(0, 1), (3, 4)]);
        let v = View::extract(&inst, &Proof::empty(5), 1, 1);
        // View holds nodes 0,1,2; edge (0,1) labelled, (3,4) invisible.
        let i0 = v.index_of(NodeId(1)).unwrap();
        let i1 = v.index_of(NodeId(2)).unwrap();
        assert!(v.edge_label(i0, i1).is_some());
        assert_eq!(v.n(), 3);
    }

    #[test]
    fn distances_match_original_graph() {
        let g = generators::grid(3, 3);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &Proof::empty(9), 4, 2);
        assert_eq!(v.n(), 9);
        for u in v.nodes() {
            assert!(v.dist(u) <= 2);
        }
        assert_eq!(v.dist(v.center()), 0);
    }

    #[test]
    fn to_graph_matches_view_topology() {
        let g = generators::complete(4);
        let inst = Instance::unlabeled(g);
        let v = View::extract(&inst, &Proof::empty(4), 0, 1);
        let h = v.to_graph();
        assert_eq!(h.n(), 4);
        assert_eq!(h.m(), 6);
    }

    #[test]
    fn extract_matches_bfs_ball_and_distances() {
        let g = generators::grid(4, 4);
        let inst = Instance::unlabeled(g);
        for v in 0..inst.n() {
            for r in 0..4 {
                let view = View::extract(&inst, &Proof::empty(16), v, r);
                let ball = lcp_graph::traversal::ball(inst.graph(), v, r);
                let members: Vec<usize> = view
                    .ids()
                    .iter()
                    .map(|&id| inst.graph().index_of(id).unwrap())
                    .collect();
                assert_eq!(members, ball, "ball mismatch at v={v} r={r}");
                let dists = lcp_graph::traversal::bfs_distances(inst.graph(), v);
                for (local, &global) in members.iter().enumerate() {
                    assert_eq!(Some(view.dist(local)), dists[global]);
                }
            }
        }
    }

    #[test]
    fn cleared_proofs_share_the_skeleton() {
        let g = generators::cycle(6);
        let inst = Instance::unlabeled(g);
        let p = proof_of_ids(inst.graph());
        let v = View::extract(&inst, &p, 0, 2);
        let cleared = v.with_proofs_cleared();
        assert!(
            std::ptr::eq(v.skeleton().ids.as_ptr(), cleared.skeleton().ids.as_ptr()),
            "skeleton storage is shared"
        );
        assert!(cleared.nodes().all(|u| cleared.proof(u).is_empty()));
        assert!(v.nodes().any(|u| !v.proof(u).is_empty()), "original intact");
    }
}
