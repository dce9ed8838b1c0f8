//! Batched candidate evaluation under the search loops: up to 64
//! candidate proofs per word op.
//!
//! The exhaustive odometer and the adversarial bit-flip search of
//! [`crate::harness`] are the throughput ceiling of every soundness
//! sweep, and both spend their time on candidates that differ from a
//! predecessor at a single node. This module amortizes that work across
//! *blocks* of up to 64 candidates at once, on two complementary paths:
//!
//! * **Block odometer** (any scheme): the odometer's low `k` digit
//!   positions (chosen so `R^k ≤ 64`, `R` = strings per node) are
//!   enumerated as one 64-lane block. Each verifier that can see a low
//!   node gets a lazily-filled table of *block masks* — one `u64` whose
//!   bit `c` is the verifier's output on in-block candidate `c` — keyed
//!   by the mixed-radix signature of its high (block-invariant)
//!   members. A block is then decided by ANDing a handful of masks; the
//!   first violating candidate, if any, is `acc.trailing_zeros()`.
//!   Filling a mask costs exactly the scalar memo's `R^|ball|` verifier
//!   calls per owner (outputs are replicated over the low digits the
//!   owner cannot see, via a precomputed spread pattern), so batching
//!   never runs *more* verifiers than the scalar path — it removes the
//!   per-candidate loop overhead between them.
//! * **Bit-sliced kernels** (schemes with [`Scheme::supports_batch`]):
//!   candidates live transposed in a [`BatchArena`] — one `u64` holds
//!   the same proof-bit position of 64 candidates — and the scheme's
//!   [`Scheme::verify_batch`] folds lane words into an accept mask
//!   directly. The block odometer uses kernels to fill whole mask
//!   tables in one call, and the adversarial search uses them to score
//!   up to 64 pending bit-flips per evaluation sweep.
//!
//! **Determinism contract**: batching may never change a verdict, a
//! witness, or an RNG stream. The block odometer reproduces the scalar
//! enumeration order exactly (same first violating proof, same `tried`
//! counts, same [`CHECK_INTERVAL`] deadline grid); the batched
//! adversarial search pre-draws each chunk's random choices in stream
//! order, falls back to scalar re-scoring for any lane staled by an
//! earlier in-chunk commit, and rewinds the RNG on early exit so the
//! stream position matches the scalar loop bit for bit. The
//! `batch_equivalence` property tests pin both.
//!
//! Routing: [`BatchPolicy::Auto`] (the default everywhere) uses the
//! batched paths whenever the search shape fits (`2 ≤ R ≤ 64`, table
//! budget, and — for the adversarial path — a kernel scheme with an
//! unbounded deadline); everything else takes the unchanged scalar
//! loops. [`BatchPolicy::Scalar`] forces the scalar loops
//! unconditionally — they are the oracle the equivalence tests compare
//! against.

use crate::arena::BatchArena;
use crate::bits::{AsBits, BitString};
use crate::deadline::{Deadline, CHECK_INTERVAL};
use crate::engine::PreparedInstance;
use crate::harness::{random_proof, refill_random, OutputMemo, Soundness, SoundnessError};
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::Scheme;
use crate::view::SkelView;
use lcp_graph::{norm_edge, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// Whether the search loops may route through the batched layer.
///
/// `Auto` is the default everywhere; the scalar loops remain reachable
/// per call via `Scalar` (a [`crate::harness::Run`] field), which is how
/// the `batch_equivalence` tests reach their oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Use the batched paths when applicable; identical results either
    /// way.
    #[default]
    Auto,
    /// Force the scalar loops.
    Scalar,
}

/// Whether `policy` routes through the batched layer.
pub(crate) fn enabled(policy: BatchPolicy) -> bool {
    policy == BatchPolicy::Auto
}

/// A [`crate::View`] over 64 candidate proofs at once: the same cached
/// skeleton (topology, identifiers, labels), with proof bits read
/// lane-parallel from a [`BatchArena`] instead of one
/// [`crate::ProofArena`].
///
/// Handed to [`Scheme::verify_batch`] kernels by the batched search
/// loops and by
/// [`PreparedInstance::bind_batch`](crate::engine::PreparedInstance::bind_batch).
/// Topology accessors mirror [`crate::View`]; proof accessors return
/// 64-lane words (bit `i` — candidate `i`).
#[derive(Debug)]
pub struct BatchView<'a, N = (), E = ()> {
    skel: SkelView<'a, N, E>,
    arena: &'a BatchArena,
    members: &'a [u32],
}

// Manual Copy/Clone: the derives would demand `N: Copy`/`E: Copy`, but
// the fields are slices, copyable for any label type.
impl<N, E> Clone for BatchView<'_, N, E> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<N, E> Copy for BatchView<'_, N, E> {}

impl<'a, N, E> BatchView<'a, N, E> {
    /// Assembles a batch view from a cached flat skeleton and the
    /// transposed arena — the batched analogue of `View::bind_arena`.
    pub(crate) fn bind(
        skel: SkelView<'a, N, E>,
        arena: &'a BatchArena,
        members: &'a [u32],
    ) -> Self {
        debug_assert_eq!(skel.n(), members.len(), "one arena slot per view node");
        BatchView {
            skel,
            arena,
            members,
        }
    }

    /// The centre's index *within the view*.
    pub fn center(&self) -> usize {
        self.skel.center
    }

    /// The extraction radius `r`.
    pub fn radius(&self) -> usize {
        self.skel.radius
    }

    /// Number of nodes in the view.
    pub fn n(&self) -> usize {
        self.skel.n()
    }

    /// Iterates over view node indices.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.n()
    }

    /// Identifier of view node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn id(&self, u: usize) -> NodeId {
        self.skel.ids[u]
    }

    /// All identifiers in view-index order.
    pub fn ids(&self) -> &[NodeId] {
        self.skel.ids
    }

    /// View index of the node with identifier `id`, if visible.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.skel.ids.iter().position(|&x| x == id)
    }

    /// Distance from the centre (in the original graph, ≤ radius).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn dist(&self, u: usize) -> usize {
        self.skel.dist[u] as usize
    }

    /// Sorted neighbours of `u` within the view.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        self.skel.neighbors(u)
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

    /// The node label of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_label(&self, u: usize) -> &N {
        &self.skel.node_data[u]
    }

    /// The edge label of `{u, w}` within the view, if present.
    pub fn edge_label(&self, u: usize, w: usize) -> Option<&E> {
        let key = norm_edge(u, w);
        self.skel
            .edge_labels
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.skel.edge_labels[i].1)
    }

    /// Mask of the lanes carrying real candidates; kernel outputs
    /// outside it are ignored by callers.
    pub fn active(&self) -> u64 {
        self.arena.active()
    }

    /// Reserved proof bits per node per lane.
    pub fn cap(&self) -> usize {
        self.arena.cap()
    }

    /// Lane word of view node `u`'s proof bit `j`: bit `i` is candidate
    /// `i`'s bit (0 past that candidate's string length).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `j` is out of range.
    #[inline(always)]
    pub fn bit(&self, u: usize, j: usize) -> u64 {
        self.arena.bit(self.members[u] as usize, j)
    }

    /// Lanes whose proof string at view node `u` is longer than `j`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `j` is out of range.
    #[inline(always)]
    pub fn has_bit(&self, u: usize, j: usize) -> u64 {
        self.arena.has_bit(self.members[u] as usize, j)
    }

    /// Lanes whose proof string at view node `u` has exactly `len`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `len` exceeds the capacity.
    pub fn len_eq(&self, u: usize, len: usize) -> u64 {
        self.arena.len_eq(self.members[u] as usize, len)
    }

    /// Lanes where the proof strings at view nodes `u` and `w` differ
    /// (content or length) — AVX2-accelerated where available.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `w` is out of range.
    pub fn ne(&self, u: usize, w: usize) -> u64 {
        self.arena
            .ne(self.members[u] as usize, self.members[w] as usize)
    }
}

/// Byte budget for the per-owner block-mask tables, mirroring the
/// scalar memo's cap; shapes that outgrow it fall back to the scalar
/// odometer.
const TABLE_BYTE_CAP: usize = 1 << 22;

/// The smallest deadline-poll grid point the scalar odometer would hit
/// strictly after candidate `base` and within the next `block`
/// candidates — i.e. the unique multiple of [`CHECK_INTERVAL`] in
/// `(base, base + block]` (there is at most one: `block ≤ 64`).
fn first_poll_in(base: u64, block: u64) -> Option<u64> {
    let m = (base / CHECK_INTERVAL + 1) * CHECK_INTERVAL;
    (m <= base + block).then_some(m)
}

/// The batched exhaustive odometer. Returns `None` when the search
/// shape does not fit the block layout (caller falls back to the scalar
/// loop); otherwise the result is exactly what the scalar loop would
/// produce.
///
/// The caller has already asserted the no-instance, rejected oversized
/// spaces, handled `n == 0`, and built `strings` (shortest first).
pub(crate) fn exhaustive<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    max_bits: usize,
    strings: &[BitString],
    deadline: &Deadline,
) -> Option<Result<Soundness, SoundnessError>> {
    let n = prep.n();
    let r = strings.len();
    if !(2..=64).contains(&r) || n == 0 {
        return None;
    }
    // Split the odometer: the low k digit positions (r^k ≤ 64) form one
    // lane block; positions k..n stay a conventional high odometer.
    let mut k = 0usize;
    let mut block = 1usize;
    while k < n && block * r <= 64 {
        block *= r;
        k += 1;
    }
    let block_u64 = block as u64;
    let active: u64 = if block == 64 { !0 } else { (1u64 << block) - 1 };
    // In-block digit weights: candidate offset c has digit (c / r^p) % r
    // at low position p.
    let mut r_pow = vec![1usize; k];
    for p in 1..k {
        r_pow[p] = r_pow[p - 1] * r;
    }

    // Owners that can see a low node get mask tables; the rest are
    // block-invariant and tracked by a plain rejecting counter.
    let mut is_low_owner = vec![false; n];
    let mut low_owners: Vec<u32> = Vec::new();
    for w in 0..n {
        if prep.members_of(w).iter().any(|&m| (m as usize) < k) {
            is_low_owner[w] = true;
            low_owners.push(w as u32);
        }
    }
    // Flattened low/high member partitions per low owner, that owner's
    // table region, and its spread pattern (bits whose digits at the
    // owner's own low members are all 0 — the offsets over which one
    // verifier output replicates).
    let mut low_mem: Vec<u32> = Vec::new();
    let mut low_mem_off = vec![0usize];
    let mut high_mem: Vec<u32> = Vec::new();
    let mut high_mem_off = vec![0usize];
    let mut tbl_off = vec![0usize];
    let mut pattern: Vec<u64> = Vec::new();
    for &w in &low_owners {
        let mut tbl = 1usize;
        for &m in prep.members_of(w as usize) {
            if (m as usize) < k {
                low_mem.push(m);
            } else {
                high_mem.push(m);
                tbl = tbl.checked_mul(r)?;
            }
        }
        low_mem_off.push(low_mem.len());
        high_mem_off.push(high_mem.len());
        let total = tbl_off.last().unwrap().checked_add(tbl)?;
        if total > TABLE_BYTE_CAP / 8 {
            return None;
        }
        tbl_off.push(total);
        let own = &low_mem[low_mem_off[low_mem_off.len() - 2]..];
        let mut p = 0u64;
        'c: for c in 0..block {
            for &m in own {
                if !(c / r_pow[m as usize]).is_multiple_of(r) {
                    continue 'c;
                }
            }
            p |= 1u64 << c;
        }
        pattern.push(p);
    }
    let mut tables = vec![0u64; *tbl_off.last().unwrap()];
    let mut filled = vec![0u64; tables.len().div_ceil(64)];

    // High owners reuse the scalar loop's verifier-output memo (their
    // signatures range over high members only; low owners get size-0
    // entries that are never consulted).
    let mut memo = OutputMemo::try_new(
        (0..n).map(|v| {
            if is_low_owner[v] {
                0
            } else {
                prep.members_of(v).len()
            }
        }),
        r,
    );
    let mut proof = Proof::with_capacity(n, max_bits);
    let mut indices = vec![0usize; n];
    // Metric accumulators (`Cell`s shared by the closures below): the
    // block loop touches plain locals only, flushed once at each exit.
    let memo_hits = std::cell::Cell::new(0u64);
    let memo_misses = std::cell::Cell::new(0u64);
    let verifies = std::cell::Cell::new(0u64);
    let kernel_fills = std::cell::Cell::new(0u64);
    let scalar_fills = std::cell::Cell::new(0u64);
    let flush = |tried: u64| {
        metrics::EXHAUSTIVE_CANDIDATES.add(tried);
        metrics::BINDS.add(verifies.get());
        metrics::MEMO_HITS.add(memo_hits.get());
        metrics::MEMO_MISSES.add(memo_misses.get());
        metrics::MASK_FILLS_KERNEL.add(kernel_fills.get());
        metrics::MASK_FILLS_SCALAR.add(scalar_fills.get());
    };
    let check_high =
        |owner: usize, proof: &Proof, indices: &[usize], memo: &mut Option<OutputMemo>| -> bool {
            if let Some(m) = memo {
                let slot = m.slot(owner, prep.members_of(owner), indices);
                match m.table[slot] {
                    0 => {
                        let now = scheme.verify(&prep.bind(owner, proof));
                        m.table[slot] = 1 + now as u8;
                        memo_misses.set(memo_misses.get() + 1);
                        verifies.set(verifies.get() + 1);
                        now
                    }
                    cached => {
                        memo_hits.set(memo_hits.get() + 1);
                        cached == 2
                    }
                }
            } else {
                verifies.set(verifies.get() + 1);
                scheme.verify(&prep.bind(owner, proof))
            }
        };
    let mut high_out = vec![true; n];
    let mut reject_high = 0usize;
    for w in 0..n {
        if !is_low_owner[w] {
            let out = check_high(w, &proof, &indices, &mut memo);
            high_out[w] = out;
            if !out {
                reject_high += 1;
            }
        }
    }

    // Kernel schemes fill mask tables with one verify_batch call over a
    // transposed arena whose low-node lanes are seeded once, here: lane
    // c's string at low node p is strings[(c / r^p) % r] for the whole
    // enumeration.
    let mut arena = if scheme.supports_batch() {
        let mut a = BatchArena::new(n, max_bits);
        a.set_lanes(block);
        for p in 0..k {
            for c in 0..block {
                a.set_lane(c, p, strings[c / r_pow[p] % r].as_bits());
            }
        }
        Some(a)
    } else {
        None
    };

    // Block loop: `base` counts candidates fully enumerated before this
    // block, so in-block offset c is scalar candidate `base + 1 + c`.
    let mut base = 0u64;
    loop {
        if reject_high == 0 {
            let mut acc = active;
            for (li, &w) in low_owners.iter().enumerate() {
                let w = w as usize;
                let mut sig = 0usize;
                for &m in &high_mem[high_mem_off[li]..high_mem_off[li + 1]] {
                    sig = sig * r + indices[m as usize];
                }
                let slot = tbl_off[li] + sig;
                if filled[slot >> 6] & (1 << (slot & 63)) == 0 {
                    let mask = if let Some(a) = arena.as_mut() {
                        for &m in &high_mem[high_mem_off[li]..high_mem_off[li + 1]] {
                            a.broadcast(m as usize, strings[indices[m as usize]].as_bits());
                        }
                        kernel_fills.set(kernel_fills.get() + 1);
                        verifies.set(verifies.get() + 1);
                        scheme.verify_batch(&BatchView::bind(
                            prep.skel_view_of(w),
                            a,
                            prep.members_of(w),
                        )) & active
                    } else {
                        // Verify only the r^|own| combinations of the
                        // owner's own low digits; each output spreads
                        // over the digits the owner cannot see.
                        let own = &low_mem[low_mem_off[li]..low_mem_off[li + 1]];
                        let combos: usize = own.iter().fold(1, |a, _| a * r);
                        let mut mask = 0u64;
                        for combo in 0..combos {
                            let mut rem = combo;
                            let mut offset = 0usize;
                            for &p in own {
                                let d = rem % r;
                                rem /= r;
                                proof.set(p as usize, &strings[d]);
                                offset += d * r_pow[p as usize];
                            }
                            if scheme.verify(&prep.bind(w, &proof)) {
                                mask |= pattern[li] << offset;
                            }
                        }
                        scalar_fills.set(scalar_fills.get() + 1);
                        verifies.set(verifies.get() + combos as u64);
                        mask
                    };
                    tables[slot] = mask;
                    filled[slot >> 6] |= 1 << (slot & 63);
                }
                acc &= tables[slot];
                if acc == 0 {
                    break;
                }
            }
            if acc != 0 {
                // First violating candidate of the block — unless the
                // scalar loop's deadline poll grid fires strictly
                // before it.
                let c = acc.trailing_zeros() as u64;
                let t = base + 1 + c;
                if !deadline.is_unbounded() {
                    if let Some(m) = first_poll_in(base, block_u64) {
                        if m < t && deadline.expired() {
                            flush(m);
                            return Some(Err(SoundnessError::DeadlineExpired { tried: m }));
                        }
                    }
                }
                let mut rem = c as usize;
                for p in 0..k {
                    proof.set(p, &strings[rem % r]);
                    rem /= r;
                }
                flush(t);
                return Some(Ok(Soundness::Violated(proof)));
            }
        }
        if !deadline.is_unbounded() {
            if let Some(m) = first_poll_in(base, block_u64) {
                if deadline.expired() {
                    flush(m);
                    return Some(Err(SoundnessError::DeadlineExpired { tried: m }));
                }
            }
        }
        base += block_u64;
        // Advance the high odometer by one; overflow means the whole
        // space was enumerated.
        let mut pos = k;
        loop {
            if pos == n {
                flush(base);
                return Some(Ok(Soundness::Holds(base)));
            }
            indices[pos] += 1;
            let rolled = indices[pos] == r;
            if rolled {
                indices[pos] = 0;
            }
            proof.set(pos, &strings[indices[pos]]);
            for owner in prep.dependents(pos) {
                if is_low_owner[owner] {
                    continue;
                }
                let now = check_high(owner, &proof, &indices, &mut memo);
                match (high_out[owner], now) {
                    (true, false) => reject_high += 1,
                    (false, true) => reject_high -= 1,
                    _ => {}
                }
                high_out[owner] = now;
            }
            if !rolled {
                break;
            }
            pos += 1;
        }
    }
}

/// The batched adversarial bit-flip search. Returns `None` when the
/// shape does not fit (no kernel, zero size budget, bounded deadline) —
/// the caller falls back to the scalar loop — and `Some(result)`
/// otherwise, where `result` is bit-for-bit what the scalar loop would
/// return, including the RNG stream position on every exit path.
///
/// The caller has already asserted the no-instance and handled
/// `n == 0`.
pub(crate) fn adversarial<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    size_budget: usize,
    iterations: usize,
    rng: &mut StdRng,
    deadline: &Deadline,
) -> Option<Option<Proof>> {
    // A bounded deadline polls wall time every 256 iterations; chunked
    // evaluation would change *when* the poll happens, so those runs
    // stay scalar. With size_budget ≥ 1 every node's string stays at
    // exactly size_budget bits, which makes the scalar loop's draw
    // schedule state-independent — the property the pre-draw below
    // relies on.
    if !scheme.supports_batch() || size_budget == 0 || !deadline.is_unbounded() {
        return None;
    }
    let n = prep.n();
    let mut proof = random_proof(n, size_budget, rng);
    let mut outputs: Vec<bool> = (0..n)
        .map(|v| scheme.verify(&prep.bind(v, &proof)))
        .collect();
    let mut score = outputs.iter().filter(|&&b| b).count();

    let mut arena = BatchArena::new(n, size_budget);
    for v in 0..n {
        arena.broadcast(v, proof.get(v));
    }
    // Scratch preallocated once; the chunk loop allocates nothing.
    let mut draws_v: Vec<usize> = Vec::with_capacity(64);
    let mut draws_idx: Vec<usize> = Vec::with_capacity(64);
    let mut owner_mask = vec![0u64; n];
    let mut owner_in_chunk = vec![false; n];
    let mut owner_list: Vec<u32> = Vec::with_capacity(n);
    let mut dirty_owner = vec![false; n];
    let mut committed: Vec<u32> = Vec::with_capacity(64);
    let mut touched: Vec<(usize, bool)> = Vec::with_capacity(n);

    // Verifier work (scalar verifies + kernel sweeps), accumulated
    // locally and flushed with the step count only when the search exits.
    let mut verifies = n as u64;
    let mut iter = 0usize;
    while iter < iterations {
        if score == n {
            metrics::ADVERSARIAL_STEPS.add(iter as u64);
            metrics::BINDS.add(verifies);
            return Some(Some(proof));
        }
        if iter % 200 == 199 {
            // Restart, exactly as the scalar loop draws it; the whole
            // incumbent changed, so re-broadcast every node.
            refill_random(&mut proof, size_budget, rng);
            for (v, out) in outputs.iter_mut().enumerate() {
                *out = scheme.verify(&prep.bind(v, &proof));
            }
            verifies += n as u64;
            score = outputs.iter().filter(|&&b| b).count();
            for v in 0..n {
                arena.broadcast(v, proof.get(v));
            }
            committed.clear();
            iter += 1;
            continue;
        }
        // One chunk: up to 64 consecutive flip iterations, stopping
        // before the next restart boundary.
        let next_restart = iter + (199 - iter % 200);
        let chunk_end = iterations.min(next_restart).min(iter + 64);
        let m = chunk_end - iter;
        let checkpoint = rng.clone();
        draws_v.clear();
        draws_idx.clear();
        for _ in 0..m {
            // Same calls, same order, as the scalar loop's iterations
            // (node lengths are pinned at size_budget, see above).
            draws_v.push(rng.random_range(0..n));
            draws_idx.push(rng.random_range(0..size_budget));
        }
        // Bring lanes up to the incumbent (only nodes committed by the
        // previous chunk differ), then give lane j its pending flip.
        for &v in &committed {
            arena.broadcast(v as usize, proof.get(v as usize));
        }
        committed.clear();
        arena.set_lanes(m);
        for j in 0..m {
            arena.flip(j, draws_v[j], draws_idx[j]);
        }
        // Evaluate every owner any pending flip can reach, once.
        owner_list.clear();
        for j in 0..m {
            for owner in prep.dependents(draws_v[j]) {
                if !owner_in_chunk[owner] {
                    owner_in_chunk[owner] = true;
                    owner_list.push(owner as u32);
                }
            }
        }
        for &w in &owner_list {
            owner_mask[w as usize] = scheme.verify_batch(&prep.bind_batch(w as usize, &arena));
        }
        verifies += owner_list.len() as u64;
        // Sequential commit walk, preserving the scalar loop's
        // hill-climbing semantics. A lane whose owners were touched by
        // an earlier in-chunk commit is stale — its precomputed mask
        // bits assumed the chunk-start incumbent — and re-scores
        // through the scalar path instead.
        let mut exit_at: Option<usize> = None;
        for j in 0..m {
            let v = draws_v[j];
            let idx = draws_idx[j];
            let stale = prep.dependents(v).any(|w| dirty_owner[w]);
            let mut new_score = score;
            if stale {
                proof.flip(v, idx);
                touched.clear();
                for owner in prep.dependents(v) {
                    let now = scheme.verify(&prep.bind(owner, &proof));
                    match (outputs[owner], now) {
                        (true, false) => new_score -= 1,
                        (false, true) => new_score += 1,
                        _ => {}
                    }
                    touched.push((owner, now));
                }
                verifies += touched.len() as u64;
                if new_score >= score {
                    for &(owner, out) in &touched {
                        outputs[owner] = out;
                        dirty_owner[owner] = true;
                    }
                    score = new_score;
                    committed.push(v as u32);
                } else {
                    proof.flip(v, idx);
                }
            } else {
                for owner in prep.dependents(v) {
                    let now = owner_mask[owner] >> j & 1 == 1;
                    match (outputs[owner], now) {
                        (true, false) => new_score -= 1,
                        (false, true) => new_score += 1,
                        _ => {}
                    }
                }
                if new_score >= score {
                    proof.flip(v, idx);
                    for owner in prep.dependents(v) {
                        outputs[owner] = owner_mask[owner] >> j & 1 == 1;
                        dirty_owner[owner] = true;
                    }
                    score = new_score;
                    committed.push(v as u32);
                }
            }
            if score == n && j + 1 < m {
                exit_at = Some(j);
                break;
            }
        }
        if let Some(j) = exit_at {
            // The scalar loop would have exited at the top of iteration
            // iter + j + 1, having drawn only iterations iter..=iter+j:
            // rewind and replay that prefix so the stream position
            // matches exactly.
            *rng = checkpoint;
            for _ in 0..=j {
                let _ = rng.random_range(0..n);
                let _ = rng.random_range(0..size_budget);
            }
            metrics::ADVERSARIAL_STEPS.add((iter + j + 1) as u64);
            metrics::BINDS.add(verifies);
            return Some(Some(proof));
        }
        // Un-flip the lanes (XOR is its own inverse): the arena is back
        // at the chunk-start incumbent; nodes in `committed` are
        // re-broadcast at the next chunk.
        for j in 0..m {
            arena.flip(j, draws_v[j], draws_idx[j]);
        }
        for &w in &owner_list {
            owner_in_chunk[w as usize] = false;
            dirty_owner[w as usize] = false;
        }
        iter = chunk_end;
    }
    metrics::ADVERSARIAL_STEPS.add(iterations as u64);
    metrics::BINDS.add(verifies);
    Some((score == n).then_some(proof))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::prepare;
    use crate::harness::{
        adversarial_proof_search, all_bitstrings_up_to, check_soundness_exhaustive, Run,
    };
    use crate::instance::Instance;
    use crate::view::View;
    use lcp_graph::generators;
    use rand::SeedableRng;

    /// The 1-bit bipartiteness scheme with a bit-sliced kernel.
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
        fn supports_batch(&self) -> bool {
            true
        }
        fn verify_batch(&self, view: &BatchView) -> u64 {
            let c = view.center();
            let mut acc = view.has_bit(c, 0);
            for &u in view.neighbors(c) {
                acc &= view.has_bit(u, 0) & (view.bit(c, 0) ^ view.bit(u, 0));
            }
            acc
        }
    }

    /// Kernel-free unsound scheme: accepts iff every visible first bit
    /// is 1 (the violating all-"1" proof is last in odometer order).
    struct GulliblePath;
    impl Scheme for GulliblePath {
        type Node = ();
        type Edge = ();
        fn name(&self) -> String {
            "gullible-path".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn holds(&self, _: &Instance) -> bool {
            false
        }
        fn prove(&self, _: &Instance) -> Option<Proof> {
            None
        }
        fn verify(&self, view: &View) -> bool {
            view.nodes().all(|u| view.proof(u).first() == Some(true))
        }
    }

    fn run_both<S: Scheme>(
        scheme: &S,
        inst: &Instance<S::Node, S::Edge>,
        max_bits: usize,
    ) -> (
        Result<Soundness, SoundnessError>,
        Result<Soundness, SoundnessError>,
    )
    where
        S::Node: Clone + Send + Sync,
        S::Edge: Clone + Send + Sync,
    {
        let prep = prepare(scheme, inst);
        let run = |policy| {
            let run = Run {
                policy,
                ..Run::default()
            };
            check_soundness_exhaustive(scheme, &prep, max_bits, &run)
        };
        (run(BatchPolicy::Auto), run(BatchPolicy::Scalar))
    }

    #[test]
    fn block_odometer_agrees_on_holds_counts() {
        let inst = Instance::unlabeled(generators::cycle(5));
        let (auto, scalar) = run_both(&Bipartite, &inst, 1);
        assert_eq!(auto, scalar);
        assert_eq!(auto.unwrap(), Soundness::Holds(3u64.pow(5)));
    }

    #[test]
    fn block_odometer_finds_the_same_first_violation() {
        let inst = Instance::unlabeled(generators::path(4));
        let (auto, scalar) = run_both(&GulliblePath, &inst, 1);
        assert_eq!(auto, scalar);
        assert!(matches!(auto, Ok(Soundness::Violated(_))));
    }

    #[test]
    fn block_odometer_handles_two_bit_strings() {
        // r = 7 strings per node: a block is 7^k ≤ 64 candidates.
        let inst = Instance::unlabeled(generators::cycle(5));
        let (auto, scalar) = run_both(&Bipartite, &inst, 2);
        assert_eq!(auto, scalar);
        assert_eq!(auto.unwrap(), Soundness::Holds(7u64.pow(5)));
    }

    #[test]
    fn block_odometer_reproduces_the_deadline_grid() {
        use std::time::Duration;
        // 3^9 = 19683 candidates; the scalar loop trips its first poll
        // at candidate CHECK_INTERVAL = 16384, and so must the batch.
        let inst = Instance::unlabeled(generators::path(9));
        let prep = prepare(&GulliblePath, &inst);
        for policy in [BatchPolicy::Auto, BatchPolicy::Scalar] {
            let expired = Run {
                deadline: Deadline::after(Duration::ZERO),
                policy,
            };
            let err = check_soundness_exhaustive(&GulliblePath, &prep, 1, &expired).unwrap_err();
            assert_eq!(
                err,
                SoundnessError::DeadlineExpired {
                    tried: CHECK_INTERVAL
                },
                "{policy:?}"
            );
        }
    }

    #[test]
    fn block_odometer_reports_violations_that_precede_the_poll() {
        use std::time::Duration;
        let inst = Instance::unlabeled(generators::path(4));
        let prep = prepare(&GulliblePath, &inst);
        let expired = Run {
            deadline: Deadline::after(Duration::ZERO),
            policy: BatchPolicy::Auto,
        };
        let got = check_soundness_exhaustive(&GulliblePath, &prep, 1, &expired).unwrap();
        assert!(matches!(got, Soundness::Violated(_)));
    }

    #[test]
    fn batched_adversarial_matches_scalar_stream_and_result() {
        // Bipartite has a kernel, so Auto takes the chunked path; the
        // incumbent, the result, and the RNG position must match the
        // scalar loop exactly.
        for n in [5usize, 6, 7] {
            let inst = Instance::unlabeled(generators::cycle(n));
            if lcp_graph::traversal::is_bipartite(inst.graph()) {
                continue;
            }
            let prep = prepare(&Bipartite, &inst);
            for seed in 0..4u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_s = StdRng::seed_from_u64(seed);
                let scalar = Run {
                    policy: BatchPolicy::Scalar,
                    ..Run::default()
                };
                let a = adversarial_proof_search(
                    &Bipartite,
                    &prep,
                    1,
                    450,
                    &mut rng_a,
                    &Run::default(),
                );
                let s = adversarial_proof_search(&Bipartite, &prep, 1, 450, &mut rng_s, &scalar);
                assert_eq!(a, s, "n={n} seed={seed}");
                assert_eq!(
                    rng_a.random_range(0..u32::MAX),
                    rng_s.random_range(0..u32::MAX),
                    "RNG stream diverged: n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn first_poll_grid_is_the_scalar_stride() {
        assert_eq!(first_poll_in(0, 64), None);
        assert_eq!(first_poll_in(CHECK_INTERVAL - 64, 64), Some(CHECK_INTERVAL));
        assert_eq!(first_poll_in(CHECK_INTERVAL - 1, 1), Some(CHECK_INTERVAL));
        assert_eq!(first_poll_in(CHECK_INTERVAL, 64), None);
        // The GulliblePath deadline test's geometry: base 16362, block
        // 27 covers candidates 16363..=16389 ∋ 16384.
        assert_eq!(first_poll_in(16_362, 27), Some(CHECK_INTERVAL));
    }

    #[test]
    fn oversized_string_tables_fall_back_to_scalar() {
        // r = 2^7 − 1 = 127 > 64 strings: exhaustive() must decline.
        let inst = Instance::unlabeled(generators::cycle(3));
        let prep = prepare(&GulliblePath, &inst);
        let strings = all_bitstrings_up_to(6).unwrap();
        assert!(exhaustive(&GulliblePath, &prep, 6, &strings, &Deadline::none()).is_none());
    }
}
