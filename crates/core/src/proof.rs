//! Proofs: per-node bit strings (§2.1), stored word-packed.
//!
//! The LCP hot paths — the exhaustive proof odometer, adversarial
//! bit-flip search, tamper probing — walk through millions of candidate
//! proofs that differ from their predecessor at a single node. Storing a
//! proof as `Vec<BitString>` (one heap allocation per node) makes every
//! candidate pay allocator traffic; a [`Proof`] instead packs every
//! node's bits into one shared `Vec<u64>` with per-node `(offset, len,
//! capacity)` slots, so
//!
//! * reading node `v`'s bits is a bounds-checked slice ([`Proof::get`]
//!   returns a borrowed [`ProofRef`], no copy);
//! * overwriting node `v` within its reserved capacity is a word-level
//!   copy ([`Proof::set`], zero allocations);
//! * flipping a single bit is one XOR ([`Proof::flip`]).
//!
//! Slots are word-aligned (offsets are in whole `u64`s), so every write
//! is a straight word copy; a slot whose new value outgrows its
//! capacity is relocated to the end of the pool, leaving its old words
//! as dead slack (bounded by the total volume of over-capacity writes).
//! Search loops preallocate capacity ([`Proof::with_capacity`]) and
//! therefore never allocate per candidate — the property the engine's
//! allocation-probe test pins.
//!
//! A proof also keeps its **label column**: the decoded form of each
//! node's bits, as a verifier reads them through
//! [`crate::View::label`]. The column is allocated on the first label
//! read and filled one slot at a time, on first read of that slot; every
//! mutator clears the one slot it rewrote. So a proof that is verified
//! again and again (a resident cell's honest proof) decodes each label
//! once, and a proof rewritten one node at a time (a churn cell, a
//! search loop) decodes again only the nodes it rewrote. Clones start
//! with an empty column; equality and `Debug` ignore it.
#![deny(missing_docs)]

use crate::bits::{words_for, AsBits, BitString, ProofRef};
use crate::metrics;
use crate::view::Label;
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-node slot: where in the word pool the node's bits live.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Word offset into [`Proof::words`].
    off: u32,
    /// Logical length in bits.
    len: u32,
    /// Reserved capacity in whole words.
    cap_words: u32,
}

/// The typed slots of a [`LabelColumn`], with the label type erased so
/// a mutator can clear a slot without knowing what the column decodes.
trait LabelSlots: Any + Send + Sync {
    /// Forgets node `v`'s decoded label.
    fn clear(&mut self, v: usize);
}

impl<C: Label> LabelSlots for Box<[OnceLock<Option<C>>]> {
    fn clear(&mut self, v: usize) {
        self[v].take();
    }
}

/// A proof's decoded labels: one slot per node, each filled on first
/// read and cleared by the mutator that rewrites its node.
///
/// The first label read fixes the label type and allocates the slots, so
/// a proof whose verifiers read no labels allocates nothing here. A read
/// of another label type decodes on each call. Slots are `OnceLock`s:
/// several threads may verify one shared proof at once.
#[derive(Default)]
struct LabelColumn {
    slots: OnceLock<Box<dyn LabelSlots>>,
    /// Slots filled since the last flush into
    /// [`metrics::LABEL_DECODES`].
    pending: AtomicU64,
}

impl LabelColumn {
    /// Clears node `v`'s slot, if the column exists.
    #[inline]
    fn forget(&mut self, v: usize) {
        if let Some(slots) = self.slots.get_mut() {
            slots.clear(v);
        }
    }
}

impl Drop for LabelColumn {
    fn drop(&mut self) {
        metrics::LABEL_DECODES.add(*self.pending.get_mut());
    }
}

/// A proof `P : V(G) → {0,1}*`, stored per node index.
///
/// The *size* `|P|` is the maximum number of bits at any node — the
/// quantity Table 1 classifies. The empty proof `ε` has size 0.
///
/// ```
/// use lcp_core::{BitString, Proof};
///
/// let p = Proof::from_fn(3, |v| BitString::from_bits((0..v).map(|_| true)));
/// assert_eq!(p.size(), 2);
/// assert_eq!(p.total_bits(), 3);
/// assert!(p.get(0).is_empty());
/// ```
#[derive(Default)]
pub struct Proof {
    words: Vec<u64>,
    slots: Vec<Slot>,
    labels: LabelColumn,
}

impl Proof {
    /// The empty proof `ε` for `n` nodes (0 bits everywhere, no reserved
    /// capacity).
    pub fn empty(n: usize) -> Self {
        Proof {
            words: Vec::new(),
            slots: vec![
                Slot {
                    off: 0,
                    len: 0,
                    cap_words: 0,
                };
                n
            ],
            labels: LabelColumn::default(),
        }
    }

    /// The empty proof for `n` nodes with `bits_per_node` bits of
    /// reserved capacity per slot, so every later in-budget [`Self::set`]
    /// is allocation-free — the search-loop constructor.
    ///
    /// # Panics
    ///
    /// Panics if the total reserved pool exceeds `u32::MAX` words (the
    /// slot-offset width).
    ///
    /// ```
    /// use lcp_core::{BitString, Proof};
    ///
    /// let mut p = Proof::with_capacity(3, 70);
    /// p.set(1, BitString::from_bits((0..70).map(|i| i % 3 == 0)));
    /// assert_eq!(p.get(1).len(), 70);
    /// assert_eq!(p.get(1).get(69), Some(true));
    /// assert!(p.get(0).is_empty());
    /// p.flip(1, 69);
    /// assert_eq!(p.get(1).get(69), Some(false));
    /// ```
    pub fn with_capacity(n: usize, bits_per_node: usize) -> Self {
        let cap_words = u32::try_from(words_for(bits_per_node)).expect("capacity fits u32");
        let total = n
            .checked_mul(cap_words as usize)
            .filter(|&t| u32::try_from(t).is_ok())
            .expect("proof within u32 words");
        let slots = (0..n)
            .map(|v| Slot {
                off: (v * cap_words as usize) as u32,
                len: 0,
                cap_words,
            })
            .collect();
        Proof {
            words: vec![0u64; total],
            slots,
            labels: LabelColumn::default(),
        }
    }

    /// Builds a proof by evaluating `f` at every node index.
    pub fn from_fn<F>(n: usize, mut f: F) -> Self
    where
        F: FnMut(usize) -> BitString,
    {
        let mut proof = Proof::default();
        for v in 0..n {
            proof.push(f(v).as_bits());
        }
        proof
    }

    /// Builds a proof from explicit per-node strings (capacity = exact
    /// fit).
    pub fn from_strings(strings: Vec<BitString>) -> Self {
        Self::from_refs(strings.iter().map(BitString::as_bits))
    }

    /// Packs borrowed bit slices in order (capacity = exact fit).
    pub(crate) fn from_refs<'a>(refs: impl IntoIterator<Item = ProofRef<'a>>) -> Self {
        let mut proof = Proof::default();
        for bits in refs {
            proof.push(bits);
        }
        proof
    }

    /// Appends one more node slot holding a copy of `bits` (construction
    /// only: no label has been read yet).
    fn push(&mut self, bits: ProofRef<'_>) {
        debug_assert!(self.labels.slots.get().is_none());
        let nw = words_for(bits.len());
        self.slots.push(Slot {
            off: u32::try_from(self.words.len()).expect("proof within u32 words"),
            len: u32::try_from(bits.len()).expect("slot within u32 bits"),
            cap_words: nw as u32,
        });
        self.words.extend_from_slice(&bits.words()[..nw]);
    }

    /// Number of nodes the proof labels.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// The proof string of node `v`. No copy: the returned [`ProofRef`]
    /// reads straight from the shared word pool; use
    /// [`ProofRef::to_bitstring`] where an owned copy is needed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline(always)]
    pub fn get(&self, v: usize) -> ProofRef<'_> {
        let slot = self.slots[v];
        let off = slot.off as usize;
        ProofRef::raw(
            &self.words[off..off + words_for(slot.len as usize)],
            slot.len as usize,
        )
    }

    /// Replaces the proof string of node `v` — a word-level copy.
    ///
    /// Accepts anything bit-shaped: an owned or borrowed [`BitString`],
    /// or a [`ProofRef`]. Within the slot's reserved capacity this is
    /// allocation-free (the odometer/bit-flip fast path); a larger value
    /// relocates the slot to freshly reserved words at the end of the
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set(&mut self, v: usize, s: impl AsBits) {
        self.labels.forget(v);
        let bits = s.as_bits();
        let len = u32::try_from(bits.len()).expect("slot within u32 bits");
        let nw = words_for(bits.len());
        if nw > self.slots[v].cap_words as usize {
            let off = self.words.len();
            self.words.extend_from_slice(&bits.words()[..nw]);
            self.slots[v] = Slot {
                off: u32::try_from(off).expect("proof within u32 words"),
                len,
                cap_words: nw as u32,
            };
        } else {
            let off = self.slots[v].off as usize;
            self.words[off..off + nw].copy_from_slice(&bits.words()[..nw]);
            self.slots[v].len = len;
        }
    }

    /// Rewrites node `v` from a bit iterator, reusing the slot's words.
    ///
    /// Allocation-free while the bits fit the reserved capacity; on
    /// overflow the slot is relocated with doubled reserve.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn write_bits(&mut self, v: usize, bits: impl IntoIterator<Item = bool>) {
        self.clear(v);
        for b in bits {
            self.push_bit(v, b);
        }
    }

    /// Appends one bit to node `v`'s string.
    fn push_bit(&mut self, v: usize, bit: bool) {
        let slot = self.slots[v];
        let len = slot.len as usize;
        if words_for(len + 1) > slot.cap_words as usize {
            // Relocate with at least one spare word (doubling growth).
            let new_cap = (slot.cap_words as usize * 2).max(1);
            let off = self.words.len();
            let old = slot.off as usize;
            self.words
                .extend_from_within(old..old + slot.cap_words as usize);
            self.words.resize(off + new_cap, 0);
            self.slots[v].off = u32::try_from(off).expect("proof within u32 words");
            self.slots[v].cap_words = new_cap as u32;
        }
        let slot = self.slots[v];
        let pos = slot.off as usize * 64 + len;
        let mask = 1u64 << (pos & 63);
        if bit {
            self.words[pos >> 6] |= mask;
        } else {
            self.words[pos >> 6] &= !mask;
        }
        self.slots[v].len += 1;
    }

    /// Truncates node `v` back to `ε` (reserved capacity is kept).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn clear(&mut self, v: usize) {
        self.labels.forget(v);
        self.slots[v].len = 0;
    }

    /// Flips bit `index` of node `v` — one XOR, the adversarial mutator.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `index` is out of range.
    pub fn flip(&mut self, v: usize, index: usize) {
        let slot = self.slots[v];
        assert!(
            index < slot.len as usize,
            "bit index {index} out of range for slot of {} bits",
            slot.len
        );
        self.labels.forget(v);
        let pos = slot.off as usize * 64 + index;
        self.words[pos >> 6] ^= 1 << (pos & 63);
    }

    /// The proof size `|P|`: maximum bits at any node (0 for empty graphs).
    pub fn size(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).max().unwrap_or(0)
    }

    /// Total bits across all nodes.
    pub fn total_bits(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).sum()
    }

    /// Iterates over the per-node strings in index order.
    pub fn iter(&self) -> impl Iterator<Item = ProofRef<'_>> {
        (0..self.n()).map(|v| self.get(v))
    }

    /// Node `v`'s proof decoded as a `C` — `C::decode(self.get(v))`, read
    /// from the label column, which decodes it on first read only.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub(crate) fn label<C: Label>(&self, v: usize) -> Option<C> {
        let slots = self.labels.slots.get_or_init(|| {
            Box::new(
                (0..self.n())
                    .map(|_| OnceLock::new())
                    .collect::<Box<[OnceLock<Option<C>>]>>(),
            )
        });
        let slots: &dyn Any = &**slots;
        match slots.downcast_ref::<Box<[OnceLock<Option<C>>]>>() {
            Some(slots) => *slots[v].get_or_init(|| {
                self.labels.pending.fetch_add(1, Ordering::Relaxed);
                C::decode(self.get(v))
            }),
            None => C::decode(self.get(v)),
        }
    }

    /// Adds the labels decoded since the last flush to
    /// `lcp_engine_label_decodes_total` (a dropped proof adds the rest).
    #[inline]
    pub(crate) fn flush_label_decodes(&self) {
        let pending = &self.labels.pending;
        if pending.load(Ordering::Relaxed) != 0 {
            metrics::LABEL_DECODES.add(pending.swap(0, Ordering::Relaxed));
        }
    }
}

impl Clone for Proof {
    /// Copies the bits; the copy's label column starts empty.
    fn clone(&self) -> Self {
        Proof {
            words: self.words.clone(),
            slots: self.slots.clone(),
            labels: LabelColumn::default(),
        }
    }
}

impl PartialEq for Proof {
    /// Content equality: same node count, same bits per node. Layout
    /// (slot order in the pool, capacities, slack) is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && (0..self.n()).all(|v| self.get(v) == other.get(v))
    }
}

impl Eq for Proof {}

impl fmt::Debug for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(pattern: &str) -> BitString {
        BitString::from_bits(pattern.chars().map(|c| c == '1'))
    }

    #[test]
    fn empty_proof_has_size_zero() {
        let p = Proof::empty(5);
        assert_eq!(p.n(), 5);
        assert_eq!(p.size(), 0);
        assert_eq!(p.total_bits(), 0);
        assert!(p.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn empty_proof_slots_are_epsilon() {
        let p = Proof::empty(4);
        assert_eq!(p.n(), 4);
        assert_eq!(p.size(), 0);
        assert!(p.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn size_is_max_not_total() {
        let p = Proof::from_strings(vec![
            BitString::from_bits([true]),
            BitString::from_bits([true, false, true]),
            BitString::new(),
        ]);
        assert_eq!(p.size(), 3);
        assert_eq!(p.total_bits(), 4);
    }

    #[test]
    fn sizes_and_totals() {
        let p = Proof::from_strings(vec![bs("1"), bs("10101"), bs("")]);
        assert_eq!(p.size(), 5);
        assert_eq!(p.total_bits(), 6);
        assert_eq!(format!("{p:?}"), r#"[bits"1", bits"10101", bits""]"#);
    }

    #[test]
    fn set_overwrites() {
        let mut p = Proof::empty(2);
        p.set(1, BitString::from_bits([true, true]));
        assert_eq!(p.get(1).len(), 2);
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn set_accepts_borrowed_refs() {
        let donor = Proof::from_strings(vec![BitString::from_bits([true, false, true])]);
        let mut p = Proof::empty(2);
        p.set(0, donor.get(0));
        assert_eq!(p.get(0), donor.get(0));
        assert_eq!(
            p.get(0).to_bitstring(),
            BitString::from_bits([true, false, true])
        );
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundaries() {
        let mut p = Proof::with_capacity(3, 130);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 130] {
            let s = BitString::from_bits((0..len).map(|i| i % 5 == 0 || i % 3 == 1));
            p.set(1, &s);
            assert_eq!(p.get(1).to_bitstring(), s, "len {len}");
            // Neighbouring slots stay untouched.
            assert!(p.get(0).is_empty());
            assert!(p.get(2).is_empty());
        }
    }

    #[test]
    fn shrinking_then_reading_masks_stale_bits() {
        let mut p = Proof::with_capacity(1, 8);
        p.set(0, bs("11111111"));
        p.set(0, bs("001"));
        assert_eq!(p.get(0).to_bitstring(), bs("001"));
        assert_eq!(p.get(0).iter().filter(|&b| b).count(), 1);
        // Equality masks the stale tail too.
        assert_eq!(p.get(0), bs("001").as_bits());
        assert_ne!(p.get(0), bs("0011").as_bits());
    }

    #[test]
    fn overflowing_set_relocates() {
        let mut p = Proof::with_capacity(2, 4);
        let long = BitString::from_bits((0..200).map(|i| i % 7 == 0));
        p.set(0, &long);
        assert_eq!(p.get(0).to_bitstring(), long);
        // The other slot still reads its own words.
        p.set(1, bs("1010"));
        assert_eq!(p.get(1).to_bitstring(), bs("1010"));
        assert_eq!(p.get(0).to_bitstring(), long);
    }

    #[test]
    fn write_bits_and_push_bit_grow_from_zero_capacity() {
        let mut p = Proof::empty(2);
        p.write_bits(0, (0..70).map(|i| i % 2 == 0));
        assert_eq!(p.get(0).len(), 70);
        assert_eq!(p.get(0).get(68), Some(true));
        assert_eq!(p.get(0).get(69), Some(false));
        p.push_bit(1, true);
        assert_eq!(p.get(1).to_bitstring(), bs("1"));
    }

    #[test]
    fn flip_and_clear_mutate_in_place() {
        let mut p = Proof::with_capacity(2, 4);
        p.write_bits(0, [false, false, true]);
        p.flip(0, 0);
        assert_eq!(p.get(0).to_bitstring(), bs("101"));
        p.clear(0);
        assert!(p.get(0).is_empty());
    }

    #[test]
    fn flip_is_an_involution() {
        let mut p = Proof::from_strings(vec![bs("0110"), bs("")]);
        p.flip(0, 0);
        assert_eq!(p.get(0).to_bitstring(), bs("1110"));
        p.flip(0, 0);
        assert_eq!(p.get(0).to_bitstring(), bs("0110"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_past_len_panics() {
        let mut p = Proof::from_strings(vec![bs("01")]);
        p.flip(0, 2);
    }

    #[test]
    fn equality_is_content_based() {
        let a = Proof::from_strings(vec![BitString::from_bits([true]), BitString::new()]);
        let mut b = Proof::with_capacity(2, 8);
        b.set(0, BitString::from_bits([true]));
        assert_eq!(a, b);
        b.set(1, BitString::from_bits([false]));
        assert_ne!(a, b);
    }

    #[test]
    fn content_equality_ignores_layout() {
        let tight = Proof::from_strings(vec![bs("10"), bs("")]);
        let mut roomy = Proof::with_capacity(2, 64);
        roomy.set(0, bs("11"));
        roomy.set(0, bs("10"));
        assert_eq!(tight, roomy);
        roomy.set(1, bs("0"));
        assert_ne!(tight, roomy);
    }

    /// A label that counts a string's one bits.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Ones(usize);

    impl Label for Ones {
        fn decode(proof: ProofRef<'_>) -> Option<Self> {
            Some(Ones(proof.iter().filter(|&b| b).count()))
        }
    }

    /// Every node's label, and how many slots the column has filled.
    fn labels(p: &Proof) -> (Vec<usize>, u64) {
        let labels = (0..p.n()).map(|v| p.label::<Ones>(v).unwrap().0);
        (labels.collect(), p.labels.pending.load(Ordering::Relaxed))
    }

    #[test]
    fn each_mutator_clears_the_one_slot_it_rewrote() {
        let mut p = Proof::from_strings(vec![bs("11"), bs("1"), bs("")]);
        assert_eq!(labels(&p), (vec![2, 1, 0], 3));
        assert_eq!(
            labels(&p),
            (vec![2, 1, 0], 3),
            "a repeat read decodes nothing"
        );
        p.flip(0, 0);
        assert_eq!(labels(&p), (vec![1, 1, 0], 4));
        p.set(1, bs("111"));
        assert_eq!(labels(&p), (vec![1, 3, 0], 5));
        p.write_bits(2, [true, true]);
        assert_eq!(labels(&p), (vec![1, 3, 2], 6));
        p.clear(0);
        assert_eq!(labels(&p), (vec![0, 3, 2], 7));
        // Another label type decodes per call and leaves the column be.
        assert_eq!(p.label::<Len>(1), Some(Len(3)));
        assert_eq!(labels(&p), (vec![0, 3, 2], 7));
    }

    /// A label that counts a string's bits.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Len(usize);

    impl Label for Len {
        fn decode(proof: ProofRef<'_>) -> Option<Self> {
            Some(Len(proof.len()))
        }
    }

    #[test]
    fn clones_start_with_an_empty_column_and_compare_by_bits() {
        let p = Proof::from_strings(vec![bs("101"), bs("0")]);
        assert_eq!(labels(&p), (vec![2, 0], 2));
        let q = p.clone();
        assert!(q.labels.slots.get().is_none());
        assert_eq!(p, q, "equality ignores the column");
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
        assert_eq!(labels(&q), (vec![2, 0], 2));
    }

    #[test]
    fn proofs_and_bound_views_can_be_shared_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<Proof>();
        shared::<crate::View<'static>>();
    }

    #[test]
    fn proof_on_zero_nodes() {
        let p = Proof::empty(0);
        assert_eq!(p.size(), 0);
        assert_eq!(p.n(), 0);
    }
}
