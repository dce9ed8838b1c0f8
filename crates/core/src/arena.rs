//! Flat, word-packed proof storage: one allocation for all nodes' bits.
//!
//! The LCP hot paths — the exhaustive proof odometer, adversarial
//! bit-flip search, tamper probing — walk through millions of candidate
//! proofs that differ from their predecessor at a single node. Storing a
//! proof as `Vec<BitString>` (one heap allocation per node) makes every
//! candidate pay allocator traffic; a [`ProofArena`] instead packs every
//! node's bits into one shared `Vec<u64>` with per-node `(offset, len,
//! capacity)` slots, so
//!
//! * reading node `v`'s bits is a bounds-checked slice
//!   ([`ProofArena::get`] returns a borrowed [`ProofRef`], no copy);
//! * overwriting node `v` within its reserved capacity is a word-level
//!   copy ([`ProofArena::set`], zero allocations);
//! * flipping a single bit is one XOR ([`ProofArena::flip`]).
//!
//! Slots are word-aligned (offsets are in whole `u64`s), so every write
//! is a straight word copy; a slot whose new value outgrows its
//! capacity is relocated to the end of the arena, leaving its old words
//! as dead slack (bounded by the total volume of over-capacity writes;
//! rebuild via [`ProofArena::from_refs`] to reclaim it). Search loops
//! preallocate capacity ([`ProofArena::with_capacity`]) and therefore
//! never allocate per candidate — the property the engine's
//! allocation-probe test pins.
#![deny(missing_docs)]

use crate::bits::{words_for, AsBits, BitString, ProofRef};
use std::fmt;

/// Per-node slot: where in the word pool the node's bits live.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Word offset into [`ProofArena::words`].
    off: u32,
    /// Logical length in bits.
    len: u32,
    /// Reserved capacity in whole words.
    cap_words: u32,
}

/// Word-packed storage for one proof: every node's bit string in a
/// single `Vec<u64>`, addressed through per-node slots.
///
/// This is the representation behind [`crate::Proof`]; the harness's
/// search loops mutate one preallocated arena in place instead of
/// cloning per-node [`BitString`]s.
///
/// ```
/// use lcp_core::{AsBits, BitString, ProofArena};
///
/// let mut a = ProofArena::with_capacity(3, 70);
/// a.set(1, BitString::from_bits((0..70).map(|i| i % 3 == 0)).as_bits());
/// assert_eq!(a.get(1).len(), 70);
/// assert_eq!(a.get(1).get(69), Some(true));
/// assert!(a.get(0).is_empty());
/// a.flip(1, 69);
/// assert_eq!(a.get(1).get(69), Some(false));
/// ```
#[derive(Clone, Default)]
pub struct ProofArena {
    words: Vec<u64>,
    slots: Vec<Slot>,
}

impl ProofArena {
    /// An arena for `n` nodes, each holding the empty string `ε` with no
    /// reserved capacity.
    pub fn empty(n: usize) -> Self {
        ProofArena {
            words: Vec::new(),
            slots: vec![
                Slot {
                    off: 0,
                    len: 0,
                    cap_words: 0,
                };
                n
            ],
        }
    }

    /// An arena for `n` nodes, each starting at `ε` with room for
    /// `bits_per_node` bits — the search-loop constructor: any later
    /// [`Self::set`] within the budget is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the total reserved pool exceeds `u32::MAX` words (the
    /// slot-offset width).
    pub fn with_capacity(n: usize, bits_per_node: usize) -> Self {
        let cap_words = u32::try_from(words_for(bits_per_node)).expect("capacity fits u32");
        let total = n
            .checked_mul(cap_words as usize)
            .filter(|&t| u32::try_from(t).is_ok())
            .expect("arena within u32 words");
        let slots = (0..n)
            .map(|v| Slot {
                off: (v * cap_words as usize) as u32,
                len: 0,
                cap_words,
            })
            .collect();
        ProofArena {
            words: vec![0u64; total],
            slots,
        }
    }

    /// Packs explicit per-node strings (capacity = exact fit).
    pub fn from_strings(strings: &[BitString]) -> Self {
        Self::from_refs(strings.iter().map(BitString::as_bits))
    }

    /// Packs borrowed bit slices in order (capacity = exact fit).
    pub fn from_refs<'a>(refs: impl IntoIterator<Item = ProofRef<'a>>) -> Self {
        let mut arena = ProofArena::default();
        for r in refs {
            arena.push(r);
        }
        arena
    }

    /// Appends one more node slot holding a copy of `bits`; returns its
    /// index.
    pub fn push(&mut self, bits: ProofRef<'_>) -> usize {
        let off = self.words.len();
        let nw = words_for(bits.len());
        self.words.extend_from_slice(&bits.words()[..nw]);
        self.slots.push(Slot {
            off: u32::try_from(off).expect("arena within u32 words"),
            len: u32::try_from(bits.len()).expect("slot within u32 bits"),
            cap_words: nw as u32,
        });
        self.slots.len() - 1
    }

    /// Number of node slots.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Borrows node `v`'s bits. No copy: the returned [`ProofRef`] reads
    /// straight from the shared word pool.
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

    /// Length in bits of node `v`'s string.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn len_of(&self, v: usize) -> usize {
        self.slots[v].len as usize
    }

    /// Overwrites node `v`'s bits with `bits` — a word-level copy.
    ///
    /// Within the slot's reserved capacity this is allocation-free (the
    /// odometer/bit-flip fast path); a larger value relocates the slot
    /// to freshly reserved words at the end of the arena.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set(&mut self, v: usize, bits: ProofRef<'_>) {
        let nw = words_for(bits.len());
        if nw > self.slots[v].cap_words as usize {
            let off = self.words.len();
            self.words.extend_from_slice(&bits.words()[..nw]);
            self.slots[v] = Slot {
                off: u32::try_from(off).expect("arena within u32 words"),
                len: bits.len() as u32,
                cap_words: nw as u32,
            };
        } else {
            let off = self.slots[v].off as usize;
            self.words[off..off + nw].copy_from_slice(&bits.words()[..nw]);
            self.slots[v].len = bits.len() as u32;
        }
    }

    /// Truncates node `v` back to the empty string (capacity is kept).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn clear(&mut self, v: usize) {
        self.slots[v].len = 0;
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
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn push_bit(&mut self, v: usize, bit: bool) {
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
            self.slots[v].off = u32::try_from(off).expect("arena within u32 words");
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
        let pos = slot.off as usize * 64 + index;
        self.words[pos >> 6] ^= 1 << (pos & 63);
    }

    /// The proof size `|P|`: maximum bits at any node (0 when empty).
    pub fn size(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).max().unwrap_or(0)
    }

    /// Total bits across all nodes.
    pub fn total_bits(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).sum()
    }

    /// Iterates over the per-node bit slices in index order.
    pub fn iter(&self) -> impl Iterator<Item = ProofRef<'_>> {
        (0..self.n()).map(|v| self.get(v))
    }
}

impl PartialEq for ProofArena {
    /// Content equality: same node count, same bits per node. Layout
    /// (slot order in the pool, capacities, slack) is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && (0..self.n()).all(|v| self.get(v) == other.get(v))
    }
}

impl Eq for ProofArena {}

impl fmt::Debug for ProofArena {
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
    fn empty_arena_slots_are_epsilon() {
        let a = ProofArena::empty(4);
        assert_eq!(a.n(), 4);
        assert_eq!(a.size(), 0);
        assert!(a.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn set_and_get_roundtrip_across_word_boundaries() {
        let mut a = ProofArena::with_capacity(3, 130);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 130] {
            let s = BitString::from_bits((0..len).map(|i| i % 5 == 0 || i % 3 == 1));
            a.set(1, s.as_bits());
            assert_eq!(a.get(1).to_bitstring(), s, "len {len}");
            // Neighbouring slots stay untouched.
            assert!(a.get(0).is_empty());
            assert!(a.get(2).is_empty());
        }
    }

    #[test]
    fn shrinking_then_reading_masks_stale_bits() {
        let mut a = ProofArena::with_capacity(1, 8);
        a.set(0, bs("11111111").as_bits());
        a.set(0, bs("001").as_bits());
        assert_eq!(a.get(0).to_bitstring(), bs("001"));
        assert_eq!(a.get(0).iter().filter(|&b| b).count(), 1);
        // Equality masks the stale tail too.
        assert_eq!(a.get(0), bs("001").as_bits());
        assert_ne!(a.get(0), bs("0011").as_bits());
    }

    #[test]
    fn overflowing_set_relocates() {
        let mut a = ProofArena::with_capacity(2, 4);
        let long = BitString::from_bits((0..200).map(|i| i % 7 == 0));
        a.set(0, long.as_bits());
        assert_eq!(a.get(0).to_bitstring(), long);
        // The other slot still reads its own words.
        a.set(1, bs("1010").as_bits());
        assert_eq!(a.get(1).to_bitstring(), bs("1010"));
        assert_eq!(a.get(0).to_bitstring(), long);
    }

    #[test]
    fn write_bits_and_push_bit_grow_from_zero_capacity() {
        let mut a = ProofArena::empty(2);
        a.write_bits(0, (0..70).map(|i| i % 2 == 0));
        assert_eq!(a.len_of(0), 70);
        assert_eq!(a.get(0).get(68), Some(true));
        assert_eq!(a.get(0).get(69), Some(false));
        a.push_bit(1, true);
        assert_eq!(a.get(1).to_bitstring(), bs("1"));
    }

    #[test]
    fn flip_is_an_involution() {
        let mut a = ProofArena::from_strings(&[bs("0110"), bs("")]);
        a.flip(0, 0);
        assert_eq!(a.get(0).to_bitstring(), bs("1110"));
        a.flip(0, 0);
        assert_eq!(a.get(0).to_bitstring(), bs("0110"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_past_len_panics() {
        let mut a = ProofArena::from_strings(&[bs("01")]);
        a.flip(0, 2);
    }

    #[test]
    fn content_equality_ignores_layout() {
        let tight = ProofArena::from_strings(&[bs("10"), bs("")]);
        let mut roomy = ProofArena::with_capacity(2, 64);
        roomy.set(0, bs("11").as_bits());
        roomy.set(0, bs("10").as_bits());
        assert_eq!(tight, roomy);
        roomy.set(1, bs("0").as_bits());
        assert_ne!(tight, roomy);
    }

    #[test]
    fn sizes_and_totals() {
        let a = ProofArena::from_strings(&[bs("1"), bs("10101"), bs("")]);
        assert_eq!(a.size(), 5);
        assert_eq!(a.total_bits(), 6);
        assert_eq!(format!("{a:?}"), r#"[bits"1", bits"10101", bits""]"#);
    }
}
