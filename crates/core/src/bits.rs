//! Bit strings, borrowed bit slices, word-level primitives, and
//! bit-level codecs.
//!
//! Proof sizes in the LCP model are measured in *bits per node*, so the
//! encodings matter: a scheme claiming `O(log n)` bits must actually emit
//! them. [`BitWriter`] / [`BitReader`] provide fixed-width fields and
//! Elias-γ codes; verifiers treat any decode failure as a rejection.
//!
//! Storage is word-packed throughout: an owned [`BitString`] and a
//! borrowed [`ProofRef`] both address bits inside `u64` lanes (bit `i`
//! lives at `words[i / 64] >> (i % 64) & 1`), so copying or comparing a
//! proof string is a handful of word operations rather than a per-bit
//! loop. [`ProofRef`] is the currency of the whole verification stack:
//! views hand it to verifiers, [`crate::Proof`] hands it to
//! views, and [`BitReader`] decodes from it directly.

use std::error::Error;
use std::fmt;

/// Number of words needed to hold `len` bits.
#[inline]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// Reads bit `pos` of a word-packed slice.
///
/// # Panics
///
/// Panics if `pos / 64` is out of range for `words`.
#[inline(always)]
pub(crate) fn word_get(words: &[u64], pos: usize) -> bool {
    words[pos >> 6] >> (pos & 63) & 1 == 1
}

/// Compares the first `len` bits of two word-packed slices, ignoring any
/// trailing garbage in the final partial word.
#[inline]
pub(crate) fn word_eq(a: &[u64], b: &[u64], len: usize) -> bool {
    let full = len / 64;
    if a[..full] != b[..full] {
        return false;
    }
    let tail = len & 63;
    tail == 0 || (a[full] ^ b[full]) & ((1u64 << tail) - 1) == 0
}

/// The low `n` bits set (`n ≤ 64`).
#[inline(always)]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Up to 64 bits starting at bit `pos`, in storage order (bit `i` of the
/// result is bit `pos + i` of the slice), zero-padded past the end.
#[inline(always)]
fn peek_chunk(words: &[u64], pos: usize) -> u64 {
    let wi = pos >> 6;
    let off = pos & 63;
    let lo = words.get(wi).copied().unwrap_or(0) >> off;
    if off == 0 {
        lo
    } else {
        lo | words.get(wi + 1).copied().unwrap_or(0) << (64 - off)
    }
}

/// A finite binary string, the value a proof assigns to one node (§2.1).
///
/// Bits are addressed in write order (index 0 first). The empty string
/// `ε` is the size-0 proof. Bits are packed into `u64` words; every bit
/// at position ≥ `len` is kept zero so the derived equality, hashing,
/// and ordering see only the logical content.
///
/// ```
/// use lcp_core::BitString;
///
/// let s = BitString::from_bits([true, false, true]);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.get(1), Some(false));
/// assert_eq!(format!("{s:?}"), "bits\"101\"");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// The empty bit string `ε`.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Builds a bit string from booleans.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = BitString::new();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this is the empty string.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<bool> {
        (index < self.len).then(|| word_get(&self.words, index))
    }

    /// The first bit, if any. Handy for 1-bit proofs.
    pub fn first(&self) -> Option<bool> {
        self.get(0)
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len >> 6] |= 1 << (self.len & 63);
        }
        self.len += 1;
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| word_get(&self.words, i))
    }

    /// Flips the bit at `index`; used by the adversarial proof mutator.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn flip(&mut self, index: usize) {
        assert!(index < self.len, "bit index {index} out of range");
        self.words[index >> 6] ^= 1 << (index & 63);
    }

    /// The backing words; bit `i` is `words()[i / 64] >> (i % 64) & 1`,
    /// and bits at positions ≥ [`Self::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.as_bits(), f)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString::from_bits(iter)
    }
}

/// A borrowed, word-packed bit slice: the view a verifier gets of one
/// node's proof string.
///
/// A `ProofRef` never owns its bits — it points into a [`BitString`] or
/// into a [`crate::Proof`] slot — so handing proofs to
/// verifiers costs no allocation and no copying. It is `Copy`;
/// comparisons, [`Self::iter`], and [`BitReader`] all mask any garbage
/// beyond [`Self::len`] in the final partial word, so a slice into a
/// partially overwritten proof slot still reads exactly its logical
/// bits.
///
/// ```
/// use lcp_core::{AsBits, BitString};
///
/// let s = BitString::from_bits([true, false, true]);
/// let r = s.as_bits();
/// assert_eq!(r.len(), 3);
/// assert_eq!(r.get(2), Some(true));
/// assert_eq!(r.to_bitstring(), s);
/// ```
#[derive(Clone, Copy)]
pub struct ProofRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> ProofRef<'a> {
    /// The empty bit slice `ε`.
    pub const EMPTY: ProofRef<'static> = ProofRef { words: &[], len: 0 };

    /// Wraps `len` bits of a word-packed slice.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(words: &'a [u64], len: usize) -> Self {
        assert!(words.len() >= words_for(len), "slice shorter than len");
        ProofRef {
            words: &words[..words_for(len)],
            len,
        }
    }

    /// Crate-internal unchecked-by-release constructor for callers that
    /// already sized the slice (a proof's slot reads).
    #[inline(always)]
    pub(crate) fn raw(words: &'a [u64], len: usize) -> Self {
        debug_assert!(words.len() >= words_for(len), "slice shorter than len");
        ProofRef { words, len }
    }

    /// Number of bits.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this is the empty string.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`, if in range.
    #[inline(always)]
    pub fn get(&self, index: usize) -> Option<bool> {
        (index < self.len).then(|| word_get(self.words, index))
    }

    /// The first bit, if any. Handy for 1-bit proofs.
    #[inline(always)]
    pub fn first(&self) -> Option<bool> {
        self.get(0)
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        let words = self.words;
        (0..self.len).map(move |i| word_get(words, i))
    }

    /// The backing words (the final word may carry garbage past
    /// [`Self::len`]).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Copies the bits into an owned [`BitString`].
    pub fn to_bitstring(&self) -> BitString {
        let mut words = self.words.to_vec();
        let tail = self.len & 63;
        if tail != 0 {
            // Re-establish the BitString invariant: trailing bits zero.
            *words.last_mut().expect("tail implies a word") &= (1u64 << tail) - 1;
        }
        BitString {
            words,
            len: self.len,
        }
    }
}

impl PartialEq for ProofRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && word_eq(self.words, other.words, self.len)
    }
}

impl Eq for ProofRef<'_> {}

impl PartialEq<BitString> for ProofRef<'_> {
    fn eq(&self, other: &BitString) -> bool {
        *self == other.as_bits()
    }
}

impl PartialEq<ProofRef<'_>> for BitString {
    fn eq(&self, other: &ProofRef<'_>) -> bool {
        self.as_bits() == *other
    }
}

impl fmt::Debug for ProofRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bits\"")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "\"")
    }
}

impl<'a> From<&'a BitString> for ProofRef<'a> {
    fn from(s: &'a BitString) -> Self {
        ProofRef {
            words: &s.words,
            len: s.len,
        }
    }
}

/// Anything that exposes its bits as a borrowed [`ProofRef`].
///
/// Lets APIs like [`crate::Proof::set`] accept owned [`BitString`]s,
/// borrowed `&BitString`s, and [`ProofRef`]s interchangeably.
pub trait AsBits {
    /// A borrowed view of the bits.
    fn as_bits(&self) -> ProofRef<'_>;
}

impl AsBits for BitString {
    fn as_bits(&self) -> ProofRef<'_> {
        self.into()
    }
}

impl AsBits for ProofRef<'_> {
    fn as_bits(&self) -> ProofRef<'_> {
        *self
    }
}

impl<T: AsBits + ?Sized> AsBits for &T {
    fn as_bits(&self) -> ProofRef<'_> {
        (**self).as_bits()
    }
}

/// Errors raised while decoding a bit string.
///
/// A verifier that hits a codec error on a proof must reject: a malformed
/// proof is an invalid proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran past the end of the string.
    OutOfBits,
    /// A γ-coded value had an implausible length prefix.
    Malformed,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::OutOfBits => write!(f, "ran out of bits while decoding"),
            CodecError::Malformed => write!(f, "malformed variable-length code"),
        }
    }
}

impl Error for CodecError {}

/// Incremental writer producing a [`BitString`].
///
/// ```
/// use lcp_core::{BitWriter, BitReader};
///
/// # fn main() -> Result<(), lcp_core::CodecError> {
/// let mut w = BitWriter::new();
/// w.write_u64(5, 3);
/// w.write_bit(true);
/// let s = w.finish();
/// assert_eq!(s.len(), 4);
///
/// let mut r = BitReader::new(&s);
/// assert_eq!(r.read_u64(3)?, 5);
/// assert!(r.read_bit()?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    out: BitString,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends one bit.
    pub fn write_bit(&mut self, bit: bool) -> &mut Self {
        self.out.push(bit);
        self
    }

    /// Appends `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits or `width > 64`.
    pub fn write_u64(&mut self, value: u64, width: u32) -> &mut Self {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < 1u64 << width,
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.out.push(value >> i & 1 == 1);
        }
        self
    }

    /// Appends `value` in Elias-γ code (self-delimiting; codes `v ≥ 0` by
    /// shifting to `v + 1`). Costs `2⌊log₂(v+1)⌋ + 1` bits.
    pub fn write_gamma(&mut self, value: u64) -> &mut Self {
        let v = value + 1;
        let k = v.ilog2();
        for _ in 0..k {
            self.out.push(false);
        }
        self.write_u64(v, k + 1);
        self
    }

    /// Consumes the writer, returning the accumulated string.
    pub fn finish(self) -> BitString {
        self.out
    }

    /// Bits written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Sequential reader over any word-packed bit source (a `&`[`BitString`]
/// or a [`ProofRef`] straight out of a view or proof); see [`BitWriter`]
/// for a round-trip example.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    src: ProofRef<'a>,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading `src` from the first bit.
    pub fn new(src: impl Into<ProofRef<'a>>) -> Self {
        BitReader {
            src: src.into(),
            pos: 0,
        }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`CodecError::OutOfBits`] at end of string.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.pos >= self.src.len() {
            return Err(CodecError::OutOfBits);
        }
        let b = word_get(self.src.words(), self.pos);
        self.pos += 1;
        Ok(b)
    }

    /// Reads `width` bits as an MSB-first integer — one word-level
    /// extraction, not a per-bit loop.
    ///
    /// # Errors
    ///
    /// [`CodecError::OutOfBits`] if fewer than `width` bits remain.
    pub fn read_u64(&mut self, width: u32) -> Result<u64, CodecError> {
        assert!(width <= 64, "width {width} exceeds u64");
        if self.remaining() < width as usize {
            self.pos = self.src.len();
            return Err(CodecError::OutOfBits);
        }
        if width == 0 {
            return Ok(0);
        }
        // The chunk holds the bits in storage order (first-written bit
        // lowest); MSB-first means the first-written bit is the highest.
        let chunk = peek_chunk(self.src.words(), self.pos) & low_mask(width as usize);
        self.pos += width as usize;
        Ok(chunk.reverse_bits() >> (64 - width))
    }

    /// Reads an Elias-γ coded value (inverse of [`BitWriter::write_gamma`]).
    ///
    /// The zero-run scan stays bit-by-bit (γ prefixes in proofs are a
    /// few bits — chunked scanning costs more than it saves), but the
    /// payload rides the word-level [`Self::read_u64`].
    ///
    /// # Errors
    ///
    /// [`CodecError::OutOfBits`] / [`CodecError::Malformed`] on truncated
    /// or absurd prefixes.
    pub fn read_gamma(&mut self) -> Result<u64, CodecError> {
        let mut k = 0u32;
        while !self.read_bit()? {
            k += 1;
            if k > 64 {
                return Err(CodecError::Malformed);
            }
        }
        // k payload bits, MSB-first under the implicit leading 1. A
        // hostile k = 64 overflows the implicit leading 1 out of u64
        // range; the only value it could ever round-trip is already
        // representable with k = 63, so reject the all-zero payload
        // (whose decoded value would underflow the `+1` shift) as
        // malformed instead of wrapping.
        let payload = self.read_u64(k)?;
        let v = if k == 64 {
            payload
        } else {
            (1u64 << k) | payload
        };
        v.checked_sub(1).ok_or(CodecError::Malformed)
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    /// Whether every bit has been consumed.
    ///
    /// Strict verifiers check this: trailing garbage makes a proof
    /// malformed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string() {
        let s = BitString::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(0), None);
        assert_eq!(s.first(), None);
        assert_eq!(format!("{s:?}"), "bits\"\"");
    }

    #[test]
    fn push_and_get() {
        let mut s = BitString::new();
        for i in 0..20 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(s.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(s.get(20), None);
    }

    #[test]
    fn from_iterator_and_iter_roundtrip() {
        let bits = vec![true, true, false, true, false];
        let s: BitString = bits.iter().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn flip_toggles() {
        let mut s = BitString::from_bits([false, false]);
        s.flip(1);
        assert_eq!(s.get(1), Some(true));
        s.flip(1);
        assert_eq!(s.get(1), Some(false));
    }

    #[test]
    fn fixed_width_roundtrip() {
        for value in [0u64, 1, 5, 255, 1 << 20, u64::MAX] {
            let width = if value == u64::MAX {
                64
            } else {
                64.min(value.max(1).ilog2() + 1)
            };
            let mut w = BitWriter::new();
            w.write_u64(value, width);
            let s = w.finish();
            assert_eq!(s.len() as u32, width);
            let mut r = BitReader::new(&s);
            assert_eq!(r.read_u64(width).unwrap(), value);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflowing_width_panics() {
        BitWriter::new().write_u64(8, 3);
    }

    #[test]
    fn gamma_roundtrip() {
        let mut w = BitWriter::new();
        for v in 0..100u64 {
            w.write_gamma(v);
        }
        w.write_gamma(u64::MAX - 1);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for v in 0..100u64 {
            assert_eq!(r.read_gamma().unwrap(), v);
        }
        assert_eq!(r.read_gamma().unwrap(), u64::MAX - 1);
        assert!(r.is_exhausted());
    }

    #[test]
    fn gamma_length_matches_formula() {
        for v in [0u64, 1, 2, 3, 7, 8, 100] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            assert_eq!(w.len() as u32, 2 * (v + 1).ilog2() + 1, "v = {v}");
        }
    }

    #[test]
    fn out_of_bits_errors() {
        let s = BitString::from_bits([true]);
        let mut r = BitReader::new(&s);
        assert!(r.read_bit().is_ok());
        assert_eq!(r.read_bit(), Err(CodecError::OutOfBits));
        let mut r2 = BitReader::new(&s);
        assert_eq!(r2.read_u64(2), Err(CodecError::OutOfBits));
    }

    #[test]
    fn truncated_gamma_errors() {
        // A single 0 bit promises at least one more bit.
        let s = BitString::from_bits([false]);
        assert_eq!(BitReader::new(&s).read_gamma(), Err(CodecError::OutOfBits));
    }

    #[test]
    fn hostile_gamma_prefixes_reject_without_panicking() {
        // 65 zeros: an absurd length prefix.
        let s = BitString::from_bits((0..66).map(|i| i == 65));
        assert_eq!(BitReader::new(&s).read_gamma(), Err(CodecError::Malformed));
        // 64 zeros, a 1, then an all-zero 64-bit payload: the implicit
        // leading 1 overflows u64 and the decoded value would underflow
        // — must reject, not wrap (release) or panic (debug).
        let s = BitString::from_bits((0..129).map(|i| i == 64));
        assert_eq!(BitReader::new(&s).read_gamma(), Err(CodecError::Malformed));
        // Same prefix with a nonzero payload still decodes (to the
        // payload minus one, the historical wrapping value).
        let s = BitString::from_bits((0..129).map(|i| i == 64 || i == 128));
        assert_eq!(BitReader::new(&s).read_gamma(), Ok(0));
    }

    #[test]
    fn mixed_payload_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bit(true)
            .write_u64(42, 7)
            .write_gamma(9)
            .write_bit(false);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_u64(7).unwrap(), 42);
        assert_eq!(r.read_gamma().unwrap(), 9);
        assert!(!r.read_bit().unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        // The derived order is unspecified but must be a total order usable
        // as a map key; equal strings compare equal.
        let a = BitString::from_bits([false, true]);
        let b = BitString::from_bits([false, true]);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_ne!(a, BitString::from_bits([true, false]));
    }
}
