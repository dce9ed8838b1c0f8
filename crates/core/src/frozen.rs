//! The builder / frozen split of the prepared-core representation, plus
//! the versioned on-disk artifact format (`docs/FORMAT.md`).
//!
//! # Why
//!
//! Every process that verifies proofs — campaign shards, nightly matrix
//! workers, the `lcp-serve` daemon — used to re-BFS every skeleton from
//! scratch on startup, even though the prepared data (CSR balls,
//! member/dependent tables, sorted edge labels) is already flat and
//! offset-indexed. This module makes the prepared core a *persistent
//! artifact*: a [`FrozenCore`] is one contiguous little-endian `u64`
//! word image whose sections are consumed in place, so a core can be
//! `mmap`ed from disk and served with **zero deserialization** of the
//! numeric sections (only the typed label pools are decoded on open).
//!
//! Following the rustfst vector/const FST exemplar, the representation
//! is split in two:
//!
//! * [`CoreBuilder`] — the mutable build/repair side: per-node skeleton
//!   buckets that can be rebuilt in place after topology churn (the
//!   engine substrate of dynamic cells and fault injection);
//! * [`FrozenCore`] — the immutable, borrow-only serving side: the word
//!   image plus decoded label pools, handing out `SkelView`s that
//!   borrow straight into the words.
//!
//! `CoreBuilder::freeze` and `FrozenCore::from_built` render byte-
//! identical word images for equal inputs (pinned by tests), so a core
//! rebuilt after churn and refrozen matches a fresh freeze of the
//! mutated instance — dynamic churn and frozen artifacts share one
//! invariant surface.
//!
//! # Safety
//!
//! The format is little-endian and word sections are reinterpreted as
//! `&[u32]` / `&[usize]` / `&[NodeId]` in place, so the crate requires a
//! little-endian 64-bit target (enforced at compile time below — both
//! CI targets qualify). Every slice handed out is bounds-validated once
//! at open/freeze time; a corrupted, truncated, or version-skewed file
//! is rejected by [`FrozenCore::open`] with a file + byte-offset error
//! ([`ArtifactError`]), never undefined behaviour.
//!
//! That promise covers the bytes a file holds when it is mapped. Files
//! have a single-writer rule: they are only ever replaced whole —
//! [`FrozenCore::save`] writes a temp file and `rename`s it over the
//! target, so an open mapping keeps the old inode. Truncating a file in
//! place while another process has it mapped is outside the contract:
//! the `MAP_PRIVATE` mapping then raises `SIGBUS` on a read past the new
//! end (docs/FORMAT.md § *Failure mode contract*).

use crate::engine::{map_indices, PAR_THRESHOLD};
use crate::instance::Instance;
use crate::proof::Proof;
use crate::scheme::{Scheme, Verdict};
use crate::view::{build_skeleton, BallScratch, SkelView, Skeleton, View};
use lcp_graph::NodeId;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

#[cfg(target_endian = "big")]
compile_error!("lcp-core frozen artifacts require a little-endian target (docs/FORMAT.md)");

#[cfg(not(target_pointer_width = "64"))]
compile_error!("lcp-core frozen artifacts require a 64-bit target (adjacency words are usize)");

/// `b"LCPCORE1"` as a little-endian word — also serves as the
/// endianness probe: a byte-swapped reader sees garbage and rejects.
pub const MAGIC: u64 = u64::from_le_bytes(*b"LCPCORE1");

/// Bumped whenever the section layout changes incompatibly.
pub const FORMAT_VERSION: u64 = 1;

/// Words in the fixed header (see `docs/FORMAT.md` for the word map).
pub const HEADER_WORDS: usize = 16;

/// Header word index of the whole-file FNV checksum.
const CHECKSUM_WORD: usize = 15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Interleaved lanes of the whole-file checksum. A single FNV chain is
/// latency-bound (every step waits on the previous multiply), which
/// would make the checksum the most expensive part of an `mmap` load;
/// eight independent lanes over `words[i % 8]` run at the multiplier's
/// throughput instead and are folded together at the end. Part of the
/// on-disk format (`docs/FORMAT.md`) — changing this orphans every
/// existing artifact.
const CHECKSUM_LANES: usize = 8;

/// Lane-interleaved FNV-1a over the word image with the checksum word
/// folded as zero: lane `k` absorbs words `k, k + 8, k + 16, …`, then
/// the lane digests are chained through one final FNV fold.
fn fnv_words(words: &[u64]) -> u64 {
    let mut lanes = [FNV_OFFSET; CHECKSUM_LANES];
    let mut chunks = words.chunks_exact(CHECKSUM_LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        for k in 0..CHECKSUM_LANES {
            let x = if base + k == CHECKSUM_WORD {
                0
            } else {
                chunk[k]
            };
            lanes[k] = (lanes[k] ^ x).wrapping_mul(FNV_PRIME);
        }
        base += CHECKSUM_LANES;
    }
    for (k, &w) in chunks.remainder().iter().enumerate() {
        let x = if base + k == CHECKSUM_WORD { 0 } else { w };
        lanes[k] = (lanes[k] ^ x).wrapping_mul(FNV_PRIME);
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Words needed for `k` packed `u32`s (two per word, low half first).
const fn w32(k: usize) -> usize {
    k.div_ceil(2)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why an artifact file could not be opened or written.
///
/// Invalid files always name the file and the byte offset of the first
/// rejected datum, so a corrupted artifact is diagnosable from the
/// message alone.
#[derive(Debug)]
pub enum ArtifactError {
    /// The underlying filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file exists but its contents were rejected by validation.
    Invalid {
        /// The file involved.
        path: PathBuf,
        /// Byte offset of the first rejected datum.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, source } => {
                write!(f, "artifact {}: {source}", path.display())
            }
            ArtifactError::Invalid {
                path,
                offset,
                detail,
            } => write!(
                f,
                "artifact {} invalid at byte {offset}: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            ArtifactError::Invalid { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn invalid(path: &Path, word: usize, detail: impl Into<String>) -> ArtifactError {
    ArtifactError::Invalid {
        path: path.to_path_buf(),
        offset: (word as u64) * 8,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Portable label codec
// ---------------------------------------------------------------------

/// Word-level codec for node/edge label types, so labelled cores can be
/// persisted. Kept **off** the hot path on purpose: building, binding,
/// and evaluating require only `Clone`, and only
/// [`FrozenCore::save`] / [`FrozenCore::open`] (and the artifact store
/// that drives them) demand `PortableLabel`.
///
/// The encoding must be self-delimiting given the tag (decode knows how
/// many words to consume) and injective (equal encodings ⇔ equal
/// labels) — artifact fingerprints hash these words.
pub trait PortableLabel: Sized {
    /// Stable type tag recorded in the artifact header; a mismatch is a
    /// rejected open, so two types must never share a tag.
    const TAG: u64;

    /// Appends this label's words to `out`.
    fn encode(&self, out: &mut Vec<u64>);

    /// Decodes one label, consuming exactly the words [`Self::encode`]
    /// wrote; `None` on malformed input.
    fn decode(r: &mut WordReader<'_>) -> Option<Self>;
}

/// Sequential reader over a word section (the decode half of
/// [`PortableLabel`]).
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Reads `words` from the front.
    pub fn new(words: &'a [u64]) -> Self {
        WordReader { words, pos: 0 }
    }

    /// Words consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

/// One word at a time, front to back — `r.next()` is how label
/// decoders consume their encoding.
impl Iterator for WordReader<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let w = *self.words.get(self.pos)?;
        self.pos += 1;
        Some(w)
    }
}

impl<'a> WordReader<'a> {
    /// Reads `count` packed `u32`s (two per word, low half first).
    pub fn read_u32s(&mut self, count: usize) -> Option<Vec<u32>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..w32(count) {
            let w = self.next()?;
            out.push(w as u32);
            if out.len() < count {
                out.push((w >> 32) as u32);
            }
        }
        // A padded high half must be zero, or two files with equal
        // content could differ in bytes.
        if count % 2 == 1 && out.len() == count {
            let last_word = self.words[self.pos - 1];
            if (last_word >> 32) != 0 {
                return None;
            }
        }
        Some(out)
    }
}

impl PortableLabel for () {
    const TAG: u64 = 1;
    fn encode(&self, _out: &mut Vec<u64>) {}
    fn decode(_r: &mut WordReader<'_>) -> Option<Self> {
        Some(())
    }
}

impl PortableLabel for bool {
    const TAG: u64 = 2;
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
    fn decode(r: &mut WordReader<'_>) -> Option<Self> {
        match r.next()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl PortableLabel for u8 {
    const TAG: u64 = 3;
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
    fn decode(r: &mut WordReader<'_>) -> Option<Self> {
        u8::try_from(r.next()?).ok()
    }
}

impl PortableLabel for u32 {
    const TAG: u64 = 4;
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(*self));
    }
    fn decode(r: &mut WordReader<'_>) -> Option<Self> {
        u32::try_from(r.next()?).ok()
    }
}

impl PortableLabel for u64 {
    const TAG: u64 = 5;
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self);
    }
    fn decode(r: &mut WordReader<'_>) -> Option<Self> {
        r.next()
    }
}

impl PortableLabel for usize {
    const TAG: u64 = 6;
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }
    fn decode(r: &mut WordReader<'_>) -> Option<Self> {
        usize::try_from(r.next()?).ok()
    }
}

// ---------------------------------------------------------------------
// Word storage: owned vector or mmap
// ---------------------------------------------------------------------

/// The backing storage of a [`FrozenCore`]'s word image.
enum Words {
    /// Built in process (or the read-to-`Vec` fallback load path).
    Owned(Vec<u64>),
    /// A read-only private file mapping (`munmap`ed on drop).
    #[cfg(unix)]
    Mapped { ptr: *const u64, len: usize },
}

// A Mapped pointer is a read-only private mapping: no aliasing writes
// exist, so sharing it across threads is sound.
unsafe impl Send for Words {}
unsafe impl Sync for Words {}

impl Words {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Owned(v) => v,
            #[cfg(unix)]
            Words::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Words::Mapped { ptr, len } = *self {
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len * 8);
            }
        }
    }
}

/// Raw `mmap(2)`/`munmap(2)` bindings — same approach as `lcp-serve`'s
/// `signal(2)` handler: the workspace vendors no libc crate, but std
/// already links the platform libc.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// Maps `bytes` of `file` read-only; `None` falls back to a plain read.
#[cfg(unix)]
fn map_file(file: &File, bytes: usize) -> Option<Words> {
    use std::os::unix::io::AsRawFd;
    if bytes == 0 {
        return None;
    }
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            bytes,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 {
        return None;
    }
    // Page alignment (≥ 8) makes the u64 reinterpretation sound.
    Some(Words::Mapped {
        ptr: ptr.cast::<u64>(),
        len: bytes / 8,
    })
}

#[cfg(not(unix))]
fn map_file(_file: &File, _bytes: usize) -> Option<Words> {
    None
}

// ---------------------------------------------------------------------
// Section layout
// ---------------------------------------------------------------------

/// Resolved word offsets of every section, derived deterministically
/// from the header counts (see `docs/FORMAT.md`).
#[derive(Clone, Copy, Debug)]
struct Layout {
    radius: usize,
    n: usize,
    /// Total ball members across all skeletons (Σ|ball|).
    t: usize,
    /// Total adjacency entries across all skeletons.
    a: usize,
    member_off: usize,
    members: usize,
    dependent_off: usize,
    dependents: usize,
    centers: usize,
    skel_adj_off: usize,
    adj_off_local: usize,
    ids: usize,
    dist: usize,
    adj: usize,
    node_labels: usize,
    edge_labels: usize,
    total: usize,
}

impl Layout {
    /// Computes the layout; `None` on arithmetic overflow (a hostile
    /// header must not panic or wrap into accepting bogus bounds).
    fn new(radius: usize, n: usize, t: usize, a: usize, nlw: usize, elw: usize) -> Option<Layout> {
        let mut off = HEADER_WORDS;
        let mut sec = |len: usize| -> Option<usize> {
            let here = off;
            off = off.checked_add(len)?;
            Some(here)
        };
        let np1 = n.checked_add(1)?;
        let layout = Layout {
            radius,
            n,
            t,
            a,
            member_off: sec(w32(np1))?,
            members: sec(w32(t))?,
            dependent_off: sec(w32(np1))?,
            dependents: sec(t)?,
            centers: sec(w32(n))?,
            skel_adj_off: sec(w32(np1))?,
            adj_off_local: sec(w32(t.checked_add(n)?))?,
            ids: sec(t)?,
            dist: sec(w32(t))?,
            adj: sec(a)?,
            node_labels: sec(nlw)?,
            edge_labels: sec(elw)?,
            total: 0,
        };
        Some(Layout {
            total: off,
            ..layout
        })
    }
}

// ---------------------------------------------------------------------
// FrozenCore
// ---------------------------------------------------------------------

/// The immutable serving half of a prepared core: every node's view
/// skeleton plus the member/dependent locality tables, stored as one
/// contiguous little-endian word image (plus decoded label pools) with
/// no reference back to the instance it was built from.
///
/// A `FrozenCore` is what [`crate::engine::PreparedInstance`] binds
/// views from, what [`crate::engine::SkeletonCache`] shares across
/// cells, and what [`crate::artifact::ArtifactStore`] persists — the
/// engine, batch, dynamic, conformance, and serve layers consume it
/// through the same handle and are agnostic to whether it was built in
/// process, adopted from the cache, or mapped from an artifact file.
pub struct FrozenCore<N = (), E = ()> {
    words: Words,
    lay: Layout,
    /// Decoded node labels, one per ball member, in pool order
    /// (skeleton `v`'s slice is `member_off[v]..member_off[v+1]`).
    node_labels: Vec<N>,
    /// Per-skeleton offsets into `edge_pool` (`n + 1` entries).
    edge_off: Vec<u32>,
    /// Decoded edge labels in pool order, key-sorted per skeleton.
    edge_pool: Vec<((usize, usize), E)>,
}

impl<N, E> std::fmt::Debug for FrozenCore<N, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenCore")
            .field("n", &self.lay.n)
            .field("radius", &self.lay.radius)
            .field("words", &self.lay.total)
            .finish_non_exhaustive()
    }
}

impl<N, E> FrozenCore<N, E> {
    /// Number of nodes (`n(G)` at build time).
    pub fn n(&self) -> usize {
        self.lay.n
    }

    /// The preparation radius `r`.
    pub fn radius(&self) -> usize {
        self.lay.radius
    }

    /// The raw word image (header + sections; label sections absent on
    /// in-process freezes). Crate-visible for byte-identity tests.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Reinterprets a packed-`u32` section in place.
    ///
    /// Soundness: `off`/`len` come from a [`Layout`] whose bounds were
    /// checked against the word count at construction; `u64` storage is
    /// 8-aligned, and the target is little-endian 64-bit (enforced by
    /// the compile-time guards above).
    #[inline]
    fn u32_sec(&self, off: usize, len: usize) -> &[u32] {
        let w = self.words.as_slice();
        debug_assert!(off + w32(len) <= w.len());
        unsafe { std::slice::from_raw_parts(w.as_ptr().add(off).cast::<u32>(), len) }
    }

    /// Reinterprets a `u64` section in place (same soundness argument).
    #[inline]
    fn u64_sec(&self, off: usize, len: usize) -> &[u64] {
        &self.words.as_slice()[off..off + len]
    }

    #[inline]
    fn member_off(&self) -> &[u32] {
        self.u32_sec(self.lay.member_off, self.lay.n + 1)
    }

    #[inline]
    fn members_sec(&self) -> &[u32] {
        self.u32_sec(self.lay.members, self.lay.t)
    }

    #[inline]
    fn dependent_off(&self) -> &[u32] {
        self.u32_sec(self.lay.dependent_off, self.lay.n + 1)
    }

    #[inline]
    fn dependents_packed(&self) -> &[u64] {
        self.u64_sec(self.lay.dependents, self.lay.t)
    }

    #[inline]
    fn centers(&self) -> &[u32] {
        self.u32_sec(self.lay.centers, self.lay.n)
    }

    #[inline]
    fn skel_adj_off(&self) -> &[u32] {
        self.u32_sec(self.lay.skel_adj_off, self.lay.n + 1)
    }

    #[inline]
    fn adj_off_local(&self) -> &[u32] {
        self.u32_sec(self.lay.adj_off_local, self.lay.t + self.lay.n)
    }

    #[inline]
    fn ids_sec(&self) -> &[NodeId] {
        let w = self.u64_sec(self.lay.ids, self.lay.t);
        // NodeId is #[repr(transparent)] over u64.
        unsafe { std::slice::from_raw_parts(w.as_ptr().cast::<NodeId>(), w.len()) }
    }

    #[inline]
    fn dist_sec(&self) -> &[u32] {
        self.u32_sec(self.lay.dist, self.lay.t)
    }

    #[inline]
    fn adj_sec(&self) -> &[usize] {
        let w = self.u64_sec(self.lay.adj, self.lay.a);
        // usize == u64 on the enforced 64-bit target.
        unsafe { std::slice::from_raw_parts(w.as_ptr().cast::<usize>(), w.len()) }
    }

    /// Global indices of node `v`'s ball members, in view-local order.
    #[inline]
    pub(crate) fn members_of(&self, v: usize) -> &[u32] {
        let off = self.member_off();
        &self.members_sec()[off[v] as usize..off[v + 1] as usize]
    }

    /// The `(owner, local)` pairs of views containing global node `v`.
    #[inline]
    pub(crate) fn dependents_of(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let off = self.dependent_off();
        self.dependents_packed()[off[v] as usize..off[v + 1] as usize]
            .iter()
            .map(|&p| ((p >> 32) as u32, p as u32))
    }

    /// Node `v`'s skeleton as a borrow-only [`SkelView`] straight into
    /// the word image — the zero-copy bind primitive.
    #[inline]
    pub(crate) fn skel_view(&self, v: usize) -> SkelView<'_, N, E> {
        let off = self.member_off();
        let (lo, hi) = (off[v] as usize, off[v + 1] as usize);
        let sa = self.skel_adj_off();
        let (alo, ahi) = (sa[v] as usize, sa[v + 1] as usize);
        SkelView {
            center: self.centers()[v] as usize,
            radius: self.lay.radius,
            ids: &self.ids_sec()[lo..hi],
            adj_off: &self.adj_off_local()[lo + v..hi + v + 1],
            adj: &self.adj_sec()[alo..ahi],
            dist: &self.dist_sec()[lo..hi],
            node_data: &self.node_labels[lo..hi],
            edge_labels: &self.edge_pool[self.edge_off[v] as usize..self.edge_off[v + 1] as usize],
        }
    }
}

/// Writes packed `u32`s (two per word, low half first) into a zeroed
/// word region starting at `sec`.
#[inline]
fn put_u32(words: &mut [u64], sec: usize, idx: usize, val: u32) {
    words[sec + idx / 2] |= u64::from(val) << ((idx % 2) * 32);
}

fn push_u32s(out: &mut Vec<u64>, vals: &[u32]) {
    for pair in vals.chunks(2) {
        let lo = u64::from(pair[0]);
        let hi = pair.get(1).map_or(0, |&v| u64::from(v));
        out.push(lo | (hi << 32));
    }
}

impl<N, E> FrozenCore<N, E> {
    /// Renders the word image from freshly built per-node skeletons —
    /// the one-shot freeze used by [`crate::engine::PreparedInstance`].
    ///
    /// Deterministic: equal inputs render byte-identical images
    /// (dependents are counting-sorted by member with owners ascending),
    /// which is what lets racing campaign shards write interchangeable
    /// artifact files.
    ///
    /// # Panics
    ///
    /// Panics if the core exceeds the format's `u32` offset range
    /// (Σ|ball| or Σ|adj| ≥ 2³²).
    pub(crate) fn from_built(radius: usize, built: Vec<(Skeleton<N, E>, Vec<u32>)>) -> Self {
        let n = built.len();
        let t: usize = built.iter().map(|(_, m)| m.len()).sum();
        let a: usize = built.iter().map(|(s, _)| s.adj.len()).sum();
        assert!(
            u32::try_from(t.max(a)).is_ok(),
            "core too large for the artifact format's u32 offsets"
        );
        let lay = Layout::new(radius, n, t, a, 0, 0).expect("artifact layout overflow");
        let mut words = vec![0u64; lay.total];

        // Dependents by counting sort: owners ascend within each member
        // bucket because owners are visited in ascending order.
        let mut degree = vec![0u32; n];
        for (_, ms) in &built {
            for &m in ms {
                degree[m as usize] += 1;
            }
        }
        let mut dep_cursor = vec![0u32; n];
        let mut acc = 0u32;
        for v in 0..n {
            put_u32(&mut words, lay.dependent_off, v, acc);
            dep_cursor[v] = acc;
            acc += degree[v];
        }
        put_u32(&mut words, lay.dependent_off, n, acc);

        let mut node_labels = Vec::with_capacity(t);
        let mut edge_off = Vec::with_capacity(n + 1);
        let mut edge_pool = Vec::new();
        let mut member_cursor = 0usize;
        let mut adj_cursor = 0usize;
        for (owner, (skel, ms)) in built.into_iter().enumerate() {
            debug_assert_eq!(skel.n(), ms.len());
            put_u32(&mut words, lay.member_off, owner, member_cursor as u32);
            put_u32(&mut words, lay.centers, owner, skel.center as u32);
            put_u32(&mut words, lay.skel_adj_off, owner, adj_cursor as u32);
            for (local, &m) in ms.iter().enumerate() {
                put_u32(&mut words, lay.members, member_cursor + local, m);
                let c = &mut dep_cursor[m as usize];
                words[lay.dependents + *c as usize] = ((owner as u64) << 32) | local as u64;
                *c += 1;
                words[lay.ids + member_cursor + local] = skel.ids[local].0;
                put_u32(
                    &mut words,
                    lay.dist,
                    member_cursor + local,
                    skel.dist[local],
                );
            }
            for (i, &o) in skel.adj_off.iter().enumerate() {
                put_u32(&mut words, lay.adj_off_local, member_cursor + owner + i, o);
            }
            for (i, &w) in skel.adj.iter().enumerate() {
                words[lay.adj + adj_cursor + i] = w as u64;
            }
            member_cursor += ms.len();
            adj_cursor += skel.adj.len();
            node_labels.extend(skel.node_data);
            edge_off.push(edge_pool.len() as u32);
            edge_pool.extend(skel.edge_labels);
        }
        put_u32(&mut words, lay.member_off, n, t as u32);
        put_u32(&mut words, lay.skel_adj_off, n, a as u32);
        edge_off.push(edge_pool.len() as u32);
        assert!(
            u32::try_from(edge_pool.len()).is_ok(),
            "edge-label pool too large for the artifact format"
        );

        words[0] = MAGIC;
        words[1] = FORMAT_VERSION;
        words[2] = HEADER_WORDS as u64;
        words[3] = radius as u64;
        words[4] = n as u64;
        words[5] = t as u64;
        words[6] = a as u64;
        words[7] = edge_pool.len() as u64;
        // Words 8–13 (label tags, label word counts, fingerprint) stay
        // zero until `save` patches them; word 14 is the numeric total.
        words[14] = lay.total as u64;

        FrozenCore {
            words: Words::Owned(words),
            lay,
            node_labels,
            edge_off,
            edge_pool,
        }
    }
}

impl<N: PortableLabel, E: PortableLabel> FrozenCore<N, E> {
    /// Renders the complete on-disk image: the numeric word sections
    /// verbatim, the label pools `PortableLabel`-encoded, and the header
    /// patched with tags, counts, `fingerprint`, and checksum.
    fn render_file(&self, fingerprint: (u64, u64)) -> Vec<u64> {
        let numeric_end = self.lay.node_labels;
        let mut out = Vec::with_capacity(numeric_end + self.node_labels.len() + 64);
        out.extend_from_slice(&self.words.as_slice()[..numeric_end]);
        let nl_start = out.len();
        for l in &self.node_labels {
            l.encode(&mut out);
        }
        let nlw = out.len() - nl_start;
        let el_start = out.len();
        push_u32s(&mut out, &self.edge_off);
        for ((u, w), e) in &self.edge_pool {
            out.push(((*u as u64) << 32) | *w as u64);
            e.encode(&mut out);
        }
        let elw = out.len() - el_start;
        out[8] = N::TAG;
        out[9] = E::TAG;
        out[10] = nlw as u64;
        out[11] = elw as u64;
        out[12] = fingerprint.0;
        out[13] = fingerprint.1;
        out[14] = out.len() as u64;
        out[CHECKSUM_WORD] = 0;
        out[CHECKSUM_WORD] = fnv_words(&out);
        out
    }

    /// Writes this core to `path` atomically (unique temp file in the
    /// same directory, then rename), embedding `fingerprint` — the
    /// `(structure, label)` pairing key [`FrozenCore::open`] re-checks.
    ///
    /// Deterministic: equal cores write byte-identical files, so racing
    /// shards renaming over each other are harmless.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the filesystem fails.
    pub fn save(&self, path: &Path, fingerprint: (u64, u64)) -> Result<(), ArtifactError> {
        let image = self.render_file(fingerprint);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let write = || -> std::io::Result<()> {
            let mut f = std::io::BufWriter::new(File::create(&tmp)?);
            for &w in &image {
                f.write_all(&w.to_le_bytes())?;
            }
            f.into_inner()?.sync_all()?;
            std::fs::rename(&tmp, path)
        };
        write().map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(path, e)
        })
    }

    /// Opens an artifact file: `mmap`s it read-only (falling back to a
    /// plain read into a `Vec<u64>` when mapping is unavailable) and
    /// validates it structurally — magic, version, checksum, section
    /// bounds, offset monotonicity, index ranges, label decode — before
    /// any slice is served. When `expect` is given, the embedded
    /// fingerprint must match (the caller pairing an artifact with its
    /// instance).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be read;
    /// [`ArtifactError::Invalid`] (file + byte offset) when any check
    /// fails. A rejected file never yields a core — corrupted input is
    /// an error, never undefined behaviour.
    pub fn open(path: &Path, expect: Option<(u64, u64)>) -> Result<Self, ArtifactError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        let bytes = file.metadata().map_err(|e| io_err(path, e))?.len();
        if bytes % 8 != 0 {
            return Err(invalid(
                path,
                0,
                format!("file length {bytes} is not a multiple of 8"),
            ));
        }
        let bytes = usize::try_from(bytes)
            .map_err(|_| invalid(path, 0, "file too large for this address space"))?;
        let words = match map_file(&file, bytes) {
            Some(mapped) => mapped,
            None => {
                let raw = std::fs::read(path).map_err(|e| io_err(path, e))?;
                Words::Owned(
                    raw.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                )
            }
        };
        Self::from_words(words, path, expect)
    }

    /// Validates a word image and assembles the core (the shared tail
    /// of both load paths).
    fn from_words(
        words: Words,
        path: &Path,
        expect: Option<(u64, u64)>,
    ) -> Result<Self, ArtifactError> {
        let w = words.as_slice();
        if w.len() < HEADER_WORDS {
            return Err(invalid(
                path,
                w.len(),
                format!("truncated header: {} of {HEADER_WORDS} words", w.len()),
            ));
        }
        if w[0] != MAGIC {
            return Err(invalid(
                path,
                0,
                format!("bad magic {:#018x} (not an lcp core artifact)", w[0]),
            ));
        }
        if w[1] != FORMAT_VERSION {
            return Err(invalid(
                path,
                1,
                format!(
                    "format version {} (this build reads {FORMAT_VERSION})",
                    w[1]
                ),
            ));
        }
        if w[2] != HEADER_WORDS as u64 {
            return Err(invalid(path, 2, format!("header word count {}", w[2])));
        }
        if w[14] != w.len() as u64 {
            return Err(invalid(
                path,
                14,
                format!("header says {} words, file has {}", w[14], w.len()),
            ));
        }
        let sum = fnv_words(w);
        if w[CHECKSUM_WORD] != sum {
            return Err(invalid(
                path,
                CHECKSUM_WORD,
                format!(
                    "checksum mismatch (stored {:#018x}, computed {sum:#018x})",
                    w[CHECKSUM_WORD]
                ),
            ));
        }
        if w[8] != N::TAG || w[9] != E::TAG {
            return Err(invalid(
                path,
                8,
                format!(
                    "label type tags ({}, {}) do not match the requested core type ({}, {})",
                    w[8],
                    w[9],
                    N::TAG,
                    E::TAG
                ),
            ));
        }
        let as_usize = |word: usize| -> Result<usize, ArtifactError> {
            usize::try_from(w[word]).map_err(|_| invalid(path, word, "count overflows usize"))
        };
        let radius = as_usize(3)?;
        let n = as_usize(4)?;
        let t = as_usize(5)?;
        let a = as_usize(6)?;
        let edge_count = as_usize(7)?;
        let nlw = as_usize(10)?;
        let elw = as_usize(11)?;
        let lay = Layout::new(radius, n, t, a, nlw, elw)
            .ok_or_else(|| invalid(path, 3, "section layout overflows"))?;
        if lay.total != w.len() {
            return Err(invalid(
                path,
                14,
                format!(
                    "sections need {} words, file has {} (truncated or padded)",
                    lay.total,
                    w.len()
                ),
            ));
        }
        if t > u32::MAX as usize || a > u32::MAX as usize || edge_count > u32::MAX as usize {
            return Err(invalid(path, 5, "counts exceed the format's u32 offsets"));
        }
        let core = FrozenCore {
            words,
            lay,
            node_labels: Vec::new(),
            edge_off: Vec::new(),
            edge_pool: Vec::new(),
        };
        core.validate_structure(path)?;
        let (node_labels, edge_off, edge_pool) = core.decode_labels(path, edge_count)?;
        if let Some(fp) = expect {
            let stored = (core.words.as_slice()[12], core.words.as_slice()[13]);
            if stored != fp {
                return Err(invalid(
                    path,
                    12,
                    format!(
                        "fingerprint {:#018x}:{:#018x} does not match the instance \
                         ({:#018x}:{:#018x})",
                        stored.0, stored.1, fp.0, fp.1
                    ),
                ));
            }
        }
        Ok(FrozenCore {
            node_labels,
            edge_off,
            edge_pool,
            ..core
        })
    }

    /// Structural validation of the numeric sections: every offset
    /// array is monotone and ends on its pool length, every index is in
    /// range, the dependent table is the exact inverse of the member
    /// table, and centers sit at distance 0 of their own ball.
    fn validate_structure(&self, path: &Path) -> Result<(), ArtifactError> {
        let lay = &self.lay;
        let (n, t, a) = (lay.n, lay.t, lay.a);
        let bad = |sec: usize, idx: usize, detail: String| invalid(path, sec + idx / 2, detail);

        let check_offsets = |sec: usize, off: &[u32], pool: usize, name: &str| {
            if off[0] != 0 {
                return Err(bad(sec, 0, format!("{name}[0] = {} (want 0)", off[0])));
            }
            for i in 1..off.len() {
                if off[i] < off[i - 1] {
                    return Err(bad(sec, i, format!("{name}[{i}] decreases")));
                }
            }
            if off[off.len() - 1] as usize != pool {
                return Err(bad(
                    sec,
                    off.len() - 1,
                    format!("{name} ends at {} (pool has {pool})", off[off.len() - 1]),
                ));
            }
            Ok(())
        };
        check_offsets(lay.member_off, self.member_off(), t, "member_off")?;
        check_offsets(lay.dependent_off, self.dependent_off(), t, "dependent_off")?;
        check_offsets(lay.skel_adj_off, self.skel_adj_off(), a, "skel_adj_off")?;

        let member_off = self.member_off();
        let members = self.members_sec();
        let dist = self.dist_sec();
        for v in 0..n {
            let (lo, hi) = (member_off[v] as usize, member_off[v + 1] as usize);
            if lo == hi {
                return Err(bad(
                    lay.member_off,
                    v,
                    format!("node {v} has an empty ball"),
                ));
            }
            // One fused pass per ball: membership range, strict order,
            // and distance bound (the offsets were just checked to
            // partition the pool, so this covers every `dist` entry).
            for i in lo..hi {
                if members[i] as usize >= n {
                    return Err(bad(
                        lay.members,
                        i,
                        format!("member {} out of range (n = {n})", members[i]),
                    ));
                }
                if i > lo && members[i] <= members[i - 1] {
                    return Err(bad(
                        lay.members,
                        i,
                        "ball members not strictly sorted".into(),
                    ));
                }
                if dist[i] as usize > lay.radius {
                    return Err(bad(
                        lay.dist,
                        i,
                        format!("distance {} exceeds radius {}", dist[i], lay.radius),
                    ));
                }
            }
            let c = self.centers()[v] as usize;
            if c >= hi - lo {
                return Err(bad(
                    lay.centers,
                    v,
                    format!("center {c} outside ball of size {}", hi - lo),
                ));
            }
            if members[lo + c] as usize != v {
                return Err(bad(
                    lay.centers,
                    v,
                    format!("center of node {v}'s ball is node {}", members[lo + c]),
                ));
            }
            if dist[lo + c] != 0 {
                return Err(bad(lay.dist, lo + c, "center at nonzero distance".into()));
            }
        }
        // Dependents: exact inverse of the member table.
        let dep_off = self.dependent_off();
        let deps = self.dependents_packed();
        for v in 0..n {
            for i in dep_off[v] as usize..dep_off[v + 1] as usize {
                let (owner, local) = ((deps[i] >> 32) as usize, deps[i] as u32 as usize);
                if owner >= n {
                    return Err(invalid(
                        path,
                        lay.dependents + i,
                        format!("dependent owner {owner} out of range"),
                    ));
                }
                let (lo, hi) = (member_off[owner] as usize, member_off[owner + 1] as usize);
                if local >= hi - lo || members[lo + local] as usize != v {
                    return Err(invalid(
                        path,
                        lay.dependents + i,
                        format!("dependent ({owner}, {local}) is not the inverse of member {v}"),
                    ));
                }
            }
        }
        // Per-skeleton local CSR offsets and adjacency indices.
        let sa = self.skel_adj_off();
        let aol = self.adj_off_local();
        let adj = self.adj_sec();
        for v in 0..n {
            let ball = (member_off[v + 1] - member_off[v]) as usize;
            let base = member_off[v] as usize + v;
            let local = &aol[base..base + ball + 1];
            let span = (sa[v + 1] - sa[v]) as usize;
            if local[0] != 0 || local[ball] as usize != span {
                return Err(bad(
                    lay.adj_off_local,
                    base,
                    format!("skeleton {v} adjacency offsets do not span {span}"),
                ));
            }
            for i in 1..=ball {
                if local[i] < local[i - 1] {
                    return Err(bad(
                        lay.adj_off_local,
                        base + i,
                        format!("skeleton {v} adjacency offsets decrease"),
                    ));
                }
            }
            for i in sa[v] as usize..sa[v + 1] as usize {
                if adj[i] >= ball {
                    return Err(invalid(
                        path,
                        lay.adj + i,
                        format!("adjacency index {} outside ball of size {ball}", adj[i]),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decodes the label sections into typed pools, consuming exactly
    /// the advertised word counts.
    #[allow(clippy::type_complexity)]
    fn decode_labels(
        &self,
        path: &Path,
        edge_count: usize,
    ) -> Result<(Vec<N>, Vec<u32>, Vec<((usize, usize), E)>), ArtifactError> {
        let lay = &self.lay;
        let w = self.words.as_slice();
        let nl_words = &w[lay.node_labels..lay.node_labels + (lay.edge_labels - lay.node_labels)];
        let mut r = WordReader::new(nl_words);
        let mut node_labels = Vec::with_capacity(lay.t);
        for i in 0..lay.t {
            let at = lay.node_labels + r.consumed();
            node_labels.push(N::decode(&mut r).ok_or_else(|| {
                invalid(path, at, format!("node label {i} of {} malformed", lay.t))
            })?);
        }
        if r.consumed() != nl_words.len() {
            return Err(invalid(
                path,
                lay.node_labels + r.consumed(),
                "node label section has trailing words",
            ));
        }
        let el_words = &w[lay.edge_labels..lay.total];
        let mut r = WordReader::new(el_words);
        let edge_off = r
            .read_u32s(lay.n + 1)
            .ok_or_else(|| invalid(path, lay.edge_labels, "edge offset table truncated"))?;
        if edge_off[0] != 0 || edge_off[lay.n] as usize != edge_count {
            return Err(invalid(
                path,
                lay.edge_labels,
                format!("edge offsets do not span {edge_count} entries"),
            ));
        }
        if edge_off.windows(2).any(|p| p[1] < p[0]) {
            return Err(invalid(path, lay.edge_labels, "edge offsets decrease"));
        }
        let mut edge_pool = Vec::with_capacity(edge_count);
        let member_off = self.member_off();
        for v in 0..lay.n {
            let ball = (member_off[v + 1] - member_off[v]) as usize;
            for i in edge_off[v] as usize..edge_off[v + 1] as usize {
                let at = lay.edge_labels + r.consumed();
                let key = r
                    .next()
                    .ok_or_else(|| invalid(path, at, "edge label key truncated"))?;
                let (u, wn) = ((key >> 32) as usize, key as u32 as usize);
                if u >= wn || wn >= ball {
                    return Err(invalid(
                        path,
                        at,
                        format!("edge key ({u}, {wn}) invalid in ball of size {ball}"),
                    ));
                }
                if let Some(((pu, pw), _)) = edge_pool.get(i.wrapping_sub(1)) {
                    if i > edge_off[v] as usize && (*pu, *pw) >= (u, wn) {
                        return Err(invalid(path, at, "edge keys not strictly sorted"));
                    }
                }
                let label = E::decode(&mut r)
                    .ok_or_else(|| invalid(path, at, format!("edge label {i} malformed")))?;
                edge_pool.push(((u, wn), label));
            }
        }
        if r.consumed() != el_words.len() {
            return Err(invalid(
                path,
                lay.edge_labels + r.consumed(),
                "edge label section has trailing words",
            ));
        }
        Ok((node_labels, edge_off, edge_pool))
    }
}

// ---------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------

/// Builds every node's skeleton for `(inst, radius)`. Large instances
/// fan the per-node BFS out across cores.
pub(crate) fn build_all<N: Clone + Send + Sync, E: Clone + Send + Sync>(
    inst: &Instance<N, E>,
    radius: usize,
) -> Vec<(Skeleton<N, E>, Vec<u32>)> {
    let n = inst.n();
    // One contiguous node range per worker, each reusing a single O(n)
    // scratch — not one scratch per node, which would make preparation
    // Θ(n²) in allocation alone.
    let workers = if n >= PAR_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    } else {
        1
    };
    let chunk = n.div_ceil(workers).max(1);
    let ranges = n.div_ceil(chunk);
    map_indices(ranges, ranges > 1, |i| {
        let mut scratch = BallScratch::new(inst.graph().n());
        (i * chunk..((i + 1) * chunk).min(n))
            .map(|v| build_skeleton(inst, v, radius, &mut scratch))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The mutable build/repair half of the core split: per-node skeleton
/// buckets plus the member/dependent tables, kept in repairable form so
/// topology churn rebuilds only its scope.
///
/// [`crate::engine::PreparedInstance`] borrows its instance and is
/// immutable: perfect for sweeping many proofs over one frozen graph,
/// useless once the graph itself churns. A `CoreBuilder` owns the same
/// per-node data in per-node buckets instead of frozen CSR arrays, so
/// after a topology mutation the affected balls are **rebuilt in place**
/// ([`Self::rebuild`]) — `O(Σ|changed ball|)` work — while every other
/// node's skeleton survives untouched. Label changes are cheaper still:
/// [`Self::set_node_label`] patches the stored label through the
/// dependency table without any BFS.
///
/// The builder knows nothing about *what* changed in the instance —
/// callers (the mutable cells behind `lcp-dynamic`'s `DynamicInstance`)
/// apply the mutation to their owned [`Instance`] first, compute its
/// scope with [`Self::edge_scope`], and hand the scope to
/// [`Self::rebuild`], which reports the views that *structurally*
/// changed — what makes exact dirty-set tracking possible.
///
/// [`Self::freeze`] renders the immutable serving form and
/// [`Self::thaw`] reconstructs a builder from one. A builder repaired
/// after churn and refrozen renders the same word image as a fresh
/// preparation of the mutated instance, so dynamic churn and frozen
/// artifacts share one invariant surface (pinned by the refreeze
/// tests).
pub struct CoreBuilder<N = (), E = ()> {
    radius: usize,
    skeletons: Vec<Skeleton<N, E>>,
    /// Global indices of each node's ball members, in view-local order.
    members: Vec<Vec<u32>>,
    /// For each global node `v`, the `(owner, local)` pairs of views
    /// containing `v`, sorted by owner.
    dependents: Vec<Vec<(u32, u32)>>,
    scratch: BallScratch,
}

impl<N, E> std::fmt::Debug for CoreBuilder<N, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreBuilder")
            .field("n", &self.skeletons.len())
            .field("radius", &self.radius)
            .finish_non_exhaustive()
    }
}

impl<N, E> CoreBuilder<N, E> {
    /// Number of nodes (`n(G)` at construction; mutations preserve it).
    pub fn n(&self) -> usize {
        self.skeletons.len()
    }

    /// The build radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

impl<N: Clone, E: Clone> CoreBuilder<N, E> {
    /// Builds the mutable core for `inst` at `radius`: one bounded BFS
    /// per node, paid once; later mutations repair only their scope.
    pub fn build(inst: &Instance<N, E>, radius: usize) -> Self {
        let n = inst.n();
        let mut scratch = BallScratch::new(inst.graph().n());
        let mut skeletons = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        for v in 0..n {
            let (skel, ms) = build_skeleton(inst, v, radius, &mut scratch);
            skeletons.push(skel);
            members.push(ms);
        }
        let mut dependents: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (owner, ms) in members.iter().enumerate() {
            for (local, &m) in ms.iter().enumerate() {
                dependents[m as usize].push((owner as u32, local as u32));
            }
        }
        CoreBuilder {
            radius,
            skeletons,
            members,
            dependents,
            scratch,
        }
    }

    /// Reconstructs a mutable builder from a frozen core — the thaw
    /// half of the round-trip, used when a dynamic session starts from
    /// a preloaded artifact.
    pub fn thaw(core: &FrozenCore<N, E>) -> Self {
        let n = core.n();
        let mut skeletons = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for v in 0..n {
            let sv = core.skel_view(v);
            skeletons.push(Skeleton {
                center: sv.center,
                radius: sv.radius,
                ids: sv.ids.to_vec(),
                adj_off: sv.adj_off.to_vec(),
                adj: sv.adj.to_vec(),
                dist: sv.dist.to_vec(),
                node_data: sv.node_data.to_vec(),
                edge_labels: sv.edge_labels.to_vec(),
            });
            members.push(core.members_of(v).to_vec());
            dependents[v] = core.dependents_of(v).collect();
        }
        CoreBuilder {
            radius: core.radius(),
            skeletons,
            members,
            dependents,
            scratch: BallScratch::new(n),
        }
    }

    /// Renders the immutable serving form. Byte-identical to
    /// `FrozenCore::from_built` over a fresh build of the same
    /// (current) topology — the refreeze invariant the round-trip tests
    /// pin.
    pub fn freeze(&self) -> FrozenCore<N, E> {
        let built: Vec<(Skeleton<N, E>, Vec<u32>)> = self
            .skeletons
            .iter()
            .cloned()
            .zip(self.members.iter().cloned())
            .collect();
        FrozenCore::from_built(self.radius, built)
    }

    /// Global indices of node `v`'s ball members, in view-local order.
    pub fn members_of(&self, v: usize) -> &[u32] {
        &self.members[v]
    }

    /// The centres whose views contain global node `v`, ascending
    /// (mirrors [`crate::engine::PreparedInstance::dependents`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.dependents_of(v)
            .iter()
            .map(|&(owner, _)| owner as usize)
    }

    /// Binds `proof` to node `v`'s skeleton — the same zero-copy
    /// binding as [`crate::engine::PreparedInstance::bind`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `proof.n()` mismatches.
    #[inline]
    pub fn bind<'s>(&'s self, v: usize, proof: &'s Proof) -> View<'s, N, E> {
        assert_eq!(proof.n(), self.n(), "proof must label every node");
        View::bind(self.skel_view(v), proof, self.members_of(v))
    }

    /// Runs `scheme`'s verifier at every node, sequentially — the
    /// full-sweep counterpart of [`Self::bind`], used to seed output
    /// caches and as the post-repair reference.
    pub fn evaluate<S>(&self, scheme: &S, proof: &Proof) -> Verdict
    where
        S: Scheme<Node = N, Edge = E>,
    {
        Verdict::from_outputs(
            (0..self.n())
                .map(|v| scheme.verify(&self.bind(v, proof)))
                .collect(),
        )
    }

    /// The `(owner, local)` pairs of views containing global node `v`.
    pub(crate) fn dependents_of(&self, v: usize) -> &[(u32, u32)] {
        &self.dependents[v]
    }

    /// Node `v`'s skeleton as a borrow-only view.
    #[inline]
    pub(crate) fn skel_view(&self, v: usize) -> SkelView<'_, N, E> {
        self.skeletons[v].as_view()
    }

    /// The scope of an edge mutation on `{u, v}`: the sorted union
    /// `ball(u, r) ∪ ball(v, r)` in `inst`'s **current** graph — every
    /// node whose view can differ between the graph with and without the
    /// edge.
    ///
    /// Call it on the graph that *contains* the edge: after applying an
    /// insertion, before applying a deletion. One multi-source BFS,
    /// `O(Σ|ball|)` — no `O(n)` scans.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn edge_scope(&mut self, inst: &Instance<N, E>, u: usize, v: usize) -> Vec<usize> {
        self.scratch.ball_union(inst.graph(), &[u, v], self.radius)
    }

    /// Rebuilds the skeletons of `nodes` against the instance's current
    /// topology and returns the subset whose views **changed
    /// structurally** (membership, adjacency, or distances) — the exact
    /// centres whose verifier output can differ, assuming unchanged
    /// labels and proof bits.
    ///
    /// Cost: one bounded BFS per listed node plus `O(|ball|)` dependency
    /// relinking — independent of `n`. Listing an unaffected node is
    /// harmless (its rebuild is a no-op and it is not reported changed);
    /// duplicates are tolerated.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range.
    pub fn rebuild(&mut self, inst: &Instance<N, E>, nodes: &[usize]) -> Vec<usize> {
        let mut changed = Vec::new();
        for &w in nodes {
            let (skel, ms) = build_skeleton(inst, w, self.radius, &mut self.scratch);
            let old = &self.skeletons[w];
            let structurally_equal = self.members[w] == ms
                && old.adj_off == skel.adj_off
                && old.adj == skel.adj
                && old.dist == skel.dist;
            if structurally_equal {
                continue;
            }
            // Unlink the stale membership, then link the new one.
            for &m in &self.members[w] {
                let deps = &mut self.dependents[m as usize];
                if let Ok(pos) = deps.binary_search_by_key(&(w as u32), |&(o, _)| o) {
                    deps.remove(pos);
                }
            }
            for (local, &m) in ms.iter().enumerate() {
                let deps = &mut self.dependents[m as usize];
                let entry = (w as u32, local as u32);
                match deps.binary_search_by_key(&(w as u32), |&(o, _)| o) {
                    Ok(pos) => deps[pos] = entry,
                    Err(pos) => deps.insert(pos, entry),
                }
            }
            self.skeletons[w] = skel;
            self.members[w] = ms;
            changed.push(w);
        }
        changed
    }

    /// Patches node `v`'s label through the dependency table: every view
    /// containing `v` gets the new label at `v`'s view-local slot. No
    /// BFS, no membership change — `O(|dependents(v)| · |patch|)`.
    ///
    /// Returns the views that were patched (the centres whose verifier
    /// output can change), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_node_label(&mut self, v: usize, label: &N) -> Vec<usize> {
        let mut touched = Vec::with_capacity(self.dependents[v].len());
        for &(owner, local) in &self.dependents[v] {
            self.skeletons[owner as usize].node_data[local as usize] = label.clone();
            touched.push(owner as usize);
        }
        touched
    }

    /// Fault-injection hook: structurally corrupts node `v`'s skeleton in
    /// place — bumps its farthest cached distance and, when the ball has
    /// at least two adjacency entries, reverses the CSR neighbour array
    /// — without touching the instance. Returns a short description of
    /// the damage.
    ///
    /// The corruption is exactly the kind of damage [`Self::rebuild`]
    /// exists to repair: a rebuild over any scope containing `v` compares
    /// against a freshly built skeleton and replaces the corrupted one.
    /// Exposed (hidden) for `lcp-faults` and tests only — never called by
    /// the engine itself.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[doc(hidden)]
    pub fn corrupt_skeleton_for_tests(&mut self, v: usize) -> &'static str {
        let skel = &mut self.skeletons[v];
        if skel.adj.len() >= 2 && skel.adj.first() != skel.adj.last() {
            skel.adj.reverse();
            if let Some(d) = skel.dist.last_mut() {
                *d = d.wrapping_add(1);
            }
            "reversed CSR adjacency and bumped a cached distance"
        } else if let Some(d) = skel.dist.last_mut() {
            *d = d.wrapping_add(1);
            "bumped a cached distance"
        } else {
            "empty skeleton: nothing to corrupt"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_graph::generators;

    #[test]
    fn packed_u32_roundtrip() {
        let mut out = Vec::new();
        push_u32s(&mut out, &[1, 2, 3]);
        assert_eq!(out, vec![1 | (2 << 32), 3]);
        let mut r = WordReader::new(&out);
        assert_eq!(r.read_u32s(3), Some(vec![1, 2, 3]));
        assert_eq!(r.consumed(), 2);
    }

    #[test]
    fn padded_half_word_must_be_zero() {
        let words = vec![1 | (7u64 << 32)];
        let mut r = WordReader::new(&words);
        assert_eq!(r.read_u32s(1), None, "nonzero padding rejected");
    }

    #[test]
    fn label_codecs_roundtrip() {
        fn rt<L: PortableLabel + PartialEq + std::fmt::Debug>(l: L) {
            let mut out = Vec::new();
            l.encode(&mut out);
            let mut r = WordReader::new(&out);
            assert_eq!(L::decode(&mut r), Some(l));
            assert_eq!(r.consumed(), out.len());
        }
        rt(());
        rt(true);
        rt(false);
        rt(17u8);
        rt(123_456u32);
        rt(u64::MAX);
        rt(42usize);
        let mut r = WordReader::new(&[2]);
        assert_eq!(bool::decode(&mut r), None, "bool rejects non-0/1");
        let mut r = WordReader::new(&[256]);
        assert_eq!(u8::decode(&mut r), None, "u8 rejects overflow");
    }

    #[test]
    fn layout_overflow_is_none_not_panic() {
        assert!(Layout::new(2, usize::MAX, usize::MAX, usize::MAX, 0, 0).is_none());
    }

    #[test]
    fn builder_freeze_matches_one_shot_freeze() {
        // 20 × 20 is past PAR_THRESHOLD: `build_all` splits it into one
        // node range per worker, while the builder goes node by node.
        for g in [generators::grid(3, 4), generators::grid(20, 20)] {
            let inst = Instance::unlabeled(g);
            let one_shot = FrozenCore::<(), ()>::from_built(2, build_all(&inst, 2));
            let built = CoreBuilder::build(&inst, 2).freeze();
            assert_eq!(one_shot.words(), built.words(), "byte-identical images");
        }
    }

    #[test]
    fn thaw_refreeze_is_identity() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let frozen = CoreBuilder::<(), ()>::build(&inst, 2).freeze();
        let again = CoreBuilder::thaw(&frozen).freeze();
        assert_eq!(frozen.words(), again.words());
    }

    #[test]
    fn frozen_views_match_built_skeletons() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let builder = CoreBuilder::<(), ()>::build(&inst, 2);
        let frozen = builder.freeze();
        for v in 0..inst.n() {
            assert_eq!(frozen.skel_view(v), builder.skel_view(v), "skeleton {v}");
            assert_eq!(frozen.members_of(v), builder.members_of(v));
            assert_eq!(
                frozen.dependents_of(v).collect::<Vec<_>>(),
                builder.dependents_of(v).to_vec()
            );
        }
    }

    #[test]
    fn save_open_roundtrip_and_rejections() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let frozen = CoreBuilder::<(), ()>::build(&inst, 2).freeze();
        let dir = std::env::temp_dir().join(format!("lcp-frozen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.lcpc");
        let fp = (0xabcd, 0x1234);
        frozen.save(&path, fp).unwrap();

        let opened = FrozenCore::<(), ()>::open(&path, Some(fp)).unwrap();
        for v in 0..inst.n() {
            assert_eq!(opened.skel_view(v), frozen.skel_view(v), "skeleton {v}");
        }

        // Wrong fingerprint expectation is rejected.
        assert!(FrozenCore::<(), ()>::open(&path, Some((1, 2))).is_err());

        // A flipped byte is a checksum error naming the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let bad = dir.join("flipped.lcpc");
        std::fs::write(&bad, &bytes).unwrap();
        let err = FrozenCore::<(), ()>::open(&bad, None).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation is rejected before any section is trusted.
        let bytes = std::fs::read(&path).unwrap();
        let cut = dir.join("cut.lcpc");
        std::fs::write(&cut, &bytes[..bytes.len() - 16]).unwrap();
        assert!(FrozenCore::<(), ()>::open(&cut, None).is_err());

        // Version skew (with a recomputed checksum) is a version error.
        let mut words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        words[1] = FORMAT_VERSION + 1;
        words[CHECKSUM_WORD] = 0;
        words[CHECKSUM_WORD] = fnv_words(&words);
        let skew = dir.join("skew.lcpc");
        let out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&skew, &out).unwrap();
        let err = FrozenCore::<(), ()>::open(&skew, None).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert!(err.to_string().contains("byte 8"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A labelled core (3×3 grid, radius 2, `u8` node and `u32` edge
    /// labels) rendered as its on-disk image: the seed of the hostile
    /// images below.
    fn labelled_image() -> Vec<u64> {
        let g = generators::grid(3, 3);
        let edges: crate::instance::EdgeMap<u32> = g
            .edges()
            .map(|(u, v)| ((u, v), (10 * u + v) as u32))
            .collect();
        let inst = Instance::with_data(g, (0..9u8).collect(), edges);
        CoreBuilder::build(&inst, 2)
            .freeze()
            .render_file((0xabcd, 0x1234))
    }

    /// A per-process temp file for one hostile-image test.
    fn hostile_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lcp-hostile-{}-{tag}.lcpc", std::process::id()))
    }

    /// Writes `words` to `path` and opens the file. A rejection must be
    /// an [`ArtifactError::Invalid`] naming `path` and a byte offset
    /// inside the file; an accepted core must serve every skeleton,
    /// member and dependent read, and thaw into a builder whose bound
    /// views read without panicking. Returns whether `open` accepted.
    fn open_hostile(path: &Path, words: &[u64]) -> bool {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(path, &bytes).unwrap();
        let core = match FrozenCore::<u8, u32>::open(path, None) {
            Ok(core) => core,
            Err(ArtifactError::Invalid {
                path: named,
                offset,
                detail,
            }) => {
                assert_eq!(named, path, "{detail}");
                assert!(offset <= bytes.len() as u64, "offset {offset}: {detail}");
                return false;
            }
            Err(e) => panic!("unlocated rejection: {e}"),
        };
        let n = core.n();
        for v in 0..n {
            let sv = core.skel_view(v);
            let _ = (sv.center, sv.ids, sv.adj_off, sv.adj, sv.dist);
            let _ = (sv.node_data, sv.edge_labels);
            let _ = core.members_of(v);
            let _ = core.dependents_of(v).count();
        }
        let builder = CoreBuilder::thaw(&core);
        let proof = Proof::empty(n);
        for v in 0..n {
            let view = builder.bind(v, &proof);
            for u in view.nodes() {
                let _ = (view.id(u), view.dist(u), view.node_label(u), view.proof(u));
                for &w in view.neighbors(u) {
                    let _ = (view.proof(w), view.edge_label(u, w));
                }
            }
        }
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn mutated_images_are_located_errors_or_safe_cores(
            edits in proptest::prelude::prop::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u64>(), 0u8..4),
                1..4,
            ),
        ) {
            let mut words = labelled_image();
            // Words past the magic, version and header-size checks,
            // less the total and checksum words (patched below), so
            // the edit reaches the structural validation.
            let targets: Vec<usize> = (3..words.len())
                .filter(|&i| i != 14 && i != CHECKSUM_WORD)
                .collect();
            for (pick, val, mode) in edits {
                let i = targets[pick % targets.len()];
                words[i] = match mode {
                    0 => val,
                    1 => words[i] ^ (1 << (val % 64)),
                    2 => val % 8,
                    _ => words[i].wrapping_add(if val % 2 == 0 { 1 } else { u64::MAX }),
                };
            }
            words[CHECKSUM_WORD] = 0;
            words[CHECKSUM_WORD] = fnv_words(&words);
            let path = hostile_path("mutated");
            open_hostile(&path, &words);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn truncated_images_are_located_errors() {
        let words = labelled_image();
        let path = hostile_path("truncated");
        for len in 0..words.len() {
            assert!(!open_hostile(&path, &words[..len]), "cut at word {len}");
            // With the total and checksum words patched to match, the
            // cut gets past the header to the section layout check.
            if len > CHECKSUM_WORD {
                let mut patched = words[..len].to_vec();
                patched[14] = len as u64;
                patched[CHECKSUM_WORD] = 0;
                patched[CHECKSUM_WORD] = fnv_words(&patched);
                assert!(!open_hostile(&path, &patched), "patched cut at word {len}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
