//! The one prepared-core representation, its repair overlay, and the
//! versioned on-disk artifact format (`docs/FORMAT.md`).
//!
//! # Why
//!
//! Every process that verifies proofs — campaign shards, nightly matrix
//! workers, the `lcp-serve` daemon — used to re-BFS every skeleton from
//! scratch on startup, even though the prepared data (CSR balls, the
//! member table, sorted edge-label keys) is already flat and
//! offset-indexed. This module makes the prepared core a *persistent
//! artifact*: a [`FrozenCore`] is one contiguous little-endian `u64`
//! word image whose sections are consumed in place, so a core can be
//! `mmap`ed from disk and served with **zero deserialization** of the
//! numeric sections (only the typed label pools are decoded on open, so
//! a core whose labels are `()` decodes nothing and allocates nothing).
//!
//! Each fact of a core is stored once. The verifiers that read node `v`
//! are exactly the nodes of `v`'s own ball — distance is symmetric — so
//! the member table is its own inverse: there is no dependents table,
//! and [`FrozenCore::open`] checks the symmetry instead. A node's label
//! is stored once per node, not once per ball that contains it, and
//! expanded per ball member on open.
//!
//! A [`FrozenCore`] is the only form a whole core takes: one pool
//! writer fills it, ball by ball, both in a fresh
//! [`FrozenCore::build`] and in [`CoreBuilder::freeze`]. A
//! [`CoreBuilder`] repairs topology churn (dynamic cells, fault
//! injection) as an overlay of touched balls over a shared, never
//! written core.
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

use crate::instance::Instance;
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::{Scheme, Verdict};
use crate::view::{build_skeleton, BallScratch, SkelView, Skeleton, View};
use lcp_graph::NodeId;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[cfg(target_endian = "big")]
compile_error!("lcp-core frozen artifacts require a little-endian target (docs/FORMAT.md)");

#[cfg(not(target_pointer_width = "64"))]
compile_error!("lcp-core frozen artifacts require a 64-bit target (adjacency words are usize)");

/// `b"LCPCORE1"` as a little-endian word — also serves as the
/// endianness probe: a byte-swapped reader sees garbage and rejects.
pub const MAGIC: u64 = u64::from_le_bytes(*b"LCPCORE1");

/// Bumped whenever the section layout changes incompatibly.
pub const FORMAT_VERSION: u64 = 2;

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
    /// Total edge-label entries across all skeletons.
    e: usize,
    member_off: usize,
    members: usize,
    centers: usize,
    skel_adj_off: usize,
    adj_off_local: usize,
    ids: usize,
    dist: usize,
    adj: usize,
    edge_off: usize,
    edge_keys: usize,
    node_labels: usize,
    edge_labels: usize,
    total: usize,
}

impl Layout {
    /// Computes the layout; `None` on arithmetic overflow (a hostile
    /// header must not panic or wrap into accepting bogus bounds).
    fn new(radius: usize, [n, t, a, e]: [usize; 4], nlw: usize, elw: usize) -> Option<Layout> {
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
            e,
            member_off: sec(w32(np1))?,
            members: sec(w32(t))?,
            centers: sec(w32(n))?,
            skel_adj_off: sec(w32(np1))?,
            adj_off_local: sec(w32(t.checked_add(n)?))?,
            ids: sec(t)?,
            dist: sec(w32(t))?,
            adj: sec(a)?,
            edge_off: sec(w32(np1))?,
            edge_keys: sec(e)?,
            node_labels: sec(nlw)?,
            edge_labels: sec(elw)?,
            total: 0,
        };
        Some(Layout {
            total: off,
            ..layout
        })
    }

    /// Every section in file order: its name, its entry count as
    /// `docs/FORMAT.md` writes it, and its word offset. The format doc's
    /// section table is checked against this list.
    #[cfg(test)]
    fn sections(&self) -> [(&'static str, &'static str, usize); 12] {
        [
            ("member_off", "n + 1", self.member_off),
            ("members", "T", self.members),
            ("centers", "n", self.centers),
            ("skel_adj_off", "n + 1", self.skel_adj_off),
            ("adj_off_local", "T + n", self.adj_off_local),
            ("ids", "T", self.ids),
            ("dist", "T", self.dist),
            ("adj", "A", self.adj),
            ("edge_off", "n + 1", self.edge_off),
            ("edge_keys", "E", self.edge_keys),
            ("node_labels", "n", self.node_labels),
            ("edge_labels", "E", self.edge_labels),
        ]
    }
}

// ---------------------------------------------------------------------
// FrozenCore
// ---------------------------------------------------------------------

/// The immutable serving half of a prepared core: every node's view
/// skeleton plus the member table, stored as one contiguous
/// little-endian word image (plus decoded label pools) with no
/// reference back to the instance it was built from.
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
    /// Decoded edge labels, one per entry of the `edge_keys` section,
    /// in the same order.
    edge_labels: Vec<E>,
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

    #[inline]
    fn edge_off(&self) -> &[u32] {
        self.u32_sec(self.lay.edge_off, self.lay.n + 1)
    }

    #[inline]
    fn edge_keys(&self) -> &[u64] {
        self.u64_sec(self.lay.edge_keys, self.lay.e)
    }

    /// Global indices of node `v`'s ball members, in view-local order.
    ///
    /// By symmetry these are also the owners of the views that contain
    /// `v` (checked on open), which is why no dependents table exists.
    #[inline]
    pub(crate) fn members_of(&self, v: usize) -> &[u32] {
        let off = self.member_off();
        &self.members_sec()[off[v] as usize..off[v + 1] as usize]
    }

    /// Node `v`'s skeleton as a borrow-only [`SkelView`] straight into
    /// the word image — the zero-copy bind primitive.
    #[inline]
    pub(crate) fn skel_view(&self, v: usize) -> SkelView<'_, N, E> {
        let off = self.member_off();
        let (lo, hi) = (off[v] as usize, off[v + 1] as usize);
        let sa = self.skel_adj_off();
        let (alo, ahi) = (sa[v] as usize, sa[v + 1] as usize);
        let eo = self.edge_off();
        let (elo, ehi) = (eo[v] as usize, eo[v + 1] as usize);
        SkelView {
            center: self.centers()[v] as usize,
            radius: self.lay.radius,
            ids: &self.ids_sec()[lo..hi],
            adj_off: &self.adj_off_local()[lo + v..hi + v + 1],
            adj: &self.adj_sec()[alo..ahi],
            dist: &self.dist_sec()[lo..hi],
            node_data: &self.node_labels[lo..hi],
            edge_keys: &self.edge_keys()[elo..ehi],
            edge_labels: &self.edge_labels[elo..ehi],
        }
    }
}

/// Packs `u32`s two per word, low half first, into the front of `out`
/// (the layout of every packed section).
fn pack_u32s(out: &mut [u64], vals: &[u32]) {
    for (w, pair) in out.iter_mut().zip(vals.chunks(2)) {
        *w = u64::from(pair[0]) | pair.get(1).map_or(0, |&v| u64::from(v) << 32);
    }
}

/// The one writer of a core's word image. Balls are pushed in node
/// order into growable section buffers; [`Self::finish`] lays the words
/// out once.
///
/// Deterministic: equal ball sequences render byte-identical images,
/// which is what lets racing campaign shards write interchangeable
/// artifact files, and what makes a builder repaired after churn
/// refreeze to the image of a fresh build.
struct PoolWriter<N, E> {
    radius: usize,
    // One entry per ball; `finish` appends the closing offsets.
    member_off: Vec<u32>,
    centers: Vec<u32>,
    skel_adj_off: Vec<u32>,
    edge_off: Vec<u32>,
    // One entry per ball member.
    members: Vec<u32>,
    ids: Vec<u64>,
    dist: Vec<u32>,
    node_labels: Vec<N>,
    /// Each ball's `|ball| + 1` local CSR offsets, back to back.
    adj_off_local: Vec<u32>,
    adj: Vec<u64>,
    // One entry per labelled edge of a ball.
    edge_keys: Vec<u64>,
    edge_labels: Vec<E>,
}

impl<N: Clone, E: Clone> PoolWriter<N, E> {
    /// A writer for `n` balls. Every ball holds its centre, so member
    /// sections start at `n` entries: growing past that takes
    /// O(log mean |ball|) reallocations, whatever `n` is.
    fn new(radius: usize, n: usize) -> Self {
        PoolWriter {
            radius,
            member_off: Vec::with_capacity(n + 1),
            centers: Vec::with_capacity(n),
            skel_adj_off: Vec::with_capacity(n + 1),
            edge_off: Vec::with_capacity(n + 1),
            members: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            dist: Vec::with_capacity(n),
            node_labels: Vec::with_capacity(n),
            adj_off_local: Vec::with_capacity(2 * n),
            adj: Vec::with_capacity(n),
            edge_keys: Vec::new(),
            edge_labels: Vec::new(),
        }
    }

    /// Appends the next node's ball and its members (global indices in
    /// view-local order).
    fn push(&mut self, sv: SkelView<'_, N, E>, members: &[u32]) {
        debug_assert_eq!(sv.n(), members.len());
        // Offsets past u32 wrap here, but `finish` refuses such a core.
        self.member_off.push(self.members.len() as u32);
        self.centers.push(sv.center as u32);
        self.skel_adj_off.push(self.adj.len() as u32);
        self.edge_off.push(self.edge_keys.len() as u32);
        self.members.extend_from_slice(members);
        self.ids.extend(sv.ids.iter().map(|id| id.0));
        self.dist.extend_from_slice(sv.dist);
        self.node_labels.extend_from_slice(sv.node_data);
        self.adj_off_local.extend_from_slice(sv.adj_off);
        self.adj.extend(sv.adj.iter().map(|&w| w as u64));
        self.edge_keys.extend_from_slice(sv.edge_keys);
        self.edge_labels.extend_from_slice(sv.edge_labels);
    }

    /// Lays out the numeric word image (label sections absent, as on
    /// every in-process core) and hands the label pools over.
    ///
    /// # Panics
    ///
    /// Panics if the core exceeds the format's `u32` offset range
    /// (Σ|ball|, Σ|adj| or the edge-label count ≥ 2³²).
    fn finish(mut self) -> FrozenCore<N, E> {
        let n = self.centers.len();
        let (t, a, e) = (self.members.len(), self.adj.len(), self.edge_keys.len());
        assert!(
            u32::try_from(t.max(a).max(e)).is_ok(),
            "core too large for the artifact format's u32 offsets"
        );
        self.member_off.push(t as u32);
        self.skel_adj_off.push(a as u32);
        self.edge_off.push(e as u32);
        let lay = Layout::new(self.radius, [n, t, a, e], 0, 0).expect("artifact layout overflow");
        let mut words = vec![0u64; lay.total];
        words[0] = MAGIC;
        words[1] = FORMAT_VERSION;
        words[2] = HEADER_WORDS as u64;
        words[3] = self.radius as u64;
        words[4] = n as u64;
        words[5] = t as u64;
        words[6] = a as u64;
        words[7] = e as u64;
        // Words 8–13 (label tags, label word counts, fingerprint) stay
        // zero until `save` patches them; word 14 is the numeric total.
        words[14] = lay.total as u64;
        pack_u32s(&mut words[lay.member_off..], &self.member_off);
        pack_u32s(&mut words[lay.members..], &self.members);
        pack_u32s(&mut words[lay.centers..], &self.centers);
        pack_u32s(&mut words[lay.skel_adj_off..], &self.skel_adj_off);
        pack_u32s(&mut words[lay.adj_off_local..], &self.adj_off_local);
        pack_u32s(&mut words[lay.dist..], &self.dist);
        words[lay.ids..lay.ids + t].copy_from_slice(&self.ids);
        words[lay.adj..lay.adj + a].copy_from_slice(&self.adj);
        pack_u32s(&mut words[lay.edge_off..], &self.edge_off);
        words[lay.edge_keys..lay.edge_keys + e].copy_from_slice(&self.edge_keys);

        self.node_labels.shrink_to_fit();
        self.edge_labels.shrink_to_fit();
        FrozenCore {
            words: Words::Owned(words),
            lay,
            node_labels: self.node_labels,
            edge_labels: self.edge_labels,
        }
    }
}

impl<N: Clone, E: Clone> FrozenCore<N, E> {
    /// Builds the core of `(inst, radius)` from scratch: one bounded BFS
    /// per node into one reusable ball buffer, appended straight to the
    /// pools — `O(Σ|ball|)` work, O(1) allocations. The one from-scratch
    /// build entry, counted in `lcp_engine_prepares_total`.
    ///
    /// # Panics
    ///
    /// Panics if the core exceeds the format's `u32` offset range
    /// (Σ|ball| or Σ|adj| ≥ 2³²).
    pub fn build(inst: &Instance<N, E>, radius: usize) -> Self {
        let started = Instant::now();
        let n = inst.n();
        let mut scratch = BallScratch::new(n);
        let mut skel = Skeleton::default();
        let mut members = Vec::new();
        let mut writer = PoolWriter::new(radius, n);
        for v in 0..n {
            build_skeleton(inst, v, radius, &mut scratch, &mut skel, &mut members);
            writer.push(skel.as_view(), &members);
        }
        let core = writer.finish();
        metrics::PREPARES.inc();
        metrics::PREPARE_NS.observe(started.elapsed().as_nanos() as u64);
        core
    }
}

impl<N: PortableLabel, E: PortableLabel> FrozenCore<N, E> {
    /// Renders the complete on-disk image: the numeric word sections
    /// verbatim, one `PortableLabel`-encoded node label per node (the
    /// copy at the centre of the node's own ball), the edge-label pool,
    /// and the header patched with tags, counts, `fingerprint`, and
    /// checksum.
    fn render_file(&self, fingerprint: (u64, u64)) -> Vec<u64> {
        let numeric_end = self.lay.node_labels;
        let mut out = Vec::with_capacity(numeric_end + self.lay.n + self.lay.e + 64);
        out.extend_from_slice(&self.words.as_slice()[..numeric_end]);
        let (member_off, centers) = (self.member_off(), self.centers());
        for v in 0..self.lay.n {
            self.node_labels[member_off[v] as usize + centers[v] as usize].encode(&mut out);
        }
        let nlw = out.len() - numeric_end;
        let el_start = out.len();
        for l in &self.edge_labels {
            l.encode(&mut out);
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
}

impl<N: PortableLabel + Clone, E: PortableLabel> FrozenCore<N, E> {
    /// Opens an artifact file: `mmap`s it read-only (falling back to a
    /// plain read into a `Vec<u64>` when mapping is unavailable) and
    /// validates it structurally — magic, version, checksum, section
    /// bounds, offset monotonicity, index ranges, ball symmetry, edge-key
    /// order, label decode — before any slice is served. When `expect`
    /// is given, the embedded fingerprint must match (the caller pairing
    /// an artifact with its instance).
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
        let e = as_usize(7)?;
        let nlw = as_usize(10)?;
        let elw = as_usize(11)?;
        let lay = Layout::new(radius, [n, t, a, e], nlw, elw)
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
        if t > u32::MAX as usize || a > u32::MAX as usize || e > u32::MAX as usize {
            return Err(invalid(path, 5, "counts exceed the format's u32 offsets"));
        }
        let core = FrozenCore {
            words,
            lay,
            node_labels: Vec::new(),
            edge_labels: Vec::new(),
        };
        core.validate_structure(path)?;
        let (node_labels, edge_labels) = core.decode_labels(path)?;
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
            edge_labels,
            ..core
        })
    }

    /// Structural validation of the numeric sections: every offset
    /// array is monotone and ends on its pool length, every index is in
    /// range, centers sit at distance 0 of their own ball, the member
    /// table is symmetric, and each ball's edge keys are strictly
    /// ascending pairs `u < w` of its members.
    fn validate_structure(&self, path: &Path) -> Result<(), ArtifactError> {
        let lay = &self.lay;
        let (n, t, a, e) = (lay.n, lay.t, lay.a, lay.e);
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
        check_offsets(lay.skel_adj_off, self.skel_adj_off(), a, "skel_adj_off")?;
        check_offsets(lay.edge_off, self.edge_off(), e, "edge_off")?;

        let member_off = self.member_off();
        let members = self.members_sec();
        let dist = self.dist_sec();
        // Pairs (v, u) with u in ball(v), counted by which side of v the
        // member falls: the symmetry check below needs them equal.
        let (mut above, mut below) = (0usize, 0usize);
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
            // The ball is sorted and holds `v` at `c`: `c` members lie
            // below `v`, the rest above.
            below += c;
            above += hi - lo - c - 1;
        }
        // Symmetry: every `u > v` in ball(v) has `v` in ball(u). That
        // maps the pairs above the diagonal one-to-one onto pairs below
        // it, so equal counts leave no pair below unmatched either.
        for v in 0..n {
            let (lo, hi) = (member_off[v] as usize, member_off[v + 1] as usize);
            let c = self.centers()[v] as usize;
            for i in lo + c + 1..hi {
                let u = members[i] as usize;
                let ball_u = &members[member_off[u] as usize..member_off[u + 1] as usize];
                if ball_u.binary_search(&(v as u32)).is_err() {
                    return Err(bad(
                        lay.members,
                        i,
                        format!("node {u} is in node {v}'s ball, but {v} is not in {u}'s"),
                    ));
                }
            }
        }
        if above != below {
            return Err(bad(
                lay.members,
                0,
                format!("member table is not symmetric: {above} pairs above the diagonal, {below} below"),
            ));
        }
        // Per-skeleton local CSR offsets, adjacency indices and edge keys.
        let sa = self.skel_adj_off();
        let aol = self.adj_off_local();
        let adj = self.adj_sec();
        let eo = self.edge_off();
        let keys = self.edge_keys();
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
            for i in eo[v] as usize..eo[v + 1] as usize {
                let (u, w) = (keys[i] >> 32, keys[i] & u64::from(u32::MAX));
                if u >= w || w >= ball as u64 {
                    return Err(invalid(
                        path,
                        lay.edge_keys + i,
                        format!("edge key ({u}, {w}) invalid in ball of size {ball}"),
                    ));
                }
                if i > eo[v] as usize && keys[i] <= keys[i - 1] {
                    return Err(invalid(
                        path,
                        lay.edge_keys + i,
                        "edge keys not strictly sorted",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decodes the label sections into typed pools, consuming exactly
    /// the advertised word counts: `n` node labels, expanded to one per
    /// ball member, then one edge label per edge key.
    fn decode_labels(&self, path: &Path) -> Result<(Vec<N>, Vec<E>), ArtifactError> {
        let lay = &self.lay;
        let w = self.words.as_slice();
        let nl_words = &w[lay.node_labels..lay.edge_labels];
        let mut r = WordReader::new(nl_words);
        let mut per_node = Vec::with_capacity(lay.n);
        for v in 0..lay.n {
            let at = lay.node_labels + r.consumed();
            per_node.push(N::decode(&mut r).ok_or_else(|| {
                invalid(path, at, format!("node label {v} of {} malformed", lay.n))
            })?);
        }
        if r.consumed() != nl_words.len() {
            return Err(invalid(
                path,
                lay.node_labels + r.consumed(),
                "node label section has trailing words",
            ));
        }
        let node_labels = self
            .members_sec()
            .iter()
            .map(|&m| per_node[m as usize].clone())
            .collect();
        let el_words = &w[lay.edge_labels..lay.total];
        let mut r = WordReader::new(el_words);
        let mut edge_labels = Vec::with_capacity(lay.e);
        for i in 0..lay.e {
            let at = lay.edge_labels + r.consumed();
            edge_labels.push(
                E::decode(&mut r)
                    .ok_or_else(|| invalid(path, at, format!("edge label {i} malformed")))?,
            );
        }
        if r.consumed() != el_words.len() {
            return Err(invalid(
                path,
                lay.edge_labels + r.consumed(),
                "edge label section has trailing words",
            ));
        }
        Ok((node_labels, edge_labels))
    }
}

// ---------------------------------------------------------------------
// Repair over a shared core
// ---------------------------------------------------------------------

/// An owned ball: its skeleton and the global indices of its members,
/// in view-local order.
type Ball<N, E> = (Skeleton<N, E>, Vec<u32>);

/// A repairable core: a shared [`FrozenCore`] base plus an overlay of
/// the balls that changed since it was opened.
///
/// [`crate::engine::PreparedInstance`] is immutable: perfect for
/// sweeping many proofs over one frozen graph, useless once the graph
/// itself churns. A `CoreBuilder` reads every ball from its base until
/// a mutation touches it: [`Self::rebuild`] rebuilds the affected balls
/// into the overlay (`O(Σ|changed ball|)` work) and
/// [`Self::set_node_label`] patches labels through the views that
/// contain the node, without a BFS. The base is never written — every
/// write copies the touched ball or dependents list into the overlay
/// first — so one
/// core can back the cache, a mapped artifact, resident verifies and any
/// number of builders at once, and [`Self::new`] neither copies nor
/// allocates.
///
/// The builder knows nothing about *what* changed in the instance —
/// callers (the mutable cells behind `lcp-dynamic`'s `DynamicInstance`)
/// apply the mutation to their owned [`Instance`] first, compute its
/// scope with [`Self::edge_scope`], and hand the scope to
/// [`Self::rebuild`], which reports the views that *structurally*
/// changed — what makes exact dirty-set tracking possible.
///
/// [`Self::freeze`] renders the current balls through the same writer
/// as a fresh build, so a builder repaired after churn and refrozen
/// renders the same word image as a fresh build of the mutated
/// instance: dynamic churn and frozen artifacts share one invariant
/// surface (pinned by the refreeze tests).
pub struct CoreBuilder<N = (), E = ()> {
    /// The shared core this builder was opened over; never written.
    base: Arc<FrozenCore<N, E>>,
    /// Balls rebuilt, relabelled or corrupted since the builder opened.
    balls: HashMap<usize, Ball<N, E>>,
    /// Dependents lists that rebuilds changed: for global node `v`, the
    /// owners of the views containing `v`, ascending. A node without an
    /// entry has its base dependents, which by symmetry are its base
    /// ball's members.
    dependents: HashMap<usize, Vec<u32>>,
    /// BFS scratch, made by the first scope or rebuild.
    scratch: Option<BallScratch>,
    /// The ball buffer rebuilds fill.
    ball: Ball<N, E>,
}

impl<N, E> std::fmt::Debug for CoreBuilder<N, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreBuilder")
            .field("n", &self.n())
            .field("radius", &self.radius())
            .field("overlay", &self.balls.len())
            .finish_non_exhaustive()
    }
}

impl<N, E> CoreBuilder<N, E> {
    /// Opens a builder over `base` — a fresh [`FrozenCore::build`], a
    /// cache hit or a mapped artifact alike. The base is shared, not
    /// copied.
    pub fn new(base: Arc<FrozenCore<N, E>>) -> Self {
        CoreBuilder {
            base,
            balls: HashMap::new(),
            dependents: HashMap::new(),
            scratch: None,
            ball: Ball::default(),
        }
    }

    /// Number of nodes (`n(G)` at construction; mutations preserve it).
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// The build radius `r`.
    pub fn radius(&self) -> usize {
        self.base.radius()
    }

    /// Global indices of node `v`'s ball members, in view-local order.
    pub fn members_of(&self, v: usize) -> &[u32] {
        match self.balls.get(&v) {
            Some((_, members)) => members,
            None => self.base.members_of(v),
        }
    }

    /// Node `v`'s skeleton as a borrow-only view.
    #[inline]
    pub(crate) fn skel_view(&self, v: usize) -> SkelView<'_, N, E> {
        match self.balls.get(&v) {
            Some((skel, _)) => skel.as_view(),
            None => self.base.skel_view(v),
        }
    }

    /// The owners of the views containing global node `v`, ascending.
    fn dependents_of(&self, v: usize) -> &[u32] {
        match self.dependents.get(&v) {
            Some(owners) => owners,
            None => self.base.members_of(v),
        }
    }

    /// The centres whose views contain global node `v`, ascending
    /// (mirrors [`crate::engine::PreparedInstance::dependents`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.dependents_of(v).iter().map(|&owner| owner as usize)
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
        let outputs = (0..self.n())
            .map(|v| scheme.verify(&self.bind(v, proof)))
            .collect();
        proof.flush_label_decodes();
        Verdict::from_outputs(outputs)
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
        let n = self.n();
        let radius = self.radius();
        self.scratch
            .get_or_insert_with(|| BallScratch::new(n))
            .ball_union(inst.graph(), &[u, v], radius)
    }
}

impl<N: Clone, E: Clone> CoreBuilder<N, E> {
    /// Renders the current balls as a frozen core, through the same
    /// writer as [`FrozenCore::build`]: byte-identical to a fresh build
    /// of the same (current) instance — the refreeze invariant the
    /// round-trip tests pin.
    pub fn freeze(&self) -> FrozenCore<N, E> {
        let mut writer = PoolWriter::new(self.radius(), self.n());
        for v in 0..self.n() {
            writer.push(self.skel_view(v), self.members_of(v));
        }
        writer.finish()
    }

    /// Node `v`'s ball in the overlay, copied from the base on first
    /// touch.
    fn ball_mut(&mut self, v: usize) -> &mut Ball<N, E> {
        let base = &self.base;
        self.balls.entry(v).or_insert_with(|| {
            (
                Skeleton::from_view(base.skel_view(v)),
                base.members_of(v).to_vec(),
            )
        })
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
        let n = self.n();
        let radius = self.radius();
        let mut scratch = self.scratch.take().unwrap_or_else(|| BallScratch::new(n));
        let mut ball = std::mem::take(&mut self.ball);
        let mut changed = Vec::new();
        for &w in nodes {
            let (skel, ms) = &mut ball;
            build_skeleton(inst, w, radius, &mut scratch, skel, ms);
            let old = self.skel_view(w);
            if self.members_of(w) == ms.as_slice()
                && old.adj_off == skel.adj_off.as_slice()
                && old.adj == skel.adj.as_slice()
                && old.dist == skel.dist.as_slice()
            {
                continue;
            }
            // Unlink the stale membership, then link the new one.
            let stale = self.balls.remove(&w);
            let stale_members = stale
                .as_ref()
                .map_or_else(|| self.base.members_of(w), |(_, m)| m.as_slice());
            for &m in stale_members {
                let deps = dependents_mut(&self.base, &mut self.dependents, m as usize);
                if let Ok(pos) = deps.binary_search(&(w as u32)) {
                    deps.remove(pos);
                }
            }
            for &m in ms.iter() {
                let deps = dependents_mut(&self.base, &mut self.dependents, m as usize);
                if let Err(pos) = deps.binary_search(&(w as u32)) {
                    deps.insert(pos, w as u32);
                }
            }
            // The rebuilt ball moves into the overlay; the stale one, if
            // any, becomes the buffer of the next rebuild.
            let next = stale.unwrap_or_default();
            self.balls.insert(w, std::mem::replace(&mut ball, next));
            changed.push(w);
        }
        self.scratch = Some(scratch);
        self.ball = ball;
        changed
    }

    /// Patches node `v`'s label in every view containing `v`, at `v`'s
    /// view-local slot (a binary search in the owner's sorted ball). No
    /// BFS, no membership change — `O(|dependents(v)| · log |ball|)`,
    /// plus a one-time copy of each ball not yet in the overlay.
    ///
    /// Returns the views that were patched (the centres whose verifier
    /// output can change), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_node_label(&mut self, v: usize, label: &N) -> Vec<usize> {
        let owners: Vec<usize> = self.dependents(v).collect();
        for &owner in &owners {
            let (skel, members) = self.ball_mut(owner);
            let local = members
                .binary_search(&(v as u32))
                .expect("a view that depends on a node holds it");
            skel.node_data[local] = label.clone();
        }
        owners
    }

    /// Fault-injection hook: structurally corrupts node `v`'s skeleton
    /// in the overlay — bumps its farthest cached distance and, when the
    /// ball has at least two adjacency entries, reverses the CSR
    /// neighbour array — without touching the instance or the base.
    /// Returns a short description of the damage.
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
        let skel = &mut self.ball_mut(v).0;
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

/// Node `v`'s dependents list in `overlay`, copied from `base` (whose
/// dependents are the members of `v`'s own ball) on first touch.
fn dependents_mut<'a, N, E>(
    base: &FrozenCore<N, E>,
    overlay: &'a mut HashMap<usize, Vec<u32>>,
    v: usize,
) -> &'a mut Vec<u32> {
    overlay
        .entry(v)
        .or_insert_with(|| base.members_of(v).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcp_graph::generators;

    #[test]
    fn packed_u32_roundtrip() {
        let mut out = vec![0; w32(3)];
        pack_u32s(&mut out, &[1, 2, 3]);
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
        assert!(Layout::new(2, [usize::MAX; 4], 0, 0).is_none());
        assert!(Layout::new(2, [1, 1, 1, usize::MAX - 8], 0, 0).is_none());
    }

    /// A builder over a fresh core of `(inst, radius)`.
    fn builder<N: Clone, E: Clone>(inst: &Instance<N, E>, radius: usize) -> CoreBuilder<N, E> {
        CoreBuilder::new(Arc::new(FrozenCore::build(inst, radius)))
    }

    #[test]
    fn builder_freeze_matches_one_shot_freeze() {
        // A fresh build feeds the writer from its BFS buffer, a freeze
        // from the builder's views of its base.
        for g in [generators::grid(3, 4), generators::grid(20, 20)] {
            let inst = Instance::unlabeled(g);
            let one_shot = FrozenCore::<(), ()>::build(&inst, 2);
            let built = builder(&inst, 2).freeze();
            assert_eq!(one_shot.words(), built.words(), "byte-identical images");
        }
    }

    /// FNV-1a over the bytes `core.save` writes, under a fixed
    /// fingerprint.
    fn saved_digest<N: PortableLabel, E: PortableLabel>(core: &FrozenCore<N, E>, tag: &str) -> u64 {
        let path = hostile_path(&format!("golden-{tag}"));
        core.save(&path, (0xabcd, 0x1234)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes.iter().fold(FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }

    /// A grid with `u8` node labels and `u32` edge labels.
    fn labelled_grid(rows: usize, cols: usize) -> Instance<u8, u32> {
        let g = generators::grid(rows, cols);
        let edges: crate::instance::EdgeMap<u32> = g
            .edges()
            .map(|(u, v)| ((u, v), (10 * u + v) as u32))
            .collect();
        let n = g.n();
        Instance::with_data(g, (0..n).map(|v| v as u8).collect(), edges)
    }

    #[test]
    fn saved_images_match_the_pinned_golden_digests() {
        // Captured from the images v2 writers produce; a
        // change here orphans artifact directories and breaks the
        // byte-identity of racing shard writes.
        let labelled = FrozenCore::build(&labelled_grid(3, 3), 2);
        assert_eq!(saved_digest(&labelled, "labelled"), 0xdba7_1b96_ebd0_4c61);

        let grid = Instance::unlabeled(generators::grid(20, 20));
        let unlabelled = FrozenCore::<(), ()>::build(&grid, 2);
        assert_eq!(saved_digest(&unlabelled, "grid"), 0x91b9_dbf6_1eda_66af);

        let mut inst = labelled_grid(4, 5);
        let mut store = builder(&inst, 2);
        inst.insert_edge(0, 19).unwrap();
        let scope = store.edge_scope(&inst, 0, 19);
        store.rebuild(&inst, &scope);
        inst.set_node_label(7, 42);
        store.set_node_label(7, &42);
        assert_eq!(
            saved_digest(&store.freeze(), "refrozen"),
            0xa614_b967_7bb4_bc9b
        );
    }

    #[test]
    fn thaw_refreeze_is_identity() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let frozen = Arc::new(FrozenCore::<(), ()>::build(&inst, 2));
        let again = CoreBuilder::new(Arc::clone(&frozen)).freeze();
        assert_eq!(frozen.words(), again.words());
    }

    #[test]
    fn frozen_views_match_built_skeletons() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let builder = builder::<(), ()>(&inst, 2);
        let frozen = builder.freeze();
        for v in 0..inst.n() {
            assert_eq!(frozen.skel_view(v), builder.skel_view(v), "skeleton {v}");
            assert_eq!(frozen.members_of(v), builder.members_of(v));
            assert_eq!(frozen.members_of(v), builder.dependents_of(v));
        }
    }

    #[test]
    fn save_open_roundtrip_and_rejections() {
        let inst = Instance::unlabeled(generators::grid(3, 4));
        let frozen = FrozenCore::<(), ()>::build(&inst, 2);
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
        FrozenCore::build(&labelled_grid(3, 3), 2).render_file((0xabcd, 0x1234))
    }

    /// A per-process temp file for one hostile-image test.
    fn hostile_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lcp-hostile-{}-{tag}.lcpc", std::process::id()))
    }

    /// Writes `words` to `path` and opens the file. A rejection must be
    /// an [`ArtifactError::Invalid`] naming `path` and a byte offset
    /// inside the file; an accepted core must serve every skeleton and
    /// member read, and open a builder whose bound views and dependents
    /// read without panicking. Returns whether `open` accepted.
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
            let _ = (sv.node_data, sv.edge_keys, sv.edge_labels);
            let _ = core.members_of(v);
        }
        let builder = CoreBuilder::new(Arc::new(core));
        let proof = Proof::empty(n);
        for v in 0..n {
            let _ = builder.dependents(v).count();
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

    /// The layout a rendered image's header describes.
    fn layout_of(words: &[u64]) -> Layout {
        let c = |i: usize| words[i] as usize;
        Layout::new(c(3), [c(4), c(5), c(6), c(7)], c(10), c(11)).unwrap()
    }

    /// Re-seals `words` (checksum patched) and opens it, returning the
    /// rejection's byte offset and detail; panics if `open` accepts.
    fn rejection(tag: &str, words: &mut [u64]) -> (u64, String) {
        words[CHECKSUM_WORD] = 0;
        words[CHECKSUM_WORD] = fnv_words(words);
        let path = hostile_path(tag);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&path, bytes).unwrap();
        let err = FrozenCore::<u8, u32>::open(&path, None);
        std::fs::remove_file(&path).ok();
        match err {
            Err(ArtifactError::Invalid { offset, detail, .. }) => (offset, detail),
            Err(e) => panic!("unlocated rejection: {e}"),
            Ok(_) => panic!("{tag}: a hostile image was accepted"),
        }
    }

    /// An image whose balls are `(instance, radius)` pairs, one per node:
    /// mixing balls of different graphs or radii breaks the symmetry a
    /// real core has.
    fn mixed_image(balls: &[(&Instance<u8, u32>, usize)], radius: usize) -> Vec<u64> {
        let n = balls.len();
        let mut writer = PoolWriter::new(radius, n);
        let mut scratch = BallScratch::new(n);
        let (mut skel, mut members) = (Skeleton::default(), Vec::new());
        for (v, &(inst, r)) in balls.iter().enumerate() {
            build_skeleton(inst, v, r, &mut scratch, &mut skel, &mut members);
            writer.push(skel.as_view(), &members);
        }
        writer.finish().render_file((0xabcd, 0x1234))
    }

    #[test]
    fn asymmetric_member_tables_are_located_errors() {
        let unlabelled = |g: lcp_graph::Graph| {
            let n = g.n();
            Instance::with_data(g, vec![0u8; n], crate::instance::EdgeMap::new())
        };
        let (path, triangle) = (
            unlabelled(generators::path(3)),
            unlabelled(generators::cycle(3)),
        );
        // Node 0 sees the triangle's ball {0, 1, 2}, but node 2's path
        // ball {1, 2} does not hold 0: named at the entry for 2.
        let mut words = mixed_image(&[(&triangle, 1), (&path, 1), (&path, 1)], 1);
        let lay = layout_of(&words);
        let (offset, detail) = rejection("asymmetric", &mut words);
        assert_eq!(offset, 8 * (lay.members as u64 + 1), "{detail}");
        assert!(detail.contains("not in 2's"), "{detail}");

        // Node 1's ball {0, 1} holds 0, but node 0 sees only itself:
        // no pair above the diagonal goes unmatched, so the counts do.
        let pair = unlabelled(generators::path(2));
        let mut words = mixed_image(&[(&pair, 0), (&pair, 1)], 1);
        let lay = layout_of(&words);
        let (offset, detail) = rejection("lopsided", &mut words);
        assert_eq!(offset, 8 * lay.members as u64, "{detail}");
        assert!(detail.contains("not symmetric"), "{detail}");
    }

    #[test]
    fn bad_edge_keys_are_located_errors() {
        let words = labelled_image();
        let lay = layout_of(&words);
        let eo: Vec<u32> = {
            let mut r = WordReader::new(&words[lay.edge_off..lay.edge_keys]);
            r.read_u32s(lay.n + 1).unwrap()
        };
        let mo: Vec<u32> = {
            let mut r = WordReader::new(&words[lay.member_off..lay.members]);
            r.read_u32s(lay.n + 1).unwrap()
        };
        let v = (0..lay.n).find(|&v| eo[v + 1] - eo[v] >= 2).unwrap();
        let first = lay.edge_keys + eo[v] as usize;
        let at = |word: usize| 8 * word as u64;

        let mut swapped = words.clone();
        swapped.swap(first, first + 1);
        let (offset, detail) = rejection("unsorted-keys", &mut swapped);
        assert_eq!(offset, at(first + 1), "{detail}");
        assert!(detail.contains("not strictly sorted"), "{detail}");

        let ball = u64::from(mo[v + 1] - mo[v]);
        let mut outside = words.clone();
        outside[first] = ball;
        let (offset, detail) = rejection("key-outside-ball", &mut outside);
        assert_eq!(offset, at(first), "{detail}");
        assert!(detail.contains("invalid in ball"), "{detail}");

        let mut reversed = words.clone();
        let key = reversed[first];
        reversed[first] = key.rotate_right(32);
        let (offset, _) = rejection("reversed-key", &mut reversed);
        assert_eq!(offset, at(first));
    }

    #[test]
    fn node_labels_are_stored_once_per_node() {
        // A 3×3 grid at radius 2: Σ|ball| is far above n, yet the label
        // section holds n one-word `u8` labels, and open expands them
        // back to the per-member pool a fresh build holds.
        let inst = labelled_grid(3, 3);
        let core = FrozenCore::build(&inst, 2);
        let words = core.render_file((0xabcd, 0x1234));
        let lay = layout_of(&words);
        assert!(lay.t > 2 * lay.n);
        assert_eq!(lay.edge_labels - lay.node_labels, lay.n);
        let path = hostile_path("per-node-labels");
        core.save(&path, (0xabcd, 0x1234)).unwrap();
        let opened = FrozenCore::<u8, u32>::open(&path, None).unwrap();
        std::fs::remove_file(&path).ok();
        for v in 0..inst.n() {
            assert_eq!(opened.skel_view(v), core.skel_view(v), "skeleton {v}");
        }
    }

    /// `docs/FORMAT.md` must list the image's sections in file order,
    /// each with its entry count, as `Layout` lays them out.
    mod format_doc_sync {
        use super::*;

        /// The `(name, entries)` rows of the doc's section table: lines
        /// `| k | \`name\` | \`count\` ... |`.
        fn documented_sections(doc: &str) -> Vec<(String, String)> {
            doc.lines()
                .filter_map(|line| {
                    let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                    cells.get(1)?.parse::<usize>().ok()?;
                    let name = cells.get(2)?.strip_prefix('`')?.strip_suffix('`')?;
                    let entries = cells.get(3)?.strip_prefix('`')?.split('`').next()?;
                    Some((name.to_string(), entries.to_string()))
                })
                .collect()
        }

        #[test]
        fn section_table_matches_the_layout() {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/FORMAT.md");
            let doc = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("docs/FORMAT.md must exist (tried {path}): {e}"));
            // Distinct, nonzero counts, so no two sections share an offset.
            let lay = Layout::new(1, [5, 17, 23, 7], 11, 13).unwrap();
            let sections = lay.sections();
            assert!(
                sections.windows(2).all(|p| p[0].2 < p[1].2),
                "Layout::sections must list the sections in file order"
            );
            let want: Vec<(String, String)> = sections
                .iter()
                .map(|&(name, entries, _)| (name.to_string(), entries.to_string()))
                .collect();
            assert_eq!(
                documented_sections(&doc),
                want,
                "docs/FORMAT.md's section table and Layout must list the same \
                 sections, in the same order, with the same entry counts"
            );
        }
    }
}
