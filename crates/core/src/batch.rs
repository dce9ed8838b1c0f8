//! The block odometer under the exhaustive soundness search: up to 64
//! candidate proofs decided per word op.
//!
//! The exhaustive odometer of [`crate::harness`] is the throughput
//! ceiling of every exact soundness check, and it spends its time on
//! candidates that differ from a predecessor at a single node. The
//! block odometer amortizes that work across *blocks* of up to 64
//! candidates at once: the odometer's low `k` digit positions (chosen
//! so `R^k ≤ 64`, `R` = strings per node) are enumerated as one 64-lane
//! block. Each verifier that can see a low node gets a lazily-filled
//! table of *block masks* — one `u64` whose bit `c` is the verifier's
//! output on in-block candidate `c` — keyed by the mixed-radix
//! signature of its high (block-invariant) members. A block is then
//! decided by ANDing a handful of masks; the first violating candidate,
//! if any, is `acc.trailing_zeros()`. Filling a mask costs exactly the
//! scalar memo's `R^|ball|` verifier calls per owner (outputs are
//! replicated over the low digits the owner cannot see, via a
//! precomputed spread pattern), so batching never runs *more* verifiers
//! than the scalar path — it removes the per-candidate loop overhead
//! between them.
//!
//! **Determinism contract**: batching may never change a verdict or a
//! witness. The block odometer reproduces the scalar enumeration order
//! exactly (same first violating proof, same `tried` counts, same
//! [`CHECK_INTERVAL`] deadline grid); the `batch_equivalence` property
//! tests pin it.
//!
//! Routing: [`BatchPolicy::Auto`] (the default everywhere) uses the
//! block odometer whenever the search shape fits (`2 ≤ R ≤ 64` and the
//! table budget); everything else takes the scalar odometer.
//! [`BatchPolicy::Scalar`] forces the scalar odometer unconditionally —
//! it is the oracle the equivalence tests compare against. The policy
//! affects the exhaustive search only: the adversarial search has one
//! loop.

use crate::bits::BitString;
use crate::deadline::{Deadline, CHECK_INTERVAL};
use crate::engine::PreparedInstance;
use crate::harness::{OutputMemo, Soundness, SoundnessError};
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::Scheme;

/// Whether the exhaustive search may route through the block odometer.
///
/// `Auto` is the default everywhere; the scalar odometer remains
/// reachable per call via `Scalar` (a [`crate::harness::Run`] field),
/// which is how the `batch_equivalence` tests reach their oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Use the block odometer when the shape fits; identical results
    /// either way.
    #[default]
    Auto,
    /// Force the scalar odometer.
    Scalar,
}

/// Whether `policy` routes through the block odometer.
pub(crate) fn enabled(policy: BatchPolicy) -> bool {
    policy == BatchPolicy::Auto
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
    let scalar_fills = std::cell::Cell::new(0u64);
    let flush = |tried: u64| {
        metrics::EXHAUSTIVE_CANDIDATES.add(tried);
        metrics::BINDS.add(verifies.get());
        metrics::MEMO_HITS.add(memo_hits.get());
        metrics::MEMO_MISSES.add(memo_misses.get());
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
                    // Verify only the r^|own| combinations of the owner's
                    // own low digits; each output spreads over the digits
                    // the owner cannot see.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::prepare;
    use crate::harness::{all_bitstrings_up_to, check_soundness_exhaustive, Run};
    use crate::instance::Instance;
    use crate::view::View;
    use lcp_graph::generators;

    /// The 1-bit bipartiteness scheme.
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
    }

    /// Unsound scheme: accepts iff every visible first bit is 1 (the
    /// violating all-"1" proof is last in odometer order).
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
