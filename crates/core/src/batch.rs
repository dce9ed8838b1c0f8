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
//! if any, is `acc.trailing_zeros()`. Filling a mask costs `R^|own|`
//! verifier calls, one per combination of the owner's own low digits
//! (outputs are replicated over the low digits the owner cannot see,
//! via a precomputed spread pattern); owners that see no low node are
//! re-verified directly whenever a high digit they see changes.
//!
//! Every search shape fits: `k` is the largest count with `R^k ≤ 64`
//! whose mask tables fit a 4 MiB budget, going down to `k = 0`,
//! where a block is one candidate and the loop degenerates to the
//! scalar odometer (this also covers `R = 1` and `R > 64`).
//!
//! **Determinism contract**: batching may never change a verdict or a
//! witness. The block odometer reproduces the scalar enumeration order
//! exactly (same first violating proof, same `tried` counts, same
//! [`CHECK_INTERVAL`] deadline grid); the `batch_equivalence` property
//! tests pin it.
//!
//! Routing: [`BatchPolicy::Auto`] (the default everywhere) runs the
//! block odometer; [`BatchPolicy::Scalar`] runs the scalar odometer —
//! the plain oracle the equivalence tests compare against. The policy
//! affects the exhaustive search only: the adversarial search has one
//! loop.

use crate::bits::BitString;
use crate::deadline::{Deadline, CHECK_INTERVAL};
use crate::engine::PreparedInstance;
use crate::harness::{Soundness, SoundnessError};
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::Scheme;

/// Which odometer the exhaustive search runs.
///
/// `Auto` is the default everywhere; the scalar odometer remains
/// reachable per call via `Scalar` (a [`crate::harness::Run`] field),
/// which is how the `batch_equivalence` tests reach their oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Use the block odometer; identical results either way.
    #[default]
    Auto,
    /// Force the scalar odometer.
    Scalar,
}

/// Byte budget for the per-owner block-mask tables; a low-digit count
/// whose tables outgrow it is lowered until they fit.
const TABLE_BYTE_CAP: usize = 1 << 22;

/// The smallest deadline-poll grid point the scalar odometer would hit
/// strictly after candidate `base` and within the next `block`
/// candidates — i.e. the unique multiple of [`CHECK_INTERVAL`] in
/// `(base, base + block]` (there is at most one: `block ≤ 64`).
fn first_poll_in(base: u64, block: u64) -> Option<u64> {
    let m = (base / CHECK_INTERVAL + 1) * CHECK_INTERVAL;
    (m <= base + block).then_some(m)
}

/// The mask-table layout of one low-digit count `k`.
struct Layout {
    k: usize,
    /// Candidates per block, `r^k`.
    block: usize,
    /// In-block digit weights: offset `c` has digit `(c / r_pow[p]) % r`
    /// at low position `p`.
    r_pow: Vec<usize>,
    /// Whether each node's verifier sees a low node (and so owns a
    /// mask table instead of a plain output).
    is_low_owner: Vec<bool>,
    low_owners: Vec<u32>,
    /// Flattened low/high member partitions per low owner.
    low_mem: Vec<u32>,
    low_mem_off: Vec<usize>,
    high_mem: Vec<u32>,
    high_mem_off: Vec<usize>,
    /// Table region offsets per low owner.
    tbl_off: Vec<usize>,
    /// Per low owner, the offsets whose digits at the owner's own low
    /// members are all 0 — where one verifier output replicates.
    pattern: Vec<u64>,
}

impl Layout {
    /// The layout for `k` low digits, or `None` when its mask tables
    /// exceed [`TABLE_BYTE_CAP`].
    fn try_new<N: Clone, E: Clone>(
        prep: &PreparedInstance<'_, N, E>,
        r: usize,
        k: usize,
    ) -> Option<Layout> {
        let n = prep.n();
        let block = r.pow(k as u32);
        let mut layout = Layout {
            k,
            block,
            r_pow: (0..k as u32).map(|p| r.pow(p)).collect(),
            is_low_owner: vec![false; n],
            low_owners: Vec::new(),
            low_mem: Vec::new(),
            low_mem_off: vec![0],
            high_mem: Vec::new(),
            high_mem_off: vec![0],
            tbl_off: vec![0],
            pattern: Vec::new(),
        };
        for w in 0..n {
            let members = prep.members_of(w);
            if !members.iter().any(|&m| (m as usize) < k) {
                continue;
            }
            layout.is_low_owner[w] = true;
            layout.low_owners.push(w as u32);
            let own_start = layout.low_mem.len();
            let mut tbl = 1usize;
            for &m in members {
                if (m as usize) < k {
                    layout.low_mem.push(m);
                } else {
                    layout.high_mem.push(m);
                    tbl = tbl.checked_mul(r)?;
                }
            }
            layout.low_mem_off.push(layout.low_mem.len());
            layout.high_mem_off.push(layout.high_mem.len());
            let total = layout.tbl_off.last().unwrap().checked_add(tbl)?;
            if total > TABLE_BYTE_CAP / 8 {
                return None;
            }
            layout.tbl_off.push(total);
            let own = &layout.low_mem[own_start..];
            let mut p = 0u64;
            'c: for c in 0..block {
                for &m in own {
                    if !(c / layout.r_pow[m as usize]).is_multiple_of(r) {
                        continue 'c;
                    }
                }
                p |= 1u64 << c;
            }
            layout.pattern.push(p);
        }
        Some(layout)
    }
}

/// The block odometer: exactly what the scalar loop would produce, for
/// every search shape.
///
/// The caller has already asserted the no-instance, rejected oversized
/// spaces, handled `n == 0`, and built `strings` (shortest first).
pub(crate) fn exhaustive<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    max_bits: usize,
    strings: &[BitString],
    deadline: &Deadline,
) -> Result<Soundness, SoundnessError> {
    let n = prep.n();
    let r = strings.len();
    // Split the odometer: the low k digit positions form one lane
    // block; positions k..n stay a conventional high odometer.
    let mut k_max = 0usize;
    if r >= 2 {
        while k_max < n && r.pow(k_max as u32 + 1) <= 64 {
            k_max += 1;
        }
    }
    let lay = (0..=k_max)
        .rev()
        .find_map(|k| Layout::try_new(prep, r, k))
        .expect("k = 0 has no mask tables");
    let block_u64 = lay.block as u64;
    let active = !0u64 >> (64 - lay.block);
    let mut tables = vec![0u64; *lay.tbl_off.last().unwrap()];
    let mut filled = vec![0u64; tables.len().div_ceil(64)];

    let mut proof = Proof::with_capacity(n, max_bits);
    let mut indices = vec![0usize; n];
    // Metric accumulators: the block loop touches plain locals only,
    // flushed once at each exit.
    let mut verifies = 0u64;
    let mut scalar_fills = 0u64;
    let flush = |tried: u64, verifies: u64, scalar_fills: u64| {
        metrics::EXHAUSTIVE_CANDIDATES.add(tried);
        metrics::BINDS.add(verifies);
        metrics::MASK_FILLS_SCALAR.add(scalar_fills);
    };
    let mut high_out = vec![true; n];
    let mut reject_high = 0usize;
    for w in 0..n {
        if !lay.is_low_owner[w] {
            let out = scheme.verify(&prep.bind(w, &proof));
            verifies += 1;
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
            for (li, &w) in lay.low_owners.iter().enumerate() {
                let w = w as usize;
                let mut sig = 0usize;
                for &m in &lay.high_mem[lay.high_mem_off[li]..lay.high_mem_off[li + 1]] {
                    sig = sig * r + indices[m as usize];
                }
                let slot = lay.tbl_off[li] + sig;
                if filled[slot >> 6] & (1 << (slot & 63)) == 0 {
                    // Verify only the r^|own| combinations of the owner's
                    // own low digits; each output spreads over the digits
                    // the owner cannot see.
                    let own = &lay.low_mem[lay.low_mem_off[li]..lay.low_mem_off[li + 1]];
                    let combos: usize = own.iter().fold(1, |a, _| a * r);
                    let mut mask = 0u64;
                    for combo in 0..combos {
                        let mut rem = combo;
                        let mut offset = 0usize;
                        for &p in own {
                            let d = rem % r;
                            rem /= r;
                            proof.set(p as usize, &strings[d]);
                            offset += d * lay.r_pow[p as usize];
                        }
                        if scheme.verify(&prep.bind(w, &proof)) {
                            mask |= lay.pattern[li] << offset;
                        }
                    }
                    scalar_fills += 1;
                    verifies += combos as u64;
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
                            flush(m, verifies, scalar_fills);
                            return Err(SoundnessError::DeadlineExpired { tried: m });
                        }
                    }
                }
                let mut rem = c as usize;
                for p in 0..lay.k {
                    proof.set(p, &strings[rem % r]);
                    rem /= r;
                }
                flush(t, verifies, scalar_fills);
                return Ok(Soundness::Violated(proof));
            }
        }
        if !deadline.is_unbounded() {
            if let Some(m) = first_poll_in(base, block_u64) {
                if deadline.expired() {
                    flush(m, verifies, scalar_fills);
                    return Err(SoundnessError::DeadlineExpired { tried: m });
                }
            }
        }
        base += block_u64;
        // Advance the high odometer by one; overflow means the whole
        // space was enumerated.
        let mut pos = lay.k;
        loop {
            if pos == n {
                flush(base, verifies, scalar_fills);
                return Ok(Soundness::Holds(base));
            }
            indices[pos] += 1;
            let rolled = indices[pos] == r;
            if rolled {
                indices[pos] = 0;
            }
            proof.set(pos, &strings[indices[pos]]);
            for owner in prep.dependents(pos) {
                if lay.is_low_owner[owner] {
                    continue;
                }
                let now = scheme.verify(&prep.bind(owner, &proof));
                verifies += 1;
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
    use crate::harness::{check_soundness_exhaustive, Run};
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
        S::Node: Clone,
        S::Edge: Clone,
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
    fn over_budget_tables_narrow_the_block() {
        // The hub shape of `batch_equivalence::mask_tables_over_budget_agree`:
        // node 2 sees twelve nodes past index 2, so k = 3 needs a 3¹²-entry
        // table; at k = 2 the hub sees no low node and the tables fit.
        let mut g = lcp_graph::Graph::from_ids((1..=15).map(lcp_graph::NodeId)).unwrap();
        for (u, w) in [(0, 1), (1, 3)] {
            g.add_edge(u, w).unwrap();
        }
        for leaf in 3..15 {
            g.add_edge(2, leaf).unwrap();
        }
        let inst = Instance::unlabeled(g);
        let prep = prepare(&GulliblePath, &inst);
        assert!(Layout::try_new(&prep, 3, 3).is_none());
        assert!(Layout::try_new(&prep, 3, 2).is_some());
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
}
