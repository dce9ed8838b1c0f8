//! Conformance harness: turning the model's quantifiers into executable
//! checks.
//!
//! * `∀` yes-instances, the honest proof is accepted — [`check_completeness`].
//! * `∀` proofs of a no-instance, some node rejects — decided exactly by
//!   [`check_soundness_exhaustive`] on small instances, and attacked
//!   heuristically by [`adversarial_proof_search`] on larger ones.
//! * The "Proof size s" column of Table 1 — [`measure_sizes`] +
//!   [`classify_growth`].
//!
//! All checks run on [`PreparedInstance`]s: view skeletons are built once
//! per `(instance, radius)` and bound views borrow the word-packed
//! candidate proof (see [`crate::engine`]). The proof-enumeration
//! odometer and the adversarial bit-flipper mutate one preallocated
//! proof in place and re-verify only the nodes whose views contain the
//! changed bits — zero heap allocations per candidate proof.

use crate::batch::BatchPolicy;
use crate::bits::BitString;
use crate::deadline::Deadline;
use crate::engine::{map_indices, PreparedInstance};
use crate::metrics;
use crate::proof::Proof;
use crate::scheme::Scheme;
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How one soundness search runs: the wall budget it polls and, for
/// the exhaustive search, the odometer it may use.
///
/// The [`Default`] is an unbounded deadline and [`BatchPolicy::Auto`].
/// Neither field can change a verdict, a witness, or an RNG stream: an
/// expired deadline only cuts the search short, and both policies give
/// identical results. The policy affects [`check_soundness_exhaustive`]
/// only; [`adversarial_proof_search`] has one loop and ignores it.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Wall budget polled by the search loop.
    pub deadline: Deadline,
    /// Whether the exhaustive search may use the block odometer.
    pub policy: BatchPolicy,
}

/// A completeness violation: a yes-instance the scheme failed on.
#[derive(Clone, Debug)]
pub struct CompletenessFailure {
    /// Index of the failing instance in the input slice.
    pub instance: usize,
    /// What went wrong.
    pub reason: CompletenessError,
}

/// Ways completeness can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompletenessError {
    /// The prover returned `None` although `holds` is true.
    ProverRefused,
    /// The honest proof was rejected by the listed nodes.
    Rejected(Vec<usize>),
    /// The prover labelled a no-instance (`holds` is false) with a proof
    /// that all nodes accepted — a soundness smell surfaced during a
    /// completeness sweep.
    AcceptedNoInstance,
    /// The attached [`Deadline`] expired before the verifier sweep
    /// finished — not a verdict about the scheme, a budget exhaustion.
    DeadlineExpired,
}

impl fmt::Display for CompletenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletenessError::ProverRefused => write!(f, "prover refused a yes-instance"),
            CompletenessError::Rejected(nodes) => {
                write!(f, "honest proof rejected at nodes {nodes:?}")
            }
            CompletenessError::AcceptedNoInstance => {
                write!(f, "a no-instance was fully accepted")
            }
            CompletenessError::DeadlineExpired => {
                write!(
                    f,
                    "wall budget expired before the completeness sweep finished"
                )
            }
        }
    }
}

/// Sweeps prepared instances: yes-instances must be provable and
/// accepted; no-instances, if the prover emits anything, must not be
/// fully accepted.
///
/// Returns the per-instance proof sizes of the yes-instances on success.
/// Prepare the sweep once with [`crate::engine::prepare_sweep`] and reuse
/// it across completeness, soundness, and size measurements.
///
/// Two or more instances are checked concurrently; the reported failure
/// is still the lowest-index one.
///
/// # Errors
///
/// The first [`CompletenessFailure`] encountered (in input order).
pub fn check_completeness<S>(
    scheme: &S,
    prepared: &[PreparedInstance<'_, S::Node, S::Edge>],
) -> Result<Vec<usize>, CompletenessFailure>
where
    S: Scheme + Sync,
    S::Node: Send + Sync,
    S::Edge: Send + Sync,
{
    // Instances past a known failure are never reported, so they are
    // skipped: sequentially the sweep stops at the first failure, and in
    // parallel the lowest-index failure is still always checked.
    let first_failure = AtomicUsize::new(usize::MAX);
    let results = map_indices(prepared.len(), prepared.len() > 1, |i| {
        if i > first_failure.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let prep = &prepared[i];
        let inst = prep.instance();
        let proof = scheme.prove(inst);
        let r = check_honest(
            scheme,
            prep,
            scheme.holds(inst),
            proof.as_ref(),
            &Deadline::none(),
        );
        if r.is_err() {
            first_failure.fetch_min(i, Ordering::Relaxed);
        }
        r
    });
    let mut sizes = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(Some(size)) => sizes.push(size),
            Ok(None) => {}
            Err(reason) => {
                return Err(CompletenessFailure {
                    instance: i,
                    reason,
                })
            }
        }
    }
    Ok(sizes)
}

/// The verifier sweep of one completeness check: given the instance's
/// ground truth `holds` and the prover's output `proof`, returns
/// `Ok(Some(size))` for an accepted yes-instance and `Ok(None)` for a
/// correctly handled no-instance.
///
/// Ground truth and proving are the caller's: a resident
/// [`crate::dynamic::DynScheme`] computes both once and then repeats only
/// this sweep, and [`check_completeness`] runs both per instance. Every
/// node's verifier still runs on every call.
///
/// A yes-instance's proof is swept with [`PreparedInstance::evaluate`]
/// and a no-instance's with [`PreparedInstance::evaluate_until_reject`]:
/// both sequential, polling `deadline` between nodes, and bailing out
/// with [`CompletenessError::DeadlineExpired`] when the budget runs out.
///
/// # Errors
///
/// The [`CompletenessError`] the sweep observed.
pub fn check_honest<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    holds: bool,
    proof: Option<&Proof>,
    deadline: &Deadline,
) -> Result<Option<usize>, CompletenessError> {
    let expired = |_| CompletenessError::DeadlineExpired;
    match (holds, proof) {
        (true, None) => Err(CompletenessError::ProverRefused),
        (true, Some(proof)) => {
            let verdict = prep.evaluate(scheme, proof, deadline).map_err(expired)?;
            if verdict.accepted() {
                Ok(Some(proof.size()))
            } else {
                Err(CompletenessError::Rejected(verdict.rejecting()))
            }
        }
        (false, Some(proof)) => {
            match prep
                .evaluate_until_reject(scheme, proof, deadline)
                .map_err(expired)?
            {
                None => Err(CompletenessError::AcceptedNoInstance),
                Some(_) => Ok(None),
            }
        }
        (false, None) => Ok(None),
    }
}

/// Number of bit strings with at most `max_bits` bits
/// (`2^(max_bits+1) − 1`), or `None` when even that count overflows
/// `u128`.
fn bitstring_space(max_bits: usize) -> Option<u128> {
    if max_bits >= 127 {
        None
    } else {
        Some((1u128 << (max_bits + 1)) - 1)
    }
}

/// All bit strings with at most `max_bits` bits, shortest first
/// (`2^(max_bits+1) − 1` strings).
///
/// # Errors
///
/// [`SoundnessError::SearchSpaceTooLarge`] when the table itself would
/// exceed [`EXHAUSTIVE_PROOF_LIMIT`] entries (reported with `n = 1`).
/// In particular `max_bits ≥ 64` is always refused — the per-length
/// enumeration `0..2^len` would overflow `u64` — instead of panicking
/// (debug) or wrapping (release) on the shift.
pub fn all_bitstrings_up_to(max_bits: usize) -> Result<Vec<BitString>, SoundnessError> {
    let count = bitstring_space(max_bits);
    if count.is_none_or(|c| c > EXHAUSTIVE_PROOF_LIMIT) {
        return Err(SoundnessError::SearchSpaceTooLarge {
            strings: count.map_or(usize::MAX, |c| c.min(usize::MAX as u128) as usize),
            n: 1,
            space: count,
        });
    }
    let mut out = vec![BitString::new()];
    for len in 1..=max_bits {
        for value in 0u64..(1 << len) {
            out.push(BitString::from_bits(
                (0..len).rev().map(|i| value >> i & 1 == 1),
            ));
        }
    }
    Ok(out)
}

/// Outcome of an exhaustive soundness check on one no-instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Soundness {
    /// Every proof up to the size bound was rejected by some node;
    /// carries the number of proofs enumerated.
    Holds(u64),
    /// A fully-accepted proof for the no-instance — a genuine violation.
    Violated(Proof),
}

/// The exhaustive search was refused or abandoned without a verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoundnessError {
    /// `(2^(max_bits+1) − 1)^n` exceeds [`EXHAUSTIVE_PROOF_LIMIT`] (or
    /// overflows `u128`, in which case `space` is `None`).
    SearchSpaceTooLarge {
        /// Number of candidate strings per node.
        strings: usize,
        /// Number of nodes.
        n: usize,
        /// The exact space when it fits in a `u128`.
        space: Option<u128>,
    },
    /// The attached [`Deadline`] expired mid-enumeration, after `tried`
    /// candidates — no soundness verdict was reached.
    DeadlineExpired {
        /// Candidates enumerated before the budget ran out.
        tried: u64,
    },
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoundnessError::SearchSpaceTooLarge { strings, n, space } => match space {
                Some(s) => write!(
                    f,
                    "search space of {strings}^{n} = {s} proofs exceeds the limit of \
                     {EXHAUSTIVE_PROOF_LIMIT}; shrink n or max_bits"
                ),
                None => write!(
                    f,
                    "search space of {strings}^{n} proofs overflows u128; shrink n or max_bits"
                ),
            },
            SoundnessError::DeadlineExpired { tried } => write!(
                f,
                "wall budget expired after {tried} candidate proofs, before a soundness verdict"
            ),
        }
    }
}

impl std::error::Error for SoundnessError {}

/// Upper bound on the number of proofs [`check_soundness_exhaustive`]
/// will enumerate.
pub const EXHAUSTIVE_PROOF_LIMIT: u128 = 100_000_000;

/// Exhaustively enumerates **every** proof of size ≤ `max_bits` on a
/// prepared no-instance and checks that each is rejected somewhere.
///
/// The search space has `(2^(max_bits+1) − 1)^n` proofs, so keep
/// `n · max_bits` small (the point is to decide the `∀ P` quantifier
/// *exactly* on small instances).
///
/// The enumeration is an odometer over per-node string indices: between
/// consecutive candidates only the rolled-over nodes change. Each change
/// is a word-level copy into one preallocated proof, and only the
/// verifiers whose views contain the changed node re-run — zero heap
/// allocations per candidate (the engine fast path that makes the
/// `10^8`-proof budget practical).
///
/// `run.deadline` is polled every [`crate::deadline::CHECK_INTERVAL`]
/// candidates; when it expires the enumeration is abandoned with
/// [`SoundnessError::DeadlineExpired`]. An unbounded deadline adds one
/// branch per candidate and changes nothing else.
///
/// `run.policy` picks the odometer: `Auto` runs the block odometer of
/// [`crate::batch`] (every search shape fits it), `Scalar` the classic
/// per-candidate loop.
/// **Identical results either way** — same verdict, same first
/// violating proof, same `tried` counts, same deadline grid (pinned by
/// the `batch_equivalence` property tests).
///
/// # Errors
///
/// [`SoundnessError::SearchSpaceTooLarge`] when the space exceeds
/// [`EXHAUSTIVE_PROOF_LIMIT`] proofs (checked in `u128`, no float
/// saturation, no shift overflow for any `max_bits`), and
/// [`SoundnessError::DeadlineExpired`] on budget exhaustion.
///
/// # Panics
///
/// Panics if the instance is a yes-instance (soundness is about
/// no-instances).
pub fn check_soundness_exhaustive<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    max_bits: usize,
    run: &Run,
) -> Result<Soundness, SoundnessError> {
    assert!(
        !scheme.holds(prep.instance()),
        "exhaustive soundness check requires a no-instance"
    );
    let n = prep.n();
    let per_node = bitstring_space(max_bits);
    let space = per_node.and_then(|c| c.checked_pow(n as u32));
    if space.is_none_or(|s| s > EXHAUSTIVE_PROOF_LIMIT) {
        return Err(SoundnessError::SearchSpaceTooLarge {
            strings: per_node.map_or(usize::MAX, |c| c.min(usize::MAX as u128) as usize),
            n,
            space,
        });
    }
    if n == 0 {
        // The empty graph accepts every proof vacuously; the only proof
        // is ε, so soundness is violated by definition.
        return Ok(Soundness::Violated(Proof::empty(0)));
    }
    let strings = all_bitstrings_up_to(max_bits).expect("per-node table within the checked space");
    match run.policy {
        BatchPolicy::Auto => {
            metrics::EXHAUSTIVE_BATCHED.inc();
            crate::batch::exhaustive(scheme, prep, max_bits, &strings, &run.deadline)
        }
        BatchPolicy::Scalar => {
            metrics::EXHAUSTIVE_SCALAR.inc();
            exhaustive_scalar(scheme, prep, max_bits, &strings, &run.deadline)
        }
    }
}

/// The classic one-candidate-at-a-time odometer (the `Scalar` route):
/// the plain oracle that re-verifies every dependent of each changed
/// node.
fn exhaustive_scalar<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    max_bits: usize,
    strings: &[BitString],
    deadline: &Deadline,
) -> Result<Soundness, SoundnessError> {
    let n = prep.n();
    // One preallocated proof holds the candidate; the all-ε start is
    // verified once, then every later candidate mutates the proof in
    // place and re-runs only the affected verifiers.
    let mut proof = Proof::with_capacity(n, max_bits);
    let mut indices = vec![0usize; n];
    // Flushed once at exit, so the per-candidate path touches no shared
    // atomic.
    let mut verifies = n as u64;
    let flush = |tried: u64, verifies: u64| {
        metrics::EXHAUSTIVE_CANDIDATES.add(tried);
        metrics::BINDS.add(verifies);
    };
    let mut outputs: Vec<bool> = (0..n)
        .map(|v| scheme.verify(&prep.bind(v, &proof)))
        .collect();
    let mut rejecting = outputs.iter().filter(|&&b| !b).count();
    let mut tried = 0u64;
    loop {
        tried += 1;
        if rejecting == 0 {
            flush(tried, verifies);
            return Ok(Soundness::Violated(proof));
        }
        if deadline.should_stop(tried) {
            flush(tried, verifies);
            return Err(SoundnessError::DeadlineExpired { tried });
        }
        // Odometer increment; each changed node overwrites its slot (a
        // word copy) and re-runs only its dependent verifiers.
        let mut pos = 0;
        loop {
            if pos == n {
                flush(tried, verifies);
                return Ok(Soundness::Holds(tried));
            }
            indices[pos] += 1;
            let rolled = indices[pos] == strings.len();
            if rolled {
                indices[pos] = 0;
            }
            proof.set(pos, &strings[indices[pos]]);
            for owner in prep.dependents(pos) {
                let now = scheme.verify(&prep.bind(owner, &proof));
                verifies += 1;
                match (outputs[owner], now) {
                    (true, false) => rejecting += 1,
                    (false, true) => rejecting -= 1,
                    _ => {}
                }
                outputs[owner] = now;
            }
            if !rolled {
                break;
            }
            pos += 1;
        }
    }
}

/// A uniformly random proof: each node gets `max_bits` random bits.
///
/// The proof reserves exactly `max_bits` per node, so subsequent
/// in-budget mutations (bit flips, refills) never allocate.
pub fn random_proof(n: usize, max_bits: usize, rng: &mut StdRng) -> Proof {
    let mut proof = Proof::with_capacity(n, max_bits);
    refill_random(&mut proof, max_bits, rng);
    proof
}

/// Regenerates every node's bits in place — same RNG stream as
/// [`random_proof`], zero allocations (the restart path of
/// [`adversarial_proof_search`]).
fn refill_random(proof: &mut Proof, max_bits: usize, rng: &mut StdRng) {
    for v in 0..proof.n() {
        proof.write_bits(v, (0..max_bits).map(|_| rng.random_bool(0.5)));
    }
}

/// Randomized adversarial proof search on a prepared no-instance:
/// hill-climbs the number of accepting nodes by flipping random bits,
/// restarting from random proofs.
///
/// Each candidate differs from the incumbent at a single node: the flip
/// is one XOR in the preallocated proof, only the `O(|ball|)`
/// verifiers that can see it are re-scored, and a rejected candidate is
/// reverted by flipping the bit back — zero heap allocations per
/// candidate. Full sweeps happen only at restarts (and even those refill
/// the proof in place).
///
/// Returns a fully-accepted proof (a soundness violation for the given
/// size budget) if one is found within `iterations` candidate steps.
/// Finding `None` is *evidence*, not proof, of soundness — use
/// [`check_soundness_exhaustive`] for certainty on small instances.
///
/// `run.deadline` is polled every 256 candidate steps (each step re-runs
/// a ball's worth of verifiers, so the stride is finer than the
/// enumeration loops'); when it expires the search gives up early and
/// returns `None`. Callers that need to distinguish "no forgery found"
/// from "ran out of budget" check `run.deadline.expired()` afterwards.
///
/// `run.policy` is ignored: there is one search loop. The same seed
/// gives the same incumbent, the same returned proof and the same RNG
/// stream position afterwards.
///
/// # Panics
///
/// Panics if the instance is a yes-instance.
pub fn adversarial_proof_search<S: Scheme>(
    scheme: &S,
    prep: &PreparedInstance<'_, S::Node, S::Edge>,
    size_budget: usize,
    iterations: usize,
    rng: &mut StdRng,
    run: &Run,
) -> Option<Proof> {
    assert!(
        !scheme.holds(prep.instance()),
        "adversarial search requires a no-instance"
    );
    let n = prep.n();
    if n == 0 {
        return None;
    }
    let deadline = &run.deadline;
    metrics::ADVERSARIAL_SCALAR.inc();
    let mut proof = random_proof(n, size_budget, rng);
    let mut outputs: Vec<bool> = (0..n)
        .map(|v| scheme.verify(&prep.bind(v, &proof)))
        .collect();
    let mut score = outputs.iter().filter(|&&b| b).count();
    // Verifier re-runs, accumulated locally and flushed into the shared
    // bind counter only when the loop exits.
    let mut verifies = n as u64;
    // Scratch reused across candidates (the only buffer the loop needs).
    let mut touched: Vec<(usize, bool)> = Vec::new();
    for iter in 0..iterations {
        if score == n {
            metrics::ADVERSARIAL_STEPS.add(iter as u64);
            metrics::BINDS.add(verifies);
            return Some(proof);
        }
        if deadline.poll(iter as u64, 0xff) {
            metrics::ADVERSARIAL_STEPS.add(iter as u64);
            metrics::BINDS.add(verifies);
            return None;
        }
        // Occasional restart to escape local optima: refill the proof in
        // place and re-score everything.
        if iter % 200 == 199 {
            refill_random(&mut proof, size_budget, rng);
            for (v, out) in outputs.iter_mut().enumerate() {
                *out = scheme.verify(&prep.bind(v, &proof));
            }
            verifies += n as u64;
            score = outputs.iter().filter(|&&b| b).count();
            continue;
        }
        if size_budget == 0 {
            continue;
        }
        // Mutate one node in place; remember how to undo it.
        let v = rng.random_range(0..n);
        let flipped = if proof.get(v).is_empty() {
            proof.write_bits(v, (0..size_budget).map(|_| rng.random_bool(0.5)));
            None
        } else {
            let idx = rng.random_range(0..proof.get(v).len());
            proof.flip(v, idx);
            Some(idx)
        };
        // Re-score only the verifiers that can see node v.
        let mut new_score = score;
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
            }
            score = new_score;
        } else {
            // Undo the mutation (flip back, or truncate a fresh fill).
            match flipped {
                Some(idx) => proof.flip(v, idx),
                None => proof.clear(v),
            }
        }
    }
    metrics::ADVERSARIAL_STEPS.add(iterations as u64);
    metrics::BINDS.add(verifies);
    (score == n).then_some(proof)
}

/// One measured point of the "Proof size s" column: instance size vs.
/// honest proof size in bits per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizePoint {
    /// `n(G)` of the instance.
    pub n: usize,
    /// `|P|` of the honest proof.
    pub bits: usize,
}

/// Proves every (yes-)instance of a prepared sweep and records
/// `(n, |P|)` points.
///
/// # Panics
///
/// Panics if the prover refuses an instance — callers feed yes-instances.
pub fn measure_sizes<S: Scheme>(
    scheme: &S,
    prepared: &[PreparedInstance<'_, S::Node, S::Edge>],
) -> Vec<SizePoint> {
    prepared
        .iter()
        .map(|prep| {
            let inst = prep.instance();
            let proof = scheme
                .prove(inst)
                .unwrap_or_else(|| panic!("{} refused an instance", scheme.name()));
            SizePoint {
                n: inst.n(),
                bits: proof.size(),
            }
        })
        .collect()
}

/// Growth classes used to compare measured proof sizes against the
/// paper's asymptotic claims.
///
/// The derived ordering follows the asymptotic hierarchy
/// (`Zero < Constant < Logarithmic < Linear < Quadratic`), so
/// `measured <= claimed` is exactly "the measurement respects the
/// claimed upper bound".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrowthClass {
    /// Identically zero — `LCP(0)`.
    Zero,
    /// Bounded — `LCP(O(1))`.
    Constant,
    /// `Θ(log n)` — `LogLCP`.
    Logarithmic,
    /// `Θ(n)`.
    Linear,
    /// `Θ(n²)` (the `n²/log n` lower bound also lands here at feasible n).
    Quadratic,
}

impl fmt::Display for GrowthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GrowthClass::Zero => "0",
            GrowthClass::Constant => "Θ(1)",
            GrowthClass::Logarithmic => "Θ(log n)",
            GrowthClass::Linear => "Θ(n)",
            GrowthClass::Quadratic => "Θ(n²)",
        };
        write!(f, "{s}")
    }
}

/// Fits measured `(n, bits)` points against candidate growth shapes by
/// least squares and returns the best-fitting class.
///
/// The classification is deliberately coarse — it reproduces the *shape*
/// claims of Table 1, not constants. Points should span at least a factor
/// of 4 in `n` for the classes to separate.
pub fn classify_growth(points: &[SizePoint]) -> GrowthClass {
    assert!(!points.is_empty(), "need at least one measurement");
    if points.iter().all(|p| p.bits == 0) {
        return GrowthClass::Zero;
    }
    let lo = points.iter().map(|p| p.bits).min().expect("nonempty");
    let hi = points.iter().map(|p| p.bits).max().expect("nonempty");
    if hi <= lo.max(1) * 2 && hi.saturating_sub(lo) <= 3 {
        return GrowthClass::Constant;
    }
    // Least-squares fit bits ≈ a · f(n) + b for each candidate f; compare
    // residuals (normalized by total variance).
    let candidates: [(GrowthClass, fn(f64) -> f64); 4] = [
        (GrowthClass::Logarithmic, |n| n.log2()),
        (GrowthClass::Linear, |n| n),
        (GrowthClass::Quadratic, |n| n * n),
        (GrowthClass::Constant, |_| 1.0),
    ];
    let ys: Vec<f64> = points.iter().map(|p| p.bits as f64).collect();
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let var_y: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let mut best = (GrowthClass::Constant, f64::INFINITY);
    for (class, f) in candidates {
        let xs: Vec<f64> = points.iter().map(|p| f(p.n as f64)).collect();
        let mean_x = xs.iter().sum::<f64>() / xs.len() as f64;
        let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
        let sxy: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mean_x) * (y - mean_y))
            .sum();
        let a = if sxx == 0.0 { 0.0 } else { sxy / sxx };
        let b = mean_y - a * mean_x;
        let sse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (y - (a * x + b)).powi(2))
            .sum();
        let normalized = if var_y == 0.0 { 0.0 } else { sse / var_y };
        if normalized < best.1 - 1e-9 {
            best = (class, normalized);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{prepare, prepare_sweep};
    use crate::instance::Instance;
    use crate::scheme::evaluate;
    use crate::view::View;
    use lcp_graph::generators;
    use rand::SeedableRng;

    /// The 1-bit bipartiteness scheme, used as the harness guinea pig.
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

    #[test]
    fn completeness_sweep_passes_on_even_cycles() {
        let instances: Vec<Instance> = (2..8)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k)))
            .collect();
        let prepared = prepare_sweep(&Bipartite, &instances);
        let sizes = check_completeness(&Bipartite, &prepared).unwrap();
        assert!(sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn completeness_sweep_tolerates_no_instances() {
        let instances = vec![
            Instance::unlabeled(generators::cycle(5)),
            Instance::unlabeled(generators::cycle(6)),
        ];
        let prepared = prepare_sweep(&Bipartite, &instances);
        assert!(check_completeness(&Bipartite, &prepared).is_ok());
    }

    #[test]
    fn exhaustive_soundness_on_odd_cycle() {
        let inst = Instance::unlabeled(generators::cycle(5));
        let prep = prepare(&Bipartite, &inst);
        match check_soundness_exhaustive(&Bipartite, &prep, 1, &Run::default()).unwrap() {
            Soundness::Holds(tried) => assert_eq!(tried, 3u64.pow(5)),
            Soundness::Violated(p) => panic!("bipartite scheme fooled by {p:?}"),
        }
    }

    #[test]
    fn exhaustive_soundness_agrees_with_naive_enumeration() {
        /// Deliberately unsound: accepts when every visible bit is 1.
        struct Gullible;
        impl Scheme for Gullible {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "gullible".into()
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
        let inst = Instance::unlabeled(generators::path(4));
        let prep = prepare(&Gullible, &inst);
        let engine = check_soundness_exhaustive(&Gullible, &prep, 1, &Run::default()).unwrap();
        // Naive reference: enumerate in the same odometer order.
        let strings = all_bitstrings_up_to(1).unwrap();
        let mut indices = [0usize; 4];
        let naive = 'outer: loop {
            let proof = Proof::from_strings(indices.iter().map(|&i| strings[i].clone()).collect());
            if evaluate(&Gullible, &inst, &proof).accepted() {
                break Soundness::Violated(proof);
            }
            let mut pos = 0;
            loop {
                if pos == 4 {
                    break 'outer Soundness::Holds(0);
                }
                indices[pos] += 1;
                if indices[pos] < strings.len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        };
        match (engine, naive) {
            (Soundness::Violated(a), Soundness::Violated(b)) => {
                assert_eq!(a, b, "same first violating proof in odometer order")
            }
            (a, b) => panic!("outcomes diverged: engine={a:?}, naive={b:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no-instance")]
    fn exhaustive_soundness_rejects_yes_instances() {
        let inst = Instance::unlabeled(generators::cycle(4));
        let prep = prepare(&Bipartite, &inst);
        let _ = check_soundness_exhaustive(&Bipartite, &prep, 1, &Run::default());
    }

    #[test]
    fn exhaustive_soundness_refuses_oversized_spaces() {
        let inst = Instance::unlabeled(generators::cycle(65));
        let prep = prepare(&Bipartite, &inst);
        let err = check_soundness_exhaustive(&Bipartite, &prep, 8, &Run::default()).unwrap_err();
        let SoundnessError::SearchSpaceTooLarge { strings, n, space } = err else {
            panic!("expected a search-space refusal, got {err:?}");
        };
        assert_eq!(strings, 511);
        assert_eq!(n, 65);
        assert_eq!(space, None, "511^65 overflows u128");
    }

    #[test]
    fn exhaustive_soundness_reports_exact_space_when_it_fits() {
        let inst = Instance::unlabeled(generators::cycle(17));
        let prep = prepare(&Bipartite, &inst);
        let err = check_soundness_exhaustive(&Bipartite, &prep, 2, &Run::default()).unwrap_err();
        let SoundnessError::SearchSpaceTooLarge { strings, n, space } = err.clone() else {
            panic!("expected a search-space refusal, got {err:?}");
        };
        assert_eq!((strings, n), (7, 17));
        assert_eq!(space, Some(7u128.pow(17)));
        assert!(err.to_string().contains("exceeds the limit"));
    }

    #[test]
    fn adversarial_search_fails_against_sound_scheme() {
        let inst = Instance::unlabeled(generators::cycle(7));
        let prep = prepare(&Bipartite, &inst);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(
            adversarial_proof_search(&Bipartite, &prep, 1, 500, &mut rng, &Run::default())
                .is_none()
        );
    }

    #[test]
    fn adversarial_search_breaks_a_broken_scheme() {
        /// Deliberately unsound: accepts when every node holds bit 1.
        struct Gullible;
        impl Scheme for Gullible {
            type Node = ();
            type Edge = ();
            fn name(&self) -> String {
                "gullible".into()
            }
            fn radius(&self) -> usize {
                0
            }
            fn holds(&self, _: &Instance) -> bool {
                false // everything is a no-instance
            }
            fn prove(&self, _: &Instance) -> Option<Proof> {
                None
            }
            fn verify(&self, view: &View) -> bool {
                view.proof(view.center()).first() == Some(true)
            }
        }
        let inst = Instance::unlabeled(generators::cycle(6));
        let prep = prepare(&Gullible, &inst);
        let mut rng = StdRng::seed_from_u64(2);
        let forged = adversarial_proof_search(&Gullible, &prep, 1, 2000, &mut rng, &Run::default())
            .expect("hill climbing finds the all-ones proof");
        assert!(evaluate(&Gullible, &inst, &forged).accepted());
        assert!(prep
            .evaluate(&Gullible, &forged, &Deadline::none())
            .unwrap()
            .accepted());
    }

    #[test]
    fn bitstring_enumeration_counts() {
        assert_eq!(all_bitstrings_up_to(0).unwrap().len(), 1);
        assert_eq!(all_bitstrings_up_to(1).unwrap().len(), 3);
        assert_eq!(all_bitstrings_up_to(3).unwrap().len(), 15);
        // No duplicates.
        let all = all_bitstrings_up_to(3).unwrap();
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn bitstring_enumeration_refuses_shift_overflow() {
        // 1u64 << len would panic (debug) or wrap (release) at len = 64;
        // the guard returns the refusal error instead of computing.
        for max_bits in [64, 65, 100, 127, 128, usize::MAX] {
            let err = all_bitstrings_up_to(max_bits).unwrap_err();
            let SoundnessError::SearchSpaceTooLarge { strings, n, space } = err else {
                panic!("expected a search-space refusal, got {err:?}");
            };
            assert_eq!(n, 1);
            assert_eq!(strings, usize::MAX, "count saturates at {max_bits}");
            if max_bits >= 127 {
                assert_eq!(space, None, "count overflows u128 at {max_bits}");
            } else {
                assert_eq!(space, Some((1u128 << (max_bits + 1)) - 1));
            }
        }
        // Oversized but representable tables are refused too.
        assert!(all_bitstrings_up_to(30).is_err());
    }

    #[test]
    fn growth_classification() {
        let zero: Vec<SizePoint> = (1..6).map(|k| SizePoint { n: 10 * k, bits: 0 }).collect();
        assert_eq!(classify_growth(&zero), GrowthClass::Zero);

        let constant: Vec<SizePoint> = (1..6).map(|k| SizePoint { n: 10 * k, bits: 2 }).collect();
        assert_eq!(classify_growth(&constant), GrowthClass::Constant);

        let log: Vec<SizePoint> = (2..10)
            .map(|k| {
                let n = 1usize << k;
                SizePoint {
                    n,
                    bits: 3 * k as usize + 2,
                }
            })
            .collect();
        assert_eq!(classify_growth(&log), GrowthClass::Logarithmic);

        let linear: Vec<SizePoint> = (1..10)
            .map(|k| SizePoint {
                n: 8 * k,
                bits: 16 * k + 3,
            })
            .collect();
        assert_eq!(classify_growth(&linear), GrowthClass::Linear);

        let quad: Vec<SizePoint> = (1..10)
            .map(|k| SizePoint {
                n: 8 * k,
                bits: (8 * k) * (8 * k),
            })
            .collect();
        assert_eq!(classify_growth(&quad), GrowthClass::Quadratic);
    }

    #[test]
    fn measure_sizes_reports_one_bit_for_bipartite() {
        let instances: Vec<Instance> = (2..6)
            .map(|k| Instance::unlabeled(generators::cycle(2 * k)))
            .collect();
        let prepared = prepare_sweep(&Bipartite, &instances);
        let points = measure_sizes(&Bipartite, &prepared);
        assert_eq!(classify_growth(&points), GrowthClass::Constant);
    }

    #[test]
    fn random_proof_respects_budget() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_proof(5, 4, &mut rng);
        assert_eq!(p.n(), 5);
        assert!(p.size() <= 4);
    }

    /// Deliberately unsound scheme used by the deadline tests: accepts
    /// when every visible first bit is 1, so the only ≤1-bit violation
    /// is the all-`"1"` proof — the *last* candidate in odometer order.
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

    #[test]
    fn exhaustive_soundness_stops_at_an_expired_deadline() {
        use crate::deadline::CHECK_INTERVAL;
        use std::time::Duration;
        // 3^9 = 19683 candidates: past the first deadline poll, before
        // the (final-candidate) violation.
        let inst = Instance::unlabeled(generators::path(9));
        let prep = prepare(&GulliblePath, &inst);
        let expired = Run {
            deadline: Deadline::after(Duration::ZERO),
            ..Run::default()
        };
        let err = check_soundness_exhaustive(&GulliblePath, &prep, 1, &expired).unwrap_err();
        assert_eq!(
            err,
            SoundnessError::DeadlineExpired {
                tried: CHECK_INTERVAL
            }
        );
        // The unbounded token enumerates to the genuine violation.
        let ok = check_soundness_exhaustive(&GulliblePath, &prep, 1, &Run::default());
        assert!(matches!(ok, Ok(Soundness::Violated(_))));
    }

    #[test]
    fn exhaustive_soundness_reports_a_violation_found_before_the_poll() {
        use std::time::Duration;
        // The Gullible-from-above violation on a short path falls below
        // the poll stride, so even an expired deadline sees it first.
        let inst = Instance::unlabeled(generators::path(4));
        let prep = prepare(&GulliblePath, &inst);
        let expired = Run {
            deadline: Deadline::after(Duration::ZERO),
            ..Run::default()
        };
        let got = check_soundness_exhaustive(&GulliblePath, &prep, 1, &expired).unwrap();
        assert!(matches!(got, Soundness::Violated(_)));
    }

    #[test]
    fn adversarial_search_gives_up_at_an_expired_deadline() {
        use std::time::Duration;
        let inst = Instance::unlabeled(generators::cycle(6));
        let prep = prepare(&GulliblePath, &inst);
        // The unbounded search forges a proof from this seed...
        let mut rng = StdRng::seed_from_u64(2);
        assert!(
            adversarial_proof_search(&GulliblePath, &prep, 1, 2000, &mut rng, &Run::default())
                .is_some()
        );
        // ...the expired-deadline search stops before trying anything.
        let mut rng = StdRng::seed_from_u64(2);
        let expired = Run {
            deadline: Deadline::after(Duration::ZERO),
            ..Run::default()
        };
        let got = adversarial_proof_search(&GulliblePath, &prep, 1, 2000, &mut rng, &expired);
        assert!(got.is_none());
        assert!(expired.deadline.expired());
    }

    #[test]
    fn completeness_within_expired_deadline_reports_budget_exhaustion() {
        use std::time::Duration;
        let inst = Instance::unlabeled(generators::cycle(6));
        let prep = prepare(&Bipartite, &inst);
        let expired = Deadline::after(Duration::ZERO);
        let proof = Bipartite.prove(&inst);
        assert_eq!(
            check_honest(&Bipartite, &prep, true, proof.as_ref(), &expired),
            Err(CompletenessError::DeadlineExpired)
        );
        // Unbounded and live budgets reach the same verdict.
        let live = Deadline::after(Duration::from_secs(3600));
        assert_eq!(
            check_honest(&Bipartite, &prep, true, proof.as_ref(), &Deadline::none()),
            Ok(Some(1))
        );
        assert_eq!(
            check_honest(&Bipartite, &prep, true, proof.as_ref(), &live),
            Ok(Some(1))
        );
    }
}
