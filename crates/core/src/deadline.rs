//! Cooperative wall-clock budgets for long-running verification loops.
//!
//! A conformance campaign cell is allowed to take a bounded amount of
//! wall time; a runaway exhaustive odometer or a pathologically slow
//! verifier must degrade to a `timed_out` verdict instead of hanging the
//! whole shard. Rust offers no safe preemption, so the budget is
//! **cooperative**: the hot loops in [`crate::harness`],
//! [`crate::engine`], and `lcp_dynamic::churn::run_churn` poll a shared
//! [`Deadline`] token at a coarse stride and unwind cleanly when it has
//! expired.
//!
//! The token is engineered so that the *unbounded* case — every default
//! code path — costs one branch on an `Option` discriminant per stride:
//! results are byte-identical to builds that never heard of deadlines.
//! When a budget is attached, the stride (once per [`CHECK_INTERVAL`]
//! candidates in enumeration loops, finer in per-node sweeps) keeps the
//! `Instant::now()` syscall off the per-candidate fast path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics;

/// How often enumeration loops poll an attached deadline: every
/// `CHECK_INTERVAL` candidates. A power of two, so the poll guard
/// compiles to a mask-and-branch.
pub const CHECK_INTERVAL: u64 = 1 << 14;

/// A shared, cloneable cancellation/budget token.
///
/// [`Deadline::none`] (the [`Default`]) is unbounded and free to poll.
/// [`Deadline::after`] expires once the wall budget elapses;
/// [`Deadline::manual`] never expires on its own and is tripped with
/// [`Deadline::cancel`] — deterministic cancellation for tests. Clones
/// share one underlying flag, so a token handed to several loops stops
/// all of them at once.
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    /// Absolute expiry instant; `None` for purely manual tokens.
    at: Option<Instant>,
    cancelled: AtomicBool,
    /// How many times [`Deadline::expired`] actually ran on this token —
    /// i.e. strided polls that got past the mask, across all clones.
    polls: AtomicU64,
    /// Set by the first poll that observes expiry, so the global
    /// expiration counter counts tokens, not polls.
    tripped: AtomicBool,
}

impl Deadline {
    /// The unbounded deadline: never expires, polls are near-free.
    pub fn none() -> Deadline {
        Deadline { inner: None }
    }

    /// A deadline that expires `budget` from now. `Duration::ZERO`
    /// yields an already-expired token (useful for deterministic tests).
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            inner: Some(Arc::new(Inner {
                at: Some(Instant::now() + budget),
                cancelled: AtomicBool::new(false),
                polls: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// A deadline with no timer: it only expires via [`Deadline::cancel`].
    pub fn manual() -> Deadline {
        Deadline {
            inner: Some(Arc::new(Inner {
                at: None,
                cancelled: AtomicBool::new(false),
                polls: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// Trip the token (all clones observe it). No-op on unbounded tokens.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether this token can ever expire.
    pub fn is_unbounded(&self) -> bool {
        self.inner.is_none()
    }

    /// Whether the budget has elapsed or the token was cancelled.
    pub fn expired(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.polls.fetch_add(1, Ordering::Relaxed);
                metrics::DEADLINE_POLLS.inc();
                let expired = inner.cancelled.load(Ordering::Relaxed)
                    || inner.at.is_some_and(|at| Instant::now() >= at);
                if expired && !inner.tripped.swap(true, Ordering::Relaxed) {
                    metrics::DEADLINE_EXPIRATIONS.inc();
                }
                expired
            }
        }
    }

    /// How many wall-clock checks this token has absorbed, summed over
    /// all clones (0 for unbounded tokens). Campaign timeout diagnostics
    /// report this so a `timed_out` cell shows how responsive the
    /// cooperative polling actually was.
    pub fn polls(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.polls.load(Ordering::Relaxed))
    }

    /// Strided poll for hot loops: checks [`Deadline::expired`] only when
    /// `counter & mask == 0` (and the token is bounded at all).
    #[inline(always)]
    pub fn poll(&self, counter: u64, mask: u64) -> bool {
        self.inner.is_some() && counter & mask == 0 && self.expired()
    }

    /// [`Deadline::poll`] at the standard [`CHECK_INTERVAL`] stride —
    /// the granularity of the exhaustive-enumeration loops.
    #[inline(always)]
    pub fn should_stop(&self, counter: u64) -> bool {
        self.poll(counter, CHECK_INTERVAL - 1)
    }
}

/// Marker error: a deadline-aware operation stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExpired;

impl std::fmt::Display for DeadlineExpired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the operation's wall budget expired before it completed")
    }
}

impl std::error::Error for DeadlineExpired {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires_and_polls_false() {
        let d = Deadline::none();
        assert!(d.is_unbounded());
        assert!(!d.expired());
        for counter in 0..3 * CHECK_INTERVAL {
            assert!(!d.should_stop(counter));
        }
        d.cancel(); // no-op
        assert!(!d.expired());
        assert_eq!(d.polls(), 0);
    }

    #[test]
    fn zero_budget_is_immediately_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(!d.is_unbounded());
        assert!(d.expired());
        // The strided poll only fires on counter multiples of the mask.
        assert!(d.should_stop(0));
        assert!(!d.should_stop(1));
        assert!(d.should_stop(CHECK_INTERVAL));
        // Each check that got past the stride mask counted as a poll,
        // shared across clones of the token.
        assert_eq!(d.polls(), 3);
        assert_eq!(d.clone().polls(), 3);
    }

    #[test]
    fn manual_tokens_share_cancellation_across_clones() {
        let d = Deadline::manual();
        let clone = d.clone();
        assert!(!clone.expired());
        d.cancel();
        assert!(clone.expired());
        assert!(clone.should_stop(0));
    }

    #[test]
    fn generous_budget_does_not_expire_instantly() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(!d.should_stop(0));
    }
}
