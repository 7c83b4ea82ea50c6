//! Resource governor for chase runs: wall-clock deadlines, step and byte
//! budgets, and cooperative cancellation.
//!
//! The governor is observed at *chase-level granularity*: the engine checks
//! the budget at frontier-round boundaries (and at deterministic per-candidate
//! counts for the step budget). Checks only ever *read* state — they never
//! reorder rule applications — so a run that finishes without exhausting its
//! budget is bit-identical to an ungoverned run, for every thread count.
//! A run that does exhaust its budget ends with
//! [`ChaseOutcome::Exhausted`](crate::ChaseOutcome::Exhausted) and keeps the
//! partial chase (conjuncts, levels, stats) for the caller to inspect.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle.
///
/// Cloning shares the flag: cancel any clone and every chase run holding one
/// observes it at its next checkpoint (within one frontier round). A default
/// token is fresh and uncancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource limits for a chase run (and everything built on top of one).
///
/// The default budget is unlimited: no deadline, no step or byte cap, and a
/// fresh cancellation token nobody else holds. Limits compose — the first
/// one exceeded ends the run with the matching [`ExhaustReason`].
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock deadline; the run stops at the first checkpoint past it.
    pub deadline: Option<Instant>,
    /// Cap on resolution steps (candidate rule instances examined). Unlike
    /// the deadline this is a deterministic, count-based limit: the same
    /// budget exhausts at the same point for every thread count.
    pub max_steps: Option<u64>,
    /// Approximate cap on bytes materialized by the chase graph.
    pub max_bytes: Option<usize>,
    /// Cooperative cancellation; checked at every checkpoint.
    pub cancel: CancelToken,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget whose deadline is `timeout` from *now*. Computing the
    /// deadline eagerly means one budget value can govern a whole batch:
    /// every pair shares the same absolute deadline.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::default()
        }
    }

    /// Sets the step cap (builder style).
    #[must_use]
    pub fn steps(mut self, max_steps: u64) -> Budget {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the approximate byte cap (builder style).
    #[must_use]
    pub fn bytes(mut self, max_bytes: usize) -> Budget {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Attaches a cancellation token (builder style).
    #[must_use]
    pub fn cancelled_by(mut self, token: CancelToken) -> Budget {
        self.cancel = token;
        self
    }

    /// True when no limit is set and the token is uncancelled — the engine
    /// uses this to skip checkpoint bookkeeping entirely on the hot path.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_steps.is_none()
            && self.max_bytes.is_none()
            && !self.cancel.is_cancelled()
    }
}

/// Which limit ended an exhausted chase run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The `max_conjuncts` cap was hit.
    Conjuncts,
    /// The wall-clock deadline passed.
    Deadline,
    /// The resolution-step cap was hit.
    Steps,
    /// The approximate byte cap was hit.
    Bytes,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExhaustReason::Conjuncts => "conjunct cap",
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::Steps => "step cap",
            ExhaustReason::Bytes => "byte cap",
            ExhaustReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// A true error from the chase engine — as opposed to budget exhaustion,
/// which is an *outcome* ([`ChaseOutcome::Exhausted`]) carrying the partial
/// chase.
///
/// [`ChaseOutcome::Exhausted`]: crate::ChaseOutcome::Exhausted
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// A parallel discovery worker panicked. The panic is caught at the
    /// join, so one poisoned query pair cannot abort the whole process
    /// (or a whole `contains_batch`).
    WorkerFailed {
        /// The worker's panic payload, when it was a string.
        detail: String,
    },
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::WorkerFailed { detail } => {
                write!(f, "chase discovery worker failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ChaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(u.is_cancelled());
    }

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }

    #[test]
    fn builders_set_limits() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!b.is_unlimited());
        assert!(b.deadline.is_some());
        let b = Budget::unlimited().steps(10).bytes(1 << 20);
        assert_eq!(b.max_steps, Some(10));
        assert_eq!(b.max_bytes, Some(1 << 20));
        let t = CancelToken::new();
        let b = Budget::unlimited().cancelled_by(t.clone());
        assert!(b.is_unlimited());
        t.cancel();
        assert!(!b.is_unlimited());
    }

    #[test]
    fn reasons_and_errors_display() {
        for (r, s) in [
            (ExhaustReason::Conjuncts, "conjunct cap"),
            (ExhaustReason::Deadline, "deadline"),
            (ExhaustReason::Steps, "step cap"),
            (ExhaustReason::Bytes, "byte cap"),
            (ExhaustReason::Cancelled, "cancelled"),
        ] {
            assert_eq!(r.to_string(), s);
        }
        let e = ChaseError::WorkerFailed {
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}
