//! Lightweight cross-crate instrumentation.
//!
//! The containment hot path has three phases — chase materialization,
//! homomorphism search, and (with a `DecisionCache`-style layer) cache
//! lookups — and the benchmark harness wants to report how a workload
//! splits across them. This module provides a process-global set of
//! **atomic counters and wall-clock accumulators** that the `flogic-chase`,
//! `flogic-hom` and `flogic-core` crates update as they work.
//!
//! Everything is relaxed atomics on a `static`: recording costs a couple of
//! uncontended atomic adds, there is no locking, and crates that never look
//! at the numbers pay (almost) nothing. Snapshots are cheap and the harness
//! takes one per experiment via [`Metrics::snapshot`] /
//! [`Metrics::reset`].
//!
//! `DecisionCache` lives in `flogic-core`; the cache counters here are the
//! generic notion it reports into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A duration as `u64` nanoseconds, saturating at `u64::MAX` instead of
/// silently truncating the `u128` (a plain `as u64` would wrap a duration
/// past ~584 years into a small number and corrupt the accumulator).
fn saturating_nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Process-global instrumentation counters (see the module docs).
#[derive(Debug, Default)]
pub struct Metrics {
    chase_runs: AtomicU64,
    chase_nanos: AtomicU64,
    hom_searches: AtomicU64,
    hom_nanos: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    analysis_early_false: AtomicU64,
    analysis_early_true: AtomicU64,
    analysis_chased: AtomicU64,
    governor_deadline_hits: AtomicU64,
    governor_budget_hits: AtomicU64,
    governor_cancellations: AtomicU64,
    canon_keys: AtomicU64,
    canon_reduced: AtomicU64,
    canon_nanos: AtomicU64,
}

static GLOBAL: Metrics = Metrics {
    chase_runs: AtomicU64::new(0),
    chase_nanos: AtomicU64::new(0),
    hom_searches: AtomicU64::new(0),
    hom_nanos: AtomicU64::new(0),
    cache_hits: AtomicU64::new(0),
    cache_misses: AtomicU64::new(0),
    analysis_early_false: AtomicU64::new(0),
    analysis_early_true: AtomicU64::new(0),
    analysis_chased: AtomicU64::new(0),
    governor_deadline_hits: AtomicU64::new(0),
    governor_budget_hits: AtomicU64::new(0),
    governor_cancellations: AtomicU64::new(0),
    canon_keys: AtomicU64::new(0),
    canon_reduced: AtomicU64::new(0),
    canon_nanos: AtomicU64::new(0),
};

impl Metrics {
    /// The process-global metrics instance.
    pub fn global() -> &'static Metrics {
        &GLOBAL
    }

    /// Records one chase run that took `elapsed` of wall-clock time.
    pub fn record_chase(&self, elapsed: Duration) {
        self.chase_runs.fetch_add(1, Ordering::Relaxed);
        self.chase_nanos
            .fetch_add(saturating_nanos(elapsed), Ordering::Relaxed);
    }

    /// Records one homomorphism search that took `elapsed`.
    pub fn record_hom(&self, elapsed: Duration) {
        self.hom_searches.fetch_add(1, Ordering::Relaxed);
        self.hom_nanos
            .fetch_add(saturating_nanos(elapsed), Ordering::Relaxed);
    }

    /// Records a containment-decision cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a containment-decision cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a containment decided `false` by static analysis (no chase).
    pub fn record_analysis_early_false(&self) {
        self.analysis_early_false.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a containment decided `true` by static analysis (no chase).
    pub fn record_analysis_early_true(&self) {
        self.analysis_early_true.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a containment where analysis found no shortcut and the
    /// full chase + hom search ran.
    pub fn record_analysis_chased(&self) {
        self.analysis_chased.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a chase run stopped by its wall-clock deadline.
    pub fn record_governor_deadline(&self) {
        self.governor_deadline_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a chase run stopped by a count budget (conjuncts, steps, or
    /// bytes).
    pub fn record_governor_budget(&self) {
        self.governor_budget_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a chase run stopped by cooperative cancellation.
    pub fn record_governor_cancellation(&self) {
        self.governor_cancellations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one semantic canonicalization pass (core + total ordering)
    /// that took `elapsed`; `reduced` says whether the core was strictly
    /// smaller than the input query.
    pub fn record_canon(&self, elapsed: Duration, reduced: bool) {
        self.canon_keys.fetch_add(1, Ordering::Relaxed);
        if reduced {
            self.canon_reduced.fetch_add(1, Ordering::Relaxed);
        }
        self.canon_nanos
            .fetch_add(saturating_nanos(elapsed), Ordering::Relaxed);
    }

    /// Times `f`, records the duration as a chase run, returns its result.
    pub fn time_chase<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record_chase(t0.elapsed());
        out
    }

    /// Times `f`, records the duration as a hom search, returns its result.
    pub fn time_hom<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record_hom(t0.elapsed());
        out
    }

    /// Takes a consistent-enough snapshot of all counters (each counter is
    /// read atomically; the set is not globally synchronized, which is fine
    /// for reporting).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            chase_runs: self.chase_runs.load(Ordering::Relaxed),
            chase_nanos: self.chase_nanos.load(Ordering::Relaxed),
            hom_searches: self.hom_searches.load(Ordering::Relaxed),
            hom_nanos: self.hom_nanos.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            analysis_early_false: self.analysis_early_false.load(Ordering::Relaxed),
            analysis_early_true: self.analysis_early_true.load(Ordering::Relaxed),
            analysis_chased: self.analysis_chased.load(Ordering::Relaxed),
            governor_deadline_hits: self.governor_deadline_hits.load(Ordering::Relaxed),
            governor_budget_hits: self.governor_budget_hits.load(Ordering::Relaxed),
            governor_cancellations: self.governor_cancellations.load(Ordering::Relaxed),
            canon_keys: self.canon_keys.load(Ordering::Relaxed),
            canon_reduced: self.canon_reduced.load(Ordering::Relaxed),
            canon_nanos: self.canon_nanos.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.chase_runs.store(0, Ordering::Relaxed);
        self.chase_nanos.store(0, Ordering::Relaxed);
        self.hom_searches.store(0, Ordering::Relaxed);
        self.hom_nanos.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.analysis_early_false.store(0, Ordering::Relaxed);
        self.analysis_early_true.store(0, Ordering::Relaxed);
        self.analysis_chased.store(0, Ordering::Relaxed);
        self.governor_deadline_hits.store(0, Ordering::Relaxed);
        self.governor_budget_hits.store(0, Ordering::Relaxed);
        self.governor_cancellations.store(0, Ordering::Relaxed);
        self.canon_keys.store(0, Ordering::Relaxed);
        self.canon_reduced.store(0, Ordering::Relaxed);
        self.canon_nanos.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the [`Metrics`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Number of chase runs recorded.
    pub chase_runs: u64,
    /// Total wall-clock nanoseconds spent in chase runs.
    pub chase_nanos: u64,
    /// Number of homomorphism searches recorded.
    pub hom_searches: u64,
    /// Total wall-clock nanoseconds spent in hom searches.
    pub hom_nanos: u64,
    /// Containment-decision cache hits.
    pub cache_hits: u64,
    /// Containment-decision cache misses.
    pub cache_misses: u64,
    /// Containments decided `false` by static analysis without a chase.
    pub analysis_early_false: u64,
    /// Containments decided `true` (vacuous) by static analysis without a
    /// chase.
    pub analysis_early_true: u64,
    /// Containments where analysis found no shortcut and the chase ran.
    pub analysis_chased: u64,
    /// Chase runs stopped by their wall-clock deadline.
    pub governor_deadline_hits: u64,
    /// Chase runs stopped by a count budget (conjuncts, steps, or bytes).
    pub governor_budget_hits: u64,
    /// Chase runs stopped by cooperative cancellation.
    pub governor_cancellations: u64,
    /// Semantic canonicalization passes (core + total variable/atom
    /// ordering) performed for cache keying.
    pub canon_keys: u64,
    /// Canonicalization passes where the core was strictly smaller than
    /// the input query (redundant conjuncts were folded away).
    pub canon_reduced: u64,
    /// Total wall-clock nanoseconds spent canonicalizing.
    pub canon_nanos: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference since an earlier snapshot (saturating).
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            chase_runs: self.chase_runs.saturating_sub(earlier.chase_runs),
            chase_nanos: self.chase_nanos.saturating_sub(earlier.chase_nanos),
            hom_searches: self.hom_searches.saturating_sub(earlier.hom_searches),
            hom_nanos: self.hom_nanos.saturating_sub(earlier.hom_nanos),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            analysis_early_false: self
                .analysis_early_false
                .saturating_sub(earlier.analysis_early_false),
            analysis_early_true: self
                .analysis_early_true
                .saturating_sub(earlier.analysis_early_true),
            analysis_chased: self.analysis_chased.saturating_sub(earlier.analysis_chased),
            governor_deadline_hits: self
                .governor_deadline_hits
                .saturating_sub(earlier.governor_deadline_hits),
            governor_budget_hits: self
                .governor_budget_hits
                .saturating_sub(earlier.governor_budget_hits),
            governor_cancellations: self
                .governor_cancellations
                .saturating_sub(earlier.governor_cancellations),
            canon_keys: self.canon_keys.saturating_sub(earlier.canon_keys),
            canon_reduced: self.canon_reduced.saturating_sub(earlier.canon_reduced),
            canon_nanos: self.canon_nanos.saturating_sub(earlier.canon_nanos),
        }
    }

    /// Total chase runs the governor stopped, for any reason.
    pub fn governor_stops(&self) -> u64 {
        self.governor_deadline_hits + self.governor_budget_hits + self.governor_cancellations
    }

    /// Fraction of analysis-screened containment decisions answered
    /// without a chase, or `None` when the analyzer saw no decisions.
    pub fn analysis_early_rate(&self) -> Option<f64> {
        let early = self.analysis_early_false + self.analysis_early_true;
        let total = early + self.analysis_chased;
        (total > 0).then(|| early as f64 / total as f64)
    }

    /// Cache hit rate in `[0, 1]`, or `None` when no lookups happened.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Fraction of instrumented wall-clock time spent in the chase (the
    /// rest is hom search), or `None` when nothing was timed.
    pub fn chase_fraction(&self) -> Option<f64> {
        let total = self.chase_nanos + self.hom_nanos;
        (total > 0).then(|| self.chase_nanos as f64 / total as f64)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chase: {} runs / {:.2} ms; hom: {} searches / {:.2} ms; cache: {} hits / {} misses",
            self.chase_runs,
            self.chase_nanos as f64 / 1e6,
            self.hom_searches,
            self.hom_nanos as f64 / 1e6,
            self.cache_hits,
            self.cache_misses,
        )?;
        if let Some(rate) = self.cache_hit_rate() {
            write!(f, " ({:.1}% hit rate)", rate * 100.0)?;
        }
        write!(
            f,
            "; analysis: {} early-false / {} early-true / {} chased",
            self.analysis_early_false, self.analysis_early_true, self.analysis_chased,
        )?;
        if self.governor_stops() > 0 {
            write!(
                f,
                "; governor: {} deadline / {} budget / {} cancelled",
                self.governor_deadline_hits, self.governor_budget_hits, self.governor_cancellations,
            )?;
        }
        if self.canon_keys > 0 {
            write!(
                f,
                "; canon: {} keys / {} reduced / {:.2} ms",
                self.canon_keys,
                self.canon_reduced,
                self.canon_nanos as f64 / 1e6,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global metrics are process-wide, so tests only assert *relative*
    // movement (other tests in the same process may record concurrently).

    #[test]
    fn counters_accumulate_and_diff() {
        let m = Metrics::default();
        m.record_chase(Duration::from_micros(5));
        m.record_chase(Duration::from_micros(7));
        m.record_hom(Duration::from_micros(3));
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_cache_miss();
        let s = m.snapshot();
        assert_eq!(s.chase_runs, 2);
        assert_eq!(s.chase_nanos, 12_000);
        assert_eq!(s.hom_searches, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hit_rate(), Some(2.0 / 3.0));
        let s2 = m.snapshot().since(&s);
        assert_eq!(s2, MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn timing_helpers_return_value_and_record() {
        let m = Metrics::default();
        let x = m.time_chase(|| 41 + 1);
        assert_eq!(x, 42);
        let y = m.time_hom(|| "ok");
        assert_eq!(y, "ok");
        let s = m.snapshot();
        assert_eq!((s.chase_runs, s.hom_searches), (1, 1));
    }

    #[test]
    fn global_is_reachable() {
        let before = Metrics::global().snapshot();
        Metrics::global().record_cache_miss();
        let after = Metrics::global().snapshot();
        assert!(after.cache_misses > before.cache_misses);
    }

    #[test]
    fn analysis_counters_accumulate_and_render() {
        let m = Metrics::default();
        assert_eq!(m.snapshot().analysis_early_rate(), None);
        m.record_analysis_early_false();
        m.record_analysis_early_false();
        m.record_analysis_early_true();
        m.record_analysis_chased();
        let s = m.snapshot();
        assert_eq!(s.analysis_early_false, 2);
        assert_eq!(s.analysis_early_true, 1);
        assert_eq!(s.analysis_chased, 1);
        assert_eq!(s.analysis_early_rate(), Some(0.75));
        assert!(s
            .to_string()
            .contains("analysis: 2 early-false / 1 early-true / 1 chased"));
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn governor_counters_accumulate_and_render() {
        let m = Metrics::default();
        assert_eq!(m.snapshot().governor_stops(), 0);
        assert!(!m.snapshot().to_string().contains("governor:"));
        m.record_governor_deadline();
        m.record_governor_budget();
        m.record_governor_budget();
        m.record_governor_cancellation();
        let s = m.snapshot();
        assert_eq!(s.governor_deadline_hits, 1);
        assert_eq!(s.governor_budget_hits, 2);
        assert_eq!(s.governor_cancellations, 1);
        assert_eq!(s.governor_stops(), 4);
        assert!(s
            .to_string()
            .contains("governor: 1 deadline / 2 budget / 1 cancelled"));
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn canon_counters_accumulate_and_render() {
        let m = Metrics::default();
        assert!(!m.snapshot().to_string().contains("canon:"));
        m.record_canon(Duration::from_micros(2), true);
        m.record_canon(Duration::from_micros(3), false);
        let s = m.snapshot();
        assert_eq!(s.canon_keys, 2);
        assert_eq!(s.canon_reduced, 1);
        assert_eq!(s.canon_nanos, 5_000);
        assert!(s.to_string().contains("canon: 2 keys / 1 reduced"));
        assert_eq!(s.since(&s), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn nanosecond_recording_saturates_instead_of_truncating() {
        // Duration::MAX holds ~2^64 seconds, so its nanosecond count
        // overflows u64 by a wide margin; the accumulator must pin at
        // u64::MAX rather than wrap around to a small value.
        assert!(Duration::MAX.as_nanos() > u128::from(u64::MAX));
        assert_eq!(saturating_nanos(Duration::MAX), u64::MAX);
        assert_eq!(saturating_nanos(Duration::from_nanos(7)), 7);
        let m = Metrics::default();
        m.record_chase(Duration::MAX);
        m.record_hom(Duration::MAX);
        let s = m.snapshot();
        assert_eq!(s.chase_nanos, u64::MAX);
        assert_eq!(s.hom_nanos, u64::MAX);
        // A second overflowing record saturates the counter too (the
        // fetch_add wraps, but each addend is already pinned; assert the
        // run counters still advance).
        assert_eq!((s.chase_runs, s.hom_searches), (1, 1));
    }

    #[test]
    fn chase_fraction_splits_time() {
        let m = Metrics::default();
        assert_eq!(m.snapshot().chase_fraction(), None);
        m.record_chase(Duration::from_nanos(300));
        m.record_hom(Duration::from_nanos(100));
        assert_eq!(m.snapshot().chase_fraction(), Some(0.75));
    }
}
