//! A byte-capped, process-resident LRU cache of chase snapshots: a
//! [`RecencyCache`], the type the decision tier also uses, capped at
//! `--cache-bytes`.
//!
//! The server's warm path: every decision about a `q1` the service has
//! seen before reuses that query's [`ChaseSnapshot`] and pays only the
//! homomorphism search. On the server's path entries are keyed by the
//! `q1` half of the request's decision key ([`DecisionKey::q1`], built
//! once per request, see `decide_pair`): `q1`'s semantic key, with its
//! canonical representative chased, so renamed, permuted *and*
//! redundant-atom variants share one chase — or under `--no-canon`
//! [`QueryKey::structural`], as a snapshot's depth is derived from the
//! keyed query's literal size.
//!
//! Each snapshot is charged its [`ChaseSnapshot::approx_bytes`], the
//! estimate the chase governor's
//! [`Budget::bytes`](flogic_core::Budget::bytes) cap charges against.
//! It under-counts: bench E17 measured ~3.4 bytes of RSS per charged
//! byte, so resident snapshots take about 3.4× `--cache-bytes`.
//!
//! Two kinds of snapshot are never cached:
//!
//! * **Exhausted builds** — undecidedness is a property of the build
//!   budget, not of `q1`; caching one would pin "exhausted" answers
//!   (the same rule the `DecisionCache` applies to verdicts).
//! * **Snapshots larger than the whole cap** — they are still *served*
//!   (the decision completes) but not retained.
//!
//! [`DecisionKey::q1`]: flogic_core::DecisionKey::q1

use std::sync::Arc;

use flogic_core::{
    ChaseSnapshot, ContainmentOptions, CoreError, QueryKey, RecencyCache, RecencyStats,
};
use flogic_model::ConjunctiveQuery;

/// The cache itself. Chase building and hom search run outside its lock.
pub struct SnapshotCache {
    inner: RecencyCache<QueryKey, Arc<ChaseSnapshot>>,
}

impl SnapshotCache {
    /// Creates a cache holding at most `cap_bytes` of snapshots.
    pub fn new(cap_bytes: usize) -> SnapshotCache {
        SnapshotCache {
            inner: RecencyCache::new(cap_bytes),
        }
    }

    /// Returns a snapshot of `q1` chased to at least `bound` levels,
    /// building (and usually retaining) one on miss; keyed by
    /// [`QueryKey::structural`]`(q1)`.
    ///
    /// A resident snapshot with a *deeper* bound than requested is a hit
    /// — Theorem 12 only needs a prefix, and a deeper chase contains it.
    /// A shallower resident snapshot is treated as a miss and replaced
    /// by a rebuild at the larger bound, so the cache converges to one
    /// snapshot per `q1` at the deepest bound ever requested.
    pub fn get_or_build(
        &self,
        q1: &ConjunctiveQuery,
        bound: u32,
        opts: &ContainmentOptions,
    ) -> Result<Arc<ChaseSnapshot>, CoreError> {
        self.get_or_build_keyed(QueryKey::structural(q1), q1, bound, opts)
    }

    /// [`get_or_build`](SnapshotCache::get_or_build) under a key the
    /// caller already holds: [`QueryKey::structural`]`(q1)`, or the `q1`
    /// half of the decision key of the pair `q1` is decided in.
    pub(crate) fn get_or_build_keyed(
        &self,
        key: QueryKey,
        q1: &ConjunctiveQuery,
        bound: u32,
        opts: &ContainmentOptions,
    ) -> Result<Arc<ChaseSnapshot>, CoreError> {
        if let Some(hit) = self.inner.get(&key, |s| s.level_bound() >= bound) {
            return Ok(hit);
        }
        // Other workers may race to build the same q1: both builds are
        // correct, and the second insert replaces the first. A refused
        // build also drops the resident entry, too shallow to serve.
        let snapshot = Arc::new(ChaseSnapshot::build(q1, bound, opts)?);
        let (bytes, keep) = (snapshot.approx_bytes(), !snapshot.is_exhausted());
        self.inner.insert(key, Arc::clone(&snapshot), bytes, keep);
        Ok(snapshot)
    }

    /// Current statistics.
    pub fn stats(&self) -> RecencyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_core::{theorem_bound, Budget};
    use flogic_syntax::parse_query;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_snapshot() {
        let cache = SnapshotCache::new(1 << 20);
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let opts = ContainmentOptions::default();
        let a = cache.get_or_build(&q1, 8, &opts).unwrap();
        let b = cache.get_or_build(&q1, 8, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A renamed, reordered spelling of the same query also hits.
        let q1b = q("r(A, C) :- sub(B, C), sub(A, B).");
        let c = cache.get_or_build(&q1b, 8, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "canonical key unifies spellings");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.resident_entries, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn deeper_resident_bound_hits_shallower_misses_and_upgrades() {
        let cache = SnapshotCache::new(1 << 20);
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let opts = ContainmentOptions::default();
        let shallow = cache.get_or_build(&q1, 2, &opts).unwrap();
        assert_eq!(shallow.level_bound(), 2);
        // Asking deeper rebuilds...
        let deep = cache.get_or_build(&q1, 6, &opts).unwrap();
        assert_eq!(deep.level_bound(), 6);
        assert!(!Arc::ptr_eq(&shallow, &deep));
        // ...and asking shallower afterwards reuses the deep snapshot.
        let again = cache.get_or_build(&q1, 2, &opts).unwrap();
        assert!(Arc::ptr_eq(&deep, &again));
        assert_eq!(
            cache.stats().resident_entries,
            1,
            "upgrade replaced in place"
        );
    }

    #[test]
    fn byte_cap_evicts_least_recently_used_first() {
        let opts = ContainmentOptions::default();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("r(X, Y) :- member(X, Y).");
        let q3 = q("s(X, Y) :- data(X, Y, Z).");
        // Measure the three snapshots, then cap the cache one byte short
        // of all of them together: the third insert must evict.
        let sizer = SnapshotCache::new(1 << 20);
        let total: usize = [&q1, &q2, &q3]
            .iter()
            .map(|q| sizer.get_or_build(q, 8, &opts).unwrap().approx_bytes())
            .sum();
        let cache = SnapshotCache::new(total - 1);
        cache.get_or_build(&q1, 8, &opts).unwrap();
        cache.get_or_build(&q2, 8, &opts).unwrap();
        cache.get_or_build(&q1, 8, &opts).unwrap(); // refresh q1
        cache.get_or_build(&q3, 8, &opts).unwrap(); // evicts q2, the LRU
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident_bytes <= (total - 1) as u64, "{stats:?}");
        // q1 survived (it was refreshed); q2 was the victim.
        cache.get_or_build(&q1, 8, &opts).unwrap();
        assert_eq!(cache.stats().hits, 2, "q1 still resident");
    }

    #[test]
    fn exhausted_builds_are_served_but_never_cached() {
        let cache = SnapshotCache::new(1 << 20);
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let opts = ContainmentOptions {
            budget: Budget::unlimited().steps(1),
            ..Default::default()
        };
        let snap = cache.get_or_build(&q1, 8, &opts).unwrap();
        assert!(snap.is_exhausted());
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.uncacheable, 1);
        // With the budget lifted the next lookup builds a decided
        // snapshot and caches it.
        let opts = ContainmentOptions::default();
        let snap = cache.get_or_build(&q1, 8, &opts).unwrap();
        assert!(!snap.is_exhausted());
        assert_eq!(cache.stats().resident_entries, 1);
    }

    #[test]
    fn uncacheable_rebuild_evicts_the_stale_shallow_entry() {
        let cache = SnapshotCache::new(1 << 20);
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let opts = ContainmentOptions::default();
        let shallow = cache.get_or_build(&q1, 2, &opts).unwrap();
        assert_eq!(cache.stats().resident_entries, 1);
        // A deeper request under a starvation budget exhausts: the build
        // is served but not cached — and the shallow entry, which can
        // never serve the depths now being asked for, must go with it.
        let tight = ContainmentOptions {
            budget: Budget::unlimited().steps(1),
            ..Default::default()
        };
        let deep = cache.get_or_build(&q1, 6, &tight).unwrap();
        assert!(deep.is_exhausted());
        assert!(!Arc::ptr_eq(&shallow, &deep));
        let stats = cache.stats();
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(stats.evictions, 1, "stale shallow entry evicted");
        assert_eq!(stats.resident_entries, 0, "{stats:?}");
        assert_eq!(stats.resident_bytes, 0, "{stats:?}");
        // The next exact request rebuilds cleanly and re-caches.
        let fixed = cache.get_or_build(&q1, 6, &opts).unwrap();
        assert!(!fixed.is_exhausted());
        assert_eq!(cache.stats().resident_entries, 1);
    }

    #[test]
    fn snapshot_larger_than_the_whole_cap_is_served_not_retained() {
        let cache = SnapshotCache::new(1);
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        let opts = ContainmentOptions::default();
        let bound = theorem_bound(&q1, &q2);
        let snap = cache.get_or_build(&q1, bound, &opts).unwrap();
        // The decision still works off the returned snapshot...
        assert!(snap.contains(&q2, &opts).unwrap().holds());
        // ...but nothing stuck.
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.uncacheable, 1);
    }
}
