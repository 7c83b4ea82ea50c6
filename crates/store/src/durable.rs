//! The durable decision tier: [`DurableDecisionCache`] layers an LSM
//! [`Store`] *under* the in-RAM [`DecisionCache`] through its
//! `contains_keyed` seam.
//!
//! Both tiers take one [`DecisionKey`], built once per request by
//! [`flogic_core::KeyBuilder`]: RAM hashes its bytes, disk stores them.
//! Lookup order on a decision request:
//!
//! 1. **RAM** — the in-process [`DecisionCache`] (semantic keys, the
//!    hot tier, a byte-capped LRU). A hit never touches disk.
//! 2. **Disk** — on a RAM miss, the persisted tier is probed under
//!    [`DecisionKey::bytes`], the bytes RAM just hashed. A decodable hit
//!    is returned *and* promoted into RAM, so the second repeat is a
//!    pure RAM hit.
//! 3. **Compute** — on a double miss the caller's closure runs (in
//!    `flqd`, the snapshot-cache-backed Theorem 12 engine); the decided
//!    result is written to both tiers, so a RAM eviction costs at most
//!    a disk probe, never a recompute. Exhausted verdicts are written
//!    to neither (the codec refuses them), and a corrupt or
//!    version-skewed disk record reads as a miss — a recomputation,
//!    never a wrong answer.
//!
//! Without a data dir ([`DurableDecisionCache::memory`]) the type is a
//! zero-cost pass-through to the RAM cache, so `flqd` keeps one code
//! path whether or not `--data-dir` is set.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flogic_core::{
    decode_decision, encode_decision, ContainmentOptions, ContainmentResult, CoreError,
    DecisionCache, DecisionKey, KeyBuilder,
};
use flogic_model::ConjunctiveQuery;

use crate::store::{Store, StoreOptions};
use crate::StoreError;

/// Counters for the durable tier's own traffic (disk probes only —
/// RAM-tier hits never reach it).
#[derive(Clone, Copy, Debug, Default)]
pub struct DurableStats {
    /// Disk probes that returned a decodable persisted decision.
    pub disk_hits: u64,
    /// Disk probes that found nothing.
    pub disk_misses: u64,
    /// Disk reads or writes that failed (I/O error or undecodable
    /// record); the request fell through to compute.
    pub disk_errors: u64,
}

/// A two-tier decision cache: in-RAM [`DecisionCache`] over an optional
/// on-disk [`Store`]. See the module docs for the lookup protocol.
#[derive(Debug)]
pub struct DurableDecisionCache {
    ram: DecisionCache,
    disk: Option<Arc<Store>>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_errors: AtomicU64,
}

impl DurableDecisionCache {
    /// A RAM-only cache (no `--data-dir`): behaves exactly like a bare
    /// [`DecisionCache`].
    pub fn memory() -> DurableDecisionCache {
        DurableDecisionCache::over(None)
    }

    /// Opens (or creates) the durable tier under `dir` with default
    /// [`StoreOptions`].
    pub fn open(dir: &Path) -> Result<DurableDecisionCache, StoreError> {
        let store = Store::open(dir, StoreOptions::default())?;
        Ok(DurableDecisionCache::over(Some(Arc::new(store))))
    }

    fn over(disk: Option<Arc<Store>>) -> DurableDecisionCache {
        DurableDecisionCache {
            ram: DecisionCache::new(),
            disk,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
        }
    }

    /// The on-disk tier, when one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.disk.as_ref()
    }

    /// Entries resident in the RAM tier (mirrors [`DecisionCache::len`]).
    pub fn len(&self) -> usize {
        self.ram.len()
    }

    /// True when the RAM tier is empty.
    pub fn is_empty(&self) -> bool {
        self.ram.is_empty()
    }

    /// The durable tier's own traffic counters.
    pub fn durable_stats(&self) -> DurableStats {
        DurableStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
        }
    }

    /// Flushes the disk tier's memtable so everything decided so far
    /// survives a crash (graceful shutdown calls this).
    pub fn flush(&self) -> Result<(), StoreError> {
        match &self.disk {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    /// [`DecisionCache::contains_with_compute`] through both tiers: keys
    /// the pair for the [keyed path](DurableDecisionCache::contains_keyed).
    pub fn contains_with_compute(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
        compute: impl FnOnce() -> Result<ContainmentResult, CoreError>,
    ) -> Result<ContainmentResult, CoreError> {
        let (key, _) = KeyBuilder::new(q1, opts).key(q2)?;
        self.contains_keyed(&key, compute)
    }

    /// [`DecisionCache::contains_keyed`] with the disk tier interposed
    /// between the RAM lookup and `compute`.
    pub fn contains_keyed(
        &self,
        key: &DecisionKey,
        compute: impl FnOnce() -> Result<ContainmentResult, CoreError>,
    ) -> Result<ContainmentResult, CoreError> {
        let Some(store) = &self.disk else {
            return self.ram.contains_keyed(key, compute);
        };
        self.ram.contains_keyed(key, || {
            match store.get(key.bytes()) {
                Ok(Some(bytes)) => {
                    if let Some(decision) = decode_decision(&bytes) {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        // Returning it through the compute seam promotes
                        // it into RAM; re-putting to disk is skipped
                        // below because the bytes came from disk.
                        return Ok(decision);
                    }
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => {
                    self.disk_misses.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            let result = compute()?;
            if let Some(bytes) = encode_decision(&result) {
                if store.put(key.bytes(), &bytes).is_err() {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(result)
        })
    }

    /// [`DecisionCache::contains_with`] through both tiers.
    pub fn contains_with(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with_compute(q1, q2, opts, || flogic_core::contains_with(q1, q2, opts))
    }

    /// [`DecisionCache::contains`] through both tiers.
    pub fn contains(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with(q1, q2, &ContainmentOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_syntax::parse_query;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flq_durable_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn memory_mode_is_a_plain_cache() {
        let cache = DurableDecisionCache::memory();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.durable_stats().disk_misses, 0);
    }

    #[test]
    fn decisions_survive_reopen_and_promote_to_ram() {
        let dir = tmp("survive");
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        let fresh = flogic_core::contains_with(&q1, &q2, &ContainmentOptions::default()).unwrap();
        {
            let cache = DurableDecisionCache::open(&dir).unwrap();
            assert!(cache.contains(&q1, &q2).unwrap().holds());
            assert_eq!(cache.durable_stats().disk_misses, 1);
            cache.flush().unwrap();
        }
        let cache = DurableDecisionCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "RAM tier starts cold");
        // Renamed variant: semantic key, so the persisted entry answers.
        let q1r = q("qq(U, W) :- sub(V, W), sub(U, V).");
        let hit = cache
            .contains_with_compute(&q1r, &q2, &ContainmentOptions::default(), || {
                panic!("must be served from disk, not recomputed")
            })
            .unwrap();
        assert_eq!(cache.durable_stats().disk_hits, 1);
        // Bit-identical to fresh computation (witness aside).
        assert_eq!(hit.verdict(), fresh.verdict());
        assert_eq!(hit.is_vacuous(), fresh.is_vacuous());
        assert_eq!(hit.chase_conjuncts(), fresh.chase_conjuncts());
        assert_eq!(hit.level_bound(), fresh.level_bound());
        assert_eq!(hit.max_chase_level(), fresh.max_chase_level());
        assert_eq!(hit.decided_by_analysis(), fresh.decided_by_analysis());
        // Promoted: the second ask is a RAM hit, no disk probe.
        let before = cache.durable_stats();
        assert!(cache.contains(&q1r, &q2).unwrap().holds());
        let after = cache.durable_stats();
        assert_eq!(before.disk_hits, after.disk_hits);
        assert_eq!(before.disk_misses, after.disk_misses);
    }

    #[test]
    fn exhausted_verdicts_are_not_persisted() {
        let dir = tmp("exhausted");
        let cache = DurableDecisionCache::open(&dir).unwrap();
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let tight = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let r = cache.contains_with(&q1, &q2, &tight).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(cache.store().unwrap().stats().puts, 0);
        // A generous rerun on the same key decides and persists.
        let generous = ContainmentOptions {
            analysis: false,
            ..Default::default()
        };
        assert!(cache.contains_with(&q1, &q2, &generous).unwrap().holds());
        assert_eq!(cache.store().unwrap().stats().puts, 1);
    }
}
