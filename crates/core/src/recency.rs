//! One byte-capped recency cache, the resident tier under both of
//! `flqd`'s warm paths: [`DecisionCache`](crate::DecisionCache) holds
//! verdicts in one, and `flqd`'s snapshot cache holds chases in another.
//!
//! Residency is capped in *charged* bytes: each insert says what its
//! value costs, an estimate of the caller's, not a measured heap size.
//! Recency lives in an ordered index beside the map, sharing its keys:
//! a hit moves its key to the back, and eviction pops the front. No
//! operation walks the resident entries, so each costs O(log n) whether
//! the cache is filling or full.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Running statistics of a [`RecencyCache`], all monotonic except
/// `resident_bytes` and `resident_entries`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecencyStats {
    /// Lookups answered by a resident, usable entry.
    pub hits: u64,
    /// Lookups that found no entry, or one the caller could not use.
    pub misses: u64,
    /// Entries dropped to stay under the byte cap, or dropped as stale
    /// by a refused insert.
    pub evictions: u64,
    /// Inserts refused: the value was marked unretainable, or its charge
    /// alone exceeds the cap.
    pub uncacheable: u64,
    /// Charged bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: u64,
    /// The entry's key in [`Inner::order`].
    tick: u64,
}

#[derive(Debug)]
struct Inner<K, V> {
    map: HashMap<Arc<K>, Slot<V>>,
    /// Resident keys by last use, least recent first.
    order: BTreeMap<u64, Arc<K>>,
    next_tick: u64,
    /// `resident_entries` is read off the map instead.
    stats: RecencyStats,
}

/// A thread-safe, byte-capped least-recently-used cache (see the module
/// docs). Callers compute values outside its one mutex.
#[derive(Debug)]
pub struct RecencyCache<K, V> {
    cap_bytes: u64,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Hash + Eq, V: Clone> RecencyCache<K, V> {
    /// An empty cache holding at most `cap_bytes` of charges.
    pub fn new(cap_bytes: usize) -> RecencyCache<K, V> {
        RecencyCache {
            cap_bytes: cap_bytes as u64,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                next_tick: 0,
                stats: RecencyStats::default(),
            }),
        }
    }

    /// A clone of `key`'s resident value when `usable` accepts it, which
    /// also marks the entry most recently used; otherwise a miss, and an
    /// unusable entry stays for [`insert`](RecencyCache::insert) to
    /// replace.
    pub fn get(&self, key: &K, usable: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut guard = self.inner.lock().expect("recency cache poisoned");
        let inner = &mut *guard;
        let Some(slot) = inner.map.get_mut(key).filter(|s| usable(&s.value)) else {
            inner.stats.misses += 1;
            return None;
        };
        let shared = inner.order.remove(&slot.tick).expect("resident");
        inner.next_tick += 1;
        slot.tick = inner.next_tick;
        inner.order.insert(slot.tick, shared);
        inner.stats.hits += 1;
        Some(slot.value.clone())
    }

    /// Makes `value` the most recently used entry under `key`, charged
    /// `bytes`, then evicts least recently used entries until the charges
    /// fit under the cap. A value marked unretainable (`retain == false`)
    /// or charged more than the cap is refused, and the refusal drops the
    /// entry resident under `key`, which the caller found unusable.
    pub fn insert(&self, key: K, value: V, bytes: usize, retain: bool) {
        let bytes = bytes as u64;
        let refused = !retain || bytes > self.cap_bytes;
        let mut guard = self.inner.lock().expect("recency cache poisoned");
        let inner = &mut *guard;
        if let Some(stale) = inner.map.remove(&key) {
            inner.order.remove(&stale.tick);
            inner.stats.resident_bytes -= stale.bytes;
            inner.stats.evictions += u64::from(refused);
        }
        if refused {
            inner.stats.uncacheable += 1;
            return;
        }
        let (key, tick) = (Arc::new(key), inner.next_tick + 1);
        inner.next_tick = tick;
        inner.order.insert(tick, Arc::clone(&key));
        inner.map.insert(key, Slot { value, bytes, tick });
        inner.stats.resident_bytes += bytes;
        while inner.stats.resident_bytes > self.cap_bytes {
            let (_, victim) = inner.order.pop_first().expect("over the cap");
            let slot = inner.map.remove(&victim).expect("resident");
            inner.stats.resident_bytes -= slot.bytes;
            inner.stats.evictions += 1;
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> RecencyStats {
        let inner = self.inner.lock().expect("recency cache poisoned");
        RecencyStats {
            resident_entries: inner.map.len() as u64,
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_term::rng::{Rng, SplitMix64};

    impl<K: Hash + Eq + Clone, V: Clone> RecencyCache<K, V> {
        /// The resident keys, least recently used first.
        fn resident(&self) -> Vec<K> {
            let inner = self.inner.lock().expect("recency cache poisoned");
            inner.order.values().map(|key| K::clone(key)).collect()
        }
    }

    /// The naive reference LRU: resident `(key, value, charge)`s in a
    /// `Vec`, least recently used first, evicting from the front.
    struct Model {
        cap: usize,
        entries: Vec<(u32, u64, usize)>,
        stats: RecencyStats,
    }

    impl Model {
        fn get(&mut self, key: u32, min: u64) -> Option<u64> {
            match self.entries.iter().position(|e| e.0 == key && e.1 >= min) {
                Some(at) => {
                    let entry = self.entries.remove(at);
                    self.entries.push(entry);
                    self.stats.hits += 1;
                    Some(entry.1)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u32, value: u64, charge: usize, retain: bool) {
            let before = self.entries.len();
            self.entries.retain(|e| e.0 != key);
            if !retain || charge > self.cap {
                self.stats.uncacheable += 1;
                self.stats.evictions += (before - self.entries.len()) as u64;
                return;
            }
            self.entries.push((key, value, charge));
            while self.entries.iter().map(|e| e.2).sum::<usize>() > self.cap {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
        }

        fn stats(&self) -> RecencyStats {
            RecencyStats {
                resident_bytes: self.entries.iter().map(|e| e.2 as u64).sum(),
                resident_entries: self.entries.len() as u64,
                ..self.stats
            }
        }
    }

    #[test]
    fn matches_a_naive_lru_operation_by_operation() {
        for seed in 1..=4 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let cap = 120;
            let cache: RecencyCache<u32, u64> = RecencyCache::new(cap);
            let mut model = Model {
                cap,
                entries: Vec::new(),
                stats: RecencyStats::default(),
            };
            for op in 0..4_000 {
                let key = rng.random_range(0..40) as u32;
                if rng.random_bool(0.5) {
                    // A value below `min` is resident but unusable.
                    let min = rng.random_range(0..4) as u64;
                    let got = cache.get(&key, |v| *v >= min);
                    assert_eq!(got, model.get(key, min), "seed {seed} op {op}: get {key}");
                } else {
                    let value = rng.random_range(0..4) as u64;
                    let charge = if rng.random_bool(0.05) {
                        cap + 1 + rng.random_range(0..40)
                    } else {
                        1 + rng.random_range(0..40)
                    };
                    let retain = !rng.random_bool(0.05);
                    cache.insert(key, value, charge, retain);
                    model.insert(key, value, charge, retain);
                }
                let want: Vec<u32> = model.entries.iter().map(|e| e.0).collect();
                assert_eq!(cache.resident(), want, "seed {seed} op {op}: residents");
                assert_eq!(cache.stats(), model.stats(), "seed {seed} op {op}: stats");
                assert!(cache.stats().resident_bytes <= cap as u64);
            }
            let stats = cache.stats();
            assert!(stats.evictions > 0 && stats.uncacheable > 0, "{stats:?}");
            assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
        }
    }
}
