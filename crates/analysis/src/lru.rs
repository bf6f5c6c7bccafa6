//! The workspace's one LRU map.
//!
//! Every bounded cache is built on it: the sweep engines' per-configuration
//! instance caches here, and `serve`'s memo and response-bytes caches (one
//! `LruCache` per shard). The discipline: a monotone tick, touch on use,
//! evict the smallest tick while over capacity. Family caches are unbounded
//! (there are only a handful of structural families) — this bounds the
//! caches a long-running server grows without limit otherwise.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// LRU map holding cheaply-clonable values (`Arc`s in practice).
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
    capacity: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// An empty map holding at most `capacity` entries (floored at 1).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Insert `value` under `key` unless a concurrent computation got there
    /// first (first insert wins — results are identical), mark the entry
    /// most-recently-used, then evict down to capacity. Returns the entry
    /// now cached under `key`.
    pub fn insert(&mut self, key: K, value: V) -> V {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.entry(key).or_insert(Entry {
            value,
            last_used: tick,
        });
        entry.last_used = tick;
        let kept = entry.value.clone();
        while self.map.len() > self.capacity {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
            self.evictions += 1;
        }
        kept
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted to stay under capacity, over the map's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_refreshes_recency() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get("a"), Some(1));
        lru.insert("c", 3);
        assert_eq!(lru.get("a"), Some(1), "touched entry survives");
        assert_eq!(lru.get("b"), None, "untouched entry evicted");
    }

    #[test]
    fn first_insert_wins_and_returns_the_kept_value() {
        let mut lru = LruCache::new(4);
        assert_eq!(lru.insert("k", 1), 1);
        assert_eq!(lru.insert("k", 2), 1);
        assert_eq!(lru.get("k"), Some(1));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut lru = LruCache::new(3);
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            lru.insert(key, i);
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get("a"), None);
        for key in ["b", "c", "d"] {
            assert!(lru.get(key).is_some(), "{key} resident");
        }
    }

    #[test]
    fn capacity_is_floored_at_one() {
        let mut lru = LruCache::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1u128, "x");
        lru.insert(2u128, "y");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&2), Some("y"));
    }

    #[test]
    fn evictions_are_counted_exactly() {
        let mut lru = LruCache::new(2);
        for key in 0..7u128 {
            lru.insert(key, key);
        }
        // A repeat insert keeps the resident entry and evicts nothing.
        lru.insert(6, 0);
        assert_eq!(lru.evictions(), 5);
        assert_eq!(lru.len(), 2);
    }
}
