//! Sharded, content-addressed memoization cache with single-flight compute,
//! and the response-bytes cache layered above it.
//!
//! Keys are [`frontier::QueryKey`] 128-bit content hashes; values are the
//! rendered JSON response bodies (`Arc<String>`, so a hit is a hash lookup
//! plus a refcount bump). Each shard is an independently locked
//! [`LruCache`], so concurrent queries for different keys contend only 1/N
//! of the time.
//!
//! **Single-flight:** the first request for a key registers a flight beside
//! its shard's LRU and computes outside the lock; concurrent requests for
//! the same key block on the flight's condvar and receive the same `Arc` —
//! an expensive characterization is computed exactly once no matter how
//! many clients ask simultaneously. A panicking compute poisons nobody: the
//! flight is removed, waiters get the error, and later requests recompute.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use analysis::lru::LruCache;

use crate::http;
use crate::trace::elapsed_us;

/// How a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Value was already resident.
    Hit,
    /// This request computed the value.
    Miss,
    /// Another in-flight request computed it; this one waited.
    Coalesced,
}

/// Where a lookup's time went, for the request trace context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupTiming {
    /// Shard lock + probe (all outcomes).
    pub lookup_us: u64,
    /// Blocked on another request's flight (coalesced only).
    pub wait_us: u64,
    /// Running the compute closure (miss only; includes serialization done
    /// inside the closure).
    pub compute_us: u64,
}

type ComputeResult = Result<Arc<String>, String>;

#[derive(Default)]
struct Flight {
    done: Mutex<Option<ComputeResult>>,
    cv: Condvar,
}

/// One memo shard: resident bodies in the LRU, computes in progress beside
/// it (a flight is never evicted, and never counts toward capacity).
struct Shard {
    ready: LruCache<u128, Arc<String>>,
    flights: HashMap<u128, Arc<Flight>>,
}

/// `count` (clamped to 1..=64) independently locked shards, each built by
/// `shard` with its share of `capacity`.
fn sharded<S>(capacity: usize, count: usize, shard: impl Fn(usize) -> S) -> Vec<Mutex<S>> {
    let count = count.clamp(1, 64);
    (0..count)
        .map(|_| Mutex::new(shard(capacity.div_ceil(count))))
        .collect()
}

/// Cache hit/miss/eviction counters (all monotonic).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups satisfied from a resident value.
    pub hits: AtomicU64,
    /// Lookups that computed the value.
    pub misses: AtomicU64,
    /// Lookups that waited on another request's compute.
    pub coalesced: AtomicU64,
    /// Values evicted to stay under capacity.
    pub evictions: AtomicU64,
    /// Computes that failed (panicked or returned an error).
    pub failures: AtomicU64,
}

/// The memoization cache.
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    /// Counters, exposed for `/v1/metrics`.
    pub stats: CacheStats,
}

impl MemoCache {
    /// A cache bounded to roughly `capacity` resident values, spread over
    /// `shards` independently locked shards.
    pub fn new(capacity: usize, shards: usize) -> MemoCache {
        MemoCache {
            shards: sharded(capacity, shards, |per_shard| Shard {
                ready: LruCache::new(per_shard),
                flights: HashMap::new(),
            }),
            stats: CacheStats::default(),
        }
    }

    /// Total resident (ready) values across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").ready.len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nominal capacity (values).
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").ready.capacity())
            .sum()
    }

    fn shard_for(&self, key: u128) -> &Mutex<Shard> {
        // High bits select the shard; the map hashes the full key.
        let idx = ((key >> 96) as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Look up `key`, computing the value with `compute` on a miss. Returns
    /// the body and how it was obtained. `compute` errors (including
    /// panics, reported as errors) are not cached.
    pub fn get_or_compute(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<String, String>,
    ) -> (ComputeResult, Outcome) {
        let (result, outcome, _) = self.get_or_compute_timed(key, compute);
        (result, outcome)
    }

    /// [`Self::get_or_compute`], additionally reporting where the lookup's
    /// time went (shard probe / flight wait / compute) for the request
    /// trace context.
    pub fn get_or_compute_timed(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<String, String>,
    ) -> (ComputeResult, Outcome, LookupTiming) {
        let probe_start = Instant::now();
        let mut shard = self.shard_for(key).lock().expect("cache shard lock");
        if let Some(value) = shard.ready.get(&key) {
            drop(shard);
            // Relaxed: standalone monotone tally. Exact cross-thread
            // visibility in tests is given by the response write happening
            // before the test's next request (TCP read → happens-before).
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let timing = LookupTiming {
                lookup_us: elapsed_us(probe_start),
                ..LookupTiming::default()
            };
            return (Ok(value), Outcome::Hit, timing);
        }
        let Some(flight) = shard.flights.get(&key).map(Arc::clone) else {
            let flight = Arc::new(Flight::default());
            shard.flights.insert(key, Arc::clone(&flight));
            drop(shard);
            let lookup_us = elapsed_us(probe_start);
            let compute_start = Instant::now();
            let result = self.run_flight(key, &flight, compute);
            let timing = LookupTiming {
                lookup_us,
                wait_us: 0,
                compute_us: elapsed_us(compute_start),
            };
            return (result, Outcome::Miss, timing);
        };
        drop(shard);
        // Wait for the in-flight compute outside the shard lock.
        let lookup_us = elapsed_us(probe_start);
        // Relaxed: standalone monotone tally (see `hits` above).
        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
        let wait_start = Instant::now();
        let mut done = flight.done.lock().expect("flight lock");
        while done.is_none() {
            done = flight.cv.wait(done).expect("flight wait");
        }
        (
            done.as_ref().expect("flight finished").clone(),
            Outcome::Coalesced,
            LookupTiming {
                lookup_us,
                wait_us: elapsed_us(wait_start),
                compute_us: 0,
            },
        )
    }

    fn run_flight(
        &self,
        key: u128,
        flight: &Flight,
        compute: impl FnOnce() -> Result<String, String>,
    ) -> ComputeResult {
        // Relaxed: standalone monotone tally; the value itself is published
        // via the shard mutex / flight condvar, never via this counter.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let result: ComputeResult = match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(Ok(body)) => Ok(Arc::new(body)),
            Ok(Err(e)) => Err(e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "computation panicked".into());
                Err(format!("computation panicked: {msg}"))
            }
        };
        if result.is_err() {
            // Relaxed: standalone monotone tally, observed only by scrapes.
            self.stats.failures.fetch_add(1, Ordering::Relaxed);
        }
        {
            // A failed compute only drops its flight, so a later request
            // retries.
            let mut shard = self.shard_for(key).lock().expect("cache shard lock");
            shard.flights.remove(&key);
            if let Ok(value) = &result {
                let before = shard.ready.evictions();
                shard.ready.insert(key, Arc::clone(value));
                // Relaxed: standalone monotone tally; the eviction itself is
                // ordered by the shard mutex held here.
                self.stats
                    .evictions
                    .fetch_add(shard.ready.evictions() - before, Ordering::Relaxed);
            }
        }
        // Wake everyone coalesced on this flight.
        *flight.done.lock().expect("flight lock") = Some(result.clone());
        flight.cv.notify_all();
        result
    }

    /// Hit rate over all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        // Relaxed loads: the counters are independent; a scrape landing
        // mid-request may see hits/misses skewed by one, harmless in a ratio.
        let hits =
            self.stats.hits.load(Ordering::Relaxed) + self.stats.coalesced.load(Ordering::Relaxed);
        let total = hits + self.stats.misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

// ------------------------------------------------------------- bytes cache

/// A fully pre-serialized response: the [`MemoCache`]'s own body `Arc` (the
/// body is stored once, not copied per layer) plus two pre-rendered heads
/// (`x-cache: hit`, one per connection disposition). A warm hit is a single
/// `writev` of `[head, body]` — zero re-encode, zero copy of the body bytes.
pub struct CachedBytes {
    /// HTTP status the cached exchange produced (always 200 today; only
    /// successful cacheable responses are admitted).
    pub status: u16,
    /// Endpoint label for metrics/flight records.
    pub endpoint: &'static str,
    /// The response body, byte-identical to fresh serialization.
    pub body: Arc<String>,
    /// Pre-rendered head ending in `connection: keep-alive` + `x-cache: hit`.
    pub head_keep_alive: Vec<u8>,
    /// Pre-rendered head ending in `connection: close` + `x-cache: hit`.
    pub head_close: Vec<u8>,
}

impl CachedBytes {
    /// `body` with both `x-cache: hit` heads rendered for it.
    pub fn hit(
        status: u16,
        endpoint: &'static str,
        content_type: &str,
        body: Arc<String>,
    ) -> CachedBytes {
        let head = |keep_alive| {
            http::render_head(status, body.len(), Some("hit"), content_type, keep_alive)
                .into_bytes()
        };
        CachedBytes {
            status,
            endpoint,
            head_keep_alive: head(true),
            head_close: head(false),
            body,
        }
    }
}

/// Response-bytes cache layered **above** the [`MemoCache`], sharded the
/// same way over the same [`LruCache`] and sized by the same
/// `--cache-entries`.
///
/// Keys are the raw request target (`/path?query`), values are
/// [`CachedBytes`] holding the memo's body `Arc`. Both layers memoize pure
/// functions of the query, so there is nothing to invalidate — the layers
/// can evict independently without any staleness risk (see DESIGN.md
/// § "Response-bytes cache"). Entries are inserted by worker threads after
/// a cold compute and probed by the reactor thread before dispatch;
/// hit/miss tallies live in
/// [`ReactorStats`](crate::metrics::ReactorStats), not here, because the
/// probe site (the reactor) owns the counters.
pub struct BytesCache {
    shards: Vec<Mutex<LruCache<String, Arc<CachedBytes>>>>,
}

impl BytesCache {
    /// A cache bounded to roughly `capacity` resident responses, spread over
    /// `shards` independently locked shards.
    pub fn new(capacity: usize, shards: usize) -> BytesCache {
        BytesCache {
            shards: sharded(capacity, shards, LruCache::new),
        }
    }

    fn shard_for(&self, target: &str) -> &Mutex<LruCache<String, Arc<CachedBytes>>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        target.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Resident responses across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("bytes shard lock").len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe for `target`, refreshing its recency on a hit.
    pub fn get(&self, target: &str) -> Option<Arc<CachedBytes>> {
        self.shard_for(target)
            .lock()
            .expect("bytes shard lock")
            .get(target)
    }

    /// Admit the pre-rendered response for `target` (a resident entry for
    /// the same target is kept — both are renders of one pure function),
    /// evicting the least-recently-used entry if the shard is over capacity.
    pub fn insert(&self, target: String, value: CachedBytes) {
        self.shard_for(&target)
            .lock()
            .expect("bytes shard lock")
            .insert(target, Arc::new(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_lookup_hits_with_identical_value() {
        let cache = MemoCache::new(8, 2);
        let (first, o1) = cache.get_or_compute(42, || Ok("body".into()));
        let (second, o2) = cache.get_or_compute(42, || Ok("OTHER".into()));
        assert_eq!(o1, Outcome::Miss);
        assert_eq!(o2, Outcome::Hit);
        assert!(Arc::ptr_eq(&first.expect("ok"), &second.expect("ok")));
        assert_eq!(cache.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_identical_queries_compute_once() {
        let cache = Arc::new(MemoCache::new(8, 4));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (value, _) = cache.get_or_compute(7, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok("expensive".into())
                });
                value.expect("ok")
            }));
        }
        let values: Vec<Arc<String>> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight");
        assert!(values.iter().all(|v| v.as_str() == "expensive"));
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let cache = MemoCache::new(4, 1);
        for key in 0..8u128 {
            let (v, _) = cache.get_or_compute(key, || Ok(format!("v{key}")));
            v.expect("ok");
        }
        assert!(cache.len() <= 4, "len {} over capacity", cache.len());
        assert!(cache.stats.evictions.load(Ordering::Relaxed) >= 4);
        // The most recent key is still resident.
        let (_, outcome) = cache.get_or_compute(7, || Ok("recomputed".into()));
        assert_eq!(outcome, Outcome::Hit);
    }

    #[test]
    fn failed_computes_are_not_cached_and_retry() {
        let cache = MemoCache::new(8, 1);
        let (r1, _) = cache.get_or_compute(1, || Err("boom".into()));
        assert!(r1.is_err());
        let (r2, outcome) = cache.get_or_compute(1, || Ok("recovered".into()));
        assert_eq!(outcome, Outcome::Miss);
        assert_eq!(r2.expect("ok").as_str(), "recovered");
        assert_eq!(cache.stats.failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_computes_become_errors() {
        let cache = MemoCache::new(8, 1);
        let (r, _) = cache.get_or_compute(2, || panic!("kaboom"));
        let err = r.expect_err("panic becomes error");
        assert!(err.contains("kaboom"), "{err}");
        // Cache stays usable.
        let (r2, _) = cache.get_or_compute(2, || Ok("fine".into()));
        assert_eq!(r2.expect("ok").as_str(), "fine");
    }

    #[test]
    fn single_flight_survives_a_full_shard() {
        let cache = Arc::new(MemoCache::new(1, 1));
        let computes = Arc::new(AtomicUsize::new(0));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let owner = {
            let (cache, computes) = (Arc::clone(&cache), Arc::clone(&computes));
            std::thread::spawn(move || {
                cache.get_or_compute(0xA, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).expect("signal start");
                    release_rx.recv().expect("release");
                    Ok("a".into())
                })
            })
        };
        started_rx.recv().expect("A in flight");
        let waiter = {
            let (cache, computes) = (Arc::clone(&cache), Arc::clone(&computes));
            std::thread::spawn(move || {
                cache.get_or_compute(0xA, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    Ok("recomputed".into())
                })
            })
        };
        while cache.stats.coalesced.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Fill and churn the one-entry shard while A is still in flight.
        for key in [0xB, 0xC, 0xD] {
            let (v, outcome) = cache.get_or_compute(key, || Ok(format!("{key:x}")));
            assert_eq!(
                (v.expect("ok").as_str(), outcome),
                (&*format!("{key:x}"), Outcome::Miss)
            );
        }
        assert_eq!(cache.len(), 1);
        release_tx.send(()).expect("release A");
        let (owned, o1) = owner.join().expect("owner");
        let (waited, o2) = waiter.join().expect("waiter");
        assert_eq!((o1, o2), (Outcome::Miss, Outcome::Coalesced));
        assert_eq!(waited.expect("ok").as_str(), "a");
        assert!(owned.is_ok());
        assert_eq!(computes.load(Ordering::SeqCst), 1, "A computed once");
        // A is resident; inserting B, C, D then A into one slot evicted 3.
        let (resident, outcome) = cache.get_or_compute(0xA, || Err("evicted".into()));
        assert_eq!(
            (resident.expect("ok").as_str(), outcome),
            ("a", Outcome::Hit)
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats.evictions.load(Ordering::SeqCst), 3);
        assert_eq!(cache.stats.misses.load(Ordering::SeqCst), 4);
    }

    fn cached_bytes(endpoint: &'static str, body: &str) -> CachedBytes {
        CachedBytes::hit(
            200,
            endpoint,
            "application/json",
            Arc::new(body.to_string()),
        )
    }

    #[test]
    fn bytes_cache_round_trips_and_shares_the_body() {
        let cache = BytesCache::new(8, 2);
        assert!(cache.get("/v1/characterize?domain=nmt").is_none());
        cache.insert(
            "/v1/characterize?domain=nmt".to_string(),
            cached_bytes("characterize", "{\"x\":1}"),
        );
        let hit = cache.get("/v1/characterize?domain=nmt").expect("resident");
        assert_eq!(hit.body.as_str(), "{\"x\":1}");
        assert_eq!(hit.endpoint, "characterize");
        let head = String::from_utf8(hit.head_keep_alive.clone()).expect("utf8");
        assert!(head.contains("x-cache: hit"), "{head}");
        assert!(head.contains("connection: keep-alive"), "{head}");
        assert!(head.contains(&format!("content-length: {}", hit.body.len())));
    }

    #[test]
    fn bytes_cache_evicts_least_recently_used() {
        let cache = BytesCache::new(4, 1);
        for i in 0..8 {
            cache.insert(format!("/k{i}"), cached_bytes("characterize", "{}"));
            // Keep /k0 hot so the eviction victim is always something else.
            let _ = cache.get("/k0");
        }
        assert!(cache.len() <= 4, "len {} over capacity", cache.len());
        assert!(cache.get("/k0").is_some(), "hot entry survived");
        assert!(cache.get("/k1").is_none(), "cold entry evicted");
    }
}
