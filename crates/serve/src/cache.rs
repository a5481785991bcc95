//! Shared LRU cache of trained normal-condition profiles.
//!
//! Training a [`NormalProfile`] is the expensive part of serving a
//! detection request — it walks every training route set. Deployments
//! are few and requests are many, so profiles are trained once per
//! [`ProfileKey`] and shared (via `Arc`) across all workers.
//!
//! Training is **single-flight** and runs **outside** the lock. A miss
//! puts an empty [`OnceLock`] slot for the key into the map, releases the
//! mutex, and fills the slot. A call that finds the slot still filling
//! waits for that one training and counts as a hit, so `misses` counts
//! trainings. The mutex only guards the map probe, the recency bump and
//! an eviction, so a hit on one key never waits on another key's
//! training. A training that panics leaves its slot empty, and the next
//! call for the key trains again.

use crate::request::ProfileKey;
use parking_lot::Mutex;
use sam::NormalProfile;
use sam_telemetry::Counter;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A key's profile, filled once by the call that trains it.
type Slot = Arc<OnceLock<Arc<NormalProfile>>>;

struct LruInner {
    /// Key → (recency tick, profile slot).
    map: HashMap<ProfileKey, (u64, Slot)>,
    /// Monotone counter; larger = more recently used.
    tick: u64,
}

/// A bounded, least-recently-used map of trained profiles with hit/miss
/// accounting.
///
/// The hit/miss counters are plain [`sam_telemetry::Counter`]s; pass
/// registry-owned handles via [`ProfileCache::with_counters`] to surface
/// them in an exported snapshot (the service wires them up as
/// `serve.cache_hits` / `serve.cache_misses`).
pub struct ProfileCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl ProfileCache {
    /// A cache retaining at most `capacity` profiles (`capacity ≥ 1`),
    /// with private hit/miss counters.
    pub fn new(capacity: usize) -> Self {
        Self::with_counters(capacity, Arc::new(Counter::new()), Arc::new(Counter::new()))
    }

    /// A cache whose hit/miss accounting lands in the given counters
    /// (typically registry handles).
    pub fn with_counters(capacity: usize, hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        assert!(capacity >= 1, "profile cache needs capacity >= 1");
        ProfileCache {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits,
            misses,
        }
    }

    /// Fetch the profile for `key`, training it with `train` on a miss.
    ///
    /// Returns the shared profile and whether this call was a cache hit.
    /// A call that arrives while another call trains `key` waits for that
    /// training and returns its profile as a hit.
    pub fn get_or_train(
        &self,
        key: &ProfileKey,
        train: impl FnOnce() -> NormalProfile,
    ) -> (Arc<NormalProfile>, bool) {
        let slot = self.slot(key);
        let mut trained = false;
        let profile = slot
            .get_or_init(|| {
                trained = true;
                self.misses.inc();
                Arc::new(train())
            })
            .clone();
        if !trained {
            self.hits.inc();
        }
        (profile, !trained)
    }

    /// The slot for `key`, made (and the LRU entry evicted) if absent.
    fn slot(&self, key: &ProfileKey) -> Slot {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((recency, slot)) = inner.map.get_mut(key) {
            *recency = tick;
            return slot.clone();
        }
        if inner.map.len() >= self.capacity {
            // Evict the least recently used entry. Linear scan: the cache
            // holds one entry per deployment, so len is tens, not
            // thousands. A training in flight on the victim still hands
            // its profile to the calls already waiting on it.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (recency, _))| *recency)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        let slot = Slot::default();
        inner.map.insert(key.clone(), (tick, slot.clone()));
        slot
    }

    /// Keys cached or training right now.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered without training so far, waits on another
    /// call's training included.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Trainings started so far (one per miss).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, RwLock};
    use std::time::Duration;

    fn key(name: &str) -> ProfileKey {
        ProfileKey::new(name, "mr")
    }

    fn empty_profile() -> NormalProfile {
        NormalProfile::train(&[], 20)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ProfileCache::new(4);
        let (_, hit) = cache.get_or_train(&key("a"), empty_profile);
        assert!(!hit);
        let (_, hit) = cache.get_or_train(&key("a"), || panic!("must not retrain"));
        assert!(hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ProfileCache::new(2);
        cache.get_or_train(&key("a"), empty_profile);
        cache.get_or_train(&key("b"), empty_profile);
        cache.get_or_train(&key("a"), empty_profile); // refresh a
        cache.get_or_train(&key("c"), empty_profile); // evicts b
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_train(&key("a"), empty_profile);
        assert!(hit, "a was refreshed, must survive");
        let (_, hit) = cache.get_or_train(&key("b"), empty_profile);
        assert!(!hit, "b was the LRU victim");
    }

    /// Holds every training that reads it until the test drops the write
    /// guard, counting the trainings that started.
    struct Gate {
        lock: RwLock<()>,
        trainings: AtomicUsize,
    }

    impl Gate {
        fn new() -> Self {
            Gate {
                lock: RwLock::new(()),
                trainings: AtomicUsize::new(0),
            }
        }

        fn train(&self) -> NormalProfile {
            self.trainings.fetch_add(1, Ordering::SeqCst);
            let _open = self.lock.read().unwrap();
            empty_profile()
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_train_once() {
        let cache = ProfileCache::new(4);
        let gate = Gate::new();
        let arrived = AtomicUsize::new(0);
        let hold = gate.lock.write().unwrap();
        let hits: Vec<bool> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        cache.get_or_train(&key("a"), || gate.train()).1
                    })
                })
                .collect();
            while arrived.load(Ordering::SeqCst) < 8 {
                std::thread::yield_now();
            }
            // Give every call time to reach the cache while the first
            // training is held.
            std::thread::sleep(Duration::from_millis(50));
            drop(hold);
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(gate.trainings.load(Ordering::SeqCst), 1, "one training");
        assert_eq!(hits.iter().filter(|&&hit| !hit).count(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn a_panicking_training_leaves_the_key_untrained() {
        let cache = ProfileCache::new(4);
        let gate = Gate::new();
        let first_ended = AtomicBool::new(false);
        let (entered_tx, entered_rx) = mpsc::channel();
        let hold = gate.lock.write().unwrap();
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_train(&key("a"), || {
                        entered_tx.send(()).unwrap();
                        gate.train();
                        first_ended.store(true, Ordering::SeqCst);
                        panic!("training failed");
                    })
                }))
            });
            entered_rx.recv().unwrap();
            let second = s.spawn(|| {
                cache.get_or_train(&key("a"), || {
                    // Runs only once the first training has given up.
                    assert!(first_ended.load(Ordering::SeqCst), "trained concurrently");
                    empty_profile()
                })
            });
            std::thread::sleep(Duration::from_millis(50));
            drop(hold);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(first.is_err(), "the panic reaches the caller");
        let (_, hit) = second;
        assert!(!hit, "the waiting call trains the key itself");
        assert_eq!(cache.misses(), 2, "both trainings count");
        assert_eq!(cache.hits(), 0);
        let (_, hit) = cache.get_or_train(&key("a"), || panic!("must not retrain"));
        assert!(hit, "the second training filled the key");
    }
}
