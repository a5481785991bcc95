//! Shared LRU cache of trained normal-condition profiles.
//!
//! Training a [`NormalProfile`] is the expensive part of serving a
//! detection request — it walks every training route set. Deployments
//! are few and requests are many, so profiles are trained once per
//! [`ProfileKey`] and shared (via `Arc`) across every calling thread.
//!
//! Training is **single-flight** and runs **outside** the lock. A miss
//! puts an empty [`OnceLock`] slot for the key into the map, releases the
//! mutex, and fills the slot. A call that finds the slot still filling
//! waits for that one training and counts as a hit, so `misses` counts
//! trainings. The mutex only guards the map probe, the recency bump and
//! an eviction, so a hit on one key never waits on another key's
//! training. A training that panics leaves its slot empty, and the next
//! call for the key trains again.
//!
//! A slot whose training is in flight is never evicted, so no key trains
//! twice at once. When every other slot is in flight, a miss grows the
//! map past its capacity. Every call evicts down to capacity what is no
//! longer in flight, so the overflow ends with the first call after the
//! trainings that caused it.

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

/// Whether a training of `slot` is running or waited on: it is still
/// empty and a call besides the map holds it. Calls clone a slot only
/// under the map's lock, so the count read there can only overstate, and
/// a slot whose training panicked with nobody waiting is evictable.
fn in_flight(slot: &Slot) -> bool {
    slot.get().is_none() && Arc::strong_count(slot) > 1
}

/// A bounded, least-recently-used map of trained profiles with hit/miss
/// accounting. Slots in flight are exempt from eviction, so while
/// trainings run the map can exceed its capacity by their number.
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
    /// A cache of `capacity` profiles (`capacity ≥ 1`), more only while
    /// trainings are in flight, with private hit/miss counters.
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

    /// The slot for `key`, made if absent. Then least recently used
    /// slots are evicted until the map is back at capacity, skipping
    /// `key` and every slot whose training is in flight.
    fn slot(&self, key: &ProfileKey) -> Slot {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = match inner.map.get_mut(key) {
            Some((recency, slot)) => {
                *recency = tick;
                slot.clone()
            }
            None => {
                let slot = Slot::default();
                inner.map.insert(key.clone(), (tick, slot.clone()));
                slot
            }
        };
        while inner.map.len() > self.capacity {
            // Linear scan: the cache holds one entry per deployment, so
            // len is tens, not thousands.
            let Some(victim) = inner
                .map
                .iter()
                .filter(|(k, (_, slot))| *k != key && !in_flight(slot))
                .min_by_key(|(_, (recency, _))| *recency)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&victim);
        }
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

    #[test]
    fn a_training_in_flight_is_never_evicted() {
        let cache = ProfileCache::new(2);
        let gate = Gate::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let hold = gate.lock.write().unwrap();
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_train(&key("a"), || {
                    entered_tx.send(()).unwrap();
                    gate.train()
                })
            });
            entered_rx.recv().unwrap();
            // b and c fill the cache while a trains: c evicts b, not a.
            cache.get_or_train(&key("b"), || gate.count());
            cache.get_or_train(&key("c"), || gate.count());
            assert_eq!(cache.len(), 2);
            let again = s.spawn(|| cache.get_or_train(&key("a"), || gate.train()));
            // Wait until the second call holds a's slot beside the map and
            // the first call, or has started a second training.
            let holders = || {
                let inner = cache.inner.lock();
                inner
                    .map
                    .get(&key("a"))
                    .map_or(0, |(_, slot)| Arc::strong_count(slot))
            };
            while holders() < 3 && gate.trainings.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            drop(hold);
            assert!(!first.join().unwrap().1);
            assert!(
                again.join().unwrap().1,
                "the second call waited on the first"
            );
        });
        assert_eq!(gate.trainings.load(Ordering::SeqCst), 3, "a trained once");
        let (_, hit) = cache.get_or_train(&key("b"), empty_profile);
        assert!(!hit, "b was the victim");
    }

    #[test]
    fn the_map_overflows_only_while_every_slot_is_in_flight() {
        let cache = ProfileCache::new(1);
        let gate = Gate::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let hold = gate.lock.write().unwrap();
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_train(&key("a"), || {
                    entered_tx.send(()).unwrap();
                    gate.train()
                })
            });
            entered_rx.recv().unwrap();
            cache.get_or_train(&key("b"), empty_profile);
            assert_eq!(cache.len(), 2, "a in flight and b");
            drop(hold);
            first.join().unwrap();
        });
        let (_, hit) = cache.get_or_train(&key("b"), || panic!("must not retrain"));
        assert!(hit);
        assert_eq!(cache.len(), 1, "the next hit shrinks the map back");
        cache.get_or_train(&key("c"), empty_profile);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn concurrent_misses_past_capacity_end_with_the_next_hit() {
        let cache = ProfileCache::new(2);
        let gate = Gate::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let hold = gate.lock.write().unwrap();
        std::thread::scope(|s| {
            let calls: Vec<_> = ["a", "b", "c"]
                .into_iter()
                .map(|name| {
                    let entered_tx = entered_tx.clone();
                    let (cache, gate) = (&cache, &gate);
                    s.spawn(move || {
                        cache.get_or_train(&key(name), || {
                            entered_tx.send(()).unwrap();
                            gate.train()
                        })
                    })
                })
                .collect();
            for _ in 0..3 {
                entered_rx.recv().unwrap();
            }
            assert_eq!(cache.len(), 3, "three trainings in flight");
            drop(hold);
            for call in calls {
                assert!(!call.join().unwrap().1);
            }
        });
        // Only hits follow: the first one evicts back to capacity.
        for _ in 0..3 {
            let (_, hit) = cache.get_or_train(&key("a"), || panic!("must not retrain"));
            assert!(hit);
            assert_eq!(cache.len(), 2);
        }
        assert_eq!(cache.misses(), 3);
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
            let profile = self.count();
            let _open = self.lock.read().unwrap();
            profile
        }

        /// Count a training that does not wait.
        fn count(&self) -> NormalProfile {
            self.trainings.fetch_add(1, Ordering::SeqCst);
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
