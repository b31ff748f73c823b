//! Sharded concurrent maps for the evaluation stack's memos.
//!
//! A [`ShardMap`] splits one logical `HashMap` across `N` independently
//! locked shards selected by a deterministic hash of the key, so
//! concurrent queries against one shared artifact contend only when two
//! threads touch the *same shard* at the *same instant* — instead of
//! serializing every memo lookup on one global mutex. Every sharded
//! cache in the evaluation stack — the assignment core's space cache
//! and the artifact's memos — is a `ShardMap`, with built-in
//! `kpa-trace` instrumentation:
//!
//! * `{name}.shardNN.hit` / `{name}.shardNN.miss` — per-shard lookup
//!   outcomes (dynamic names, resolved once per map via the registry);
//! * `{name}.contention` — lock acquisitions that found the shard lock
//!   already held (a `try_lock` probe before the blocking `lock`), the
//!   direct measure of how often sharding failed to separate two
//!   threads.
//!
//! Shard *choice* never affects results — every key lives in exactly
//! one shard and the per-shard maps are plain `HashMap`s — so the map
//! is observationally a single `HashMap` with interior mutability. A
//! 1-shard map **is** the old global-mutex memo (the `shared` bench
//! uses exactly that as its baseline row).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Default shard count, chosen so simultaneous collisions are rare at
/// `kpa-pool`'s thread counts.
pub const DEFAULT_SHARDS: usize = 16;

/// Per-map trace handles, resolved lazily on the first traced
/// operation (the registry's name map is consulted once per map, not
/// per lookup).
struct Slots {
    /// `(hit, miss)` counter pair per shard.
    per_shard: Vec<(&'static kpa_trace::Counter, &'static kpa_trace::Counter)>,
    /// Lock acquisitions that found the shard lock held.
    contention: &'static kpa_trace::Counter,
}

/// A concurrent map split across independently locked shards.
///
/// `get` clones the stored value out (values are cheap handles —
/// `Arc`s or `Rat`s in every in-repo use); `insert_or_get` implements
/// the build-outside-the-lock idiom: compute the value first, then
/// insert it unless a racing thread already did, returning whichever
/// entry won. Both are safe to call from any number of threads; locks
/// are held only for the lookup/insert, never while values are built.
pub struct ShardMap<K, V> {
    name: &'static str,
    shards: Box<[Mutex<HashMap<K, V>>]>,
    slots: OnceLock<Slots>,
}

impl<K: Hash + Eq, V: Clone> ShardMap<K, V> {
    /// An empty map with [`DEFAULT_SHARDS`] shards. `name` prefixes the
    /// map's trace counters and must be constant per call site (the
    /// registry interns it).
    #[must_use]
    pub fn new(name: &'static str) -> ShardMap<K, V> {
        ShardMap::with_shards(name, DEFAULT_SHARDS)
    }

    /// An empty map with an explicit shard count (`≥ 1`). A 1-shard map
    /// behaves exactly like a single mutex-guarded `HashMap` — the
    /// `shared` bench's mutex baseline.
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    #[must_use]
    pub fn with_shards(name: &'static str, shards: usize) -> ShardMap<K, V> {
        assert!(shards > 0, "ShardMap needs at least one shard");
        ShardMap {
            name,
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            slots: OnceLock::new(),
        }
    }

    /// The trace-name prefix this map records under.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// How many shards the map is split across.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lives in: a deterministic (fixed-key `SipHash`)
    /// hash of the key, so shard choice is stable within a process and
    /// independent of any per-map random state.
    fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Locks one shard, counting contention (lock already held) and
    /// recovering from poisoning — shards hold only finished, immutable
    /// values, so a panic elsewhere can never leave one torn.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, HashMap<K, V>> {
        match self.shards[idx].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                if let Some(slots) = self.trace_slots() {
                    slots.contention.incr();
                }
                self.shards[idx]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// The trace handles, resolved on first use while tracing is
    /// enabled (`None` while disabled — the whole instrumentation is
    /// one relaxed load then).
    fn trace_slots(&self) -> Option<&Slots> {
        if !kpa_trace::enabled() {
            return None;
        }
        Some(self.slots.get_or_init(|| {
            let reg = kpa_trace::registry();
            Slots {
                per_shard: (0..self.shards.len())
                    .map(|s| {
                        (
                            reg.counter(&format!("{}.shard{s:02}.hit", self.name)),
                            reg.counter(&format!("{}.shard{s:02}.miss", self.name)),
                        )
                    })
                    .collect(),
                contention: reg.counter(&format!("{}.contention", self.name)),
            }
        }))
    }

    /// A clone of the value under `key`, if present. Records a
    /// per-shard hit or miss.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let idx = self.shard_of(key);
        let found = self.lock_shard(idx).get(key).cloned();
        if let Some(slots) = self.trace_slots() {
            let (hits, misses) = slots.per_shard[idx];
            if found.is_some() {
                hits.incr();
            } else {
                misses.incr();
            }
        }
        found
    }

    /// Inserts `value` under `key` unless an entry already exists,
    /// returning (a clone of) whichever value the map now holds. This
    /// is the tail of the build-outside-the-lock idiom: racing builders
    /// of one key each construct a structurally identical value and the
    /// first insert wins, so results never depend on the race.
    pub fn insert_or_get(&self, key: K, value: V) -> V {
        let idx = self.shard_of(&key);
        self.lock_shard(idx).entry(key).or_insert(value).clone()
    }

    /// Total entries across all shards (locks each shard briefly).
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|idx| self.lock_shard(idx).len())
            .sum()
    }

    /// Whether the map holds no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds `f` over a point-in-time view of every entry, shard by
    /// shard (each shard's lock is held only while that shard is
    /// visited). Entries inserted or observed mid-fold by other
    /// threads may or may not be seen — fine for the occupancy gauges
    /// this feeds, which are diagnostics, not ledgers.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            for (k, v) in shard.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

impl<K, V> fmt::Debug for ShardMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardMap")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_and_insert_round_trip() {
        let map: ShardMap<u64, Arc<u64>> = ShardMap::new("test.shard_round_trip");
        assert!(map.get(&7).is_none());
        assert!(map.is_empty());
        let a = map.insert_or_get(7, Arc::new(70));
        assert_eq!(*a, 70);
        // First insert wins; the racing value is dropped.
        let b = map.insert_or_get(7, Arc::new(71));
        assert!(Arc::ptr_eq(&a, &b), "existing entry must win");
        assert_eq!(map.get(&7).as_deref(), Some(&70));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn fold_visits_every_entry_once() {
        let map: ShardMap<u64, u64> = ShardMap::new("test.shard_fold");
        for k in 0..100 {
            map.insert_or_get(k, k * 3);
        }
        let (count, sum) = map.fold((0u64, 0u64), |(c, s), _k, v| (c + 1, s + v));
        assert_eq!(count, 100);
        assert_eq!(sum, (0..100).map(|k| k * 3).sum::<u64>());
        let empty: ShardMap<u64, u64> = ShardMap::new("test.shard_fold_empty");
        assert_eq!(empty.fold(7u64, |a, _, _| a + 1), 7);
    }

    #[test]
    fn one_shard_behaves_like_a_plain_map() {
        let map: ShardMap<u64, u64> = ShardMap::with_shards("test.shard_single", 1);
        assert_eq!(map.shard_count(), 1);
        for k in 0..64 {
            map.insert_or_get(k, k * 2);
        }
        assert_eq!(map.len(), 64);
        for k in 0..64 {
            assert_eq!(map.get(&k), Some(k * 2));
        }
    }

    #[test]
    fn shards_partition_the_key_space() {
        let map: ShardMap<u64, u64> = ShardMap::new("test.shard_partition");
        for k in 0..512 {
            map.insert_or_get(k, k);
        }
        assert_eq!(map.len(), 512, "every key lands in exactly one shard");
        // Spot-check the hash actually spreads keys: with 512 sequential
        // keys over 16 shards, no shard should be empty.
        let used: std::collections::HashSet<usize> = (0..512).map(|k| map.shard_of(&k)).collect();
        assert_eq!(used.len(), DEFAULT_SHARDS, "hash must reach every shard");
    }

    #[test]
    fn concurrent_hammering_is_linearizable_per_key() {
        let map: Arc<ShardMap<u64, u64>> = Arc::new(ShardMap::new("test.shard_hammer"));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = Arc::clone(&map);
                scope.spawn(move || {
                    for k in 0..256 {
                        // Every thread proposes `k + t`; whichever insert
                        // wins, later readers must all agree.
                        let v = map.insert_or_get(k, k + t);
                        assert_eq!(map.get(&k), Some(v));
                    }
                });
            }
        });
        assert_eq!(map.len(), 256);
        for k in 0..256 {
            let v = map.get(&k).expect("inserted");
            assert!((k..k + 4).contains(&v), "value must come from one writer");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _: ShardMap<u64, u64> = ShardMap::with_shards("test.shard_zero", 0);
    }
}
