//! The one concurrent map behind the evaluation stack's memos.
//!
//! A [`Memo`] is a single `Mutex<HashMap>`. Every cache in the stack —
//! the assignment core's space cache, the artifact's three memos and
//! `kpa-serve`'s artifact cache — is one, and each call site counts its
//! own hits and misses. The lock is held for one lookup or one insert,
//! never while a value is built: the memos hold pure functions of
//! immutable systems, so racing builders of one key construct
//! structurally identical values and the first insert wins.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A concurrent map with build-outside-the-lock inserts.
///
/// `get` clones the stored value out (values are cheap handles —
/// `Arc`s or `Rat`s in every in-repo use); `insert_or_get` is the tail
/// of the build-outside-the-lock idiom: compute the value first, then
/// insert it unless a racing thread already did, returning whichever
/// entry won. Both are safe to call from any number of threads.
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, V>>,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Memo<K, V> {
        Memo {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Locks the map, recovering from poisoning: entries are inserted
    /// whole and never mutated, so a panic elsewhere can never leave
    /// one torn.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A clone of the value under `key`, if present.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// Inserts `value` under `key` unless an entry already exists,
    /// returning (a clone of) whichever value the memo now holds.
    /// Racing builders of one key each construct a structurally
    /// identical value and the first insert wins, so results never
    /// depend on the race.
    pub fn insert_or_get(&self, key: K, value: V) -> V {
        self.lock().entry(key).or_insert(value).clone()
    }

    /// How many entries the memo holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memo holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds `f` over every entry under the lock — for the occupancy
    /// gauges, which only add up sizes. A caller with more work per
    /// entry clones the values out first and walks them unlocked.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        self.lock().iter().fold(init, |acc, (k, v)| f(acc, k, v))
    }
}

impl<K: Hash + Eq, V: Clone> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo::new()
    }
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_and_insert_round_trip() {
        let map: Memo<u64, Arc<u64>> = Memo::new();
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
        let map: Memo<u64, u64> = Memo::new();
        for k in 0..100 {
            map.insert_or_get(k, k * 3);
        }
        let (count, sum) = map.fold((0u64, 0u64), |(c, s), _k, v| (c + 1, s + v));
        assert_eq!(count, 100);
        assert_eq!(sum, (0..100).map(|k| k * 3).sum::<u64>());
        let empty: Memo<u64, u64> = Memo::new();
        assert_eq!(empty.fold(7u64, |a, _, _| a + 1), 7);
    }

    #[test]
    fn concurrent_hammering_is_linearizable_per_key() {
        let map: Arc<Memo<u64, u64>> = Arc::new(Memo::new());
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
}
