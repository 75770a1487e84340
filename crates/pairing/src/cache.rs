//! A bounded, thread-safe LRU cache of [`G2Prepared`] keys.
//!
//! Preparing a `G2` point (walking the twist once to record its
//! Miller-loop line coefficients) costs about 0.8–1.2 ms, more than the
//! ~0.7 ms replay that follows it. A designated agency serving many tenants
//! pairs against the *same* handful of verifier keys millions of times per
//! epoch, so re-preparing per lookup is the difference between a few
//! hundred and a few hundred thousand verifications per second. This
//! module supplies the amortization layer: a capacity-bounded
//! least-recently-used map from the point's canonical compressed encoding
//! to its shared prepared form.
//!
//! Properties the rest of the workspace relies on:
//!
//! * **Canonical keys.** Entries are keyed by
//!   [`G2Affine::to_compressed`], so two callers holding equal points (in
//!   any coordinate representation) share one preparation — and points
//!   from *different* deployments (different master keys) never collide.
//! * **Determinism.** A cached entry is [`G2Prepared`]-equal to a fresh
//!   preparation of the same point; eviction and re-insertion round-trips
//!   are therefore observationally invisible (asserted in tests).
//! * **No lock held while preparing.** A miss releases the map lock for
//!   the expensive preparation, so concurrent lookups of *other* keys
//!   proceed; two racing misses on the same key both prepare and the
//!   later insert wins (both results are identical).
//! * **Capacity 0 disables caching** — every lookup prepares fresh and
//!   nothing is retained. The scale benchmark's "cache off" arm and the
//!   unit tests use this to measure exactly what the cache buys.
//! * **O(log n) eviction.** Recency is indexed by a `BTreeMap` keyed on
//!   the use-stamp, so each eviction pops the oldest stamp instead of
//!   min-scanning the map — shrinking a full cache via
//!   [`PreparedCache::set_capacity`] is O(n log n), not O(n²).
//!
//! Two process-wide instances exist, split by the sensitivity of what
//! they hold:
//!
//! * [`global`] caches **public** points only — `seccloud-ibs` routes
//!   `q_prepared` (verifier *public* key) lookups through it. Capacity
//!   starts at [`DEFAULT_GLOBAL_CAPACITY`].
//! * [`secret`] caches **secret-derived** preparations — `sk_prepared`
//!   (the designated verifier's private key) routes here, and nothing
//!   else shares the instance. Entries are [`G2Prepared`] values, which
//!   wipe their line coefficients on drop, so LRU eviction, `clear()`
//!   and `set_capacity(0)` all zeroize rather than merely free. Capacity
//!   starts at [`DEFAULT_SECRET_CAPACITY`].
//!
//! Both can be re-bounded at runtime with [`PreparedCache::set_capacity`]
//! (a benchmark's cache-off arm sets 0).
//!
//! Keeping the two populations in separate instances means public-key
//! churn can never evict (or be used to probe) secret-derived entries,
//! and secret material is never resident in the cache that general
//! wire-handling code touches.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::g2::G2Affine;
use crate::prepared::G2Prepared;

/// Capacity of the [`global`] cache: generous enough for thousands of
/// co-resident verifier keys (shard agencies, cloud servers,
/// epoch-rotated identities) at roughly 10 KiB of line coefficients each.
pub const DEFAULT_GLOBAL_CAPACITY: usize = 4096;

/// Capacity of the [`secret`] cache: sized for the handful of co-resident
/// *private* verifier keys a process legitimately holds (per-shard
/// designated agencies), kept deliberately small so secret-derived line
/// coefficients have a bounded resident footprint.
pub const DEFAULT_SECRET_CAPACITY: usize = 256;

/// The canonical map key: a point's compressed encoding.
type Key = [u8; 64];

/// One resident entry: the shared prepared form and its recency stamp.
struct Entry {
    prepared: Arc<G2Prepared>,
    last_used: u64,
}

/// The lock-protected state: the map, a monotonically increasing
/// use-stamp (recency order without any clock), a stamp-ordered index
/// mirroring the map so the least-recently-used entry is always the
/// index's first key, and the hit/miss/eviction counters. The counters
/// live *inside* the lock deliberately: every path that bumps one already
/// holds the guard for the map mutation it describes, so folding them in
/// costs nothing, keeps the whole cache in one synchronization domain,
/// and makes each stats snapshot exactly consistent with the map state
/// that produced it (no torn hit/miss vs. len readings).
struct Inner {
    capacity: usize,
    stamp: u64,
    map: HashMap<Key, Entry>,
    order: BTreeMap<u64, Key>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Next recency stamp. Stamps are handed out once each, so they are
    /// unique `order` keys for the lifetime of the process.
    fn tick(&mut self) -> u64 {
        self.stamp = self.stamp.wrapping_add(1);
        self.stamp
    }

    /// Refreshes `key`'s recency and returns its shared preparation, if
    /// resident.
    fn touch(&mut self, key: &Key) -> Option<Arc<G2Prepared>> {
        let stamp = self.tick();
        let entry = self.map.get_mut(key)?;
        self.order.remove(&entry.last_used);
        entry.last_used = stamp;
        self.order.insert(stamp, *key);
        Some(Arc::clone(&entry.prepared))
    }

    /// Inserts (or replaces) `key`'s entry at the freshest recency.
    fn insert(&mut self, key: Key, prepared: Arc<G2Prepared>) {
        let stamp = self.tick();
        if let Some(old) = self.map.insert(
            key,
            Entry {
                prepared,
                last_used: stamp,
            },
        ) {
            self.order.remove(&old.last_used);
        }
        self.order.insert(stamp, key);
    }

    /// Drops `key`'s entry and its recency-index mirror, if resident.
    fn remove(&mut self, key: &Key) {
        if let Some(entry) = self.map.remove(key) {
            self.order.remove(&entry.last_used);
        }
    }

    /// Evicts least-recently-used entries until within capacity — each
    /// eviction is one `BTreeMap::pop_first`, O(log n).
    fn trim(&mut self) {
        while self.map.len() > self.capacity {
            let Some((_, oldest)) = self.order.pop_first() else {
                return;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// A bounded LRU cache of prepared `G2` points (see module docs).
pub struct PreparedCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PreparedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl PreparedCache {
    /// A fresh cache holding at most `capacity` prepared points
    /// (`capacity == 0` disables retention entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                capacity,
                stamp: 0,
                map: HashMap::new(),
                order: BTreeMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Locks the map; a poisoned lock is recovered, never propagated —
    /// every entry is internally consistent at all times, so a panicking
    /// holder cannot leave partial state behind.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The prepared form of `q`: a cache hit returns the shared entry and
    /// refreshes its recency; a miss prepares (outside the lock), inserts,
    /// and evicts the least-recently-used overflow.
    pub fn get_or_prepare(&self, q: &G2Affine) -> Arc<G2Prepared> {
        let key = q.to_compressed();
        {
            let mut inner = self.lock();
            if let Some(shared) = inner.touch(&key) {
                inner.hits += 1;
                return shared;
            }
            inner.misses += 1;
        }
        let prepared = Arc::new(G2Prepared::from(q));
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return prepared;
        }
        // A racing miss may have inserted meanwhile; both preparations are
        // identical, so keeping ours (refreshing recency) is equivalent.
        inner.insert(key, Arc::clone(&prepared));
        inner.trim();
        prepared
    }

    /// [`Self::get_or_prepare`] for *secret* points: a miss prepares
    /// through the constant-time [`G2Prepared::from_ct`] walk, so a cold
    /// cache never routes key-derived coordinates into the variable-time
    /// inversions. Hits are indistinguishable from the public variant.
    /// Pair this with the [`secret()`] cache instance — the cache *key*
    /// is the compressed point either way, so the lookup itself does not
    /// branch on coordinate values beyond the map hash.
    pub fn get_or_prepare_ct(&self, q: &G2Affine) -> Arc<G2Prepared> {
        let key = q.to_compressed();
        {
            let mut inner = self.lock();
            if let Some(shared) = inner.touch(&key) {
                inner.hits += 1;
                return shared;
            }
            inner.misses += 1;
        }
        let prepared = Arc::new(G2Prepared::from_ct(q));
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return prepared;
        }
        inner.insert(key, Arc::clone(&prepared));
        inner.trim();
        prepared
    }

    /// The cached entry for `q`, if resident (refreshes recency).
    pub fn get(&self, q: &G2Affine) -> Option<Arc<G2Prepared>> {
        self.lock().touch(&q.to_compressed())
    }

    /// Whether `q` is currently resident (does not touch recency).
    pub fn contains(&self, q: &G2Affine) -> bool {
        self.lock().map.contains_key(&q.to_compressed())
    }

    /// Drops the entry for `q`, if resident. Key-wipe paths call this so
    /// secret-derived line coefficients do not outlive their key.
    pub fn remove(&self, q: &G2Affine) {
        self.lock().remove(&q.to_compressed());
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Re-bounds the cache, evicting LRU entries if shrinking. Capacity 0
    /// clears the cache and disables retention until raised again.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        inner.trim();
    }

    /// The current bound.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the map since construction.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that had to prepare since construction.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Entries evicted by the capacity bound since construction.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Resets the hit/miss/eviction counters (entries stay resident).
    /// One lock acquisition: the reset is atomic with respect to every
    /// concurrent lookup, so no lookup is ever split across the reset.
    pub fn reset_counters(&self) {
        let mut inner = self.lock();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

/// The process-wide prepared-key cache for **public** points (see module
/// docs), holding up to [`DEFAULT_GLOBAL_CAPACITY`] entries until
/// [`PreparedCache::set_capacity`] re-bounds it.
///
/// Secret-derived preparations must go through [`secret`] instead — this
/// instance is shared with general wire-handling code and must never hold
/// key material.
pub fn global() -> &'static PreparedCache {
    static GLOBAL: OnceLock<PreparedCache> = OnceLock::new();
    GLOBAL.get_or_init(|| PreparedCache::new(DEFAULT_GLOBAL_CAPACITY))
}

/// The process-wide prepared-key cache for **secret-derived** points —
/// designated-verifier private keys (`sk_prepared`). Kept separate from
/// [`global`] so public-key churn can neither evict nor probe secret
/// entries; evicted/cleared [`G2Prepared`] values wipe their line
/// coefficients on drop. Holds up to [`DEFAULT_SECRET_CAPACITY`] entries
/// until [`PreparedCache::set_capacity`] re-bounds it.
pub fn secret() -> &'static PreparedCache {
    static SECRET: OnceLock<PreparedCache> = OnceLock::new();
    SECRET.get_or_init(|| PreparedCache::new(DEFAULT_SECRET_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g2::hash_to_g2;

    fn point(i: u32) -> G2Affine {
        hash_to_g2(format!("cache-point-{i}").as_bytes()).to_affine()
    }

    #[test]
    fn hit_returns_the_shared_preparation() {
        let cache = PreparedCache::new(4);
        let q = point(0);
        let a = cache.get_or_prepare(&q);
        let b = cache.get_or_prepare(&q);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the entry");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_repeated_key_is_prepared_once() {
        let cache = PreparedCache::new(4);
        let q = point(2);
        let before = crate::counters::snapshot();
        cache.get_or_prepare(&q);
        cache.get_or_prepare(&q);
        let spent = crate::counters::snapshot().since(&before);
        assert_eq!(spent.g2_preparations, 1);
    }

    #[test]
    fn cached_entry_equals_fresh_preparation() {
        let cache = PreparedCache::new(4);
        let q = point(1);
        let cached = cache.get_or_prepare(&q);
        assert_eq!(*cached, G2Prepared::from(&q));
    }

    #[test]
    fn capacity_evicts_in_lru_order() {
        let cache = PreparedCache::new(2);
        let (a, b, c) = (point(10), point(11), point(12));
        cache.get_or_prepare(&a);
        cache.get_or_prepare(&b);
        // Touch `a` so `b` is now the least recently used.
        cache.get_or_prepare(&a);
        cache.get_or_prepare(&c);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&a), "recently used entry survives");
        assert!(!cache.contains(&b), "LRU entry is evicted");
        assert!(cache.contains(&c));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn capacity_zero_disables_retention() {
        let cache = PreparedCache::new(0);
        let q = point(20);
        let a = cache.get_or_prepare(&q);
        let b = cache.get_or_prepare(&q);
        assert_eq!(*a, *b, "uncached preparations still agree");
        assert!(!Arc::ptr_eq(&a, &b), "nothing is shared at capacity 0");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn remove_and_clear_drop_entries() {
        let cache = PreparedCache::new(4);
        let (a, b) = (point(30), point(31));
        cache.get_or_prepare(&a);
        cache.get_or_prepare(&b);
        cache.remove(&a);
        assert!(!cache.contains(&a));
        assert!(cache.contains(&b));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shrinking_capacity_trims_to_the_new_bound() {
        let cache = PreparedCache::new(4);
        for i in 40..44 {
            cache.get_or_prepare(&point(i));
        }
        cache.set_capacity(1);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&point(43)), "most recent entry survives");
    }

    #[test]
    fn reinsertion_after_eviction_matches_fresh_preparation() {
        let cache = PreparedCache::new(1);
        let (a, b) = (point(60), point(61));
        let first = cache.get_or_prepare(&a);
        cache.get_or_prepare(&b); // evicts `a`
        assert!(!cache.contains(&a));
        let again = cache.get_or_prepare(&a); // miss: prepared from scratch
        assert!(
            !Arc::ptr_eq(&first, &again),
            "re-insertion is a genuinely new preparation"
        );
        assert_eq!(
            *first, *again,
            "evict/re-insert round-trip is observationally invisible"
        );
        assert_eq!(*again, G2Prepared::from(&a));
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn concurrent_lookups_stay_consistent() {
        const THREADS: usize = 4;
        const POINTS: u32 = 6;
        const OPS: usize = 24;
        // Capacity below the working set forces live eviction under
        // contention, not just shared hits.
        let cache = PreparedCache::new(POINTS as usize / 2);
        let fresh: Vec<G2Prepared> = (0..POINTS).map(|i| G2Prepared::from(&point(i))).collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let fresh = &fresh;
                scope.spawn(move || {
                    for op in 0..OPS {
                        // Stride by a per-thread offset so threads collide
                        // on some keys and diverge on others.
                        let i = ((op + t * 7) % POINTS as usize) as u32;
                        let got = cache.get_or_prepare(&point(i));
                        assert_eq!(*got, fresh[i as usize], "corrupted entry for point {i}");
                    }
                });
            }
        });
        assert!(cache.len() <= POINTS as usize / 2, "bound must hold");
        assert_eq!(
            cache.hits() + cache.misses(),
            (THREADS * OPS) as u64,
            "every lookup is counted exactly once"
        );
        assert!(
            cache.misses() >= u64::from(POINTS / 2),
            "misses undercounted"
        );
    }

    #[test]
    fn eviction_clear_and_shrink_release_the_cache_reference() {
        // `G2Prepared::drop` wipes line coefficients in place (asserted in
        // `prepared::tests::wipe_on_drop_clears_every_line_coefficient`);
        // what the cache must guarantee is that every removal path drops
        // its clone of the entry, so the wipe runs as soon as no caller
        // still holds it.
        let cache = PreparedCache::new(2);
        let (a, b) = (point(80), point(81));
        let held_a = cache.get_or_prepare(&a);
        assert_eq!(Arc::strong_count(&held_a), 2);

        // LRU eviction: two further inserts push `a` off the end.
        cache.get_or_prepare(&b);
        cache.get_or_prepare(&point(82));
        assert!(!cache.contains(&a));
        assert_eq!(
            Arc::strong_count(&held_a),
            1,
            "eviction must drop the cache's clone"
        );

        // clear(): every remaining entry drops.
        let held_b = cache.get(&b).expect("b still resident");
        cache.clear();
        assert_eq!(Arc::strong_count(&held_b), 1, "clear must drop every clone");

        // Capacity shrink to zero: trimming drops whatever remains.
        let held_c = cache.get_or_prepare(&point(83));
        assert_eq!(Arc::strong_count(&held_c), 2);
        cache.set_capacity(0);
        assert_eq!(
            Arc::strong_count(&held_c),
            1,
            "shrink must drop trimmed entries"
        );
    }

    #[test]
    fn global_cache_is_shared_and_bounded() {
        let g = global();
        assert!(g.capacity() > 0);
        let q = point(50);
        let a = g.get_or_prepare(&q);
        assert_eq!(*a, G2Prepared::from(&q));
    }

    #[test]
    fn secret_cache_is_isolated_from_the_global_one() {
        let s = secret();
        let q = point(51);
        let a = s.get_or_prepare(&q);
        assert_eq!(*a, G2Prepared::from(&q));
        assert!(
            !global().contains(&q),
            "secret-cache entries must never appear in the shared cache"
        );
        s.remove(&q);
        assert!(!s.contains(&q));
    }

    #[test]
    fn recency_index_survives_churn() {
        // Interleave inserts, touches, removes and a shrink; the recency
        // index must keep evicting in strict LRU order throughout.
        let cache = PreparedCache::new(3);
        let pts: Vec<G2Affine> = (70..75).map(point).collect();
        for (i, p) in pts.iter().enumerate().take(3) {
            cache.get_or_prepare(p);
            assert_eq!(cache.len(), i + 1);
        }
        cache.get_or_prepare(&pts[0]); // order now: 1, 2, 0
        cache.remove(&pts[2]); // order now: 1, 0
        cache.get_or_prepare(&pts[3]); // order now: 1, 0, 3
        cache.get_or_prepare(&pts[4]); // evicts 1 → 0, 3, 4
        assert!(!cache.contains(&pts[1]), "LRU entry must go first");
        assert!(cache.contains(&pts[0]));
        assert!(cache.contains(&pts[3]));
        assert!(cache.contains(&pts[4]));
        cache.set_capacity(1);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&pts[4]), "most recent entry survives");
    }
}
