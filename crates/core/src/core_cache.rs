//! Bounded cache of pairwise neighbor-core probe results (phase 2).
//!
//! Physical distances are stable, so a measured neighbor pair is never
//! re-probed: the value rides along in the periodic table exchange
//! instead of costing a fresh round trip. The original engine kept these
//! in an unbounded `HashMap<(PeerId, PeerId), Delay>`; under sustained
//! churn the key space keeps growing (every rewire creates fresh
//! neighbor pairs), so this module bounds the cache with the same
//! explicit byte-budget model the autorate controller uses for its soft
//! state — oldest insertion evicted first, so long-stable (and therefore
//! table-refreshed) pairs are the ones that age out.
//!
//! The table is keyed by a packed `u64` (`a.raw() << 32 | b.raw()`,
//! `a <= b`) and hashed with the vendored deterministic
//! [`FxHasher`] — the round-plan hot path looks a pair up once per
//! non-adjacent neighbor pair per planning peer, and SipHash dominated
//! that loop in profiles.
//!
//! Storage is a flat open-addressing table of 16-byte slots (key, cost
//! and insertion sequence inline) at ≤ 50% load, instead of a std
//! `HashMap`: at 100k peers the plan stage issues ~6–7 M random
//! lookups per round against millions of resident pairs, so every
//! lookup is DRAM-bound and the constant factor is cache-line touches.
//! One slot read resolves the common probe (key and value share the
//! line), where the std map's control-byte group plus entry layout
//! costs two.
//!
//! Lifecycle purges are deferred: [`CoreCache::purge_endpoint`] only
//! marks the peer, and [`CoreCache::flush_purges`] later clears every
//! marked endpoint in one pass over the table. Under churn a burst of
//! departures and rejoins then costs one table pass, not one per event.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

use ace_overlay::PeerId;
use ace_topology::Delay;

/// Deterministic FxHash-style hasher (the rustc hash): multiply-rotate
/// mixing, no per-process seed, so digests and iteration-independent
/// lookups behave identically across runs. Only integers are hashed
/// here, which is exactly the input FxHash is good at.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Modeled bytes per cached pair: the map entry (key + value + sequence
/// number + bucket overhead) plus its FIFO-queue slot. Deliberately
/// pessimistic, like the autorate controller's `ENTRY_BYTES`.
pub const ENTRY_BYTES: usize = 48;

/// Default byte budget (256 MiB ≈ 5.6 M pairs). Large enough that no
/// committed benchmark or experiment ever evicts — an eviction forces a
/// re-probe, which would perturb ledgers and digests — while still
/// bounding a multi-day churn soak.
pub const DEFAULT_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// Bookkeeping counters for the core cache, mirroring
/// [`crate::autorate::ControllerStats`]. Hit/miss totals are order
/// independent (plain sums), so they are worker-count deterministic even
/// though lookups run on the parallel plan stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreCacheStats {
    /// Pairs currently cached.
    pub entries: usize,
    /// Modeled bytes currently held.
    pub bytes: usize,
    /// Largest modeled byte footprint ever reached.
    pub high_water_bytes: usize,
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses since construction.
    pub misses: u64,
    /// Pairs inserted since construction.
    pub inserts: u64,
    /// Pairs evicted by the byte budget (oldest first).
    pub evictions: u64,
    /// Pairs dropped because an endpoint left the overlay.
    pub purged: u64,
}

/// One slot of the flat table. Exactly 16 bytes, so key and value share
/// a cache line and four slots pack per line.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Packed pair key; [`EMPTY`] or [`TOMB`] for vacant slots.
    key: u64,
    cost: Delay,
    /// Truncated insertion sequence for lazy FIFO invalidation. A wrap
    /// takes 2³² inserts and could only mis-age an entry while the
    /// budget is actively evicting — unreachable in any committed run.
    seq: u32,
}

/// Vacant-slot sentinel: the packed self-pair `(0, 0)`. Cached pairs are
/// always two *distinct* peers, so no real key collides — and an
/// all-zero slot means a fresh table is one lazy `calloc`, not an
/// eager sentinel fill.
const EMPTY: u64 = 0;

/// Deleted-slot sentinel: the packed self-pair of peer `u32::MAX`.
/// Probes continue through tombstones; inserts reuse them.
const TOMB: u64 = u64::MAX;

/// The bounded pairwise-core cache. Lookups are `&self` (the parallel
/// plan stage shares the cache read-only); inserts, evictions and purges
/// happen only on the serial commit path.
#[derive(Debug)]
pub struct CoreCache {
    /// Flat open-addressing table, linear probing, power-of-two length.
    slots: Vec<Slot>,
    /// Live entries in `slots`.
    live: usize,
    /// Tombstoned slots in `slots` (cleared on rebuild).
    tombs: usize,
    /// Insertion order; entries whose sequence no longer matches the
    /// table (purged or re-inserted pairs) are skipped lazily on
    /// eviction.
    fifo: VecDeque<(u64, u32)>,
    next_seq: u64,
    budget_bytes: usize,
    high_water_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: u64,
    evictions: u64,
    purged: u64,
    /// Bitset over raw peer ids marked by [`CoreCache::purge_endpoint`]
    /// since the last flush.
    pending: Vec<u64>,
    /// Whether any bit of `pending` is set.
    any_pending: bool,
}

impl Clone for CoreCache {
    fn clone(&self) -> Self {
        CoreCache {
            slots: self.slots.clone(),
            live: self.live,
            tombs: self.tombs,
            fifo: self.fifo.clone(),
            next_seq: self.next_seq,
            budget_bytes: self.budget_bytes,
            high_water_bytes: self.high_water_bytes,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            inserts: self.inserts,
            evictions: self.evictions,
            purged: self.purged,
            pending: self.pending.clone(),
            any_pending: self.any_pending,
        }
    }
}

#[inline]
fn pack(a: PeerId, b: PeerId) -> u64 {
    debug_assert_ne!(a, b, "core pairs are distinct peers");
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u64::from(lo.raw()) << 32) | u64::from(hi.raw())
}

/// Deterministic slot hash of a packed key ([`FxHasher`] over one word).
#[inline]
fn fx(key: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

/// Pulls the cache line holding `*v` toward cache by issuing an opaque
/// read of it (safe-code stand-in for a prefetch hint: a batch of these
/// is a set of independent loads the memory pipeline overlaps, where
/// the walk they front-run would serialize behind each pointer chase).
#[inline]
pub(crate) fn prefetch_read<T: Copy>(v: &T) {
    std::hint::black_box(*v);
}

impl CoreCache {
    /// Creates a cache with the given byte budget; `0` selects
    /// [`DEFAULT_BUDGET_BYTES`].
    pub fn with_budget(budget_bytes: usize) -> Self {
        CoreCache {
            slots: Vec::new(),
            live: 0,
            tombs: 0,
            fifo: VecDeque::new(),
            next_seq: 0,
            budget_bytes: if budget_bytes == 0 {
                DEFAULT_BUDGET_BYTES
            } else {
                budget_bytes
            },
            high_water_bytes: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: 0,
            evictions: 0,
            purged: 0,
            pending: Vec::new(),
            any_pending: false,
        }
    }

    /// Pre-sizes the table and queue for an expected pair population.
    /// Growing a multi-million-entry table mid-round is a
    /// multi-hundred-millisecond rehash stall inside the serial commit
    /// stage at 100k peers; reserving at engine construction moves that
    /// cost off the timed path. Clamped to what the byte budget can
    /// hold. Reserved-but-unused capacity is not billed by the byte
    /// model, which tracks live entries (the zeroed table itself is
    /// lazily faulted by the OS and counted by peak RSS as touched).
    pub fn reserve_pairs(&mut self, pairs: usize) {
        let n = pairs.min(self.budget_bytes / ENTRY_BYTES);
        let want = (n.max(8) * 2).next_power_of_two();
        if want > self.slots.len() {
            self.rebuild(want);
        }
        self.fifo.reserve(n.saturating_sub(self.fifo.len()));
    }

    /// Index of `key` in the table, or `None`. Linear probing; deleted
    /// slots keep the chain alive, [`EMPTY`] terminates it.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (fx(key) as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if slot.key == key {
                return Some(i);
            }
            if slot.key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Pulls the pair's home slot toward cache. The plan stage probes
    /// tens of pairs per peer against a table far larger than cache;
    /// staging these ahead of the probes overlaps the DRAM misses
    /// instead of serializing them. Counts nothing.
    #[inline]
    pub fn prefetch(&self, a: PeerId, b: PeerId) {
        if !self.slots.is_empty() {
            let i = (fx(pack(a, b)) as usize) & (self.slots.len() - 1);
            prefetch_read(&self.slots[i]);
        }
    }

    /// Cached cost of the (unordered) pair, counting the hit or miss.
    /// Pending purges must be flushed first.
    #[inline]
    pub fn get(&self, a: PeerId, b: PeerId) -> Option<Delay> {
        debug_assert!(!self.has_pending(), "core cache read with unflushed purges");
        match self.find(pack(a, b)) {
            Some(i) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(self.slots[i].cost)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Re-seats every live entry in a fresh zeroed table of `cap` slots
    /// (power of two), dropping tombstones.
    fn rebuild(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
        self.tombs = 0;
        let mask = cap - 1;
        for slot in old {
            if slot.key == EMPTY || slot.key == TOMB {
                continue;
            }
            let mut i = (fx(slot.key) as usize) & mask;
            while self.slots[i].key != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Inserts the pair unless already present (first value wins, exactly
    /// like the old `entry(..).or_insert(..)`), then enforces the byte
    /// budget by evicting oldest-inserted pairs. Pending purges must be
    /// flushed first: a flush after this insert would drop a pair the
    /// eager purge kept.
    pub fn insert_if_absent(&mut self, a: PeerId, b: PeerId, cost: Delay) {
        debug_assert!(
            !self.has_pending(),
            "core cache insert with unflushed purges"
        );
        let key = pack(a, b);
        // Keep load (live + tombstones) at or under 50%.
        if (self.live + self.tombs + 1) * 2 > self.slots.len() {
            let want = ((self.live + 1).max(8) * 4).next_power_of_two();
            self.rebuild(want.max(self.slots.len()));
        }
        let seq = self.next_seq as u32;
        let mask = self.slots.len() - 1;
        let mut i = (fx(key) as usize) & mask;
        let mut vacant = None;
        loop {
            let slot = &self.slots[i];
            if slot.key == key {
                return; // first value wins
            }
            if slot.key == TOMB {
                vacant.get_or_insert(i);
            } else if slot.key == EMPTY {
                let at = vacant.unwrap_or(i);
                if self.slots[at].key == TOMB {
                    self.tombs -= 1;
                }
                self.slots[at] = Slot { key, cost, seq };
                break;
            }
            i = (i + 1) & mask;
        }
        self.live += 1;
        self.next_seq += 1;
        self.fifo.push_back((key, seq));
        self.inserts += 1;
        self.enforce_budget();
        self.high_water_bytes = self.high_water_bytes.max(self.bytes());
    }

    /// Tombstones the slot at `i`.
    fn remove_at(&mut self, i: usize) {
        self.slots[i].key = TOMB;
        self.live -= 1;
        self.tombs += 1;
    }

    fn enforce_budget(&mut self) {
        while self.bytes() > self.budget_bytes {
            let Some((key, seq)) = self.fifo.pop_front() else {
                break;
            };
            match self.find(key) {
                Some(i) if self.slots[i].seq == seq => {
                    self.remove_at(i);
                    self.evictions += 1;
                }
                _ => {} // stale queue slot: purged or superseded entry
            }
        }
        // A purge-heavy run can leave the queue full of stale slots that
        // model bytes nothing holds; compact once staleness dominates.
        if self.fifo.len() > 2 * self.live + 16 {
            let mut keep = Vec::with_capacity(self.live);
            for &(key, seq) in &self.fifo {
                if matches!(self.find(key), Some(i) if self.slots[i].seq == seq) {
                    keep.push((key, seq));
                }
            }
            self.fifo.clear();
            self.fifo.extend(keep);
        }
    }

    /// Marks `peer` for the next [`CoreCache::flush_purges`], which drops
    /// every pair with it as an endpoint (lifecycle purge). Marking an
    /// already-marked peer is a no-op, so a leave followed by a rejoin
    /// before the flush purges once, exactly as two eager purges would:
    /// the second found nothing left.
    pub fn purge_endpoint(&mut self, peer: PeerId) {
        let word = peer.index() / 64;
        if word >= self.pending.len() {
            self.pending.resize(word + 1, 0);
        }
        self.pending[word] |= 1 << (peer.index() % 64);
        self.any_pending = true;
    }

    /// Whether purges are marked but not yet flushed.
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.any_pending
    }

    /// Drops every pair with a marked endpoint in one pass over the
    /// table, then clears the marks. Tombstones exactly the slots the
    /// eager per-peer purges would have, and counts them the same, so
    /// no lookup or statistic can tell the two apart. No-op (one
    /// branch) when nothing is marked.
    pub fn flush_purges(&mut self) {
        if !self.has_pending() {
            return;
        }
        let pending = &self.pending;
        let marked = |raw: u64| {
            let i = raw as usize;
            pending
                .get(i / 64)
                .is_some_and(|w| w & (1 << (i % 64)) != 0)
        };
        let mut dropped = 0;
        for slot in &mut self.slots {
            let key = slot.key;
            if key != EMPTY && key != TOMB && (marked(key >> 32) || marked(key & 0xFFFF_FFFF)) {
                slot.key = TOMB;
                dropped += 1;
            }
        }
        self.live -= dropped;
        self.tombs += dropped;
        self.purged += dropped as u64;
        self.pending.fill(0);
        self.any_pending = false;
    }

    /// Modeled byte footprint: live entries plus stale (not yet
    /// compacted) queue slots, each at [`ENTRY_BYTES`].
    pub fn bytes(&self) -> usize {
        self.live.max(self.fifo.len()) * ENTRY_BYTES
    }

    /// Snapshot of the bookkeeping counters. Pending purges must be
    /// flushed first.
    pub fn stats(&self) -> CoreCacheStats {
        debug_assert!(
            !self.has_pending(),
            "core cache stats with unflushed purges"
        );
        CoreCacheStats {
            entries: self.live,
            bytes: self.bytes(),
            high_water_bytes: self.high_water_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts,
            evictions: self.evictions,
            purged: self.purged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    #[test]
    fn get_is_order_insensitive_and_first_value_wins() {
        let mut c = CoreCache::with_budget(0);
        c.insert_if_absent(p(3), p(1), 10);
        assert_eq!(c.get(p(1), p(3)), Some(10));
        c.insert_if_absent(p(1), p(3), 99);
        assert_eq!(c.get(p(3), p(1)), Some(10), "first value wins");
        assert_eq!(c.stats().entries, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (2, 0, 1));
    }

    #[test]
    fn budget_evicts_oldest_first() {
        let mut c = CoreCache::with_budget(3 * ENTRY_BYTES);
        for i in 0..5u32 {
            c.insert_if_absent(p(i), p(i + 100), i);
        }
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.get(p(0), p(100)), None, "oldest evicted");
        assert_eq!(c.get(p(1), p(101)), None);
        assert_eq!(c.get(p(4), p(104)), Some(4), "newest kept");
        assert_eq!(c.stats().evictions, 2);
        assert!(c.stats().high_water_bytes <= 4 * ENTRY_BYTES);
    }

    #[test]
    fn purge_drops_both_key_positions_and_survives_reinsert() {
        let mut c = CoreCache::with_budget(0);
        c.insert_if_absent(p(1), p(2), 5);
        c.insert_if_absent(p(2), p(3), 6);
        c.insert_if_absent(p(4), p(5), 7);
        c.purge_endpoint(p(2));
        assert!(c.has_pending());
        c.flush_purges();
        assert!(!c.has_pending());
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().purged, 2);
        // Re-inserting a purged pair must not be evicted by its own stale
        // queue slot.
        c.insert_if_absent(p(1), p(2), 8);
        assert_eq!(c.get(p(1), p(2)), Some(8));
    }

    #[test]
    fn stale_queue_slots_are_compacted() {
        let mut c = CoreCache::with_budget(0);
        for i in 0..100u32 {
            c.insert_if_absent(p(i), p(i + 1000), 1);
        }
        for i in 0..99u32 {
            c.purge_endpoint(p(i));
        }
        c.flush_purges();
        assert_eq!(c.stats().purged, 99);
        // One more insert triggers enforce_budget's compaction check.
        c.insert_if_absent(p(500), p(501), 2);
        assert!(c.fifo.len() <= 2 * c.live + 16);
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let mut a = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = FxHasher::default();
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(0xDEAD_BEF0);
        assert_ne!(a.finish(), c.finish());
    }

    /// The eager per-peer purge the deferred flush replaced: one full
    /// table scan per purged peer. Kept as the oracle for the flush.
    fn purge_eager(c: &mut CoreCache, peer: PeerId) {
        let raw = u64::from(peer.raw());
        for i in 0..c.slots.len() {
            let key = c.slots[i].key;
            if key != EMPTY && key != TOMB && ((key >> 32) == raw || (key & 0xFFFF_FFFF) == raw) {
                c.remove_at(i);
                c.purged += 1;
            }
        }
    }

    /// Every slot's `(key, cost, seq)`, for layout-exact comparison.
    fn layout(c: &CoreCache) -> Vec<(u64, Delay, u32)> {
        c.slots.iter().map(|s| (s.key, s.cost, s.seq)).collect()
    }

    #[test]
    fn leave_then_rejoin_before_a_flush_purges_once() {
        let mut deferred = CoreCache::with_budget(0);
        let mut eager = CoreCache::with_budget(0);
        for c in [&mut deferred, &mut eager] {
            c.insert_if_absent(p(1), p(2), 5);
            c.insert_if_absent(p(2), p(70), 6);
            c.insert_if_absent(p(3), p(4), 7);
        }
        // Leave, rejoin, and a peer that never had a cached pair.
        for peer in [p(2), p(2), p(90)] {
            deferred.purge_endpoint(peer);
            purge_eager(&mut eager, peer);
        }
        deferred.flush_purges();
        assert_eq!(deferred.stats(), eager.stats());
        assert_eq!(deferred.stats().purged, 2);
        assert_eq!(layout(&deferred), layout(&eager));
        assert_eq!(deferred.get(p(4), p(3)), Some(7));
        assert_eq!(deferred.get(p(70), p(2)), None);
        // The marks are gone: a later flush drops nothing new.
        deferred.insert_if_absent(p(2), p(70), 8);
        deferred.flush_purges();
        assert_eq!(deferred.get(p(2), p(70)), Some(8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random inserts, purges and lookups, with purges batched up
        /// to each flush point (the engine flushes before every read,
        /// insert or snapshot), must give the same lookups, stats and
        /// slot layout as purging eagerly. Peer ids span several bitset
        /// words; the small budgets make the FIFO evict as well.
        #[test]
        fn deferred_purge_matches_eager_scan(
            budget_pairs in 0usize..12,
            // (kind, a, b, cost): 0–1 insert, 2 purge a, 3 look up.
            ops in proptest::collection::vec((0u8..4, 0u32..10, 0u32..10, 1u32..1000), 1..150),
        ) {
            let budget = if budget_pairs < 2 { 0 } else { budget_pairs * ENTRY_BYTES };
            let mut deferred = CoreCache::with_budget(budget);
            let mut eager = CoreCache::with_budget(budget);
            for (step, &(kind, a, b, cost)) in ops.iter().enumerate() {
                let a = p(a * 23);
                let b = if a.raw() == b * 23 { p((b + 1) * 23) } else { p(b * 23) };
                if kind == 2 {
                    deferred.purge_endpoint(a);
                    purge_eager(&mut eager, a);
                    continue;
                }
                deferred.flush_purges();
                if kind == 3 {
                    prop_assert_eq!(deferred.get(a, b), eager.get(a, b), "lookup at op {}", step);
                } else {
                    deferred.insert_if_absent(a, b, cost);
                    eager.insert_if_absent(a, b, cost);
                }
                prop_assert_eq!(deferred.stats(), eager.stats(), "stats at op {}", step);
                prop_assert!(layout(&deferred) == layout(&eager), "layout at op {}", step);
            }
            deferred.flush_purges();
            prop_assert_eq!(deferred.stats(), eager.stats());
            prop_assert!(layout(&deferred) == layout(&eager));
        }
    }
}
