//! The global layer (paper Figure 3).
//!
//! "The only purpose of the global layer is to support reasonable
//! performance in cases when one CPU allocates buffers of a given size,
//! which are then passed to other CPUs that free them. The global layer
//! allows the freed buffers to move back to the allocating CPU without
//! incurring the overhead of coalescing."
//!
//! Each size class has one [`GlobalPool`] per NUMA node: the paper's
//! design, a short-hold [`SpinLock`] around
//!
//! * the *ready chains* — the `gblfree` list of intact `target`-sized
//!   chains, the only structure the common CPU-to-CPU recycling pattern
//!   touches (get = pop one chain, put = push one chain, O(1) each);
//! * the *bucket list*, which regroups odd-sized chains (low-memory cache
//!   flushes, short refills handed back) into `target`-sized ones.
//!
//! The per-CPU layer absorbs all but about 1/`target` of the traffic, so
//! the lock is rarely taken, and holding it makes the `2 * gbltarget`
//! bound exact on every put: the block count is `chains * target +
//! bucket`, read under the same lock. Excess goes to the coalesce-to-page
//! layer and an empty pool is replenished from it — both via return
//! values, so the page layer is never entered while the lock is held.

use kmem_smp::{faults, Faults, LocalCounter, SpinLock};

use crate::block::LinkKey;
use crate::chain::Chain;

/// Statistics for one global pool.
///
/// Beyond the access/miss pair the paper's tables need, the counters break
/// every event down by *how* it was served — the detail the snapshot layer
/// (`crate::snapshot`) exposes per class. Every counter is bumped only
/// while the pool lock is held, so the lock holder is its single writer
/// and a bump is a plain load/store ([`LocalCounter`]), not a shared RMW.
/// Totals are bumped before the details they bound, so a concurrent
/// reader that loads the details first can assert `detail <= total` on
/// live samples.
#[derive(Default)]
pub struct GlobalStats {
    /// Chain requests served (hits and misses).
    pub get: LocalCounter,
    /// Gets served by a ready `target`-sized chain.
    pub get_chain_hits: LocalCounter,
    /// Gets not served by a ready chain (bucket serves and misses).
    pub get_slow: LocalCounter,
    /// Gets served from the bucket list.
    pub get_bucket_hits: LocalCounter,
    /// Gets that handed back a sub-`target` chain (the pool held fewer
    /// than `target` blocks; each one erodes the per-CPU hysteresis).
    pub get_short: LocalCounter,
    /// Total blocks missing from short gets (`target - len`, summed).
    pub get_short_deficit: LocalCounter,
    /// Chain requests that fell through to the coalesce-to-page layer.
    pub get_miss: LocalCounter,
    /// Chains returned by per-CPU caches.
    pub put: LocalCounter,
    /// Puts that went through the bucket list or spilled.
    pub put_slow: LocalCounter,
    /// Puts of odd-sized chains (low-memory flushes).
    pub put_odd: LocalCounter,
    /// Puts that spilled excess blocks to the coalesce-to-page layer.
    pub put_miss: LocalCounter,
    /// Spills forced by the pressure ladder ([`GlobalPool::spill_to`])
    /// rather than by a put exceeding the bound. Counted separately from
    /// `put_miss`, which stays bounded by [`GlobalStats::put`].
    pub pressure_spills: LocalCounter,
    /// Total blocks spilled to the coalesce-to-page layer (bound-exceeding
    /// puts and forced spills combined).
    pub spill_blocks: LocalCounter,
}

/// Everything the pool lock guards.
struct Lists {
    /// Intact, exactly-`target`-sized chains. Capacity for the whole
    /// `2 * gbltarget` bound plus the one chain a put pushes before it
    /// trims is reserved at construction, so no put reallocates under the
    /// lock.
    chains: Vec<Chain>,
    /// Odd-sized blocks awaiting regrouping (always `< target` blocks
    /// between operations).
    bucket: Chain,
    /// Blocks sunk by a detected bucket-link corruption: they are
    /// unreachable through the clobbered word, so the pool drops them and
    /// records the loss here for the conservation check.
    sunk: usize,
}

impl Lists {
    /// Exact block count: every ready chain holds `target` blocks.
    fn blocks(&self, target: usize) -> usize {
        self.chains.len() * target + self.bucket.len()
    }

    /// Regroup: "the bucket list, which is used to group the blocks back
    /// into target-sized lists". Each regrouped chain walks `target`
    /// links.
    fn regroup(&mut self, target: usize) {
        while self.bucket.len() >= target {
            let grouped = self.bucket.split_first(target);
            self.chains.push(grouped);
        }
    }

    /// Trims the pool to at most `bound` blocks and regroups what is
    /// left, returning the spill. Whole ready chains go first, newest
    /// first, in O(1) each — an exact put over the bound spills the chain
    /// it just pushed without walking it. A remainder smaller than a
    /// chain comes from the bucket, and a ready chain is split only when
    /// that lands the pool exactly on the bound.
    fn trim(&mut self, target: usize, bound: usize) -> Option<Chain> {
        let mut excess = self.blocks(target).saturating_sub(bound);
        let spill = (excess > 0).then(|| {
            let mut spill = Chain::new_keyed(self.bucket.key());
            while excess >= target {
                let Some(mut chain) = self.chains.pop() else {
                    break;
                };
                spill.append(&mut chain);
                excess -= target;
            }
            let from_bucket = excess.min(self.bucket.len());
            if from_bucket > 0 {
                spill.append(&mut self.bucket.split_first(from_bucket));
                excess -= from_bucket;
            }
            if excess > 0 {
                // Only here when the bucket ran dry with less than a
                // chain to go, so a ready chain longer than `excess` exists.
                let mut chain = self.chains.pop().expect("block count covers the excess");
                spill.append(&mut chain.split_first(excess));
                self.bucket.append(&mut chain);
            }
            spill
        });
        self.regroup(target);
        spill
    }
}

/// The global free pool for one size class (one NUMA shard).
pub struct GlobalPool {
    lists: SpinLock<Lists>,
    target: usize,
    gbltarget: usize,
    faults: Faults,
    stats: GlobalStats,
}

impl GlobalPool {
    /// Creates an empty pool with the class's `target` and `gbltarget`,
    /// plain link encoding and no failpoints.
    pub fn new(target: usize, gbltarget: usize) -> Self {
        assert!(target >= 1, "target-sized chains must hold a block");
        GlobalPool {
            lists: SpinLock::new(Lists {
                chains: Vec::with_capacity(2 * gbltarget / target + 1),
                bucket: Chain::new(),
                sunk: 0,
            }),
            target,
            gbltarget,
            faults: Faults::none(),
            stats: GlobalStats::default(),
        }
    }

    /// Wires the pool to `faults`: [`GlobalPool::get_chain`] consults the
    /// `faults::GLOBAL_GET` site once per call.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Encodes the bucket's links under `key` (the arena's per-secret key
    /// under the hardened profile). Steal targets share the arena key, so
    /// a stolen chain decodes on the thief's node exactly as at home.
    pub(crate) fn with_key(self, key: LinkKey) -> Self {
        self.lists.lock().bucket = Chain::new_keyed(key);
        self
    }

    /// This pool's `target`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// This pool's `gbltarget`.
    pub fn gbltarget(&self) -> usize {
        self.gbltarget
    }

    /// Statistics for this pool.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Acquisitions of the pool lock that found it held (monotone; zero
    /// without contention). Published as the snapshot's `cas_retries`.
    pub(crate) fn lock_contended(&self) -> u64 {
        self.lists.stats().contended.get()
    }

    /// Fetches a chain for a per-CPU cache.
    ///
    /// A ready `target`-sized chain if there is one; otherwise the bucket
    /// list serves, so the caller receives `min(target, pool_total)`
    /// blocks — the most the paper's hysteresis guarantee ("the global
    /// layer will be accessed at most one time per target-number of
    /// accesses") can get. A chain shorter than `target` is handed back
    /// only when the whole pool holds fewer than `target` blocks, counted
    /// in `get_short`/`get_short_deficit`.
    ///
    /// Returns `None` when the pool is empty — the caller then asks the
    /// coalesce-to-page layer (the counted miss) — or when the
    /// `faults::GLOBAL_GET` failpoint fires.
    pub fn get_chain(&self) -> Option<Chain> {
        if self.faults.hit(faults::GLOBAL_GET) {
            return None;
        }
        let mut lists = self.lists.lock();
        let s = &self.stats;
        s.get.bump();
        if let Some(chain) = lists.chains.pop() {
            s.get_chain_hits.bump();
            return Some(chain);
        }
        s.get_slow.bump();
        if lists.bucket.is_empty() {
            s.get_miss.bump();
            return None;
        }
        let n = lists.bucket.len().min(self.target);
        match lists.bucket.try_split_first(n) {
            Ok(chain) => {
                if n < self.target {
                    s.get_short_deficit.add((self.target - n) as u64);
                    s.get_short.bump();
                }
                s.get_bucket_hits.bump();
                Some(chain)
            }
            Err(fault) => {
                // A clobbered bucket link: the walk stopped before
                // dereferencing it, the bucket sank its now-unreachable
                // blocks, and this get becomes a miss the page layer will
                // serve. The loss is recorded for the conservation check.
                lists.sunk += fault.lost;
                s.get_miss.bump();
                None
            }
        }
    }

    /// Work-stealing get against a *remote* node's shard: takes one ready
    /// `target`-sized chain and never touches the victim's bucket — a
    /// thief takes only what is cheap to take. A successful steal counts
    /// as a chain-hit get; the *thief's* arena attributes the refill to
    /// stealing in its per-node stats.
    pub fn steal_chain(&self) -> Option<Chain> {
        let mut lists = self.lists.lock();
        let chain = lists.chains.pop()?;
        self.stats.get.bump();
        self.stats.get_chain_hits.bump();
        Some(chain)
    }

    /// Accepts a chain from a per-CPU cache.
    ///
    /// An exact-`target` chain joins the ready chains in O(1). Any other
    /// chain — an odd-sized flush — goes to the bucket list, which
    /// regroups it into `target`-sized chains. Either way the pool is
    /// then trimmed to exactly the `2 * gbltarget` bound.
    ///
    /// Returns the excess to push down to the coalesce-to-page layer.
    pub fn put_chain(&self, mut chain: Chain) -> Option<Chain> {
        if chain.is_empty() {
            return None;
        }
        let bound = 2 * self.gbltarget;
        let mut lists = self.lists.lock();
        let s = &self.stats;
        s.put.bump();
        if chain.len() == self.target {
            lists.chains.push(chain);
            if lists.blocks(self.target) <= bound {
                return None;
            }
            s.put_slow.bump();
        } else {
            s.put_slow.bump();
            s.put_odd.bump();
            lists.bucket.append(&mut chain);
        }
        let spill = lists.trim(self.target, bound)?;
        s.put_miss.bump();
        s.spill_blocks.add(spill.len() as u64);
        Some(spill)
    }

    /// Trims the pool down to `bound` blocks on behalf of the pressure
    /// ladder, returning the spill for the caller to push to the
    /// coalesce-to-page layer. `None` when the pool is already within
    /// bounds. Counted in `pressure_spills`, not `put_miss`.
    pub fn spill_to(&self, bound: usize) -> Option<Chain> {
        let mut lists = self.lists.lock();
        let spill = lists.trim(self.target, bound)?;
        self.stats.pressure_spills.bump();
        self.stats.spill_blocks.add(spill.len() as u64);
        Some(spill)
    }

    /// Current block count (exact; takes the pool lock).
    pub fn len(&self) -> usize {
        self.lists.lock().blocks(self.target)
    }

    /// Returns whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks this pool sank on detected bucket-link corruption — still
    /// part of the arena's reservation, so the conservation check counts
    /// them alongside free and cached blocks.
    pub fn sunk(&self) -> usize {
        self.lists.lock().sunk
    }

    /// Drains every block (arena teardown and low-memory reclaim).
    pub fn drain_all(&self) -> Chain {
        let mut lists = self.lists.lock();
        let mut all = lists.bucket.take();
        while let Some(mut chain) = lists.chains.pop() {
            all.append(&mut chain);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::{AtomicUsize, Ordering};

    use kmem_smp::probe::{self, ProbeEvent};
    use kmem_smp::FailPolicy;

    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    struct Blocks {
        store: Vec<Box<[u8; 32]>>,
        next: usize,
    }

    impl Blocks {
        fn new(n: usize) -> Self {
            Blocks {
                store: (0..n).map(|_| Box::new([0u8; 32])).collect(),
                next: 0,
            }
        }

        fn chain(&mut self, n: usize) -> Chain {
            let mut c = Chain::new();
            for _ in 0..n {
                // SAFETY: fake blocks are owned and disjoint.
                unsafe { c.push(self.store[self.next].as_mut_ptr()) };
                self.next += 1;
            }
            c
        }
    }

    fn discard(c: Chain) -> usize {
        let mut c = c;
        let mut n = 0;
        while c.pop().is_some() {
            n += 1;
        }
        n
    }

    #[test]
    fn get_put_round_trip() {
        let mut blocks = Blocks::new(64);
        let pool = GlobalPool::new(3, 12);
        assert!(pool.get_chain().is_none());
        assert!(pool.put_chain(blocks.chain(3)).is_none());
        assert_eq!(pool.len(), 3);
        let got = pool.get_chain().unwrap();
        assert_eq!(got.len(), 3);
        assert!(pool.is_empty());
        discard(got);
    }

    #[test]
    fn single_block_targets_round_trip() {
        let mut blocks = Blocks::new(8);
        let pool = GlobalPool::new(1, 4);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(1)).is_none());
        }
        assert_eq!(pool.len(), 4);
        for _ in 0..4 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 1);
            discard(c);
        }
        assert!(pool.get_chain().is_none());
    }

    #[test]
    fn ready_chains_come_back_intact() {
        // A ready chain is stored whole: it walks head-to-tail with its
        // original blocks and a working tail.
        let mut blocks = Blocks::new(64);
        for target in [2usize, 3, 5, 8] {
            let pool = GlobalPool::new(target, 4 * target);
            let c = blocks.chain(target);
            let members: Vec<*mut u8> = c.iter().collect();
            pool.put_chain(c);
            pool.put_chain(blocks.chain(target));
            discard(pool.get_chain().unwrap()); // the second chain
            let mut got = pool.get_chain().unwrap();
            assert_eq!(got.iter().collect::<Vec<_>>(), members);
            let mut more = blocks.chain(1);
            got.append(&mut more);
            assert_eq!(got.len(), target + 1);
            discard(got);
        }
    }

    #[test]
    fn bucket_regroups_odd_chains() {
        let mut blocks = Blocks::new(64);
        let pool = GlobalPool::new(3, 12);
        // 2 + 2 blocks: one regrouped chain of 3 plus 1 in the bucket.
        assert!(pool.put_chain(blocks.chain(2)).is_none());
        assert!(pool.put_chain(blocks.chain(2)).is_none());
        assert_eq!(pool.len(), 4);
        let first = pool.get_chain().unwrap();
        assert_eq!(first.len(), 3);
        // The straggler comes out as a short chain rather than a miss.
        let second = pool.get_chain().unwrap();
        assert_eq!(second.len(), 1);
        assert!(pool.get_chain().is_none());
        discard(first);
        discard(second);
    }

    #[test]
    fn pool_spills_beyond_twice_gbltarget() {
        let mut blocks = Blocks::new(64);
        // target 3, gbltarget 6: capacity 12 blocks = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        assert_eq!(pool.len(), 12);
        let spill = pool.put_chain(blocks.chain(3)).unwrap();
        assert_eq!(spill.len(), 3);
        assert_eq!(pool.len(), 12);
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn spill_lands_exactly_on_the_bound() {
        let mut blocks = Blocks::new(64);
        // target 5, gbltarget 5: capacity 10.
        let pool = GlobalPool::new(5, 5);
        // 12 odd blocks: exactly the 2 excess blocks are shed and the
        // remaining 10 regroup into two chains of 5.
        let spill = pool.put_chain(blocks.chain(12)).unwrap();
        assert_eq!(spill.len(), 2);
        assert_eq!(pool.len(), 10);
        assert_eq!(pool.stats().spill_blocks.get(), 2);
        for _ in 0..2 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 5);
            discard(c);
        }
        discard(spill);
    }

    #[test]
    fn spill_of_one_excess_block_sheds_exactly_one() {
        // Regression edge case: total == 2 * gbltarget + 1 must spill
        // exactly 1 block, not a whole `target`-sized chain.
        let mut blocks = Blocks::new(32);
        // target 3, gbltarget 6: capacity 12 = 4 chains.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        let spill = pool.put_chain(blocks.chain(1)).unwrap();
        assert_eq!(spill.len(), 1);
        assert_eq!(pool.len(), 12);
        for _ in 0..4 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 3);
            discard(c);
        }
        assert!(pool.is_empty());
        discard(spill);
    }

    #[test]
    fn exact_put_a_few_blocks_over_the_bound_sheds_the_bucket() {
        // 2 bucket blocks + 3 ready chains = 11 of a 12-block bound; the
        // next exact put is 2 over, so the bucket goes and the pool lands
        // on the bound with its ready chains intact.
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 6);
        for _ in 0..3 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        assert!(pool.put_chain(blocks.chain(2)).is_none());
        let spill = pool.put_chain(blocks.chain(3)).unwrap();
        assert_eq!(spill.len(), 2);
        assert_eq!(pool.len(), 12);
        for _ in 0..4 {
            let c = pool.get_chain().unwrap();
            assert_eq!(c.len(), 3);
            discard(c);
        }
        discard(spill);
    }

    #[test]
    fn get_chain_tops_up_short_chains_from_the_bucket() {
        // A wrong-sized put routes through the bucket, which regroups
        // into exact `target`-sized chains whenever it holds enough.
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(4, 8);
        pool.put_chain(blocks.chain(2));
        pool.put_chain(blocks.chain(3));
        assert_eq!(pool.len(), 5);
        let first = pool.get_chain().unwrap();
        assert_eq!(first.len(), 4, "get must be topped up to target");
        assert_eq!(pool.stats().get_short.get(), 0);
        // Only 1 block left: the short get is now inevitable and counted.
        let second = pool.get_chain().unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(pool.stats().get_short.get(), 1);
        assert_eq!(pool.stats().get_short_deficit.get(), 3);
        assert!(pool.get_chain().is_none());
        discard(first);
        discard(second);
    }

    #[test]
    fn get_sources_are_counted() {
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 8);
        pool.put_chain(blocks.chain(3));
        pool.put_chain(blocks.chain(2));
        discard(pool.get_chain().unwrap()); // ready chain first
        discard(pool.get_chain().unwrap()); // then the bucket
        assert!(pool.get_chain().is_none());
        let s = pool.stats();
        assert_eq!(s.get.get(), 3);
        assert_eq!(s.get_chain_hits.get(), 1);
        assert_eq!(s.get_bucket_hits.get(), 1);
        assert_eq!(s.get_miss.get(), 1);
        assert_eq!(s.get_slow.get(), 2, "bucket hit and miss");
        assert_eq!(s.put.get(), 2);
        assert_eq!(s.put_odd.get(), 1);
        assert_eq!(s.put_slow.get(), 1);
        assert_eq!(pool.lock_contended(), 0, "single thread never contends");
    }

    #[test]
    fn spill_to_trims_without_touching_put_counters() {
        let mut blocks = Blocks::new(32);
        // target 3, gbltarget 6: bound 12.
        let pool = GlobalPool::new(3, 6);
        for _ in 0..4 {
            assert!(pool.put_chain(blocks.chain(3)).is_none());
        }
        // Already within `2 * gbltarget`: nothing to shed at that bound.
        assert!(pool.spill_to(12).is_none());
        // A pressure spill down to `gbltarget` sheds exactly 6 blocks and
        // is attributed to `pressure_spills`, leaving `put_miss` alone.
        let spill = pool.spill_to(6).unwrap();
        assert_eq!(spill.len(), 6);
        assert_eq!(pool.len(), 6);
        let s = pool.stats();
        assert_eq!(s.put_miss.get(), 0);
        assert_eq!(s.pressure_spills.get(), 1);
        assert_eq!(s.spill_blocks.get(), 6);
        // An odd bound splits a ready chain; the remainder stays put.
        let spill2 = pool.spill_to(4).unwrap();
        assert_eq!(spill2.len(), 2);
        assert_eq!(pool.len(), 4);
        discard(spill);
        discard(spill2);
        discard(pool.drain_all());
    }

    #[test]
    fn spill_trims_bucket_when_no_chains_remain() {
        let mut blocks = Blocks::new(64);
        // target 10, gbltarget 3: capacity 6, and 8 odd blocks are too few
        // to regroup into a chain — the bucket itself must be trimmed.
        let pool = GlobalPool::new(10, 3);
        let spill = pool.put_chain(blocks.chain(8)).unwrap();
        assert_eq!(spill.len(), 2);
        assert_eq!(pool.len(), 6);
        discard(spill);
        discard(pool.drain_all());
    }

    #[test]
    fn drain_all_empties_everything() {
        let mut blocks = Blocks::new(32);
        let pool = GlobalPool::new(3, 10);
        pool.put_chain(blocks.chain(3));
        pool.put_chain(blocks.chain(2));
        assert_eq!(discard(pool.drain_all()), 5);
        assert!(pool.is_empty());
    }

    /// The pool's cost, pinned by probes: an exact-`target` get and an
    /// in-bound put each take the pool lock once and make no shared-line
    /// RMW outside it (the counters are single-writer stores).
    #[test]
    fn exact_chain_get_and_put_take_one_lock_and_no_rmw() {
        let mut blocks = Blocks::new(16);
        let pool = GlobalPool::new(4, 16);
        pool.put_chain(blocks.chain(4));
        let is_lock_pair = |ev: &[ProbeEvent]| {
            ev.len() == 2
                && matches!(ev[0], ProbeEvent::LockAcquire { .. })
                && matches!(ev[1], ProbeEvent::LockRelease { .. })
        };
        let (c, ev) = probe::record(|| pool.get_chain().unwrap());
        assert_eq!(c.len(), 4);
        assert!(is_lock_pair(&ev), "get_chain probes: {ev:?}");
        let (spill, ev) = probe::record(|| pool.put_chain(c));
        assert!(spill.is_none());
        assert!(is_lock_pair(&ev), "put_chain probes: {ev:?}");
        let s = pool.stats();
        assert_eq!(s.get_chain_hits.get(), 1);
        assert_eq!(s.get_slow.get(), 0);
        assert_eq!(s.put_slow.get(), 0);
        discard(pool.drain_all());
    }

    /// An armed `global.get` failpoint preempts a get whether a ready
    /// chain or only the bucket could have served it.
    #[test]
    fn global_get_fault_preempts_every_get() {
        let mut blocks = Blocks::new(32);
        let faults = Faults::with_plan();
        let pool = GlobalPool::new(3, 8).with_faults(faults.clone());
        pool.put_chain(blocks.chain(3));
        pool.put_chain(blocks.chain(2));

        let plan = faults.plan().unwrap();
        plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(1));
        assert!(pool.get_chain().is_none(), "ready chain bypassed the site");
        plan.set(faults::GLOBAL_GET, FailPolicy::Off);
        discard(pool.get_chain().unwrap());
        plan.set(faults::GLOBAL_GET, FailPolicy::EveryNth(1));
        assert!(pool.get_chain().is_none(), "bucket bypassed the site");
        assert_eq!(pool.len(), 2, "faulted gets must not lose blocks");
        let fired = plan
            .site_stats()
            .iter()
            .find(|s| s.site == faults::GLOBAL_GET)
            .unwrap()
            .fired;
        assert_eq!(fired, 2);
        plan.set(faults::GLOBAL_GET, FailPolicy::Off);
        discard(pool.drain_all());
    }

    /// 16-aligned backing store for hardened-key tests (plausibility
    /// checks reject unaligned link targets) and for word-sized scribbles.
    #[repr(align(16))]
    struct Aligned([u8; 32]);

    // Boxed so each block keeps a stable address while the Vec grows.
    #[expect(clippy::vec_box)]
    fn aligned_store(n: usize) -> (Vec<Box<Aligned>>, LinkKey) {
        let store: Vec<Box<Aligned>> = (0..n).map(|_| Box::new(Aligned([0u8; 32]))).collect();
        let lo = store.iter().map(|b| b.0.as_ptr() as usize).min().unwrap();
        let hi = store.iter().map(|b| b.0.as_ptr() as usize).max().unwrap();
        let key = LinkKey::hardened(0xfeed_5eed, lo, hi + 32);
        (store, key)
    }

    fn keyed_chain(
        store: &mut [Box<Aligned>],
        key: LinkKey,
        range: core::ops::Range<usize>,
    ) -> Chain {
        let mut c = Chain::new_keyed(key);
        for b in &mut store[range] {
            // SAFETY: fake blocks are owned and disjoint.
            unsafe { c.push(b.0.as_mut_ptr()) };
        }
        c
    }

    #[test]
    fn hardened_pool_round_trips_encoded_chains() {
        // Ready chains, steals and bucket regroups all keep the keyed
        // link encoding intact.
        let (mut store, key) = aligned_store(16);
        let pool = GlobalPool::new(3, 12).with_key(key);
        let c = keyed_chain(&mut store, key, 0..3);
        let members: Vec<*mut u8> = c.iter().collect();
        assert!(pool.put_chain(c).is_none());
        assert!(pool.put_chain(keyed_chain(&mut store, key, 3..6)).is_none());
        assert!(pool.put_chain(keyed_chain(&mut store, key, 6..8)).is_none());
        assert!(pool.put_chain(keyed_chain(&mut store, key, 8..9)).is_none());
        let regrouped = pool.steal_chain().unwrap();
        assert_eq!(regrouped.len(), 3);
        let stolen = pool.steal_chain().unwrap();
        assert_eq!(stolen.len(), 3);
        let mut got = pool.get_chain().unwrap();
        assert_eq!(got.iter().collect::<Vec<_>>(), members);
        let mut more = keyed_chain(&mut store, key, 9..10);
        got.append(&mut more);
        assert_eq!(got.len(), 4);
        assert!(pool.steal_chain().is_none(), "steals never take the bucket");
        discard(regrouped);
        discard(stolen);
        discard(got);
    }

    #[test]
    fn hardened_bucket_corruption_is_sunk_not_dereferenced() {
        let (mut store, key) = aligned_store(8);
        let pool = GlobalPool::new(4, 8).with_key(key);
        let chain = keyed_chain(&mut store, key, 0..3);
        let head = chain.peek().unwrap();
        assert!(pool.put_chain(chain).is_none());
        // Scribble the bucket head's encoded link (a use-after-free).
        // SAFETY: the fake block is owned by the test.
        unsafe { (head as *mut usize).write(0x4141_4141_4141_4141_u64 as usize) };
        assert!(
            pool.get_chain().is_none(),
            "a clobbered bucket must miss, not hand out garbage"
        );
        assert_eq!(pool.sunk(), 3, "the unreachable blocks are accounted");
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.stats().get_miss.get(), 1);
    }

    #[test]
    fn concurrent_get_put_preserves_blocks() {
        let pool = GlobalPool::new(4, 40);
        let mut blocks = Blocks::new(80);
        for _ in 0..20 {
            pool.put_chain(blocks.chain(4));
        }
        let spilled = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(mut c) = pool.get_chain() {
                            // Odd scraps through the bucket, exact chains
                            // straight back.
                            let cut = c.split_first(1);
                            for part in [cut, c] {
                                if let Some(sp) = pool.put_chain(part) {
                                    spilled.fetch_add(discard(sp), Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(pool.len() + spilled.load(Ordering::Relaxed), 80);
        discard(pool.drain_all());
    }

    /// The pool must never read a block it does not hold. Users scribble
    /// `u64::MAX` over word 0 of every block they hold and keep it a
    /// while before rebuilding the chain; a pool that loads the link word
    /// of a chain head another CPU already took (a speculative lock-free
    /// pop does) reads the scribble and trips the tagged-pointer
    /// assertion in debug builds.
    #[test]
    fn scribbled_blocks_in_user_hands_never_reach_the_pool() {
        const TARGET: usize = 4;
        const ROUNDS: usize = 200_000;
        let (mut store, _) = aligned_store(2 * TARGET);
        let pool = GlobalPool::new(TARGET, 2 * TARGET);
        for i in 0..2 {
            let c = keyed_chain(&mut store, LinkKey::PLAIN, i * TARGET..(i + 1) * TARGET);
            assert!(pool.put_chain(c).is_none());
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut held = Vec::with_capacity(TARGET);
                    for _ in 0..ROUNDS {
                        let Some(mut c) = pool.get_chain() else {
                            continue;
                        };
                        assert_eq!(c.len(), TARGET);
                        while let Some(b) = c.pop() {
                            // SAFETY: the popped block is ours, 16-aligned
                            // and 32 bytes long.
                            unsafe { (b as *mut u64).write_volatile(u64::MAX) };
                            for _ in 0..50 {
                                core::hint::spin_loop();
                            }
                            held.push(b);
                        }
                        for b in held.drain(..) {
                            // SAFETY: every held block is ours again.
                            unsafe { c.push(b) };
                        }
                        assert!(pool.put_chain(c).is_none());
                    }
                });
            }
        });
        assert_eq!(pool.len(), 2 * TARGET);
        assert_eq!(discard(pool.drain_all()), 2 * TARGET);
    }
}
