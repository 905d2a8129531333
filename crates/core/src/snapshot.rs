//! Per-CPU observability: snapshots and deltas of every allocator counter.
//!
//! The paper's whole evaluation is expressed in per-layer miss rates, and a
//! production operator wants the same numbers *per CPU*, live, without
//! perturbing the hot path. This module is the read side of that bargain:
//! every counter in the allocator is a single-writer relaxed/release store
//! on a cache line its CPU owns ([`kmem_smp::LocalCounter`]), and a
//! [`KmemSnapshot`] is nothing but an unsynchronized sweep of those
//! counters — no locks are taken, no CPU is interrupted, and the cost to
//! the writers is zero.
//!
//! # Consistency model
//!
//! A snapshot taken while CPUs are running is a *live sample*: it is not a
//! single instant in time. Two properties still hold and are checkable:
//!
//! * **Monotonicity** — every counter only grows, so for two snapshots
//!   `a` then `b`, `b.delta(&a)` is exact event-for-event between the two
//!   sweeps (verified against torture-driver ground truth in the testkit).
//! * **Cross-counter bounds** — each CPU bumps an access counter *before*
//!   the corresponding miss/detail counter (with release stores), and the
//!   snapshot reads them in the *reverse* order (with acquire loads), so
//!   even a live sample satisfies `miss <= access`, `refill <= miss`, and
//!   friends. [`KmemSnapshot::check_live`] asserts exactly the set that is
//!   safe on live samples; [`KmemSnapshot::check_quiescent`] adds the
//!   equalities that only hold when no CPU is mid-operation.

use crate::percpu::{CacheStats, OCC_BUCKETS};
use crate::stats::{ClassStats, KmemStats, LayerCounts};
use crate::{global::GlobalPool, pagelayer::PageLayerStats};

/// Counters of one (CPU, size-class) cache, as captured by a snapshot.
///
/// All fields are cumulative event counts since arena creation; subtract
/// two captures (via [`CacheCounts::delta`]) for a per-interval view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Allocations presented to this cache.
    pub alloc: u64,
    /// Allocations that missed (needed the global layer).
    pub alloc_miss: u64,
    /// Allocation misses that returned `OutOfMemory`.
    pub alloc_fail: u64,
    /// Failed attempts inside `alloc_sleep` retry loops (each also counted
    /// in `alloc_fail`).
    pub sleep_retries: u64,
    /// Frees presented to this cache.
    pub free: u64,
    /// Frees that overflowed a chain to the global layer.
    pub free_miss: u64,
    /// Replenishment chains installed.
    pub refill: u64,
    /// Refill chains shorter than `target`.
    pub refill_short: u64,
    /// Blocks received across all refills.
    pub refill_blocks: u64,
    /// Flushes via the public API / CPU teardown (only counted when they
    /// evicted at least one block).
    pub flush_explicit: u64,
    /// Flushes honouring another CPU's drain request.
    pub flush_drain: u64,
    /// Flushes on this CPU's own low-memory retry path.
    pub flush_lowmem: u64,
    /// Blocks evicted by flushes.
    pub flush_blocks: u64,
    /// Cache-occupancy histogram: bucket `i` counts samples at occupancy
    /// `[i/8, (i+1)/8)` of the `2 * target` capacity.
    pub occupancy: [u64; OCC_BUCKETS],
}

impl CacheCounts {
    /// Sweeps one cache's counters.
    ///
    /// Detail counters are read *before* the totals that bound them
    /// (reverse of the owner's write order) so the live-sample invariants
    /// of [`KmemSnapshot::check_live`] hold by construction.
    pub(crate) fn read(s: &CacheStats) -> CacheCounts {
        let occupancy = core::array::from_fn(|i| s.occupancy[i].get());
        let flush_blocks = s.flush_blocks.get();
        let flush_lowmem = s.flush_lowmem.get();
        let flush_drain = s.flush_drain.get();
        let flush_explicit = s.flush_explicit.get();
        let refill_blocks = s.refill_blocks.get();
        let refill_short = s.refill_short.get();
        let refill = s.refill.get();
        let sleep_retries = s.sleep_retries.get();
        let alloc_fail = s.alloc_fail.get();
        let free_miss = s.free_miss.get();
        let free = s.free.get();
        let alloc_miss = s.alloc_miss.get();
        let alloc = s.alloc.get();
        CacheCounts {
            alloc,
            alloc_miss,
            alloc_fail,
            sleep_retries,
            free,
            free_miss,
            refill,
            refill_short,
            refill_blocks,
            flush_explicit,
            flush_drain,
            flush_lowmem,
            flush_blocks,
            occupancy,
        }
    }

    /// Events between `earlier` and `self` (field-wise difference).
    ///
    /// Counters are monotone, so the difference is exact; `saturating_sub`
    /// only guards against snapshots passed in the wrong order.
    pub fn delta(&self, earlier: &CacheCounts) -> CacheCounts {
        CacheCounts {
            alloc: self.alloc.saturating_sub(earlier.alloc),
            alloc_miss: self.alloc_miss.saturating_sub(earlier.alloc_miss),
            alloc_fail: self.alloc_fail.saturating_sub(earlier.alloc_fail),
            sleep_retries: self.sleep_retries.saturating_sub(earlier.sleep_retries),
            free: self.free.saturating_sub(earlier.free),
            free_miss: self.free_miss.saturating_sub(earlier.free_miss),
            refill: self.refill.saturating_sub(earlier.refill),
            refill_short: self.refill_short.saturating_sub(earlier.refill_short),
            refill_blocks: self.refill_blocks.saturating_sub(earlier.refill_blocks),
            flush_explicit: self.flush_explicit.saturating_sub(earlier.flush_explicit),
            flush_drain: self.flush_drain.saturating_sub(earlier.flush_drain),
            flush_lowmem: self.flush_lowmem.saturating_sub(earlier.flush_lowmem),
            flush_blocks: self.flush_blocks.saturating_sub(earlier.flush_blocks),
            occupancy: core::array::from_fn(|i| {
                self.occupancy[i].saturating_sub(earlier.occupancy[i])
            }),
        }
    }

    /// Field-wise accumulation (summing CPUs or classes).
    pub fn merge(&mut self, other: &CacheCounts) {
        self.alloc += other.alloc;
        self.alloc_miss += other.alloc_miss;
        self.alloc_fail += other.alloc_fail;
        self.sleep_retries += other.sleep_retries;
        self.free += other.free;
        self.free_miss += other.free_miss;
        self.refill += other.refill;
        self.refill_short += other.refill_short;
        self.refill_blocks += other.refill_blocks;
        self.flush_explicit += other.flush_explicit;
        self.flush_drain += other.flush_drain;
        self.flush_lowmem += other.flush_lowmem;
        self.flush_blocks += other.flush_blocks;
        for (acc, v) in self.occupancy.iter_mut().zip(other.occupancy) {
            *acc += v;
        }
    }

    /// Allocations that actually handed out a block.
    pub fn allocs_served(&self) -> u64 {
        self.alloc - self.alloc_fail
    }

    /// Per-CPU layer, allocation direction, as the paper's `LayerCounts`.
    pub fn alloc_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.alloc,
            misses: self.alloc_miss,
        }
    }

    /// Per-CPU layer, free direction.
    pub fn free_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.free,
            misses: self.free_miss,
        }
    }

    /// Total flushes that evicted blocks, over all causes.
    pub fn flushes(&self) -> u64 {
        self.flush_explicit + self.flush_drain + self.flush_lowmem
    }

    /// Total occupancy samples recorded.
    pub fn occupancy_samples(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Mean sampled occupancy as a fraction of capacity (bucket
    /// midpoints), or `None` with no samples.
    pub fn mean_occupancy(&self) -> Option<f64> {
        let samples = self.occupancy_samples();
        if samples == 0 {
            return None;
        }
        let weighted: f64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as f64 + 0.5) / OCC_BUCKETS as f64 * n as f64)
            .sum();
        Some(weighted / samples as f64)
    }

    fn check_live(&self, what: &str) -> Result<(), String> {
        let c = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what}: {msg} ({self:?})"))
            }
        };
        c(self.alloc_miss <= self.alloc, "alloc_miss > alloc")?;
        c(self.free_miss <= self.free, "free_miss > free")?;
        c(
            self.refill + self.alloc_fail <= self.alloc_miss,
            "refill + alloc_fail > alloc_miss",
        )?;
        c(self.refill_short <= self.refill, "refill_short > refill")?;
        c(
            self.sleep_retries <= self.alloc_fail,
            "sleep_retries > alloc_fail",
        )?;
        Ok(())
    }

    fn check_quiescent(&self, what: &str) -> Result<(), String> {
        self.check_live(what)?;
        let c = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what}: {msg} ({self:?})"))
            }
        };
        c(
            self.refill + self.alloc_fail == self.alloc_miss,
            "every quiescent miss must end in a refill or a failure",
        )?;
        c(
            self.refill <= self.refill_blocks,
            "refill chains of 0 blocks",
        )?;
        c(
            self.flushes() <= self.flush_blocks,
            "counted flushes that evicted nothing",
        )?;
        Ok(())
    }
}

/// Global-pool per-event detail for one class.
///
/// Every get and put takes the pool lock exactly once; the fields below
/// say what happened under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalCounts {
    /// Chain requests (hits and misses).
    pub get: u64,
    /// Gets *not* served by a ready `target`-sized chain: bucket serves
    /// plus misses. At quiescence `get_slow == get - get_chain_hits`.
    pub get_slow: u64,
    /// Gets served by a ready `target`-sized chain (steals included).
    pub get_chain_hits: u64,
    /// Gets served from the bucket list.
    pub get_bucket_hits: u64,
    /// Gets that returned fewer than `target` blocks.
    pub get_short: u64,
    /// Blocks missing from short gets, summed.
    pub get_short_deficit: u64,
    /// Gets that fell through to the coalesce-to-page layer.
    pub get_miss: u64,
    /// Chains returned by per-CPU caches.
    pub put: u64,
    /// Puts that went through the bucket list (odd-sized chains) or
    /// spilled past the `2 * gbltarget` bound; the rest joined the ready
    /// chains in O(1).
    pub put_slow: u64,
    /// Puts through the odd-sized bucket path.
    pub put_odd: u64,
    /// Puts that spilled to the coalesce-to-page layer.
    pub put_miss: u64,
    /// Spills forced by the pressure ladder (`spill_to`), counted apart
    /// from `put_miss` so the latter stays bounded by `put`.
    pub pressure_spills: u64,
    /// Blocks spilled to the coalesce-to-page layer (all causes).
    pub spill_blocks: u64,
    /// Pool-lock acquisitions that found the lock held
    /// (`SpinStats::contended`; monotone, zero without contention). The
    /// name predates the spinlocked pool and is kept for the snapshot's
    /// readers.
    pub cas_retries: u64,
}

impl GlobalCounts {
    /// Sweeps one class's shards (one per node) into a single merged view,
    /// so per-class global counters keep their pre-NUMA meaning. Each
    /// shard is swept with the order guarantees of [`GlobalCounts::read`],
    /// and every partition is a sum of per-shard equalities, so it
    /// survives the merge.
    pub(crate) fn read_merged<'a>(shards: impl Iterator<Item = &'a GlobalPool>) -> GlobalCounts {
        let mut total = GlobalCounts::default();
        for s in shards {
            total.merge(&GlobalCounts::read(s));
        }
        total
    }

    /// Field-wise accumulation (summing shards or classes).
    pub fn merge(&mut self, other: &GlobalCounts) {
        self.get += other.get;
        self.get_slow += other.get_slow;
        self.get_chain_hits += other.get_chain_hits;
        self.get_bucket_hits += other.get_bucket_hits;
        self.get_short += other.get_short;
        self.get_short_deficit += other.get_short_deficit;
        self.get_miss += other.get_miss;
        self.put += other.put;
        self.put_slow += other.put_slow;
        self.put_odd += other.put_odd;
        self.put_miss += other.put_miss;
        self.pressure_spills += other.pressure_spills;
        self.spill_blocks += other.spill_blocks;
        self.cas_retries += other.cas_retries;
    }

    pub(crate) fn read(pool: &GlobalPool) -> GlobalCounts {
        // Outcome details before the totals that bound them (reverse of
        // the lock holders' write order), as for `CacheCounts::read`.
        let s = pool.stats();
        let cas_retries = pool.lock_contended();
        let spill_blocks = s.spill_blocks.get();
        let pressure_spills = s.pressure_spills.get();
        let put_miss = s.put_miss.get();
        let put_odd = s.put_odd.get();
        let put_slow = s.put_slow.get();
        let put = s.put.get();
        let get_miss = s.get_miss.get();
        let get_short = s.get_short.get();
        let get_short_deficit = s.get_short_deficit.get();
        let get_bucket_hits = s.get_bucket_hits.get();
        let get_slow = s.get_slow.get();
        let get_chain_hits = s.get_chain_hits.get();
        let get = s.get.get();
        GlobalCounts {
            get,
            get_slow,
            get_chain_hits,
            get_bucket_hits,
            get_short,
            get_short_deficit,
            get_miss,
            put,
            put_slow,
            put_odd,
            put_miss,
            pressure_spills,
            spill_blocks,
            cas_retries,
        }
    }

    /// Events between `earlier` and `self`.
    pub fn delta(&self, earlier: &GlobalCounts) -> GlobalCounts {
        GlobalCounts {
            get: self.get.saturating_sub(earlier.get),
            get_slow: self.get_slow.saturating_sub(earlier.get_slow),
            get_chain_hits: self.get_chain_hits.saturating_sub(earlier.get_chain_hits),
            get_bucket_hits: self.get_bucket_hits.saturating_sub(earlier.get_bucket_hits),
            get_short: self.get_short.saturating_sub(earlier.get_short),
            get_short_deficit: self
                .get_short_deficit
                .saturating_sub(earlier.get_short_deficit),
            get_miss: self.get_miss.saturating_sub(earlier.get_miss),
            put: self.put.saturating_sub(earlier.put),
            put_slow: self.put_slow.saturating_sub(earlier.put_slow),
            put_odd: self.put_odd.saturating_sub(earlier.put_odd),
            put_miss: self.put_miss.saturating_sub(earlier.put_miss),
            pressure_spills: self.pressure_spills.saturating_sub(earlier.pressure_spills),
            spill_blocks: self.spill_blocks.saturating_sub(earlier.spill_blocks),
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
        }
    }

    /// Global layer, allocation direction.
    pub fn alloc_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.get,
            misses: self.get_miss,
        }
    }

    /// Global layer, free direction.
    pub fn free_layer(&self) -> LayerCounts {
        LayerCounts {
            accesses: self.put,
            misses: self.put_miss,
        }
    }

    fn check_live(&self, what: &str) -> Result<(), String> {
        let c = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what}: {msg} ({self:?})"))
            }
        };
        c(
            self.get_chain_hits + self.get_bucket_hits + self.get_miss <= self.get,
            "get outcomes exceed gets",
        )?;
        c(
            self.get_chain_hits + self.get_slow <= self.get,
            "chain hits + slow gets exceed gets",
        )?;
        c(
            self.get_bucket_hits + self.get_miss <= self.get_slow,
            "bucket hits + misses exceed slow gets",
        )?;
        c(
            self.get_short <= self.get_short_deficit,
            "short gets with no deficit",
        )?;
        c(self.put_slow <= self.put, "put_slow > put")?;
        c(self.put_odd <= self.put_slow, "put_odd > put_slow")?;
        c(self.put_miss <= self.put_slow, "put_miss > put_slow")?;
        Ok(())
    }

    fn check_quiescent(&self, what: &str) -> Result<(), String> {
        self.check_live(what)?;
        if self.get_chain_hits + self.get_bucket_hits + self.get_miss != self.get {
            return Err(format!(
                "{what}: quiescent get outcomes must partition gets ({self:?})"
            ));
        }
        if self.get_chain_hits + self.get_slow != self.get {
            return Err(format!(
                "{what}: quiescent chain hits and slow gets must partition gets ({self:?})"
            ));
        }
        Ok(())
    }
}

/// Per-node rollup: how one NUMA node's CPUs interacted with the sharded
/// global layer, plus the node's current shard occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Blocks currently held by this node's shards, summed over classes
    /// (gauge; `delta` keeps the later value).
    pub shard_blocks: usize,
    /// Refill chains this node's CPUs took from their own shard.
    pub local_refills: u64,
    /// Refill chains this node's CPUs stole from a remote shard.
    pub stolen_refills: u64,
    /// Blocks this node's CPUs spilled past the global layer to the
    /// (shared) coalesce-to-page layer — frames that may come back remote.
    pub remote_spills: u64,
}

impl NodeCounts {
    /// Events between `earlier` and `self`; the gauge keeps `self`.
    pub fn delta(&self, earlier: &NodeCounts) -> NodeCounts {
        NodeCounts {
            shard_blocks: self.shard_blocks,
            local_refills: self.local_refills.saturating_sub(earlier.local_refills),
            stolen_refills: self.stolen_refills.saturating_sub(earlier.stolen_refills),
            remote_spills: self.remote_spills.saturating_sub(earlier.remote_spills),
        }
    }
}

/// Coalesce-to-page counters for one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounts {
    /// Chain requests from the global layer.
    pub refills: u64,
    /// Refills that took a fresh page from the vmblk layer.
    pub page_acquires: u64,
    /// Pages fully drained and returned to the vmblk layer.
    pub page_releases: u64,
    /// Individual blocks pushed down from the global layer.
    pub block_frees: u64,
    /// Failed CAS attempts on the lock-free radix lists and per-page
    /// freelists (contention indicator; zero when single-threaded).
    pub cas_retries: u64,
}

impl PageCounts {
    pub(crate) fn read(s: &PageLayerStats) -> PageCounts {
        PageCounts {
            // Read the retry counter first: retries precede the operation
            // counters they belong to, so a live sample never shows an
            // operation whose retries are still missing.
            cas_retries: s.cas_retries.get(),
            page_acquires: s.page_acquires.get(),
            page_releases: s.page_releases.get(),
            block_frees: s.block_frees.get(),
            refills: s.refills.get(),
        }
    }

    /// Events between `earlier` and `self`.
    pub fn delta(&self, earlier: &PageCounts) -> PageCounts {
        PageCounts {
            refills: self.refills.saturating_sub(earlier.refills),
            page_acquires: self.page_acquires.saturating_sub(earlier.page_acquires),
            page_releases: self.page_releases.saturating_sub(earlier.page_releases),
            block_frees: self.block_frees.saturating_sub(earlier.block_frees),
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
        }
    }
}

/// Snapshot of one size class: per-CPU cache counters plus the shared
/// global-pool and page-layer counters.
#[derive(Debug, Clone)]
pub struct ClassSnapshot {
    /// Block size of the class.
    pub size: usize,
    /// The class's per-CPU `target` parameter.
    pub target: usize,
    /// The class's global-layer `gbltarget` parameter.
    pub gbltarget: usize,
    /// One entry per CPU, indexed by CPU number.
    pub per_cpu: Vec<CacheCounts>,
    /// Global pool detail.
    pub global: GlobalCounts,
    /// Coalesce-to-page detail.
    pub page: PageCounts,
}

impl ClassSnapshot {
    /// Cache counters summed over all CPUs.
    pub fn cache_total(&self) -> CacheCounts {
        let mut total = CacheCounts::default();
        for c in &self.per_cpu {
            total.merge(c);
        }
        total
    }

    fn delta(&self, earlier: &ClassSnapshot) -> ClassSnapshot {
        assert_eq!(
            self.per_cpu.len(),
            earlier.per_cpu.len(),
            "snapshots of different arenas"
        );
        ClassSnapshot {
            size: self.size,
            target: self.target,
            gbltarget: self.gbltarget,
            per_cpu: self
                .per_cpu
                .iter()
                .zip(&earlier.per_cpu)
                .map(|(now, then)| now.delta(then))
                .collect(),
            global: self.global.delta(&earlier.global),
            page: self.page.delta(&earlier.page),
        }
    }
}

/// A full counter sweep of a [`crate::KmemArena`]: every (CPU, class)
/// cache, every global pool, every page layer, plus arena-wide gauges.
///
/// Obtain one with [`crate::KmemArena::snapshot`]; see the module docs for
/// the consistency model.
#[derive(Debug, Clone)]
pub struct KmemSnapshot {
    /// One entry per size class, ascending by block size.
    pub classes: Vec<ClassSnapshot>,
    /// One entry per NUMA node, indexed by node number (a single entry on
    /// the default flat topology).
    pub nodes: Vec<NodeCounts>,
    /// Large (multi-page) allocations served by the vmblk layer.
    pub large_allocs: u64,
    /// Large frees.
    pub large_frees: u64,
    /// Single-page allocations served from the vmblk layer's lock-free
    /// page cache (no boundary-tag lock taken).
    pub vmblk_cache_hits: u64,
    /// Whole pages parked on the vmblk page cache by `free_span`.
    pub vmblk_cache_puts: u64,
    /// vmblks currently live (gauge; `delta` keeps the later value).
    pub vmblks_live: usize,
    /// Physical frames currently claimed (gauge).
    pub phys_in_use: usize,
    /// Physical frame capacity (gauge).
    pub phys_capacity: usize,
    /// Current pressure-ladder level, 0–3 (gauge).
    pub pressure_level: u8,
    /// `pressure_escalations[i]` counts entries into ladder rung `i + 1`.
    pub pressure_escalations: [u64; 3],
    /// De-escalation steps taken by the ladder (hysteresis-gated).
    pub pressure_deescalations: u64,
    /// Failed allocations that re-applied the ladder's deepest rung rather
    /// than entering a new one.
    pub pressure_reapplied: u64,
    /// Failpoint consultations while a fault plan was armed.
    pub fault_hits: u64,
    /// Failpoint firings (injected failures).
    pub fault_fired: u64,
    /// Hardened-profile corruption detections reported, all sites
    /// (always zero in the default profile).
    pub corruption_reports: u64,
    /// Poison-based detections: double free by intact poison, or a
    /// use-after-free write caught by verify-on-alloc.
    pub poison_hits: u64,
    /// Encoded-link detections: an implausible decode sank a chain.
    pub encode_faults: u64,
    /// Blocks currently parked in double-free quarantine rings (gauge;
    /// `delta` keeps the later value).
    pub quarantine_len: usize,
}

impl KmemSnapshot {
    /// Number of CPUs covered by the snapshot.
    pub fn ncpus(&self) -> usize {
        self.classes.first().map_or(0, |c| c.per_cpu.len())
    }

    /// Number of size classes.
    pub fn nclasses(&self) -> usize {
        self.classes.len()
    }

    /// Counters of one (CPU, class) cache.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cpu_class(&self, cpu: usize, class: usize) -> &CacheCounts {
        &self.classes[class].per_cpu[cpu]
    }

    /// Iterates `(cpu, class, &counts)` over every per-CPU cache.
    pub fn iter_cpu_class(&self) -> impl Iterator<Item = (usize, usize, &CacheCounts)> {
        self.classes.iter().enumerate().flat_map(|(class, cs)| {
            cs.per_cpu
                .iter()
                .enumerate()
                .map(move |(cpu, counts)| (cpu, class, counts))
        })
    }

    /// Per-CPU totals summed over classes, indexed by CPU.
    pub fn per_cpu_totals(&self) -> Vec<CacheCounts> {
        let mut totals = vec![CacheCounts::default(); self.ncpus()];
        for (cpu, _, counts) in self.iter_cpu_class() {
            totals[cpu].merge(counts);
        }
        totals
    }

    /// Events between `earlier` and `self`, per (CPU, class); gauges keep
    /// the later (`self`) values. The difference is exact: every event
    /// counted after the `earlier` sweep and before this one appears in
    /// the delta exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots come from arenas of different shape.
    pub fn delta(&self, earlier: &KmemSnapshot) -> KmemSnapshot {
        assert_eq!(
            self.classes.len(),
            earlier.classes.len(),
            "snapshots of different arenas"
        );
        KmemSnapshot {
            classes: self
                .classes
                .iter()
                .zip(&earlier.classes)
                .map(|(now, then)| now.delta(then))
                .collect(),
            nodes: self
                .nodes
                .iter()
                .zip(&earlier.nodes)
                .map(|(now, then)| now.delta(then))
                .collect(),
            large_allocs: self.large_allocs.saturating_sub(earlier.large_allocs),
            large_frees: self.large_frees.saturating_sub(earlier.large_frees),
            vmblk_cache_hits: self
                .vmblk_cache_hits
                .saturating_sub(earlier.vmblk_cache_hits),
            vmblk_cache_puts: self
                .vmblk_cache_puts
                .saturating_sub(earlier.vmblk_cache_puts),
            vmblks_live: self.vmblks_live,
            phys_in_use: self.phys_in_use,
            phys_capacity: self.phys_capacity,
            pressure_level: self.pressure_level,
            pressure_escalations: core::array::from_fn(|i| {
                self.pressure_escalations[i].saturating_sub(earlier.pressure_escalations[i])
            }),
            pressure_deescalations: self
                .pressure_deescalations
                .saturating_sub(earlier.pressure_deescalations),
            pressure_reapplied: self
                .pressure_reapplied
                .saturating_sub(earlier.pressure_reapplied),
            fault_hits: self.fault_hits.saturating_sub(earlier.fault_hits),
            fault_fired: self.fault_fired.saturating_sub(earlier.fault_fired),
            corruption_reports: self
                .corruption_reports
                .saturating_sub(earlier.corruption_reports),
            poison_hits: self.poison_hits.saturating_sub(earlier.poison_hits),
            encode_faults: self.encode_faults.saturating_sub(earlier.encode_faults),
            quarantine_len: self.quarantine_len,
        }
    }

    /// Total allocations across classes and CPUs (cache-layer accesses).
    pub fn total_allocs(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.per_cpu.iter().map(|p| p.alloc).sum::<u64>())
            .sum()
    }

    /// Total frees across classes and CPUs.
    pub fn total_frees(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.per_cpu.iter().map(|p| p.free).sum::<u64>())
            .sum()
    }

    /// Rolls the snapshot up into the CPU-summed [`KmemStats`] shape the
    /// paper's tables use (`KmemArena::stats` is implemented this way).
    pub fn aggregate(&self) -> KmemStats {
        KmemStats {
            classes: self
                .classes
                .iter()
                .map(|c| {
                    let total = c.cache_total();
                    ClassStats {
                        size: c.size,
                        cpu_alloc: total.alloc_layer(),
                        cpu_free: total.free_layer(),
                        gbl_alloc: c.global.alloc_layer(),
                        gbl_free: c.global.free_layer(),
                    }
                })
                .collect(),
            large_allocs: self.large_allocs,
            large_frees: self.large_frees,
            vmblk_cache_hits: self.vmblk_cache_hits,
            vmblk_cache_puts: self.vmblk_cache_puts,
            vmblks_live: self.vmblks_live,
            phys_in_use: self.phys_in_use,
            phys_capacity: self.phys_capacity,
        }
    }

    /// Renders the snapshot as a single-line JSON object (hand-rolled —
    /// the workspace is hermetic, so no serde). Field names match the Rust
    /// field names; all values are numbers or arrays of numbers, so the
    /// output needs no string escaping.
    pub fn to_json(&self) -> String {
        use core::fmt::Write as _;

        fn arr(out: &mut String, vals: &[u64]) {
            out.push('[');
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }

        fn cache(out: &mut String, c: &CacheCounts) {
            let _ = write!(
                out,
                "{{\"alloc\":{},\"alloc_miss\":{},\"alloc_fail\":{},\"sleep_retries\":{},\
                 \"free\":{},\"free_miss\":{},\"refill\":{},\"refill_short\":{},\
                 \"refill_blocks\":{},\"flush_explicit\":{},\"flush_drain\":{},\
                 \"flush_lowmem\":{},\"flush_blocks\":{},\"occupancy\":",
                c.alloc,
                c.alloc_miss,
                c.alloc_fail,
                c.sleep_retries,
                c.free,
                c.free_miss,
                c.refill,
                c.refill_short,
                c.refill_blocks,
                c.flush_explicit,
                c.flush_drain,
                c.flush_lowmem,
                c.flush_blocks,
            );
            arr(out, &c.occupancy);
            out.push('}');
        }

        let mut out = String::with_capacity(4096);
        out.push_str("{\"classes\":[");
        for (i, cs) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"size\":{},\"target\":{},\"gbltarget\":{},\"per_cpu\":[",
                cs.size, cs.target, cs.gbltarget
            );
            for (cpu, c) in cs.per_cpu.iter().enumerate() {
                if cpu > 0 {
                    out.push(',');
                }
                cache(&mut out, c);
            }
            let g = &cs.global;
            let _ = write!(
                out,
                "],\"global\":{{\"get\":{},\"get_slow\":{},\
                 \"get_chain_hits\":{},\"get_bucket_hits\":{},\
                 \"get_short\":{},\"get_short_deficit\":{},\"get_miss\":{},\"put\":{},\
                 \"put_slow\":{},\"put_odd\":{},\"put_miss\":{},\
                 \"pressure_spills\":{},\"spill_blocks\":{},\"cas_retries\":{}}}",
                g.get,
                g.get_slow,
                g.get_chain_hits,
                g.get_bucket_hits,
                g.get_short,
                g.get_short_deficit,
                g.get_miss,
                g.put,
                g.put_slow,
                g.put_odd,
                g.put_miss,
                g.pressure_spills,
                g.spill_blocks,
                g.cas_retries,
            );
            let p = &cs.page;
            let _ = write!(
                out,
                ",\"page\":{{\"refills\":{},\"page_acquires\":{},\"page_releases\":{},\
                 \"block_frees\":{},\"cas_retries\":{}}}}}",
                p.refills, p.page_acquires, p.page_releases, p.block_frees, p.cas_retries,
            );
        }
        out.push_str("],\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard_blocks\":{},\"local_refills\":{},\"stolen_refills\":{},\
                 \"remote_spills\":{}}}",
                n.shard_blocks, n.local_refills, n.stolen_refills, n.remote_spills,
            );
        }
        let _ = write!(
            out,
            "],\"large_allocs\":{},\"large_frees\":{},\"vmblk_cache\":{{\"hits\":{},\
             \"puts\":{}}},\"vmblks_live\":{},\"phys_in_use\":{},\
             \"phys_capacity\":{},\"pressure\":{{\"level\":{},\"escalations\":",
            self.large_allocs,
            self.large_frees,
            self.vmblk_cache_hits,
            self.vmblk_cache_puts,
            self.vmblks_live,
            self.phys_in_use,
            self.phys_capacity,
            self.pressure_level,
        );
        arr(&mut out, &self.pressure_escalations);
        let _ = write!(
            out,
            ",\"deescalations\":{},\"reapplied\":{}}},\"faults\":{{\"hits\":{},\"fired\":{}}},\
             \"hardened\":{{\"corruption_reports\":{},\"poison_hits\":{},\"encode_faults\":{},\
             \"quarantine_len\":{}}}}}",
            self.pressure_deescalations,
            self.pressure_reapplied,
            self.fault_hits,
            self.fault_fired,
            self.corruption_reports,
            self.poison_hits,
            self.encode_faults,
            self.quarantine_len,
        );
        out
    }

    /// Checks every invariant that holds even on a live, unsynchronized
    /// sample: per-(CPU, class) `miss <= access` bounds, refill/fail
    /// accounting, and global-pool outcome bounds.
    pub fn check_live(&self) -> Result<(), String> {
        for (class, cs) in self.classes.iter().enumerate() {
            for (cpu, counts) in cs.per_cpu.iter().enumerate() {
                counts.check_live(&format!("class {class} (size {}) cpu {cpu}", cs.size))?;
            }
            cs.global
                .check_live(&format!("class {class} (size {}) global", cs.size))?;
        }
        Ok(())
    }

    /// Checks the live invariants plus the exact-accounting equalities
    /// that hold only when no CPU is mid-operation (torture checkpoints,
    /// post-join assertions).
    pub fn check_quiescent(&self) -> Result<(), String> {
        for (class, cs) in self.classes.iter().enumerate() {
            for (cpu, counts) in cs.per_cpu.iter().enumerate() {
                counts.check_quiescent(&format!("class {class} (size {}) cpu {cpu}", cs.size))?;
            }
            cs.global
                .check_quiescent(&format!("class {class} (size {}) global", cs.size))?;
        }
        Ok(())
    }

    /// Verifies that every counter in `self` is `>=` its counterpart in
    /// `earlier` — the property `delta` exactness rests on. Returns the
    /// first offending counter.
    pub fn check_monotone_since(&self, earlier: &KmemSnapshot) -> Result<(), String> {
        assert_eq!(self.classes.len(), earlier.classes.len());
        fn mono(what: String, now: u64, then: u64) -> Result<(), String> {
            if now >= then {
                Ok(())
            } else {
                Err(format!("{what} went backwards: {then} -> {now}"))
            }
        }
        for (class, (now, then)) in self.classes.iter().zip(&earlier.classes).enumerate() {
            for (cpu, (n, t)) in now.per_cpu.iter().zip(&then.per_cpu).enumerate() {
                let w = |f: &str| format!("class {class} cpu {cpu} {f}");
                mono(w("alloc"), n.alloc, t.alloc)?;
                mono(w("alloc_miss"), n.alloc_miss, t.alloc_miss)?;
                mono(w("alloc_fail"), n.alloc_fail, t.alloc_fail)?;
                mono(w("sleep_retries"), n.sleep_retries, t.sleep_retries)?;
                mono(w("free"), n.free, t.free)?;
                mono(w("free_miss"), n.free_miss, t.free_miss)?;
                mono(w("refill"), n.refill, t.refill)?;
                mono(w("refill_short"), n.refill_short, t.refill_short)?;
                mono(w("refill_blocks"), n.refill_blocks, t.refill_blocks)?;
                mono(w("flush_explicit"), n.flush_explicit, t.flush_explicit)?;
                mono(w("flush_drain"), n.flush_drain, t.flush_drain)?;
                mono(w("flush_lowmem"), n.flush_lowmem, t.flush_lowmem)?;
                mono(w("flush_blocks"), n.flush_blocks, t.flush_blocks)?;
                for i in 0..OCC_BUCKETS {
                    mono(
                        w(&format!("occupancy[{i}]")),
                        n.occupancy[i],
                        t.occupancy[i],
                    )?;
                }
            }
            let w = |f: &str| format!("class {class} global {f}");
            mono(w("get"), now.global.get, then.global.get)?;
            mono(w("get_slow"), now.global.get_slow, then.global.get_slow)?;
            mono(
                w("get_chain_hits"),
                now.global.get_chain_hits,
                then.global.get_chain_hits,
            )?;
            mono(
                w("get_bucket_hits"),
                now.global.get_bucket_hits,
                then.global.get_bucket_hits,
            )?;
            mono(w("get_short"), now.global.get_short, then.global.get_short)?;
            mono(
                w("get_short_deficit"),
                now.global.get_short_deficit,
                then.global.get_short_deficit,
            )?;
            mono(w("get_miss"), now.global.get_miss, then.global.get_miss)?;
            mono(w("put"), now.global.put, then.global.put)?;
            mono(w("put_slow"), now.global.put_slow, then.global.put_slow)?;
            mono(w("put_odd"), now.global.put_odd, then.global.put_odd)?;
            mono(w("put_miss"), now.global.put_miss, then.global.put_miss)?;
            mono(
                w("pressure_spills"),
                now.global.pressure_spills,
                then.global.pressure_spills,
            )?;
            mono(
                w("spill_blocks"),
                now.global.spill_blocks,
                then.global.spill_blocks,
            )?;
            mono(
                w("cas_retries"),
                now.global.cas_retries,
                then.global.cas_retries,
            )?;
            mono(w("page refills"), now.page.refills, then.page.refills)?;
            mono(
                w("page acquires"),
                now.page.page_acquires,
                then.page.page_acquires,
            )?;
            mono(
                w("page releases"),
                now.page.page_releases,
                then.page.page_releases,
            )?;
            mono(
                w("page block_frees"),
                now.page.block_frees,
                then.page.block_frees,
            )?;
            mono(
                w("page cas_retries"),
                now.page.cas_retries,
                then.page.cas_retries,
            )?;
        }
        for (node, (now, then)) in self.nodes.iter().zip(&earlier.nodes).enumerate() {
            let w = |f: &str| format!("node {node} {f}");
            mono(w("local_refills"), now.local_refills, then.local_refills)?;
            mono(w("stolen_refills"), now.stolen_refills, then.stolen_refills)?;
            mono(w("remote_spills"), now.remote_spills, then.remote_spills)?;
        }
        mono(
            "large_allocs".into(),
            self.large_allocs,
            earlier.large_allocs,
        )?;
        mono("large_frees".into(), self.large_frees, earlier.large_frees)?;
        mono(
            "vmblk_cache_hits".into(),
            self.vmblk_cache_hits,
            earlier.vmblk_cache_hits,
        )?;
        mono(
            "vmblk_cache_puts".into(),
            self.vmblk_cache_puts,
            earlier.vmblk_cache_puts,
        )?;
        for i in 0..3 {
            mono(
                format!("pressure_escalations[{i}]"),
                self.pressure_escalations[i],
                earlier.pressure_escalations[i],
            )?;
        }
        mono(
            "pressure_deescalations".into(),
            self.pressure_deescalations,
            earlier.pressure_deescalations,
        )?;
        mono(
            "pressure_reapplied".into(),
            self.pressure_reapplied,
            earlier.pressure_reapplied,
        )?;
        mono("fault_hits".into(), self.fault_hits, earlier.fault_hits)?;
        mono("fault_fired".into(), self.fault_fired, earlier.fault_fired)?;
        mono(
            "corruption_reports".into(),
            self.corruption_reports,
            earlier.corruption_reports,
        )?;
        mono("poison_hits".into(), self.poison_hits, earlier.poison_hits)?;
        mono(
            "encode_faults".into(),
            self.encode_faults,
            earlier.encode_faults,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(alloc: u64, miss: u64, free: u64) -> CacheCounts {
        CacheCounts {
            alloc,
            alloc_miss: miss,
            free,
            refill: miss,
            refill_blocks: miss * 4,
            ..Default::default()
        }
    }

    fn snapshot_of(per_cpu: Vec<CacheCounts>) -> KmemSnapshot {
        KmemSnapshot {
            classes: vec![ClassSnapshot {
                size: 64,
                target: 4,
                gbltarget: 8,
                per_cpu,
                global: GlobalCounts::default(),
                page: PageCounts::default(),
            }],
            nodes: vec![NodeCounts::default()],
            large_allocs: 0,
            large_frees: 0,
            vmblk_cache_hits: 0,
            vmblk_cache_puts: 0,
            vmblks_live: 0,
            phys_in_use: 0,
            phys_capacity: 0,
            pressure_level: 0,
            pressure_escalations: [0; 3],
            pressure_deescalations: 0,
            pressure_reapplied: 0,
            fault_hits: 0,
            fault_fired: 0,
            corruption_reports: 0,
            poison_hits: 0,
            encode_faults: 0,
            quarantine_len: 0,
        }
    }

    #[test]
    fn delta_is_field_wise_difference() {
        let a = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        let b = snapshot_of(vec![counts(25, 3, 11), counts(9, 2, 3)]);
        let d = b.delta(&a);
        assert_eq!(d.cpu_class(0, 0).alloc, 15);
        assert_eq!(d.cpu_class(0, 0).alloc_miss, 1);
        assert_eq!(d.cpu_class(0, 0).free, 6);
        assert_eq!(d.cpu_class(1, 0).alloc, 5);
        assert_eq!(d.total_allocs(), 20);
        assert!(b.check_monotone_since(&a).is_ok());
        assert!(a.check_monotone_since(&b).is_err());
    }

    #[test]
    fn per_cpu_totals_sum_over_classes() {
        let mut s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        s.classes.push(ClassSnapshot {
            size: 128,
            target: 4,
            gbltarget: 8,
            per_cpu: vec![counts(1, 0, 1), counts(2, 0, 2)],
            global: GlobalCounts::default(),
            page: PageCounts::default(),
        });
        let totals = s.per_cpu_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].alloc, 11);
        assert_eq!(totals[1].alloc, 6);
        assert_eq!(totals[1].free, 2);
    }

    #[test]
    fn live_checks_catch_inverted_counters() {
        let mut bad = counts(5, 9, 0); // miss > alloc
        assert!(snapshot_of(vec![bad]).check_live().is_err());
        bad = counts(10, 2, 0);
        bad.refill = 1;
        bad.alloc_fail = 2; // refill + fail > miss
        assert!(snapshot_of(vec![bad]).check_live().is_err());
        assert!(snapshot_of(vec![counts(10, 2, 3)]).check_live().is_ok());
    }

    #[test]
    fn quiescent_check_requires_miss_accounting() {
        let mut c = counts(10, 3, 0);
        c.refill = 2; // one miss unaccounted: fine live, not quiescent
        let s = snapshot_of(vec![c]);
        assert!(s.check_live().is_ok());
        assert!(s.check_quiescent().is_err());
    }

    #[test]
    fn mean_occupancy_uses_bucket_midpoints() {
        let mut c = CacheCounts::default();
        assert_eq!(c.mean_occupancy(), None);
        c.occupancy[0] = 1;
        c.occupancy[7] = 1;
        let m = c.mean_occupancy().unwrap();
        assert!((m - 0.5).abs() < 1e-12, "{m}");
    }

    #[test]
    fn json_rendering_is_structurally_sound() {
        let mut s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 0)]);
        s.pressure_level = 2;
        s.pressure_escalations = [3, 2, 1];
        s.fault_hits = 7;
        s.fault_fired = 2;
        let json = s.to_json();
        // Balanced structure and no trailing garbage.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Spot-check fields, including the new pressure/fault groups.
        assert!(json.contains("\"classes\":[{\"size\":64,"));
        assert!(json.contains("\"alloc\":10,"));
        assert!(json.contains("\"pressure\":{\"level\":2,\"escalations\":[3,2,1]"));
        assert!(json.contains("\"faults\":{\"hits\":7,\"fired\":2}"));
        assert!(json.contains(
            "\"hardened\":{\"corruption_reports\":0,\"poison_hits\":0,\
             \"encode_faults\":0,\"quarantine_len\":0}"
        ));
        assert!(json.contains(
            "\"nodes\":[{\"shard_blocks\":0,\"local_refills\":0,\
             \"stolen_refills\":0,\"remote_spills\":0}]"
        ));
        assert!(json.contains("\"sleep_retries\":0"));
        assert!(json.contains("\"pressure_spills\":0"));
        assert!(json.contains("\"get_slow\":0"));
        assert!(json.contains("\"put_slow\":0"));
        assert!(json.contains("\"cas_retries\":0"));
        // No pretty-printing: a single machine-readable line.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn aggregate_matches_summed_layers() {
        let s = snapshot_of(vec![counts(10, 2, 5), counts(4, 1, 3)]);
        let agg = s.aggregate();
        assert_eq!(agg.classes[0].cpu_alloc.accesses, 14);
        assert_eq!(agg.classes[0].cpu_alloc.misses, 3);
        assert_eq!(agg.classes[0].cpu_free.accesses, 8);
        assert_eq!(agg.total_allocs(), 14);
    }
}
