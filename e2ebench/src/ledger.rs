//! The layer ledger: each lower layer's public entry points timed alone,
//! at 1 and `nproc` threads, with the class, chain length and span length
//! the workload uses most.
//!
//! Every row times a pair (take, then give back) so the layer returns to
//! the same state after each pair. Reps of all rows are interleaved, and
//! each rep times a batch of pairs with two clock reads, so clock cost is
//! negligible. Each thread at `nproc` owns its per-CPU cache; the global
//! pool, page layer and vmblk layer are shared, as in the arena.
//!
//! A host may have `nproc` cores on paper and run fewer threads at once
//! (a virtual machine whose CPUs share physical cores). A spin loop,
//! interleaved with the rows, measures how many cores `nproc` threads
//! really get; when they get less than [`PARALLEL_FLOOR`] of `nproc`,
//! the `nproc` rows are marked oversubscribed, since part of their cost
//! is then time-slicing rather than contention on a shared layer.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use kmem::block::{self, LinkKey};
use kmem::chain::Chain;
use kmem::global::GlobalPool;
use kmem::pagelayer::PageLayer;
use kmem::percpu::{CpuCache, QuarantineVerdict};
use kmem::vmblklayer::VmblkLayer;
use kmem_vm::{KernelSpace, SpaceConfig};

use crate::stats::quartiles;

/// Reps per row.
pub const REPS: usize = 15;
/// Share of `nproc` cores the `nproc` threads must get for their rows
/// not to count as oversubscribed.
pub const PARALLEL_FLOOR: f64 = 0.9;
/// Spin-loop steps per thread per rep (a few ms, longer than a
/// scheduler time slice).
const SPIN_STEPS: usize = 2_000_000;
/// Hardened quarantine ring size (as in `HardenedConfig::full`).
const QUARANTINE: usize = 8;

/// What the ledger times, taken from the workload's run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub class: usize,
    pub class_size: usize,
    pub target: usize,
    pub gbltarget: usize,
    pub span_pages: usize,
}

/// One row: an entry point at a thread count.
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: &'static str,
    /// One thread per core (`nproc`) rather than one thread.
    pub per_core: bool,
    pub threads: usize,
    pub median_ns: f64,
    pub iqr_ns: f64,
    /// The threads did not all run at once (see [`Ledger::parallel_cores`]).
    pub oversubscribed: bool,
}

/// The ledger's rows and the parallelism they ran with.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub rows: Vec<Row>,
    /// Cores `nproc` spinning threads got at once: `nproc` times the
    /// one-thread spin time over the `nproc`-thread wall time (median
    /// over the reps).
    pub parallel_cores: f64,
}

/// A layer entry point timed as pairs; `pairs(t, n)` runs `n` pairs as
/// thread `t`.
trait Entry: Sync {
    fn pairs(&self, thread: usize, n: usize);
}

/// A dependent multiply-add loop touching no shared memory: how long it
/// takes at `nproc` threads shows whether they run at once.
struct Spin;

impl Entry for Spin {
    fn pairs(&self, _thread: usize, n: usize) {
        let mut x = std::hint::black_box(1u64);
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        std::hint::black_box(x);
    }
}

/// Host memory carved into `class_size` blocks, standing in for pages the
/// per-CPU and global layers only ever link through.
struct Blocks {
    mem: Box<[u128]>,
    size: usize,
}

impl Blocks {
    fn new(count: usize, size: usize) -> Blocks {
        Blocks {
            mem: vec![0u128; count * size / 16].into_boxed_slice(),
            size,
        }
    }

    fn block(&self, i: usize) -> *mut u8 {
        assert!((i + 1) * self.size <= self.mem.len() * 16);
        (self.mem.as_ptr() as usize + i * self.size) as *mut u8
    }

    fn key(&self) -> LinkKey {
        let base = self.mem.as_ptr() as usize;
        LinkKey::hardened(0x5eed_1edc, base, base + self.mem.len() * 16)
    }
}

/// `CpuCache::alloc`/`free` on a warm cache, plain or hardened. The
/// hardened pair also runs the checks the arena's hardened path wraps
/// around the cache: poison verified on alloc, poison laid and the
/// double-free quarantine consulted on free.
struct PerCpu {
    caches: Vec<Mutex<CpuCache>>,
    size: usize,
    hardened: bool,
    _blocks: Blocks,
}

impl PerCpu {
    fn new(shape: Shape, threads: usize, hardened: bool) -> PerCpu {
        let per = shape.target + QUARANTINE;
        let blocks = Blocks::new(threads * per, shape.class_size);
        let caches = (0..threads)
            .map(|t| {
                let mut cache = if hardened {
                    CpuCache::new_hardened(shape.target, true, blocks.key(), QUARANTINE)
                } else {
                    CpuCache::new(shape.target, true)
                };
                // A warm cache of `target` blocks (never empty, never
                // overflowing across a pair) and, when hardened, a full
                // quarantine ring (every free then evicts one block).
                for i in 0..per {
                    let b = blocks.block(t * per + i);
                    // SAFETY: `b` is a fresh block of this class, in no list.
                    unsafe { block::poison_free(b, shape.class_size) };
                    if i < shape.target {
                        // SAFETY: as above.
                        assert!(unsafe { cache.free(b) }.is_none());
                    } else if hardened {
                        assert_eq!(cache.quarantine_check_insert(b), QuarantineVerdict::Parked);
                    }
                }
                Mutex::new(cache)
            })
            .collect();
        PerCpu {
            caches,
            size: shape.class_size,
            hardened,
            _blocks: blocks,
        }
    }
}

impl Entry for PerCpu {
    fn pairs(&self, thread: usize, n: usize) {
        let mut cache = self.caches[thread].lock().expect("ledger thread panicked");
        for _ in 0..n {
            let b = cache.alloc().expect("a warm cache hits");
            let b = std::hint::black_box(b);
            if self.hardened {
                // SAFETY: `b` is a free block of this class, just taken.
                unsafe {
                    assert!(block::verify_free_poison(b, self.size).is_ok());
                    block::clear_poison_word(b);
                    assert!(!block::is_free_poisoned(b));
                    block::poison_free(b, self.size);
                }
                match cache.quarantine_check_insert(b) {
                    QuarantineVerdict::Hit => panic!("ledger double free"),
                    QuarantineVerdict::Parked => continue,
                    QuarantineVerdict::Evicted(old) => {
                        // SAFETY: `old` left the ring and is in no list.
                        assert!(unsafe { cache.free(old) }.is_none());
                    }
                }
            } else {
                // SAFETY: `b` was just taken from this cache.
                assert!(unsafe { cache.free(b) }.is_none());
            }
        }
    }
}

impl Drop for PerCpu {
    fn drop(&mut self) {
        for cache in &self.caches {
            if let Ok(mut c) = cache.lock() {
                c.flush().forget();
            }
        }
    }
}

/// `GlobalPool::get_chain`/`put_chain` of `target`-block chains.
struct Global {
    pool: GlobalPool,
    /// Chains the pool spilled (over its bound), put back later.
    spilled: Mutex<Vec<Chain>>,
    _blocks: Blocks,
}

impl Global {
    fn new(shape: Shape, threads: usize) -> Global {
        let blocks = Blocks::new(threads * shape.target, shape.class_size);
        let pool = GlobalPool::new(shape.target, shape.gbltarget);
        let spilled = Mutex::new(Vec::new());
        for t in 0..threads {
            let mut chain = Chain::new();
            for i in 0..shape.target {
                // SAFETY: fresh block, in no list.
                unsafe { chain.push(blocks.block(t * shape.target + i)) };
            }
            if let Some(excess) = pool.put_chain(chain) {
                spilled.lock().expect("not poisoned").push(excess);
            }
        }
        Global {
            pool,
            spilled,
            _blocks: blocks,
        }
    }
}

impl Entry for Global {
    fn pairs(&self, _thread: usize, n: usize) {
        for _ in 0..n {
            let chain = match self.pool.get_chain() {
                Some(c) => c,
                None => self
                    .spilled
                    .lock()
                    .expect("ledger thread panicked")
                    .pop()
                    .expect("every stocked chain is in the pool or spilled"),
            };
            if let Some(excess) = self.pool.put_chain(std::hint::black_box(chain)) {
                self.spilled
                    .lock()
                    .expect("ledger thread panicked")
                    .push(excess);
            }
        }
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        self.pool.drain_all().forget();
        if let Ok(mut s) = self.spilled.lock() {
            s.iter_mut().for_each(Chain::forget);
        }
    }
}

/// A vmblk layer over a small space of its own.
fn vm_layer() -> VmblkLayer {
    VmblkLayer::new(Arc::new(KernelSpace::new(SpaceConfig::new(16 << 20))), true)
}

/// `PageLayer::alloc_chain`/`free_chain` of `target` blocks. Each thread
/// keeps one block allocated so its page never drains (a drained page
/// would turn every pair into a page acquire and release).
struct Page {
    vm: VmblkLayer,
    layer: PageLayer,
    target: usize,
    resident: Vec<Mutex<Chain>>,
}

impl Page {
    fn new(shape: Shape, threads: usize) -> Page {
        let vm = vm_layer();
        let layer = PageLayer::new(shape.class, shape.class_size, true);
        let resident = (0..threads)
            .map(|_| Mutex::new(layer.alloc_chain(&vm, 1).expect("a fresh space has pages")))
            .collect();
        Page {
            vm,
            layer,
            target: shape.target,
            resident,
        }
    }
}

impl Entry for Page {
    fn pairs(&self, _thread: usize, n: usize) {
        for _ in 0..n {
            let chain = self
                .layer
                .alloc_chain(&self.vm, self.target)
                .expect("the page layer has room");
            // SAFETY: the chain's blocks were just allocated from this
            // layer and are returned once.
            unsafe { self.layer.free_chain(&self.vm, std::hint::black_box(chain)) };
        }
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        for r in &self.resident {
            if let Ok(mut chain) = r.lock() {
                let chain = core::mem::take(&mut *chain);
                // SAFETY: the resident blocks came from this layer.
                unsafe { self.layer.free_chain(&self.vm, chain) };
            }
        }
    }
}

/// `VmblkLayer::alloc_span`/`free_span` of the workload's span length.
/// Each thread keeps one page allocated so the vmblk is never released.
struct Vmblk {
    vm: VmblkLayer,
    pages: usize,
    resident: Vec<usize>,
}

impl Vmblk {
    fn new(shape: Shape, threads: usize) -> Vmblk {
        let vm = vm_layer();
        let resident = (0..threads)
            .map(|_| {
                vm.alloc_span(1)
                    .expect("a fresh space has pages")
                    .0
                    .as_ptr() as usize
            })
            .collect();
        Vmblk {
            vm,
            pages: shape.span_pages,
            resident,
        }
    }
}

impl Entry for Vmblk {
    fn pairs(&self, _thread: usize, n: usize) {
        for _ in 0..n {
            let (p, _) = self.vm.alloc_span(self.pages).expect("the space has room");
            // SAFETY: `p` spans `pages` pages just allocated here.
            unsafe { self.vm.free_span(std::hint::black_box(p), self.pages) };
        }
    }
}

impl Drop for Vmblk {
    fn drop(&mut self) {
        for &addr in &self.resident {
            // SAFETY: each resident page was allocated as a 1-page span.
            unsafe {
                self.vm
                    .free_span(core::ptr::NonNull::new_unchecked(addr as *mut u8), 1)
            };
        }
    }
}

/// Runs `n` pairs on each of `entry`'s threads at once. Returns ns per
/// pair averaged over the threads' own timings, and ns per pair over the
/// wall time from the first thread's start to the last one's end.
fn rep(entry: &dyn Entry, threads: usize, n: usize) -> (f64, f64) {
    let barrier = Barrier::new(threads);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    entry.pairs(t, n);
                    (t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ledger thread panicked"))
            .collect()
    });
    let total: f64 = spans
        .iter()
        .map(|(a, b)| b.duration_since(*a).as_nanos() as f64)
        .sum();
    let start = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("at least one thread");
    let end = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("at least one thread");
    (
        total / (threads * n) as f64,
        end.duration_since(start).as_nanos() as f64 / n as f64,
    )
}

/// Times every entry point at 1 and `nproc` threads (both rows are
/// timed, even when `nproc` is 1).
pub fn run(shape: Shape, nproc: usize) -> Ledger {
    let thread_counts = [1, nproc];
    // (metric, pairs per rep, constructor)
    type Build = fn(Shape, usize) -> Box<dyn Entry>;
    let entries: [(&'static str, usize, Build); 6] = [
        ("spin", SPIN_STEPS, |_, _| Box::new(Spin)),
        ("percpu.pair_ns", 20_000, |s, t| {
            Box::new(PerCpu::new(s, t, false))
        }),
        ("hardened.pair_ns", 5_000, |s, t| {
            Box::new(PerCpu::new(s, t, true))
        }),
        ("global.chain_ns", 20_000, |s, t| {
            Box::new(Global::new(s, t))
        }),
        ("page.chain_ns", 2_000, |s, t| Box::new(Page::new(s, t))),
        ("vmblk.span_ns", 2_000, |s, t| Box::new(Vmblk::new(s, t))),
    ];
    struct Timed {
        metric: &'static str,
        per_core: bool,
        threads: usize,
        pairs: usize,
        entry: Box<dyn Entry>,
        samples: Vec<f64>,
        wall: Vec<f64>,
    }
    let mut rows: Vec<Timed> = entries
        .iter()
        .flat_map(|&(metric, pairs, build)| {
            thread_counts
                .iter()
                .enumerate()
                .map(move |(i, &threads)| Timed {
                    metric,
                    per_core: i == 1,
                    threads,
                    pairs,
                    entry: build(shape, threads),
                    samples: Vec::with_capacity(REPS),
                    wall: Vec::with_capacity(REPS),
                })
        })
        .collect();
    for _ in 0..REPS {
        for row in rows.iter_mut() {
            let (ns, wall) = rep(row.entry.as_ref(), row.threads, row.pairs);
            row.samples.push(ns);
            row.wall.push(wall);
        }
    }
    let (spin, rows) = rows.split_at(2);
    let parallel_cores = nproc as f64 * quartiles(&spin[0].wall).1 / quartiles(&spin[1].wall).1;
    let oversubscribed = parallel_cores < PARALLEL_FLOOR * nproc as f64;
    let rows = rows
        .iter()
        .map(|row| {
            let (q1, median, q3) = quartiles(&row.samples);
            Row {
                metric: row.metric,
                per_core: row.per_core,
                threads: row.threads,
                median_ns: median,
                iqr_ns: q3 - q1,
                oversubscribed: row.threads > 1 && oversubscribed,
            }
        })
        .collect();
    Ledger {
        rows,
        parallel_cores,
    }
}
