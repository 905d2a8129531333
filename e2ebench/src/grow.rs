//! `grow_shrink`: the Fig. 9 worst case run as the cyclic day/night
//! workload.
//!
//! Each worker takes the sizes in a seeded order (after one round in a
//! fixed order, the warm-up): every small class plus 8 KiB and 64 KiB
//! large allocations. For each size it fills its share
//! ([`FILL_SHARE`] of the physical pool, split between the workers),
//! frees everything in allocation order, and flushes its caches. The live
//! set is far larger than the per-CPU and global layers can cache, so the
//! page, vmblk and physical layers do most of the work. A request is a
//! batch of up to [`BATCH`] `alloc` or `free` calls.

use core::ptr::NonNull;

use kmem::{CpuHandle, KmemArena, KmemConfig};
use kmem_testkit::Rng;
use kmem_vm::{SpaceConfig, PAGE_SIZE};

use crate::tags::{check_tags, write_tags, TagSource};
use crate::trace::{Name, Tracer};
use crate::workers::{Calls, Client};

/// Calls per request.
pub const BATCH: usize = 512;
/// Physical frames in the pool (16 MiB, as in the prototype's run).
pub const FRAMES: usize = 4096;
/// Share of the pool all workers together fill at once.
pub const FILL_SHARE: f64 = 0.5;
/// Sizes, in bytes: the nine small classes, then two large sizes.
pub const SIZES: [usize; 11] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 65536];
/// Pages per span of the largest size (the vmblk layer's most used span
/// length in this workload).
pub const LARGE_SPAN_PAGES: usize = 65536 / PAGE_SIZE;
/// Seeded size orders pre-generated per worker, cycled.
const ROUNDS: usize = 64;

/// Bytes each of `workers` workers fills per size.
fn share(workers: usize) -> usize {
    (FILL_SHARE * (FRAMES * PAGE_SIZE) as f64) as usize / workers
}

/// Requests one worker makes in one round over every size (filling
/// then freeing each in batches): the warm-up. Each worker's first round
/// visits the sizes in a fixed order, so set-up does the same work for
/// every seed.
pub fn round_requests(workers: usize) -> u64 {
    SIZES
        .iter()
        .map(|&size| 2 * (share(workers) / size).div_ceil(BATCH) as u64)
        .sum()
}

pub fn arena_config(workers: usize) -> KmemConfig {
    KmemConfig::new(workers, SpaceConfig::new(64 << 20).phys_pages(FRAMES))
}

pub struct GrowClient {
    cpu: CpuHandle,
    /// Sizes in the order this worker visits them.
    order: Box<[usize]>,
    step: usize,
    /// Bytes this worker fills per size.
    share: usize,
    /// Class `target` per small class, for judging which calls leave the
    /// per-CPU cache.
    targets: Box<[usize]>,
    live: Vec<(NonNull<u8>, u64)>,
    freed: usize,
    filling: bool,
    tags: TagSource,
}

// SAFETY: the `NonNull`s are blocks this worker allocated and alone
// frees; moving the client moves that ownership.
unsafe impl Send for GrowClient {}

pub fn build(arena: &KmemArena, workers: usize, seed: u64) -> Vec<GrowClient> {
    let share = share(workers);
    let targets: Box<[usize]> = arena.snapshot().classes.iter().map(|c| c.target).collect();
    let mut root = Rng::new(seed);
    (0..workers)
        .map(|w| {
            let mut rng = root.fork(w as u64);
            // A fixed first round (the warm-up), then the seeded ones.
            let mut first = SIZES;
            first.rotate_left(w % SIZES.len());
            let order = std::iter::once(first)
                .chain((0..ROUNDS).map(|_| {
                    let mut round = SIZES;
                    rng.shuffle(&mut round);
                    round
                }))
                .flatten()
                .collect();
            GrowClient {
                cpu: arena.register_cpu().expect("one CPU per worker"),
                order,
                step: 0,
                share,
                targets: targets.clone(),
                live: Vec::with_capacity(share / SIZES[0]),
                freed: 0,
                filling: true,
                tags: TagSource::new(w),
            }
        })
        .collect()
}

/// Small-class index of `size` (classes are 16 B << index).
fn class_of(size: usize) -> Option<usize> {
    (size <= 4096).then(|| (size.trailing_zeros() - 4) as usize)
}

impl GrowClient {
    fn size(&self) -> usize {
        self.order[self.step]
    }

    /// Whether the next call on `size` leaves the per-CPU cache, judged
    /// from the cache's shape before the call.
    fn leaves_cache(&self, size: usize, alloc: bool) -> bool {
        match class_of(size) {
            None => true,
            Some(class) => {
                let (main, aux) = self.cpu.cache_shape(class);
                if alloc {
                    main + aux == 0
                } else {
                    main == self.targets[class] && aux > 0
                }
            }
        }
    }

    fn free_batch<T: Tracer>(&mut self, tr: &mut T, n: usize) -> Result<u64, String> {
        let size = self.size();
        let end = (self.freed + n).min(self.live.len());
        for i in self.freed..end {
            let (p, tag) = self.live[i];
            check_tags(p.as_ptr() as usize, size, tag)?;
            if T::ON {
                let slow = self.leaves_cache(size, false);
                tr.arena_call(slow);
            }
            let cpu = &self.cpu;
            // SAFETY: `p` was allocated with `size` by this worker and is
            // freed once.
            tr.span(Name::Free, || unsafe { cpu.free_sized(p, size) });
        }
        let done = (end - self.freed) as u64;
        self.freed = end;
        Ok(done)
    }
}

impl Client for GrowClient {
    fn request<T: Tracer>(&mut self, tr: &mut T) -> Result<Calls, String> {
        let size = self.size();
        let mut calls = Calls::default();
        if self.filling {
            let want = self.share / size;
            let n = BATCH.min(want - self.live.len());
            for _ in 0..n {
                if T::ON {
                    let slow = self.leaves_cache(size, true);
                    tr.arena_call(slow);
                }
                calls.attempted += 1;
                let cpu = &self.cpu;
                match tr.span(Name::Alloc, || cpu.alloc(size)) {
                    Ok(p) => {
                        let tag = self.tags.next_tag();
                        write_tags(p.as_ptr() as usize, size, tag);
                        self.live.push((p, tag));
                    }
                    // Out of memory: this size's fill ends here.
                    Err(_) => {
                        calls.failed += 1;
                        break;
                    }
                }
            }
            if self.live.len() >= want || calls.failed > 0 {
                self.filling = false;
            }
        } else {
            calls.attempted = self.free_batch(tr, BATCH)?;
            if self.freed == self.live.len() {
                self.live.clear();
                self.freed = 0;
                self.cpu.flush();
                self.filling = true;
                self.step = (self.step + 1) % self.order.len();
            }
        }
        Ok(calls)
    }

    fn finish(&mut self) -> Result<(), String> {
        let rest = self.live.len() - self.freed;
        self.free_batch(&mut crate::trace::Off, rest)?;
        self.live.clear();
        self.freed = 0;
        self.cpu.flush();
        Ok(())
    }
}
