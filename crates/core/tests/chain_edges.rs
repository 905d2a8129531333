//! Edge cases for the chain primitives and the paths that feed odd-sized
//! chains into the global layer's bucket list.

use kmem::chain::Chain;
use kmem::global::GlobalPool;
use kmem::verify::verify_empty;
use kmem::{KmemArena, KmemConfig};

/// Backing store for fake blocks: boxed so addresses stay stable.
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

fn drain(mut c: Chain) -> Vec<*mut u8> {
    let mut v = Vec::new();
    while let Some(b) = c.pop() {
        v.push(b);
    }
    v
}

/// Out-of-range splits (zero, longer than the chain, anything from an
/// empty chain) panic without disturbing the source chain. Checked via
/// `catch_unwind` rather than `should_panic` because a live chain must
/// still be drained afterwards (its drop asserts emptiness).
#[test]
fn split_first_rejects_out_of_range() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut blocks = Blocks::new(4);
    let mut c = blocks.chain(4);
    for n in [0usize, 5] {
        let r = catch_unwind(AssertUnwindSafe(|| c.split_first(n)));
        match r {
            Err(_) => {}
            Ok(sub) => {
                drain(sub);
                drain(c);
                panic!("split_first({n}) of a 4-chain did not panic");
            }
        }
    }
    assert_eq!(c.len(), 4, "failed split must not disturb the chain");
    drain(c);

    let mut empty = Chain::new();
    let r = catch_unwind(AssertUnwindSafe(|| empty.split_first(1)));
    match r {
        Err(_) => {}
        Ok(sub) => {
            drain(sub);
            panic!("split_first(1) of an empty chain did not panic");
        }
    }
}

/// Splitting off exactly the whole chain is the O(1) take-all path (no
/// link walk), and it must leave the source genuinely empty — head, tail,
/// and count — so later appends start from scratch.
#[test]
fn split_first_of_exactly_len_takes_all() {
    let mut blocks = Blocks::new(7);
    let mut c = blocks.chain(5);
    let all = c.split_first(5);
    assert_eq!(all.len(), 5);
    assert!(c.is_empty());
    assert!(c.pop().is_none());
    // The emptied chain is fully reusable.
    let mut more = blocks.chain(2);
    c.append(&mut more);
    assert_eq!(c.len(), 2);
    drain(all);
    drain(c);
}

/// A proper split cuts the link between the halves: walking the prefix
/// must not run into the suffix.
#[test]
fn split_first_severs_the_link() {
    let mut blocks = Blocks::new(6);
    let mut c = blocks.chain(6);
    let original: Vec<*mut u8> = c.iter().collect();
    let prefix = c.split_first(2);
    let walked: Vec<*mut u8> = prefix.iter().collect();
    assert_eq!(walked, &original[..2]);
    assert_eq!(c.iter().collect::<Vec<_>>(), &original[2..]);
    drain(prefix);
    drain(c);
}

#[test]
fn append_handles_all_empty_combinations() {
    let mut blocks = Blocks::new(4);

    // empty += empty: still empty, still usable.
    let mut a = Chain::new();
    let mut b = Chain::new();
    a.append(&mut b);
    assert!(a.is_empty() && b.is_empty());

    // empty += full: wholesale transfer, source emptied.
    let mut full = blocks.chain(2);
    a.append(&mut full);
    assert_eq!(a.len(), 2);
    assert!(full.is_empty());

    // full += empty: no-op.
    a.append(&mut b);
    assert_eq!(a.len(), 2);

    // The tail survives the transfers: appending more links after it.
    let mut more = blocks.chain(2);
    let more_blocks: Vec<*mut u8> = more.iter().collect();
    a.append(&mut more);
    assert_eq!(a.len(), 4);
    let order: Vec<*mut u8> = a.iter().collect();
    assert_eq!(&order[2..], &more_blocks[..]);
    drain(a);
}

/// An exactly-`target` chain joins the ready chains — `get_chain`
/// returns it whole instead of carving the bucket.
#[test]
fn exactly_target_chain_becomes_a_ready_chain() {
    let mut blocks = Blocks::new(16);
    let pool = GlobalPool::new(4, 8);
    assert!(pool.put_chain(blocks.chain(4)).is_none());
    let got = pool.get_chain().unwrap();
    assert_eq!(got.len(), 4);
    assert!(pool.is_empty());
    drain(got);
}

/// An empty odd chain is a no-op: no stats bump, no bucket traffic.
#[test]
fn empty_odd_chain_is_ignored() {
    let pool = GlobalPool::new(4, 8);
    assert!(pool.put_chain(Chain::new()).is_none());
    assert_eq!(pool.stats().put.get(), 0);
    assert!(pool.is_empty());
}

/// Odd chains accumulate across puts and regroup exactly at `target`,
/// whatever the arrival pattern (1+1+1+1 vs 3+1 vs 2+2).
#[test]
fn bucket_regroups_any_arrival_pattern() {
    for pattern in [vec![1usize, 1, 1, 1], vec![3, 1], vec![2, 2], vec![1, 3]] {
        let mut blocks = Blocks::new(8);
        let pool = GlobalPool::new(4, 8);
        for &n in &pattern {
            assert!(pool.put_chain(blocks.chain(n)).is_none());
        }
        let got = pool.get_chain().unwrap();
        assert_eq!(got.len(), 4, "pattern {pattern:?} failed to regroup");
        assert!(pool.is_empty());
        drain(got);
    }
}

/// The arena path that creates odd chains in real traffic: a cache flush
/// (the low-memory drain operation) hands a non-`target`-sized chain to
/// the global layer, which buckets it; the next CPU's refill is then
/// served from the bucket without touching the coalesce-to-page layer.
#[test]
fn cache_flush_feeds_odd_chain_into_bucket() {
    let arena = KmemArena::new(KmemConfig::new(2, kmem_vm::SpaceConfig::new(16 << 20))).unwrap();
    let cpu1 = arena.register_cpu().unwrap();
    let cpu2 = arena.register_cpu().unwrap();
    let class = arena.cookie_for(256).unwrap().class_index();

    // Fill cpu1's cache (refill brings in a full target chain), then free
    // one block back so the cache holds a non-target count.
    let a = cpu1.alloc(256).unwrap();
    let b = cpu1.alloc(256).unwrap();
    // SAFETY: allocated above, freed once.
    unsafe { cpu1.free(a) };
    let cached = cpu1.cached_blocks();
    assert!(cached > 0, "cache unexpectedly empty");

    let before = arena.stats().classes[class];
    cpu1.flush();
    let after_flush = arena.stats().classes[class];
    // The flush put one (odd) chain to the global layer.
    assert_eq!(
        after_flush.gbl_free.accesses,
        before.gbl_free.accesses + 1,
        "flush did not reach the global layer"
    );

    // cpu2's refill is served from the bucketed blocks: a global get that
    // does NOT miss to the page layer.
    let c = cpu2.alloc(256).unwrap();
    let after_refill = arena.stats().classes[class];
    assert_eq!(
        after_refill.gbl_alloc.accesses,
        after_flush.gbl_alloc.accesses + 1
    );
    assert_eq!(
        after_refill.gbl_alloc.misses, after_flush.gbl_alloc.misses,
        "refill bypassed the bucketed flush chain"
    );

    // SAFETY: allocated above, freed once each.
    unsafe {
        cpu2.free(c);
        cpu1.free(b);
    }
    cpu1.flush();
    cpu2.flush();
    arena.reclaim();
    verify_empty(&arena);
}
