//! Long-running soak tests (run explicitly: `cargo test --release -- --ignored`).
//!
//! These are the marathon versions of the integration scenarios: hours of
//! simulated uptime compressed into minutes of mixed traffic, with full
//! verification after every phase. They are `#[ignore]`d so `cargo test`
//! stays fast; CI or a nervous maintainer can run them on demand.

use std::sync::atomic::{AtomicU64, Ordering};

use kmem::verify::{verify_arena, verify_empty};
use kmem::{HardenedConfig, KmemArena, KmemConfig};
use kmem_dlm::workload::{run_worker, SharedLocks, WorkloadConfig};
use kmem_dlm::Dlm;
use kmem_streams::StreamsAlloc;
use kmem_vm::SpaceConfig;

/// NUMA shard count for the soak arenas, from `KMEM_SOAK_NODES` (default
/// 1 — the flat machine). `scripts/soak.sh` rotates this 1/2/4 so the
/// steal path and the fully sharded layout both get marathon coverage.
/// Clamped to `ncpus` because every node needs at least one CPU.
fn soak_nodes(ncpus: usize) -> usize {
    std::env::var("KMEM_SOAK_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .clamp(1, ncpus)
}

/// Arms every hardened defense when `KMEM_SOAK_HARDENED` is set and
/// nonzero (`scripts/soak.sh` rotates it round by round): the marathon
/// traffic then runs over encoded links, poisoning, randomized carve,
/// and the quarantine, and must never trip a false detection.
fn soak_hardened(cfg: KmemConfig) -> KmemConfig {
    match std::env::var("KMEM_SOAK_HARDENED") {
        Ok(v) if !matches!(v.trim(), "" | "0") => {
            cfg.hardened(HardenedConfig::full(0x534f_414b)) // "SOAK"
        }
        _ => cfg,
    }
}

#[test]
#[ignore = "soak test: minutes of runtime; run with --ignored"]
fn million_op_mixed_soak() {
    let arena = KmemArena::new(soak_hardened(
        KmemConfig::new(4, SpaceConfig::new(64 << 20)).nodes(soak_nodes(4)),
    ))
    .unwrap();
    let ops_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let arena = arena.clone();
            let ops_done = &ops_done;
            s.spawn(move || {
                let cpu = arena.register_cpu().unwrap();
                let mut held: Vec<(usize, usize)> = Vec::new();
                let mut x = 0x9E3779B9u64 ^ t;
                for i in 0..1_000_000usize {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // A size mix spanning classes and multi-page blocks.
                    let size = match x % 100 {
                        0..=69 => 16usize << (x % 9),
                        70..=94 => 1000 + (x % 3000) as usize,
                        _ => 4096 * (1 + (x % 4) as usize),
                    };
                    if held.len() > 128 || (x.is_multiple_of(2) && !held.is_empty()) {
                        let (addr, sz) = held.swap_remove((x as usize) % held.len());
                        let p = std::ptr::NonNull::new(addr as *mut u8).unwrap();
                        // SAFETY: allocated below, freed exactly once.
                        unsafe { cpu.free_sized(p, sz) };
                    }
                    match cpu.alloc(size) {
                        Ok(p) => held.push((p.as_ptr() as usize, size)),
                        Err(e) => panic!("op {i}: {e}"),
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                }
                for (addr, sz) in held {
                    let p = std::ptr::NonNull::new(addr as *mut u8).unwrap();
                    // SAFETY: allocated above, freed exactly once.
                    unsafe { cpu.free_sized(p, sz) };
                }
            });
        }
    });
    assert_eq!(ops_done.load(Ordering::Relaxed), 4_000_000);
    arena.reclaim();
    verify_empty(&arena);
}

#[test]
#[ignore = "soak test: minutes of runtime; run with --ignored"]
fn subsystem_cohabitation_soak() {
    let arena = KmemArena::new(soak_hardened(
        KmemConfig::new(3, SpaceConfig::new(64 << 20)).nodes(soak_nodes(3)),
    ))
    .unwrap();
    let dlm = Dlm::new(arena.clone(), 256);
    let sa = StreamsAlloc::new(arena.clone());
    let shared = SharedLocks::new();
    for round in 0..10 {
        std::thread::scope(|s| {
            {
                let dlm = std::sync::Arc::clone(&dlm);
                let arena = arena.clone();
                let shared = &shared;
                s.spawn(move || {
                    let cpu = arena.register_cpu().unwrap();
                    let cfg = WorkloadConfig {
                        ops: 100_000,
                        seed: round,
                        ..WorkloadConfig::default()
                    };
                    run_worker(&dlm, &cpu, shared, cfg, round);
                });
            }
            {
                let arena = arena.clone();
                let sa = &sa;
                s.spawn(move || {
                    let cpu = arena.register_cpu().unwrap();
                    for i in 0..100_000usize {
                        let m = sa.allocb(&cpu, 1 + (i % 2000)).unwrap();
                        // SAFETY: fresh message; freed exactly once.
                        unsafe {
                            if i % 5 == 0 {
                                if let Some(d) = sa.dupb(&cpu, m) {
                                    sa.freeb(&cpu, d);
                                }
                            }
                            sa.freemsg(&cpu, m);
                        }
                    }
                });
            }
        });
        let cpu = arena.register_cpu().unwrap();
        shared.drain(&dlm, &cpu);
        drop(cpu);
        arena.reclaim();
        verify_arena(&arena);
    }
    arena.reclaim();
    verify_empty(&arena);
}
