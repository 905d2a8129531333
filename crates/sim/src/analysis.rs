//! Reproduction of the paper's Analysis section (E1).
//!
//! The paper instrumented `allocb`/`freeb` (the STREAMS buffer allocator
//! over the *old* global allocator) with a logic analyzer on a 2-CPU
//! Sequent S2000/200 and found that execution time was dominated by a
//! small number of off-chip accesses: "the worst 19 of the 304 off-chip
//! accesses (6.3 %) accounted for 57.6 % of the elapsed time".
//!
//! Here the logic analyzer is replaced by a two-level cache model. The
//! measured machine's 80486 has a small on-chip cache backed by a larger
//! coherent board cache: an "off-chip access" is anything that leaves the
//! chip, most of which hit the board cache cheaply — the expensive few are
//! the ones the board cache cannot satisfy either (memory, the *other*
//! CPU's cache, or uncacheable device registers). Two virtual CPUs
//! alternately run the access pattern of a lock-protected global allocator
//! building a STREAMS message (lock word, freelist heads, message and
//! data-block headers, statistics, plus the op's instruction stream);
//! every access is priced, and the paper's statistic is computed over the
//! per-access cost distribution.

use crate::coherence::{AccessKind, Coherence, CostModel};

/// One synthetic memory reference of the modelled operation.
#[derive(Debug, Clone, Copy)]
pub struct Ref {
    /// Which shared object (disjoint synthetic line per id); `None` is a
    /// CPU-private scratch line.
    pub shared: Option<usize>,
    /// Access kind.
    pub kind: AccessKind,
}

/// The access pattern of one `allocb` against a lock-protected global
/// allocator: derived from the structure of such allocators — acquire the
/// lock (RMW), read and update the freelist head and counters for each of
/// the three pieces (message block, data block, buffer), initialize the
/// pieces (writes to lines the *other* CPU last wrote when it freed
/// them), and release.
pub fn allocb_pattern(instr_refs: usize) -> Vec<Ref> {
    let mut v = Vec::new();
    // Lock word.
    v.push(Ref {
        shared: Some(0),
        kind: AccessKind::Rmw,
    });
    // Three pieces: freelist head read+write, stats update, block header
    // initialization (two lines each).
    for piece in 0..3usize {
        let base = 1 + piece * 4;
        v.push(Ref {
            shared: Some(base),
            kind: AccessKind::Read,
        });
        v.push(Ref {
            shared: Some(base),
            kind: AccessKind::Write,
        });
        v.push(Ref {
            shared: Some(base + 1),
            kind: AccessKind::Write,
        });
        v.push(Ref {
            shared: Some(base + 2),
            kind: AccessKind::Write,
        });
        v.push(Ref {
            shared: Some(base + 3),
            kind: AccessKind::Write,
        });
    }
    // Lock release.
    v.push(Ref {
        shared: Some(0),
        kind: AccessKind::Write,
    });
    // Private instruction/data references (code fetches, stack).
    for _ in 0..instr_refs {
        v.push(Ref {
            shared: None,
            kind: AccessKind::Read,
        });
    }
    v
}

/// `freeb`'s pattern: lock, push each piece back (read head, write link,
/// write head), stats, unlock.
pub fn freeb_pattern(instr_refs: usize) -> Vec<Ref> {
    let mut v = Vec::new();
    v.push(Ref {
        shared: Some(0),
        kind: AccessKind::Rmw,
    });
    for piece in 0..3usize {
        let base = 1 + piece * 4;
        v.push(Ref {
            shared: Some(base),
            kind: AccessKind::Read,
        });
        v.push(Ref {
            shared: Some(base + 1),
            kind: AccessKind::Write,
        });
        v.push(Ref {
            shared: Some(base),
            kind: AccessKind::Write,
        });
        v.push(Ref {
            shared: Some(base + 2),
            kind: AccessKind::Write,
        });
    }
    v.push(Ref {
        shared: Some(0),
        kind: AccessKind::Write,
    });
    for _ in 0..instr_refs {
        v.push(Ref {
            shared: None,
            kind: AccessKind::Read,
        });
    }
    v
}

/// Result of replaying an operation's pattern on one CPU while a peer
/// runs the same pattern interleaved.
#[derive(Debug, Clone)]
pub struct OpCostProfile {
    /// Total priced accesses for one operation.
    pub accesses: usize,
    /// Off-chip accesses.
    pub off_chip: usize,
    /// Elapsed cycles with a cold/contended cache (measured case).
    pub elapsed_cycles: u64,
    /// Elapsed cycles if every access hit (the paper's "in the absence of
    /// cache misses" instruction-count estimate).
    pub nominal_cycles: u64,
    /// Per-access costs, descending.
    pub costs_desc: Vec<u64>,
}

impl OpCostProfile {
    /// Fraction of elapsed time consumed by the most expensive
    /// `k`-fraction of *off-chip* accesses (the paper's statistic: "the
    /// worst 19 of the 304 off-chip accesses (6.3%) accounted for 57.6%
    /// of the elapsed time").
    pub fn worst_offchip_share(&self, k: f64) -> f64 {
        let take = ((self.off_chip as f64 * k).round() as usize).max(1);
        let worst: u64 = self.costs_desc.iter().take(take).sum();
        worst as f64 / self.elapsed_cycles as f64
    }

    /// Ratio of measured to nominal time (paper: 64.2 µs vs 12.5 µs ≈ 5×).
    pub fn slowdown(&self) -> f64 {
        self.elapsed_cycles as f64 / self.nominal_cycles as f64
    }
}

/// A small on-chip cache: LRU over whole lines (the 80486's 8 KB unified
/// cache ≈ 128 lines of 64 B).
struct OnChip {
    capacity: usize,
    /// Lines in LRU order, most recent last.
    lines: Vec<usize>,
}

impl OnChip {
    fn new(capacity: usize) -> Self {
        OnChip {
            capacity,
            lines: Vec::with_capacity(capacity),
        }
    }

    /// Touches `line`; returns whether it hit on-chip.
    fn touch(&mut self, line: usize) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push(line);
            return true;
        }
        if self.lines.len() == self.capacity {
            self.lines.remove(0);
        }
        self.lines.push(line);
        false
    }

    /// Invalidates `line` (a peer wrote it).
    fn invalidate(&mut self, line: usize) {
        self.lines.retain(|&l| l != line);
    }
}

/// On-chip hit cost (pipelined).
const ONCHIP_HIT: u64 = 1;
/// Off-chip access satisfied by the (coherent) board cache.
const BOARD_HIT: u64 = 4;
/// On-chip lines in the modelled 80486 (8 KB / 64 B).
const ONCHIP_LINES: usize = 128;

/// Replays `pattern` alternating between two CPUs for `warmup + 1` rounds
/// and profiles the final round on CPU 0.
///
/// The board caches are modelled by the MESI directory (`Coherence`):
/// lines it says this CPU holds cost [`BOARD_HIT`] when the on-chip cache
/// misses; lines held modified by the peer, or absent, cost the full
/// remote/memory penalty. The op's instruction stream (the `shared: None`
/// references) sweeps more lines than fit on chip, so nearly all of it
/// goes off-chip — cheaply — exactly as in the paper's traces, where 304
/// accesses left the chip but only ~19 dominated the elapsed time.
pub fn profile_two_cpu(pattern: &[Ref], warmup: usize, cost: CostModel) -> OpCostProfile {
    let mut coh = Coherence::new(cost);
    let mut onchip = [OnChip::new(ONCHIP_LINES), OnChip::new(ONCHIP_LINES)];
    let line_for = |cpu: usize, r: &Ref, i: usize| -> usize {
        match r.shared {
            Some(obj) => 0x1000 + obj,
            // The instruction/stack stream: distinct lines per reference
            // index, private to the CPU, exceeding the on-chip capacity.
            None => 0x10_0000 + cpu * 0x10_000 + i,
        }
    };
    let run = |cpu: usize,
               onchip: &mut [OnChip; 2],
               coh: &mut Coherence,
               record: bool|
     -> OpCostProfile {
        let mut costs = Vec::with_capacity(pattern.len());
        let mut off_chip = 0usize;
        let mut elapsed = 0u64;
        for (i, r) in pattern.iter().enumerate() {
            let line = line_for(cpu, r, i);
            let hit_onchip = onchip[cpu].touch(line);
            // Writes to shared lines invalidate the peer's on-chip copy.
            if r.shared.is_some() && r.kind != AccessKind::Read {
                onchip[1 - cpu].invalidate(line);
            }
            let cycles = if hit_onchip && r.kind != AccessKind::Rmw {
                ONCHIP_HIT
            } else {
                // Off chip: let the directory price it; a "miss" that
                // the directory serves from our own board cache is the
                // cheap kind.
                let a = coh.access(cpu, line, r.kind);
                off_chip += 1;
                if a.off_chip {
                    a.cycles
                } else {
                    BOARD_HIT + a.cycles - cost.hit
                }
            };
            if record {
                costs.push(cycles);
            }
            elapsed += cycles;
        }
        costs.sort_unstable_by(|a, b| b.cmp(a));
        OpCostProfile {
            accesses: pattern.len(),
            off_chip,
            elapsed_cycles: elapsed,
            nominal_cycles: 0,
            costs_desc: costs,
        }
    };
    // Warmup: both CPUs alternate ops, heating their board caches and
    // leaving the shared lines in the *other* CPU's cache.
    for _ in 0..warmup {
        for cpu in [0usize, 1usize] {
            let _ = run(cpu, &mut onchip, &mut coh, false);
        }
    }
    // CPU 1 runs once more so every shared line is remote to CPU 0.
    let _ = run(1, &mut onchip, &mut coh, false);
    let mut profile = run(0, &mut onchip, &mut coh, true);
    // Nominal: the instruction-count estimate — every reference an
    // on-chip hit, plus the unavoidable RMW stalls.
    profile.nominal_cycles = pattern.len() as u64 * ONCHIP_HIT
        + pattern.iter().filter(|r| r.kind == AccessKind::Rmw).count() as u64 * cost.rmw_stall;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_allocb_matches_the_papers_structure() {
        let pattern = allocb_pattern(287); // 304 references in total
        let profile = profile_two_cpu(&pattern, 3, CostModel::default());
        assert_eq!(profile.accesses, 304);
        // Nearly every reference leaves the chip (the instruction stream
        // sweeps past the on-chip capacity), as in the paper's 304
        // off-chip accesses...
        assert!(
            profile.off_chip > 250,
            "only {} off-chip accesses",
            profile.off_chip
        );
        // ...but the worst ~6% of them dominate elapsed time.
        let share = profile.worst_offchip_share(0.063);
        assert!(
            share > 0.35,
            "worst-6.3% share only {share:.2} (paper: 57.6%)"
        );
        // And the op runs several times slower than its nominal time.
        assert!(profile.slowdown() > 3.0, "slowdown {}", profile.slowdown());
    }

    #[test]
    fn most_offchip_accesses_are_cheap_board_hits() {
        let pattern = allocb_pattern(287);
        let profile = profile_two_cpu(&pattern, 3, CostModel::default());
        // The bottom 90% of the cost distribution is board-hit priced:
        // cheap, near-uniform — the expensive tail is what matters.
        let cheap = profile
            .costs_desc
            .iter()
            .filter(|&&c| c <= BOARD_HIT + 4)
            .count();
        assert!(
            cheap as f64 > 0.8 * profile.accesses as f64,
            "{cheap} cheap of {}",
            profile.accesses
        );
    }

    #[test]
    fn freeb_pattern_shares_the_shape() {
        let profile = profile_two_cpu(&freeb_pattern(308), 3, CostModel::default());
        assert_eq!(profile.accesses, 322);
        assert!(profile.worst_offchip_share(0.086) > 0.3);
        assert!(profile.slowdown() > 2.5);
    }

    #[test]
    fn line_shift_matches_probe_layer() {
        // The analysis and DES layers must agree on line granularity.
        assert_eq!(kmem_smp::probe::LINE_SHIFT, 6);
    }
}
