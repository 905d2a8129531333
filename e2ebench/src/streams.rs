//! `streams_local`: STREAMS packet trains, all on the sending CPU.
//!
//! Each request is a train of [`TRAIN`] messages: `allocb` of a seeded
//! 64 B–2 KiB size, `dupb`+`freeb` on about a quarter of them (a copy
//! kept for retransmission, then dropped), and `freemsg` of the oldest
//! message once more than [`IN_FLIGHT`] are outstanding. The paper's best
//! case: almost every call is served by the per-CPU layer.

use std::collections::VecDeque;
use std::sync::Arc;

use kmem::{CpuHandle, KmemArena, KmemConfig};
use kmem_streams::{MsgPtr, StreamsAlloc};
use kmem_testkit::Rng;
use kmem_vm::SpaceConfig;

use crate::tags::{check_tags, write_tags, TagSource};
use crate::trace::{Name, Tracer};
use crate::workers::{Calls, Client};

/// Messages per request.
pub const TRAIN: usize = 64;
/// Messages a worker keeps outstanding before freeing the oldest.
pub const IN_FLIGHT: usize = 32;
/// Pre-generated (size, dup) inputs per worker, cycled.
const INPUTS: usize = 1 << 14;

/// Buffer size classes and their weights (small packets dominate).
const SIZES: [(usize, u64); 6] = [
    (64, 30),
    (128, 20),
    (256, 15),
    (512, 15),
    (1024, 10),
    (2048, 10),
];

struct Sent {
    mp: MsgPtr,
    buf: usize,
    len: usize,
    tag: u64,
}

pub struct StreamsClient {
    cpu: CpuHandle,
    sa: Arc<StreamsAlloc>,
    inputs: Box<[(u16, bool)]>,
    pos: usize,
    in_flight: VecDeque<Sent>,
    tags: TagSource,
}

pub fn arena_config(workers: usize) -> KmemConfig {
    KmemConfig::new(workers, SpaceConfig::new(64 << 20))
}

pub fn build(arena: &KmemArena, workers: usize, seed: u64) -> Vec<StreamsClient> {
    let sa = Arc::new(StreamsAlloc::new(arena.clone()));
    let mut root = Rng::new(seed);
    (0..workers)
        .map(|w| {
            let mut rng = root.fork(w as u64);
            let inputs = (0..INPUTS)
                .map(|_| {
                    let class = weighted_class(&mut rng);
                    // A length inside the class, so `allocb` maps sizes
                    // to classes as it would for real packets.
                    let len = rng.range_usize(class / 2 + 1..class + 1).max(64);
                    (len as u16, rng.ratio(1, 4))
                })
                .collect();
            StreamsClient {
                cpu: arena.register_cpu().expect("one CPU per worker"),
                sa: Arc::clone(&sa),
                inputs,
                pos: 0,
                in_flight: VecDeque::with_capacity(IN_FLIGHT + 1),
                tags: TagSource::new(w),
            }
        })
        .collect()
}

fn weighted_class(rng: &mut Rng) -> usize {
    let total: u64 = SIZES.iter().map(|s| s.1).sum();
    let mut pick = rng.range_u64(0..total);
    for (class, weight) in SIZES {
        if pick < weight {
            return class;
        }
        pick -= weight;
    }
    unreachable!("pick is below the total weight")
}

impl StreamsClient {
    /// Checks a message before it is freed: the descriptors still point
    /// at the buffer they were given, and the buffer still carries the
    /// message's tag.
    fn check(&self, s: &Sent) -> Result<(), String> {
        // SAFETY: `s.mp` is live: it is freed only after this check.
        let m = unsafe { s.mp.msgb() };
        // SAFETY: a live message's data block is live.
        let db_base = unsafe { (*m.b_datap).db_base } as usize;
        if m.b_rptr as usize != s.buf || m.b_wptr as usize != s.buf + s.len || db_base != s.buf {
            return Err(format!(
                "streams: message {:#x} no longer describes its buffer {:#x}",
                s.mp.0.as_ptr() as usize,
                s.buf
            ));
        }
        check_tags(s.buf, s.len, s.tag)
    }

    fn free_oldest<T: Tracer>(&mut self, tr: &mut T) -> Result<(), String> {
        let s = self.in_flight.pop_front().expect("queue is not empty");
        self.check(&s)?;
        let (sa, cpu) = (&self.sa, &self.cpu);
        // SAFETY: `s.mp` is live and owned by this worker; freed once.
        tr.span(Name::Freemsg, || unsafe { sa.freemsg(cpu, s.mp) });
        Ok(())
    }
}

impl Client for StreamsClient {
    fn request<T: Tracer>(&mut self, tr: &mut T) -> Result<Calls, String> {
        let mut calls = Calls::default();
        for _ in 0..TRAIN {
            let (len, dup) = self.inputs[self.pos];
            let len = usize::from(len);
            self.pos = (self.pos + 1) % self.inputs.len();
            calls.attempted += 1;
            let (sa, cpu) = (&self.sa, &self.cpu);
            let Some(mp) = tr.span(Name::Allocb, || sa.allocb(cpu, len)) else {
                calls.failed += 1;
                continue;
            };
            // SAFETY: `mp` was just allocated and is owned here.
            let m = unsafe { mp.msgb() };
            let buf = m.b_rptr as usize;
            // SAFETY: the buffer holds at least `len` bytes.
            m.b_wptr = unsafe { m.b_rptr.add(len) };
            let tag = self.tags.next_tag();
            write_tags(buf, len, tag);
            let datap = m.b_datap;
            if dup {
                calls.attempted += 1;
                // SAFETY: `mp` is live.
                match tr.span(Name::Dupb, || unsafe { sa.dupb(cpu, mp) }) {
                    Some(d) => {
                        // SAFETY: `d` was just allocated.
                        if unsafe { d.msgb() }.b_datap != datap {
                            return Err("streams: dupb did not share the data block".into());
                        }
                        calls.attempted += 1;
                        // SAFETY: `d` is live and freed once.
                        tr.span(Name::Freeb, || unsafe { sa.freeb(cpu, d) });
                    }
                    None => calls.failed += 1,
                }
            }
            self.in_flight.push_back(Sent { mp, buf, len, tag });
            if self.in_flight.len() > IN_FLIGHT {
                calls.attempted += 1;
                self.free_oldest(tr)?;
            }
        }
        Ok(calls)
    }

    fn finish(&mut self) -> Result<(), String> {
        while !self.in_flight.is_empty() {
            self.free_oldest(&mut crate::trace::Off)?;
        }
        self.cpu.flush();
        Ok(())
    }
}
