//! `dlm_handoff` and `dlm_handoff_hardened`: OLTP lock traffic whose
//! locks are released by another CPU.
//!
//! Each request is one transaction: unlock the locks the partner worker
//! handed over, acquire a burst of [`BURST`] locks (more than the 256 B
//! and 512 B classes' `target` of 10) over [`RESOURCES`] resources with
//! the OLTP mode mix of `kmem_dlm::workload`, and hand the granted ones
//! to the partner. Lock and resource blocks are so allocated on one CPU
//! and freed on the other, which pushes chains through the global layer.
//! A request that finds the partner [`HANDOFF_CAP`] locks behind sleeps
//! until the partner catches up, so every lock is released by the other
//! worker; only once the partner has ended its phase is a burst released
//! by the worker that took it. Those sleeps fall inside the timed
//! request; they are counted and timed as harness waits.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kmem::{CpuHandle, HardenedConfig, KmemArena, KmemConfig};
use kmem_dlm::{Dlm, LockHandle, LockStatus, Mode, LVB_LEN};
use kmem_testkit::Rng;
use kmem_vm::SpaceConfig;

use crate::tags::TagSource;
use crate::trace::{Name, Tracer};
use crate::workers::{Calls, Client, Waits};

/// Locks acquired per transaction.
pub const BURST: usize = 24;
/// Distinct resources: large, so few requests conflict.
pub const RESOURCES: u64 = 1 << 18;
/// Locks a worker may have waiting for its partner.
pub const HANDOFF_CAP: usize = 8 * BURST;
const INPUTS: usize = 1 << 14;
const BUCKETS: usize = 1 << 12;

pub fn arena_config(workers: usize, hardened: Option<u64>) -> KmemConfig {
    let config = KmemConfig::new(workers, SpaceConfig::new(64 << 20));
    match hardened {
        Some(seed) => config.hardened(HardenedConfig::full(seed)),
        None => config,
    }
}

/// The OLTP mode mix of `kmem_dlm::workload`: mostly reads, some
/// updates, few exclusives.
fn pick_mode(rng: &mut Rng) -> Mode {
    match rng.range_u64(0..100) {
        0..=44 => Mode::Cr,
        45..=69 => Mode::Pr,
        70..=84 => Mode::Cw,
        85..=94 => Mode::Pw,
        95..=97 => Mode::Ex,
        _ => Mode::Nl,
    }
}

/// A granted lock in transit to the worker that releases it.
struct Held {
    h: LockHandle,
    res: u64,
    /// The tag written into the resource's value block, for locks whose
    /// mode may write it (PW, EX).
    tag: Option<u64>,
}

/// Value block contents: the writer's tag, then the resource name + 1
/// (zero means never written).
fn lvb(tag: u64, res: u64) -> [u8; LVB_LEN] {
    let mut v = [0; LVB_LEN];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v[8..].copy_from_slice(&(res + 1).to_le_bytes());
    v
}

/// Locks handed to one worker.
struct Inbox {
    state: Mutex<InboxState>,
    /// Signalled when the owner empties a full inbox or ends its phase.
    drained: Condvar,
}

struct InboxState {
    held: Vec<Held>,
    /// The owner has ended its phase: nobody drains until the next one.
    closed: bool,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().expect("benchmark worker panicked")
    }
}

pub struct DlmClient {
    cpu: CpuHandle,
    dlm: Arc<Dlm>,
    inboxes: Arc<[Inbox]>,
    me: usize,
    partner: usize,
    inputs: Box<[(u64, Mode)]>,
    pos: usize,
    tags: TagSource,
    taken: Vec<Held>,
    outbox: Vec<Held>,
    waits: Waits,
}

pub fn build(arena: &KmemArena, workers: usize, seed: u64) -> (Arc<Dlm>, Vec<DlmClient>) {
    let dlm = Dlm::new(arena.clone(), BUCKETS);
    let inboxes: Arc<[Inbox]> = (0..workers)
        .map(|_| Inbox {
            state: Mutex::new(InboxState {
                held: Vec::with_capacity(HANDOFF_CAP + BURST),
                closed: false,
            }),
            drained: Condvar::new(),
        })
        .collect();
    let mut root = Rng::new(seed);
    let clients = (0..workers)
        .map(|w| {
            let mut rng = root.fork(w as u64);
            let inputs = (0..INPUTS)
                .map(|_| (rng.range_u64(0..RESOURCES), pick_mode(&mut rng)))
                .collect();
            DlmClient {
                cpu: arena.register_cpu().expect("one CPU per worker"),
                dlm: Arc::clone(&dlm),
                inboxes: Arc::clone(&inboxes),
                me: w,
                partner: (w + 1) % workers,
                inputs,
                pos: 0,
                tags: TagSource::new(w),
                taken: Vec::with_capacity(HANDOFF_CAP + BURST),
                outbox: Vec::with_capacity(BURST),
                waits: Waits::default(),
            }
        })
        .collect();
    (dlm, clients)
}

/// Every resource is unlocked once the workers are done.
pub fn check_unlocked(dlm: &Dlm) -> Result<(), String> {
    match (0..RESOURCES).find(|&r| dlm.lock_count(r) != 0) {
        Some(r) => Err(format!(
            "dlm: resource {r} still holds {} locks",
            dlm.lock_count(r)
        )),
        None => Ok(()),
    }
}

impl DlmClient {
    /// Checks a lock before it is released: still granted, and its
    /// resource's value block carries this lock's tag (writers) or at
    /// least this resource's name (everyone else, once written).
    fn check(&self, held: &Held) -> Result<(), String> {
        let v = self
            .dlm
            .read_lvb(&held.h)
            .ok_or_else(|| format!("dlm: lock on {} is no longer granted", held.res))?;
        let tag = u64::from_le_bytes(v[..8].try_into().expect("8 bytes"));
        let name = u64::from_le_bytes(v[8..].try_into().expect("8 bytes"));
        let ok = match held.tag {
            Some(t) => tag == t && name == held.res + 1,
            None => name == 0 || name == held.res + 1,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "dlm: lock on {} sees value block ({tag:#x}, {name}), expected tag {:?}",
                held.res, held.tag
            ))
        }
    }

    /// Releases every lock the partner handed over.
    fn unlock_inbox<T: Tracer>(&mut self, tr: &mut T, calls: &mut Calls) -> Result<(), String> {
        let inbox = &self.inboxes[self.me];
        let was_full = {
            let mut state = inbox.lock();
            core::mem::swap(&mut state.held, &mut self.taken);
            self.taken.len() >= HANDOFF_CAP
        };
        if was_full {
            inbox.drained.notify_all();
        }
        let mut taken = core::mem::take(&mut self.taken);
        for held in taken.drain(..) {
            self.release(held, tr, calls)?;
        }
        self.taken = taken;
        Ok(())
    }

    /// Hands the burst to the partner, sleeping while the partner is
    /// [`HANDOFF_CAP`] locks behind (after releasing this worker's own
    /// inbox, so two waiting workers cannot wait on each other).
    fn hand_over<T: Tracer>(&mut self, tr: &mut T, calls: &mut Calls) -> Result<(), String> {
        let inboxes = Arc::clone(&self.inboxes);
        let partner = &inboxes[self.partner];
        loop {
            {
                let mut state = partner.lock();
                if state.held.len() < HANDOFF_CAP {
                    state.held.append(&mut self.outbox);
                    return Ok(());
                }
                if state.closed {
                    break;
                }
            }
            self.unlock_inbox(tr, calls)?;
            let state = partner.lock();
            if state.held.len() >= HANDOFF_CAP && !state.closed {
                // The timeout only bounds a wait whose wake-up raced.
                let t0 = Instant::now();
                let _ = partner
                    .drained
                    .wait_timeout(state, Duration::from_millis(1))
                    .expect("benchmark worker panicked");
                self.waits.add(Waits {
                    count: 1,
                    ns: t0.elapsed().as_nanos() as u64,
                });
            }
        }
        // The partner has ended its phase: release the burst here.
        let mut outbox = core::mem::take(&mut self.outbox);
        for held in outbox.drain(..) {
            self.release(held, tr, calls)?;
        }
        self.outbox = outbox;
        Ok(())
    }

    /// Checks and unlocks one lock.
    fn release<T: Tracer>(
        &mut self,
        held: Held,
        tr: &mut T,
        calls: &mut Calls,
    ) -> Result<(), String> {
        self.check(&held)?;
        calls.attempted += 1;
        let (dlm, cpu) = (&self.dlm, &self.cpu);
        tr.span(Name::Unlock, || dlm.unlock(cpu, held.h));
        Ok(())
    }
}

impl Client for DlmClient {
    fn request<T: Tracer>(&mut self, tr: &mut T) -> Result<Calls, String> {
        let mut calls = Calls::default();
        self.unlock_inbox(tr, &mut calls)?;
        for _ in 0..BURST {
            let (res, mode) = self.inputs[self.pos];
            self.pos = (self.pos + 1) % self.inputs.len();
            calls.attempted += 1;
            let (dlm, cpu) = (&self.dlm, &self.cpu);
            match tr.span(Name::Lock, || dlm.lock(cpu, res, mode)) {
                Ok((h, LockStatus::Granted)) => {
                    let tag = (mode >= Mode::Pw).then(|| self.tags.next_tag());
                    if let Some(t) = tag {
                        if !dlm.write_lvb(&h, lvb(t, res)) {
                            return Err(format!("dlm: granted {mode:?} lock cannot write"));
                        }
                    }
                    self.outbox.push(Held { h, res, tag });
                }
                // An impatient caller: cancel rather than block.
                Ok((h, LockStatus::Waiting)) => {
                    calls.attempted += 1;
                    tr.span(Name::Unlock, || dlm.unlock(cpu, h));
                }
                Err(_) => calls.failed += 1,
            }
        }
        self.hand_over(tr, &mut calls)?;
        Ok(calls)
    }

    fn phase_start(&mut self) {
        self.inboxes[self.me].lock().closed = false;
    }

    fn phase_end(&mut self) {
        let inbox = &self.inboxes[self.me];
        inbox.lock().closed = true;
        inbox.drained.notify_all();
    }

    fn take_waits(&mut self) -> Waits {
        core::mem::take(&mut self.waits)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.unlock_inbox(&mut crate::trace::Off, &mut Calls::default())?;
        self.cpu.flush();
        Ok(())
    }
}
