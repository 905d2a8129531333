//! Closed-loop workers on real threads, one per core.
//!
//! Each worker owns one registered CPU and sends its next request only
//! after the previous one returned. A request's latency runs from the end
//! of the previous request (or the phase start) to its own end, so each
//! request costs exactly one clock read.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use kmem::KmemArena;
use kmem_smp::probe::{self, ProbeEvent};

use crate::trace::{Off, Recorder, Tracer};

/// Client calls made by one request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    pub attempted: u64,
    /// Allocation or lock calls that returned an error.
    pub failed: u64,
}

impl Calls {
    pub fn add(&mut self, other: Calls) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Time a worker spent asleep in the harness itself (waiting for a
/// partner worker), inside its timed requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Waits {
    pub count: u64,
    pub ns: u64,
}

impl Waits {
    pub fn add(&mut self, other: Waits) {
        self.count += other.count;
        self.ns += other.ns;
    }
}

/// One worker of a workload. Every call into the system goes through
/// the tracer's `span`.
pub trait Client: Send {
    /// Runs one request. `Err` reports a failed correctness check.
    fn request<T: Tracer>(&mut self, tr: &mut T) -> Result<Calls, String>;

    /// Called on the worker's thread before a phase's workers start, and
    /// when this worker's phase ends.
    fn phase_start(&mut self) {}
    fn phase_end(&mut self) {}

    /// Returns and resets the harness waits counted so far.
    fn take_waits(&mut self) -> Waits {
        Waits::default()
    }

    /// Returns everything the worker still holds and flushes its CPU's
    /// caches. Called on the worker's thread once every worker stopped.
    fn finish(&mut self) -> Result<(), String>;
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// A fixed number of requests per worker (deterministic runs).
    Requests(u64),
}

/// Equal time slices a timed phase is cut into, so that its figures can
/// be reported as medians over the slices: a burst of interference from
/// outside the benchmark then moves a few slices rather than the result.
pub const SLICES: usize = 20;

/// One time slice of a worker's phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Slice {
    /// Calls completed by requests that ended in the slice.
    pub calls: u64,
    /// Index in `latency_ns` of the slice's first request.
    pub first: usize,
}

/// What one worker measured in a phase.
pub struct WorkerRun {
    pub start: Instant,
    pub end: Instant,
    pub latency_ns: Vec<u32>,
    pub calls: Calls,
    /// [`SLICES`] slices of `slice` each for a timed phase; one slice
    /// otherwise.
    pub slices: Vec<Slice>,
    pub slice: Duration,
    pub peak_frames: usize,
    pub waits: Waits,
    pub recorder: Option<Recorder>,
    pub error: Option<String>,
}

/// Runs every client on its own thread until `stop`; traced when
/// `epoch` is given (spans are timed from it).
pub fn run_phase<C: Client>(
    arena: &KmemArena,
    clients: &mut [C],
    stop: Stop,
    epoch: Option<Instant>,
) -> Vec<WorkerRun> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || match epoch {
                    None => worker(arena, c, stop, barrier, &mut Off),
                    Some(epoch) => {
                        let mut rec = Recorder::new(epoch);
                        let mut run = worker(arena, c, stop, barrier, &mut rec);
                        run.recorder = Some(rec);
                        run
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    })
}

/// How a worker runs one request: bare, or traced.
trait Runner: Tracer + Sized {
    fn run_request<C: Client>(
        &mut self,
        client: &mut C,
        id: u64,
        start: Instant,
    ) -> Result<Calls, String>;
}

impl Runner for Off {
    #[inline(always)]
    fn run_request<C: Client>(
        &mut self,
        client: &mut C,
        _id: u64,
        _start: Instant,
    ) -> Result<Calls, String> {
        client.request(self)
    }
}

impl Runner for Recorder {
    /// Spans from the recorder, shared-memory events from the probes.
    fn run_request<C: Client>(
        &mut self,
        client: &mut C,
        id: u64,
        start: Instant,
    ) -> Result<Calls, String> {
        self.begin(id, start);
        let (result, events) = probe::record(|| client.request(self));
        for ev in events {
            match ev {
                ProbeEvent::LineRmw { .. } => self.line_rmw += 1,
                ProbeEvent::LockAcquire { .. } => self.lock_acquires += 1,
                _ => {}
            }
        }
        self.end(Instant::now());
        result
    }
}

fn worker<C: Client, R: Runner>(
    arena: &KmemArena,
    client: &mut C,
    stop: Stop,
    barrier: &Barrier,
    runner: &mut R,
) -> WorkerRun {
    let phys = arena.space().phys();
    let mut latency_ns = Vec::with_capacity(1 << 20);
    let mut calls = Calls::default();
    let mut peak_frames = phys.in_use();
    let mut error = None;
    client.phase_start();
    client.take_waits();
    barrier.wait();
    let start = Instant::now();
    let (slice, count) = match stop {
        Stop::After(d) => (d / SLICES as u32, SLICES),
        Stop::Requests(_) => (Duration::MAX, 1),
    };
    let mut slices = vec![Slice::default(); count];
    let mut current = 0;
    let mut slice_end = start.checked_add(slice);
    let mut prev = start;
    let mut done = 0u64;
    loop {
        let result = runner.run_request(client, done, prev);
        let now = Instant::now();
        while current + 1 < count && slice_end.is_some_and(|e| now >= e) {
            current += 1;
            slices[current].first = latency_ns.len();
            slice_end = slice_end.and_then(|e| e.checked_add(slice));
        }
        match result {
            Ok(c) => {
                calls.add(c);
                slices[current].calls += c.attempted;
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
        latency_ns.push(u32::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u32::MAX));
        prev = now;
        peak_frames = peak_frames.max(phys.in_use());
        done += 1;
        let finished = match stop {
            Stop::After(d) => now.duration_since(start) >= d,
            Stop::Requests(n) => done >= n,
        };
        if finished {
            break;
        }
    }
    let waits = client.take_waits();
    client.phase_end();
    WorkerRun {
        start,
        end: prev,
        latency_ns,
        calls,
        slices,
        slice,
        peak_frames,
        waits,
        recorder: None,
        error,
    }
}

/// Runs `requests` untimed requests on every client in parallel (the
/// warm-up that pre-touches the frames the run will use).
pub fn warm_up<C: Client>(
    arena: &KmemArena,
    clients: &mut [C],
    requests: u64,
) -> Result<(), String> {
    let runs = run_phase(arena, clients, Stop::Requests(requests), None);
    match runs.into_iter().find_map(|r| r.error) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Calls `finish` on every client, each on its own thread.
pub fn finish_all<C: Client>(clients: &mut [C]) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.finish()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect::<Result<Vec<()>, String>>()
    })?;
    Ok(())
}
