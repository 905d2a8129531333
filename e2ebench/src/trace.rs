//! Spans recorded around the benchmark's calls into the system.
//!
//! A traced request produces one `request` span, one child span per client
//! call (`allocb`, `lock`, ...), and, where the client call is itself an
//! arena call (`alloc`/`free` in `grow_shrink`), that span is the arena
//! span. Every span of a request carries the request's id. Durations go
//! into per-name histograms as they are recorded; the spans of every
//! [`STORE_EVERY`]-th request are also kept in memory, up to
//! [`STORE_CAP`] per worker, and written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// Spans of every n-th traced request are kept for the trace file.
pub const STORE_EVERY: u64 = 64;
/// Most spans one worker keeps for the trace file.
pub const STORE_CAP: usize = 1 << 16;

/// The kinds of span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Request,
    Allocb,
    Dupb,
    Freeb,
    Freemsg,
    Lock,
    Unlock,
    Alloc,
    Free,
}

impl Name {
    pub const ALL: [Name; 9] = [
        Name::Request,
        Name::Allocb,
        Name::Dupb,
        Name::Freeb,
        Name::Freemsg,
        Name::Lock,
        Name::Unlock,
        Name::Alloc,
        Name::Free,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Allocb => "streams.allocb",
            Name::Dupb => "streams.dupb",
            Name::Freeb => "streams.freeb",
            Name::Freemsg => "streams.freemsg",
            Name::Lock => "dlm.lock",
            Name::Unlock => "dlm.unlock",
            Name::Alloc => "arena.alloc",
            Name::Free => "arena.free",
        }
    }
}

/// What a workload's request code calls around each call into the
/// system. [`Off`] compiles to the bare call.
pub trait Tracer {
    /// Whether spans are recorded (workloads skip trace-only probes of
    /// the system when it is not).
    const ON: bool;

    /// Runs `f`, the client call `name`, as a span.
    fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R;

    /// Counts one arena call and whether it left the per-CPU cache.
    fn arena_call(&mut self, _slow: bool) {}
}

/// Tracing off: the untraced run.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _name: Name, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub parent: Option<u32>,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Log-linear histogram of nanosecond durations: exact below 1024 ns,
/// then 128 buckets per power of two (under 1 % relative error).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const EXACT: u64 = 1024;
const SUB_BITS: u32 = 7;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Hist::bucket(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (EXACT + u64::from(exp - EXACT.trailing_zeros()) * (1 << SUB_BITS) + sub) as usize
    }

    /// Lower bound of bucket `b`.
    fn value(b: usize) -> u64 {
        let b = b as u64;
        if b < EXACT {
            return b;
        }
        let exp = (b - EXACT) / (1 << SUB_BITS) + u64::from(EXACT.trailing_zeros());
        let sub = (b - EXACT) % (1 << SUB_BITS);
        (1 << exp) | (sub << (exp - u64::from(SUB_BITS)))
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (lower bucket bound), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Hist::value(b));
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Tracing on: one per worker thread.
pub struct Recorder {
    epoch: Instant,
    request: u64,
    request_slot: Option<u32>,
    storing: bool,
    /// Spans kept for the trace file.
    pub spans: Vec<Span>,
    /// Duration histogram per [`Name`] (indexed by discriminant).
    pub hists: Vec<Hist>,
    /// Spans recorded, kept or not.
    pub recorded: u64,
    /// Arena calls seen, and those that left the per-CPU cache.
    pub arena_calls: u64,
    pub arena_slow: u64,
    /// Client calls made inside traced requests.
    pub calls: u64,
    /// Shared-memory probe events inside traced requests.
    pub line_rmw: u64,
    pub lock_acquires: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            request: 0,
            request_slot: None,
            storing: false,
            spans: Vec::new(),
            hists: vec![Hist::default(); Name::ALL.len()],
            recorded: 0,
            arena_calls: 0,
            arena_slow: 0,
            calls: 0,
            line_rmw: 0,
            lock_acquires: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens request `id`, which started at `start`.
    pub fn begin(&mut self, id: u64, start: Instant) {
        self.request = id;
        self.storing = id.is_multiple_of(STORE_EVERY) && self.spans.len() < STORE_CAP;
        self.request_slot = None;
        if self.storing {
            self.request_slot = Some(self.spans.len() as u32);
            let start_ns = self.ns(start);
            self.spans.push(Span {
                request: id,
                parent: None,
                name: Name::Request,
                start_ns,
                end_ns: start_ns,
            });
        }
    }

    /// Closes the open request at `end`.
    pub fn end(&mut self, end: Instant) {
        self.recorded += 1;
        if let Some(slot) = self.request_slot.take() {
            let end_ns = self.ns(end);
            self.spans[slot as usize].end_ns = end_ns;
        }
    }

    /// Merged histogram of `name` across recorders.
    pub fn merged(recs: &[&Recorder], name: Name) -> Hist {
        let mut h = Hist::default();
        for r in recs {
            h.merge(&r.hists[name as usize]);
        }
        h
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    #[inline]
    fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.hists[name as usize].record(t1.duration_since(t0).as_nanos() as u64);
        self.recorded += 1;
        self.calls += 1;
        if self.storing && self.spans.len() < STORE_CAP {
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            self.spans.push(Span {
                request: self.request,
                parent: self.request_slot,
                name,
                start_ns,
                end_ns,
            });
        }
        r
    }

    fn arena_call(&mut self, slow: bool) {
        self.arena_calls += 1;
        self.arena_slow += u64::from(slow);
    }
}

/// Writes every kept span as CSV: one row per span, `parent` being the
/// row index of the parent span within the same worker (empty for a
/// request).
pub fn write_csv(path: &std::path::Path, recs: &[&Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "worker,span,request,parent,name,start_ns,end_ns")?;
    for (w, r) in recs.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{w},{i},{},{parent},{},{},{}",
                s.request,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_round_trip_and_order() {
        let mut last = 0;
        for v in [0, 1, 1023, 1024, 1025, 2047, 2048, 5000, 1 << 20, u64::MAX] {
            let b = Hist::bucket(v);
            assert!(b >= last, "buckets must be monotone");
            last = b;
            let lo = Hist::value(b);
            assert!(lo <= v, "{v}: bucket floor {lo}");
            assert!(v - lo <= v / 128 + 1, "{v}: bucket floor {lo} too coarse");
        }
    }

    #[test]
    fn hist_quantiles() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(Hist::default().quantile(0.5), None);
    }
}
