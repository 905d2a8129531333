//! End-to-end benchmark of the kmem allocator on the paper's workloads.
//!
//! One command runs a named workload through the full [`kmem::KmemArena`]
//! on real threads, one closed-loop worker per core, checks that every
//! output is correct, and prints its metrics by name with their units.
//! With `--trace 0` it prints the end-to-end metrics ([`END_TO_END`]);
//! with `--trace 1` a separate traced run prints the per-layer metrics
//! ([`PER_LAYER`]). The benchmark reaches every layer from outside,
//! through its public functions, and reads the arena's counters only as
//! [`kmem::KmemArena::snapshot`] deltas taken outside the timed phase.
//!
//! The workloads, and why each is here:
//!
//! * `streams_local` ([`streams`]): the paper's best case, almost all
//!   per-CPU; it shows fast-path gains and predicts no change for work
//!   on the lower layers.
//! * `dlm_handoff` ([`dlm`]): blocks freed on another CPU than the one
//!   that allocated them, so chains flow through the global layer.
//! * `grow_shrink` ([`grow`]): live sets far beyond the caches, so the
//!   page, vmblk and physical layers do the work.
//! * `dlm_handoff_hardened`: the `dlm_handoff` inputs on the hardened
//!   profile, pricing its defenses against `dlm_handoff`.

pub mod dlm;
pub mod grow;
pub mod ledger;
pub mod stats;
pub mod streams;
pub mod tags;
pub mod trace;
pub mod workers;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kmem::{KmemArena, KmemConfig, KmemSnapshot};
use kmem_dlm::Dlm;
use kmem_vm::PAGE_SIZE;

use stats::{nearest_rank, quartiles};
use trace::{Name, Recorder};
use workers::{finish_all, run_phase, warm_up, Calls, Client, Stop, Waits, WorkerRun};

/// End-to-end metrics (`--trace 0`): name and unit. `ops_per_s`,
/// `p50_us` and `p99_us` are medians over the timed phase's
/// [`workers::SLICES`] time slices, and `setup_s` is the median over
/// [`SETUPS`] set-ups.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "calls/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_frac", "ratio"),
    ("peak_phys_mb", "MiB"),
    ("setup_s", "s"),
];

/// Ledger rows: each is reported as `<name>`, `<name>_iqr` (one thread)
/// and `<name>_nproc`, `<name>_nproc_iqr` (one thread per core).
pub const LEDGER: [&str; 5] = [
    "percpu.pair_ns",
    "hardened.pair_ns",
    "global.chain_ns",
    "page.chain_ns",
    "vmblk.span_ns",
];

/// Per-layer metrics (`--trace 1`) other than the ledger rows: name and
/// unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("streams.allocb_ns", "ns"),
    ("streams.freemsg_ns", "ns"),
    ("dlm.lock_ns", "ns"),
    ("dlm.unlock_ns", "ns"),
    ("dlm.wait_frac", "ratio"),
    ("arena.alloc_ns", "ns"),
    ("arena.free_ns", "ns"),
    ("arena.slow_frac", "ratio"),
    ("percpu.hit_ratio", "ratio"),
    ("percpu.refills_per_kop", "1/kop"),
    ("percpu.flush_blocks_per_kop", "1/kop"),
    ("global.gets_per_kop", "1/kop"),
    ("global.puts_per_kop", "1/kop"),
    ("global.slow_frac", "ratio"),
    ("global.chain_hit_ratio", "ratio"),
    ("global.cas_retries_per_kop", "1/kop"),
    ("page.refills_per_kop", "1/kop"),
    ("page.acquires_per_kop", "1/kop"),
    ("page.releases_per_kop", "1/kop"),
    ("page.cas_retries_per_kop", "1/kop"),
    ("vmblk.large_per_kop", "1/kop"),
    ("vmblk.cache_hit_ratio", "ratio"),
    ("vm.peak_frames", "count"),
    ("vm.frames_returned_frac", "ratio"),
    ("pressure.escalations", "count"),
    ("percpu.alloc_fail", "count"),
    ("percpu.sleep_retries", "count"),
    ("smp.line_rmw_per_op", "1/op"),
    ("smp.lock_acquires_per_op", "1/op"),
    ("host.nproc", "count"),
    ("host.clock_read_ns", "ns"),
    ("host.clock_share", "ratio"),
    ("host.parallel_cores", "cores"),
    ("harness.waits_per_req", "1/req"),
    ("harness.wait_frac", "ratio"),
    ("trace.overhead_ops_per_s", "calls/s"),
    ("trace.spans", "count"),
    ("ledger.class_bytes", "B"),
];

/// Every per-layer metric name with its unit, ledger rows included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for row in LEDGER {
        for suffix in ["", "_iqr", "_nproc", "_nproc_iqr"] {
            all.push((format!("{row}{suffix}"), "ns"));
        }
    }
    all
}

/// Arenas built per run; `setup_s` is their median set-up time.
pub const SETUPS: usize = 15;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamsLocal,
    DlmHandoff,
    GrowShrink,
    DlmHandoffHardened,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamsLocal,
        Workload::DlmHandoff,
        Workload::GrowShrink,
        Workload::DlmHandoffHardened,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamsLocal => "streams_local",
            Workload::DlmHandoff => "dlm_handoff",
            Workload::GrowShrink => "grow_shrink",
            Workload::DlmHandoffHardened => "dlm_handoff_hardened",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase (split in two halves, untraced then
    /// traced, with `trace`).
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads: one per core from the command line.
    pub workers: usize,
    /// Stop each phase after this many requests per worker instead of
    /// after `seconds` (deterministic runs; not settable from the
    /// command line).
    pub requests: Option<u64>,
}

pub const USAGE: &str = "usage: e2ebench --workload <streams_local|dlm_handoff|grow_shrink|\
dlm_handoff_hardened|all> --seed <n> --seconds <s> --trace <0|1>";

impl Opts {
    /// Parses the command line. `--workload all` gives one `Opts` per
    /// workload, in [`Workload::ALL`] order.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Vec<Opts>, String> {
        let mut workloads = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workloads = Some(if value == "all" {
                        Workload::ALL.to_vec()
                    } else {
                        vec![Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?]
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("expected 0 < seconds <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workloads = workloads.ok_or("--workload is required")?;
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        let trace = trace.ok_or("--trace is required")?;
        Ok(workloads
            .into_iter()
            .map(|workload| Opts {
                workload,
                seed,
                seconds,
                trace,
                workers: nproc(),
                requests: None,
            })
            .collect())
    }
}

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measured cost of one `Instant::now()`, in ns (median of 5 batches).
pub fn clock_read_ns() -> f64 {
    const N: u32 = 100_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..N {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    quartiles(&samples).1
}

/// One metric in the result.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value rests on.
    pub samples: u64,
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// `attempted` reads at least 1: a run that attempted nothing failed
    /// its set-up and is reported as incorrect.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite: {value}"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Builds a workload's workers (and its lock manager, if any) over an
/// arena, for a worker count and seed.
type Build<C> = fn(&KmemArena, usize, u64) -> (Vec<C>, Option<Arc<Dlm>>);

/// One workload, from the benchmark's side.
struct Spec<C> {
    config: KmemConfig,
    build: Build<C>,
    /// Warm-up requests per worker.
    warm: u64,
    /// Span length the ledger times at the vmblk layer.
    span_pages: usize,
}

/// Runs the workload `opts` names.
pub fn run(opts: &Opts) -> Report {
    let w = opts.workers;
    match opts.workload {
        Workload::StreamsLocal => bench(
            opts,
            Spec {
                config: streams::arena_config(w),
                build: |a, w, s| (streams::build(a, w, s), None),
                warm: 4000,
                span_pages: 1,
            },
        ),
        Workload::DlmHandoff | Workload::DlmHandoffHardened => bench(
            opts,
            Spec {
                config: dlm::arena_config(
                    w,
                    (opts.workload == Workload::DlmHandoffHardened).then_some(opts.seed),
                ),
                build: |a, w, s| {
                    let (dlm, clients) = dlm::build(a, w, s);
                    (clients, Some(dlm))
                },
                warm: 3000,
                span_pages: 1,
            },
        ),
        Workload::GrowShrink => bench(
            opts,
            Spec {
                config: grow::arena_config(w),
                build: |a, w, s| (grow::build(a, w, s), None),
                warm: grow::round_requests(w),
                span_pages: grow::LARGE_SPAN_PAGES,
            },
        ),
    }
}

/// A built arena with its workers.
struct Rig<C> {
    arena: KmemArena,
    clients: Vec<C>,
    dlm: Option<Arc<Dlm>>,
}

fn set_up<C: Client>(opts: &Opts, spec: &Spec<C>) -> Result<Rig<C>, String> {
    let arena = KmemArena::new(spec.config.clone()).map_err(|e| format!("arena: {e}"))?;
    let (mut clients, dlm) = (spec.build)(&arena, opts.workers, opts.seed);
    warm_up(&arena, &mut clients, spec.warm)?;
    Ok(Rig {
        arena,
        clients,
        dlm,
    })
}

/// Ends a run: every worker returns what it holds, the arena reclaims,
/// and every check runs. Returns the failed checks.
fn tear_down<C: Client>(rig: Rig<C>) -> Vec<String> {
    let Rig {
        arena,
        mut clients,
        dlm,
    } = rig;
    let mut errors = Vec::new();
    if let Err(e) = finish_all(&mut clients) {
        errors.push(e);
    }
    arena.reclaim();
    let snap = arena.snapshot();
    if let Err(e) = snap.check_quiescent() {
        errors.push(format!("snapshot: {e}"));
    }
    if snap.corruption_reports != 0 || snap.poison_hits != 0 {
        errors.push(format!(
            "hardened: {} corruption reports, {} poison hits",
            snap.corruption_reports, snap.poison_hits
        ));
    }
    if let Some(dlm) = &dlm {
        if let Err(e) = dlm::check_unlocked(dlm) {
            errors.push(e);
        }
    }
    if errors.is_empty() {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| kmem::verify::verify_empty(&arena))) {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            errors.push(format!("verify_empty: {msg}"));
        }
    }
    errors
}

/// Snapshot plus the physical pool's map/unmap totals.
fn counters(arena: &KmemArena) -> (KmemSnapshot, usize, usize) {
    let phys = arena.space().phys();
    (arena.snapshot(), phys.total_mapped(), phys.total_unmapped())
}

fn bench<C: Client>(opts: &Opts, spec: Spec<C>) -> Report {
    let mut report = Report::default();
    let nproc = nproc();
    let clock_ns = clock_read_ns();
    report.notes.push(format!(
        "e2ebench workload={} seed={} trace={} workers={} (closed loop) nproc={nproc} rustc=\"{}\" clock_read_ns={clock_ns:.1}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.workers,
        env!("E2EBENCH_RUSTC"),
    ));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let built = match set_up(opts, &spec) {
            Ok(r) => r,
            Err(e) => {
                report.errors.push(format!("set-up: {e}"));
                return report;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            report.errors.extend(tear_down(built));
        } else {
            rig = Some(built);
        }
    }
    let mut rig = rig.expect("at least one set-up");

    let stop = |share: f64| match opts.requests {
        Some(n) => Stop::Requests(n),
        None => Stop::After(Duration::from_secs_f64(opts.seconds * share)),
    };
    let (before, mapped0, unmapped0) = counters(&rig.arena);
    let dlm_before = rig.dlm.as_ref().map(|d| dlm_counts(d));
    let share = if opts.trace { 0.5 } else { 1.0 };
    let plain = run_phase(&rig.arena, &mut rig.clients, stop(share), None);
    let traced = opts.trace.then(|| {
        run_phase(
            &rig.arena,
            &mut rig.clients,
            stop(share),
            Some(Instant::now()),
        )
    });
    let (after, mapped1, unmapped1) = counters(&rig.arena);
    let dlm_after = rig.dlm.as_ref().map(|d| dlm_counts(d));

    for run in plain.iter().chain(traced.iter().flatten()) {
        if let Some(e) = &run.error {
            report.errors.push(e.clone());
        }
        report.attempted += run.calls.attempted;
        report.failed += run.calls.failed;
    }
    let delta = after.delta(&before);
    let ledger_shape = ledger_shape(&delta, spec.span_pages);
    report.errors.extend(tear_down(rig));

    let e2e = EndToEnd::of(&plain);
    report.notes.push(e2e.note("timed"));
    report.notes.push(format!(
        "harness waits in the timed phase: {} sleeps for a partner, {:.4} s, {:.4} of worker time",
        e2e.waits.count,
        e2e.waits.ns as f64 / 1e9,
        e2e.wait_frac
    ));
    match traced {
        None => {
            let (q1, setup_median, q3) = quartiles(&setup_s);
            report.notes.push(format!(
                "setup_s over {SETUPS} set-ups: median {setup_median:.4} (q1 {q1:.4}, q3 {q3:.4})"
            ));
            let requests = e2e.requests;
            report.metric("ops_per_s", "calls/s", e2e.ops_per_s, e2e.calls.attempted);
            report.metric("p50_us", "us", e2e.p50_ns / 1e3, requests);
            report.metric("p99_us", "us", e2e.p99_ns / 1e3, requests);
            let ok = 1.0 - ratio(e2e.calls.failed as f64, e2e.calls.attempted as f64);
            report.metric("ok_frac", "ratio", ok, e2e.calls.attempted);
            let peak_mb = (e2e.peak_frames * PAGE_SIZE) as f64 / f64::from(1u32 << 20);
            report.metric("peak_phys_mb", "MiB", peak_mb, requests);
            report.metric("setup_s", "s", setup_median, SETUPS as u64);
        }
        Some(traced) => {
            let t = EndToEnd::of(&traced);
            report.notes.push(t.note("traced"));
            let recs: Vec<&Recorder> = traced.iter().filter_map(|r| r.recorder.as_ref()).collect();
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.csv", opts.workload.name()));
            match trace::write_csv(&path, &recs) {
                Ok(()) => report
                    .notes
                    .push(format!("spans written to {}", path.display())),
                Err(e) => report
                    .errors
                    .push(format!("writing {}: {e}", path.display())),
            }
            let layers = Layers {
                delta: &delta,
                frames: (mapped1 - mapped0, unmapped1 - unmapped0),
                dlm: dlm_before.zip(dlm_after),
                recs: &recs,
                clock_ns,
                peak_frames: e2e.peak_frames.max(t.peak_frames),
            };
            layers.report(&mut report);
            report.metric("host.nproc", "count", nproc as f64, 1);
            report.metric("host.clock_read_ns", "ns", clock_ns, 5);
            report.metric(
                "host.clock_share",
                "ratio",
                ratio(clock_ns, e2e.p50_ns),
                e2e.requests,
            );
            report.metric(
                "trace.overhead_ops_per_s",
                "calls/s",
                t.ops_per_s - e2e.ops_per_s,
                t.calls.attempted,
            );
            report.metric(
                "harness.waits_per_req",
                "1/req",
                ratio(e2e.waits.count as f64, e2e.requests as f64),
                e2e.requests,
            );
            report.metric("harness.wait_frac", "ratio", e2e.wait_frac, e2e.requests);
            let spans: u64 = recs.iter().map(|r| r.recorded).sum();
            report.metric("trace.spans", "count", spans as f64, spans);
            report.metric("ledger.class_bytes", "B", ledger_shape.class_size as f64, 1);
            report.notes.push(format!("ledger shape: {ledger_shape:?}"));
            let ledger = ledger::run(ledger_shape, nproc);
            report.notes.push(format!(
                "ledger: {nproc} spinning threads got {:.2} cores at once",
                ledger.parallel_cores
            ));
            report.metric(
                "host.parallel_cores",
                "cores",
                ledger.parallel_cores,
                ledger::REPS as u64,
            );
            for row in ledger.rows {
                report.notes.push(format!(
                    "ledger {} threads={} median_ns={:.2} iqr_ns={:.2}{}",
                    row.metric,
                    row.threads,
                    row.median_ns,
                    row.iqr_ns,
                    if row.oversubscribed {
                        " oversubscribed"
                    } else {
                        ""
                    }
                ));
                let base = if row.per_core {
                    format!("{}_nproc", row.metric)
                } else {
                    row.metric.to_string()
                };
                report.metric(&base, "ns", row.median_ns, ledger::REPS as u64);
                report.metric(
                    &format!("{base}_iqr"),
                    "ns",
                    row.iqr_ns,
                    ledger::REPS as u64,
                );
            }
        }
    }
    for m in &report.metrics {
        report.notes.push(format!(
            "{} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        ));
    }
    report
}

/// The end-to-end figures of one phase. With time slices, the rate and
/// latency quantiles are medians over the slices; the `whole_` figures
/// cover the whole phase, from the earliest worker start to the latest
/// worker end.
struct EndToEnd {
    requests: u64,
    calls: Calls,
    elapsed_s: f64,
    slices: usize,
    ops_per_s: f64,
    p50_ns: f64,
    p99_ns: f64,
    whole_ops_per_s: f64,
    whole_p50_ns: f64,
    whole_p99_ns: f64,
    peak_frames: usize,
    waits: Waits,
    /// Share of the workers' time spent in harness waits.
    wait_frac: f64,
}

/// Median and 99th percentile of `lat` (sorted here), or `None` if empty.
fn p50_p99(lat: &mut [u32]) -> Option<(f64, f64)> {
    if lat.is_empty() {
        return None;
    }
    lat.sort_unstable();
    Some((
        f64::from(nearest_rank(lat, 0.5)),
        f64::from(nearest_rank(lat, 0.99)),
    ))
}

impl EndToEnd {
    fn of(runs: &[WorkerRun]) -> EndToEnd {
        let start = runs
            .iter()
            .map(|r| r.start)
            .min()
            .expect("at least one worker");
        let end = runs
            .iter()
            .map(|r| r.end)
            .max()
            .expect("at least one worker");
        let elapsed_s = end.duration_since(start).as_secs_f64();
        let mut calls = Calls::default();
        let mut waits = Waits::default();
        let mut worker_ns = 0.0;
        let mut lat: Vec<u32> = Vec::new();
        for r in runs {
            calls.add(r.calls);
            waits.add(r.waits);
            worker_ns += r.end.duration_since(r.start).as_nanos() as f64;
            lat.extend_from_slice(&r.latency_ns);
        }
        let requests = lat.len() as u64;
        let whole_ops_per_s = ratio(calls.attempted as f64, elapsed_s);
        let (whole_p50_ns, whole_p99_ns) = p50_p99(&mut lat).unwrap_or((0.0, 0.0));

        let slices = runs[0].slices.len();
        let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..slices {
            lat.clear();
            let mut slice_calls = 0;
            for r in runs {
                let end = r.slices.get(s + 1).map_or(r.latency_ns.len(), |n| n.first);
                lat.extend_from_slice(&r.latency_ns[r.slices[s].first..end]);
                slice_calls += r.slices[s].calls;
            }
            ops.push(slice_calls as f64 / runs[0].slice.as_secs_f64());
            if let Some((a, b)) = p50_p99(&mut lat) {
                p50.push(a);
                p99.push(b);
            }
        }
        let median = |v: &[f64], whole: f64| {
            if slices > 1 && !v.is_empty() {
                quartiles(v).1
            } else {
                whole
            }
        };
        EndToEnd {
            requests,
            calls,
            elapsed_s,
            slices,
            ops_per_s: median(&ops, whole_ops_per_s),
            p50_ns: median(&p50, whole_p50_ns),
            p99_ns: median(&p99, whole_p99_ns),
            whole_ops_per_s,
            whole_p50_ns,
            whole_p99_ns,
            peak_frames: runs.iter().map(|r| r.peak_frames).max().unwrap_or(0),
            waits,
            wait_frac: ratio(waits.ns as f64, worker_ns),
        }
    }

    /// A note on the phase's whole-phase figures.
    fn note(&self, phase: &str) -> String {
        format!(
            "{phase} phase: {:.3} s, {} requests, {} calls ({} failed), {} slices; \
             whole phase {:.0} calls/s, p50 {:.3} us, p99 {:.3} us",
            self.elapsed_s,
            self.requests,
            self.calls.attempted,
            self.calls.failed,
            self.slices,
            self.whole_ops_per_s,
            self.whole_p50_ns / 1e3,
            self.whole_p99_ns / 1e3,
        )
    }
}

/// DLM grants and waits so far.
fn dlm_counts(dlm: &Dlm) -> (u64, u64) {
    (dlm.stats().grants.get(), dlm.stats().waits.get())
}

/// The class the run allocated most from, with its parameters.
fn ledger_shape(delta: &KmemSnapshot, span_pages: usize) -> ledger::Shape {
    let (class, c) = delta
        .classes
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.cache_total().alloc)
        .expect("the arena has classes");
    ledger::Shape {
        class,
        class_size: c.size,
        target: c.target,
        gbltarget: c.gbltarget,
        span_pages,
    }
}

/// Inputs to the per-layer metrics of a traced run.
struct Layers<'a> {
    /// Counter deltas over both phases.
    delta: &'a KmemSnapshot,
    /// Physical frames mapped and unmapped over both phases.
    frames: (usize, usize),
    /// DLM (grants, waits) before and after.
    dlm: Option<((u64, u64), (u64, u64))>,
    recs: &'a [&'a Recorder],
    clock_ns: f64,
    peak_frames: usize,
}

impl Layers<'_> {
    fn report(&self, report: &mut Report) {
        let d = self.delta;
        // Span medians, less the one clock read each span's timing adds.
        let span = |report: &mut Report, metric: &str, name: Name| {
            let h = Recorder::merged(self.recs, name);
            let p50 = h
                .quantile(0.5)
                .map_or(0.0, |v| (v as f64 - self.clock_ns).max(0.0));
            report.metric(metric, "ns", p50, h.count());
        };
        span(report, "streams.allocb_ns", Name::Allocb);
        span(report, "streams.freemsg_ns", Name::Freemsg);
        span(report, "dlm.lock_ns", Name::Lock);
        span(report, "dlm.unlock_ns", Name::Unlock);
        let (grants, waits) = self
            .dlm
            .map_or((0, 0), |((g0, w0), (g1, w1))| (g1 - g0, w1 - w0));
        report.metric(
            "dlm.wait_frac",
            "ratio",
            ratio(waits as f64, (grants + waits) as f64),
            grants + waits,
        );
        span(report, "arena.alloc_ns", Name::Alloc);
        span(report, "arena.free_ns", Name::Free);
        let arena_calls: u64 = self.recs.iter().map(|r| r.arena_calls).sum();
        let arena_slow: u64 = self.recs.iter().map(|r| r.arena_slow).sum();
        report.metric(
            "arena.slow_frac",
            "ratio",
            ratio(arena_slow as f64, arena_calls as f64),
            arena_calls,
        );

        let mut cache = kmem::CacheCounts::default();
        let mut global = kmem::GlobalCounts::default();
        let mut page = kmem::PageCounts::default();
        for c in &d.classes {
            cache.merge(&c.cache_total());
            global.merge(&c.global);
            page.refills += c.page.refills;
            page.page_acquires += c.page.page_acquires;
            page.page_releases += c.page.page_releases;
            page.cas_retries += c.page.cas_retries;
        }
        let cache_ops = cache.alloc + cache.free;
        let ops = cache_ops + d.large_allocs + d.large_frees;
        let kops = ops as f64 / 1e3;
        let per_kop = |n: u64| ratio(n as f64, kops);
        let misses = cache.alloc_miss + cache.free_miss;
        report.metric(
            "percpu.hit_ratio",
            "ratio",
            1.0 - ratio(misses as f64, cache_ops as f64),
            cache_ops,
        );
        report.metric(
            "percpu.refills_per_kop",
            "1/kop",
            per_kop(cache.refill),
            ops,
        );
        report.metric(
            "percpu.flush_blocks_per_kop",
            "1/kop",
            per_kop(cache.flush_blocks),
            ops,
        );
        report.metric("global.gets_per_kop", "1/kop", per_kop(global.get), ops);
        report.metric("global.puts_per_kop", "1/kop", per_kop(global.put), ops);
        let global_ops = global.get + global.put;
        report.metric(
            "global.slow_frac",
            "ratio",
            ratio(
                (global.get_slow + global.put_slow) as f64,
                global_ops as f64,
            ),
            global_ops,
        );
        report.metric(
            "global.chain_hit_ratio",
            "ratio",
            ratio(global.get_chain_hits as f64, global.get as f64),
            global.get,
        );
        report.metric(
            "global.cas_retries_per_kop",
            "1/kop",
            per_kop(global.cas_retries),
            ops,
        );
        report.metric("page.refills_per_kop", "1/kop", per_kop(page.refills), ops);
        report.metric(
            "page.acquires_per_kop",
            "1/kop",
            per_kop(page.page_acquires),
            ops,
        );
        report.metric(
            "page.releases_per_kop",
            "1/kop",
            per_kop(page.page_releases),
            ops,
        );
        report.metric(
            "page.cas_retries_per_kop",
            "1/kop",
            per_kop(page.cas_retries),
            ops,
        );
        report.metric("vmblk.large_per_kop", "1/kop", per_kop(d.large_allocs), ops);
        report.metric(
            "vmblk.cache_hit_ratio",
            "ratio",
            ratio(d.vmblk_cache_hits as f64, page.page_acquires as f64).min(1.0),
            page.page_acquires,
        );
        report.metric("vm.peak_frames", "count", self.peak_frames as f64, 1);
        let (mapped, unmapped) = self.frames;
        report.metric(
            "vm.frames_returned_frac",
            "ratio",
            ratio(unmapped as f64, mapped as f64),
            mapped as u64,
        );
        let escalations: u64 = d.pressure_escalations.iter().sum();
        report.metric("pressure.escalations", "count", escalations as f64, 1);
        report.metric("percpu.alloc_fail", "count", cache.alloc_fail as f64, 1);
        report.metric(
            "percpu.sleep_retries",
            "count",
            cache.sleep_retries as f64,
            1,
        );
        let calls: u64 = self.recs.iter().map(|r| r.calls).sum();
        let rmw: u64 = self.recs.iter().map(|r| r.line_rmw).sum();
        let locks: u64 = self.recs.iter().map(|r| r.lock_acquires).sum();
        report.metric(
            "smp.line_rmw_per_op",
            "1/op",
            ratio(rmw as f64, calls as f64),
            calls,
        );
        report.metric(
            "smp.lock_acquires_per_op",
            "1/op",
            ratio(locks as f64, calls as f64),
            calls,
        );
    }
}
