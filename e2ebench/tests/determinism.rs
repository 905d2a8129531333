//! With one worker and a fixed seed, two traced runs of the same fixed
//! number of requests give identical per-layer counts.

use e2ebench::{run, Opts, Report, Workload};

/// Per-layer metrics that are counts (or ratios of counts), not times.
fn counts(report: &Report) -> Vec<(String, f64)> {
    assert!(report.correct(), "{:?}", report.errors);
    let timed = |name: &str| {
        name.contains("_ns")
            || name.starts_with("host.")
            || name == "trace.overhead_ops_per_s"
            || name == "harness.wait_frac"
    };
    let mut c: Vec<(String, f64)> = report
        .metrics
        .iter()
        .filter(|m| !timed(&m.name))
        .map(|m| (m.name.clone(), m.value))
        .collect();
    c.push(("attempted".into(), report.attempted as f64));
    c.push(("failed".into(), report.failed as f64));
    c
}

fn check(workload: Workload) {
    let opts = Opts {
        workload,
        seed: 42,
        seconds: 60.0,
        trace: true,
        workers: 1,
        requests: Some(300),
    };
    let first = counts(&run(&opts));
    let second = counts(&run(&opts));
    assert_eq!(first, second, "{}", workload.name());
}

#[test]
fn streams_local_counts_repeat() {
    check(Workload::StreamsLocal);
}

#[test]
fn dlm_handoff_counts_repeat() {
    check(Workload::DlmHandoff);
}

#[test]
fn grow_shrink_counts_repeat() {
    check(Workload::GrowShrink);
}

#[test]
fn dlm_handoff_hardened_counts_repeat() {
    check(Workload::DlmHandoffHardened);
}
