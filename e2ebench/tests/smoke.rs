//! A short run of every workload, traced and untraced: every named
//! metric is reported, finite, with its unit, and `BENCHMARK.json` names
//! the same workloads and metrics.

use e2ebench::{nproc, per_layer_metrics, run, Opts, Report, Workload, END_TO_END};

fn short_run(workload: Workload, trace: bool) -> Report {
    let report = run(&Opts {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        workers: nproc(),
        requests: None,
    });
    assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
    assert!(report.attempted >= 1, "{}", workload.name());
    report
}

/// The report has exactly the `expected` metrics, each finite, with its
/// unit, and each in the result line.
fn assert_metrics(workload: Workload, report: &Report, expected: &[(String, &str)]) {
    let w = workload.name();
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names.len(), expected.len(), "{w}: {names:?}");
    let json = report.json();
    assert!(json.starts_with("{\"correct\": true, "), "{w}: {json}");
    for (name, unit) in expected {
        let m = report
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{w}: {name} not reported"));
        assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
        assert_eq!(m.unit, *unit, "{w}: {name} unit");
        let printed = format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
        assert!(json.contains(&printed), "{w}: {name} not printed in {json}");
    }
}

#[test]
fn every_workload_prints_every_metric() {
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for w in Workload::ALL {
        let untraced = short_run(w, false);
        assert_metrics(w, &untraced, &e2e);
        for m in &untraced.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} must never be 0",
                w.name(),
                m.name
            );
        }
        assert_metrics(w, &short_run(w, true), &per_layer_metrics());
    }
}

/// Every string value of `key` in `text`, in order.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("a closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let layers = per_layer_metrics();
    let names: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .chain(END_TO_END.iter().map(|m| m.0.to_string()))
        .chain(layers.iter().map(|m| m.0.clone()))
        .collect();
    assert_eq!(values(&text, "name"), names);
    let units: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(layers.iter().map(|m| m.1))
        .collect();
    assert_eq!(values(&text, "unit"), units);
}
