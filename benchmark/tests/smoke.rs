//! Runs the benchmark binary on small worlds (`--smoke`) for every workload.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["audit-clean", "audit-chaos", "storage-rw", "epoch-registry"];

/// Window of a smoke run: a few ops of each workload.
const SECONDS: &str = "0.2";

struct Run {
    correct: bool,
    attempted: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// The string values that follow each `"key": "` in `text`, in order.
fn quoted_after(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// Parses the benchmark's result line, whose shape it fixes:
/// `{"correct": b, "attempted": n, "failed": n, "metrics": {"name": {"value": x, "unit": "u"}, …}}`.
fn parse_result_line(line: &str) -> Run {
    let field = |key: &str| {
        let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let rest = &line[start..];
        rest[..rest.find([',', '}']).expect("field end")].to_string()
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let entry = entry.trim_start_matches('{');
        let name = &entry[1..entry[1..].find('"').expect("name end") + 1];
        let value_at = entry.find("\"value\": ").expect("value") + 9;
        let value: f64 = entry[value_at..entry.find(", \"unit\"").expect("unit")]
            .parse()
            .expect("numeric value");
        let unit = quoted_after(entry, "unit").remove(0);
        metrics.insert(name.to_string(), (value, unit));
    }
    Run {
        correct: field("correct") == "true",
        attempted: field("attempted").parse().expect("attempted"),
        metrics,
    }
}

fn run_benchmark(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--smoke", "--seconds", SECONDS])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("SECCLOUD_THREADS", "1")
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse_result_line(stdout.lines().last().expect("a result line"))
}

fn metric_value(run: &Run, name: &str) -> f64 {
    run.metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .0
}

/// The metrics that must repeat exactly under one seed: counts, not times.
const COUNTS: [&str; 6] = [
    "pairing.secret_hits_per_op",
    "pairing.public_hits_per_op",
    "chaos.faults_per_op",
    "resilience.attempts_per_op",
    "resilience.transient_faults_per_op",
    "net.calls_per_op",
];

#[test]
fn every_workload_passes_its_checks_and_repeats_under_one_seed() {
    for workload in WORKLOADS {
        let (a, b) = (
            run_benchmark(workload, 1, true),
            run_benchmark(workload, 1, true),
        );
        assert!(a.correct && b.correct, "{workload}");
        assert!(a.attempted > 0, "{workload}");
        assert_eq!(a.attempted, b.attempted, "{workload}");
        for name in COUNTS {
            assert_eq!(
                metric_value(&a, name),
                metric_value(&b, name),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn a_second_seed_draws_a_different_chaos_plan() {
    let plan = |r: &Run| {
        [
            "chaos.faults_per_op",
            "resilience.transient_faults_per_op",
            "net.reconnects_per_op",
            "resilience.attempts_per_op",
        ]
        .map(|name| metric_value(r, name))
    };
    let (one, two) = (
        run_benchmark("audit-chaos", 1, true),
        run_benchmark("audit-chaos", 2, true),
    );
    assert!(metric_value(&one, "chaos.faults_per_op") > 0.0);
    assert_ne!(plan(&one), plan(&two));
}

#[test]
fn every_metric_in_benchmark_json_is_printed_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e_at = spec.find("\"end_to_end\"").expect("end_to_end");
    let layer_at = spec.find("\"per_layer\"").expect("per_layer");
    assert!(e2e_at < layer_at, "end_to_end comes before per_layer");
    let declared = |section: &str| {
        quoted_after(section, "name")
            .into_iter()
            .zip(quoted_after(section, "unit"))
            .collect::<Vec<_>>()
    };
    let e2e = declared(&spec[e2e_at..layer_at]);
    let layer = declared(&spec[layer_at..]);
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, metrics) in [(false, &e2e), (true, &layer)] {
            let printed = run_benchmark(workload, 1, trace).metrics;
            assert_eq!(printed.len(), metrics.len(), "{workload} trace={trace}");
            for (name, unit) in metrics {
                let (_, got) = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert_eq!(got, unit, "{workload}: {name}");
            }
        }
    }
}

#[test]
fn unknown_arguments_exit_with_usage_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
