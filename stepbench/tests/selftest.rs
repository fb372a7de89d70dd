//! Self-test: every workload at a tiny shape, untraced and traced, passes
//! its output checks and emits every metric `BENCHMARK.json` names, each a
//! finite number.

use std::path::PathBuf;

use vlasov6d_stepbench::report::{per_layer, result_line, END_TO_END};
use vlasov6d_stepbench::{run, Options, Shape, Workload};

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        shape: Shape::Tiny,
        ckpt_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "selftest-{}-{}",
            workload.name(),
            trace as u8
        )),
    }
}

fn emits_every_metric(workload: Workload) {
    for trace in [false, true] {
        let outcome = run(&options(workload, trace));
        assert!(
            outcome.checks.failures.is_empty(),
            "{} trace={trace}: failed checks {:?}",
            workload.name(),
            outcome.checks.failures
        );
        assert!(outcome.checks.attempted > 0);
        let wanted: Vec<String> = if trace {
            per_layer().into_iter().map(|(n, _)| n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
        };
        for name in &wanted {
            let value = outcome.metrics.get(name);
            assert!(
                value.is_some_and(f64::is_finite),
                "{} trace={trace}: {name} = {value:?}",
                workload.name()
            );
        }
        let line = result_line(&outcome, trace);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
    }
}

#[test]
fn hybrid_cosmo_emits_every_metric() {
    emits_every_metric(Workload::HybridCosmo);
}

#[test]
fn dist_vlasov_2r_emits_every_metric() {
    emits_every_metric(Workload::DistVlasov2r);
}

#[test]
fn king_sphere_emits_every_metric() {
    emits_every_metric(Workload::KingSphere);
}

/// The names listed under `key` in `BENCHMARK.json` (a flat scan: every
/// `"name": "…"` between `key` and the next top-level key).
fn declared(json: &str, key: &str, next: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = json[start..]
        .find(&format!("\"{next}\""))
        .map_or(json.len(), |i| start + i);
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_runs_emit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared(&json, "end_to_end", "per_layer"), end_to_end);
    let per_layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared(&json, "per_layer", "workloads"), per_layer);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared(&json, "workloads", "end_to_end"), workloads);
}
