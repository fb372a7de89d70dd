//! Metric names, the per-run outcome and its JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_s", "s"),
    ("mcell_steps_per_s", "Mcell/s"),
    ("ckpt_write_s", "s"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The six sweep axes in layout order, as named in the sweep metrics.
pub const AXES: [&str; 6] = ["x", "y", "z", "ux", "uy", "uz"];

/// The three kernel variants, as named in the sweep metrics.
pub const EXECS: [&str; 3] = ["scalar", "simd", "lat"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for axis in AXES {
        for exec in EXECS {
            out.push((format!("sweep.{axis}.{exec}.s"), "s"));
        }
    }
    for axis in AXES {
        out.push((format!("sweep.{axis}.gflops"), "GFLOP/s"));
    }
    let fixed: [(&str, &'static str); 34] = [
        ("sweep.flops_per_cell", "flop"),
        ("sweep.bytes_per_cell", "B"),
        ("sweep.subnormal_frac.max", "ratio"),
        ("sweep.subnormal_frac.mean", "ratio"),
        ("sweep.x.dist_sync.s", "s"),
        ("sweep.x.dist_overlap.s", "s"),
        ("sweep.x.serial.s", "s"),
        ("sweep.x.dist_over_serial", "ratio"),
        ("comm.ghost_exchange.s", "s"),
        ("comm.msgs_per_step", "count"),
        ("comm.bytes_per_step", "B"),
        ("comm.rank_skew.s", "s"),
        ("moments.density.s", "s"),
        ("poisson.periodic.s", "s"),
        ("poisson.dist_slab.s", "s"),
        ("poisson.dist_pencil.s", "s"),
        ("poisson.isolated.s", "s"),
        ("fields.deposit.s", "s"),
        ("fields.sample.s", "s"),
        ("nbody.tree.s", "s"),
        ("nbody.pm.s", "s"),
        ("nbody.kick_drift.s", "s"),
        ("ckpt.encode.s", "s"),
        ("ckpt.commit.s", "s"),
        ("ckpt.load.s", "s"),
        ("ckpt.bytes", "B"),
        ("ckpt.ratio", "ratio"),
        ("stepper.steps", "count"),
        ("stepper.residual.s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_pct", "%"),
        ("bucket.vlasov.agreement", "ratio"),
        ("bucket.pm.agreement", "ratio"),
        ("step_s.traced", "s"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Metric values keyed by name, in a stable order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Output checks: how many were attempted and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; remember a description of it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The result object: `correct`, `attempted`, `failed` and the metrics the
/// run mode owes, each with its unit. Missing or non-finite values count as
/// failed checks, so a broken measurement cannot pass as a number.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let wanted: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut attempted = outcome.checks.attempted;
    let mut failed = outcome.checks.failures.len() as u64;
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        attempted += 1;
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            _ => {
                failed += 1;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form.
/// (`{:?}` writes exponents as `1e-7`, which JSON accepts).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn missing_metric_fails_the_run() {
        let outcome = Outcome::default();
        let line = result_line(&outcome, false);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_numbers_round_trip() {
        for v in [0.0, 1.5, 1e-7, 123456.789, 3.0e20] {
            assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
        }
    }
}
