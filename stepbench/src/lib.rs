//! The vlasov6d step benchmark: three workloads driven through the public
//! simulation APIs, their output checks, end-to-end metrics from untraced runs
//! and per-layer metrics from traced runs.
//!
//! * `hybrid-cosmo` — the serial [`vlasov6d::HybridSimulation`]
//!   (ν + CDM, TreePM, checkpoints): [`hybrid`].
//! * `dist-vlasov-2r` — the ν-only [`vlasov6d::DistributedVlasov`] on two
//!   `mpisim` ranks with overlapped ghost exchange: [`dist`].
//! * `king-sphere` — the serial [`vlasov6d::KineticSimulation`] of the
//!   self-gravitating King sphere, whose tails drive `f` through f32
//!   subnormals: [`king`].
//!
//! An untraced run repeats *set up → step to the fixed target → restore*
//! until the run's time is spent, and reports medians. A traced run makes
//! one such pass with per-step instrumentation, then replays every layer
//! ([`layers`]) on the final state.

pub mod dist;
pub mod host;
pub mod hybrid;
pub mod king;
pub mod layers;
pub mod report;

use std::path::{Path, PathBuf};
use std::time::Instant;

use host::median;
use report::{Checks, Metrics, Outcome};
use vlasov6d_ckpt::CkptStats;
use vlasov6d_obs::BucketTotals;
use vlasov6d_phase_space::Exec;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HybridCosmo,
    DistVlasov2r,
    KingSphere,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HybridCosmo,
        Workload::DistVlasov2r,
        Workload::KingSphere,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridCosmo => "hybrid-cosmo",
            Workload::DistVlasov2r => "dist-vlasov-2r",
            Workload::KingSphere => "king-sphere",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Grid sizes: the reference shapes, or tiny ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Reference,
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Time the untraced run keeps repeating its pass for.
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
    /// Directory the checkpoints go to (created, and removed afterwards).
    pub ckpt_dir: PathBuf,
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let _dir = CkptDir::create(&opts.ckpt_dir);
    match opts.workload {
        Workload::HybridCosmo => hybrid::run(opts),
        Workload::DistVlasov2r => dist::run(opts),
        Workload::KingSphere => king::run(opts),
    }
}

/// Removes the checkpoint directory when the run ends, however it ends.
struct CkptDir(PathBuf);

impl CkptDir {
    fn create(path: &Path) -> CkptDir {
        std::fs::create_dir_all(path).expect("create the checkpoint directory");
        CkptDir(path.to_path_buf())
    }
}

impl Drop for CkptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the parent too when this run was its last user.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Worker threads of a serial workload: two, as the reference host has, or
/// fewer where the host has fewer.
pub fn serial_threads() -> usize {
    host::nproc().min(2)
}

/// One checkpoint write, timed from outside.
#[derive(Debug, Clone)]
pub struct CkptSample {
    pub wall_s: f64,
    pub stats: CkptStats,
}

/// What the trace records about one step besides its time.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Subnormal `f` values after the step, over all ranks.
    pub subnormal: u64,
    /// The stepper's own four-bucket fold of the step.
    pub buckets: BucketTotals,
    /// Time spent in the benchmark's trace instrumentation for this step.
    pub overhead_s: f64,
    /// Messages and bytes the step sent (0 for the serial steppers).
    pub msgs: u64,
    pub bytes: u64,
    /// The stepper's own clock (`t` or `a`) after the step.
    pub t: f64,
}

/// One pass: set up, step to the target, restore.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub step_s: Vec<f64>,
    pub ckpts: Vec<CkptSample>,
    /// One entry per restore of the final checkpoint.
    pub restart_s: Vec<f64>,
    /// Filled by traced passes only, one entry per step.
    pub traces: Vec<StepTrace>,
    /// Traced passes: time of the checkpoint load alone.
    pub load_s: f64,
}

impl Pass {
    /// Stepping plus checkpoint time: the time to solution.
    pub fn run_s(&self) -> f64 {
        self.step_s.iter().sum::<f64>() + self.ckpts.iter().map(|c| c.wall_s).sum::<f64>()
    }
}

/// Restores of the final checkpoint per pass; each is timed and checked.
pub const RESTORES: usize = 2;

/// Repeat `pass` until `seconds` have gone (at least once), then make
/// extra set-ups until there are at least five set-up samples.
pub fn repeat_passes(
    seconds: f64,
    checks: &mut Checks,
    mut pass: impl FnMut(usize, &mut Checks) -> Pass,
    mut setup_only: impl FnMut() -> f64,
) -> (Vec<Pass>, Vec<f64>) {
    const MIN_SETUPS: usize = 5;
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass(passes.len(), checks));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only());
    }
    (passes, setups)
}

/// The end-to-end metrics of untraced passes over `cells` phase-space cells,
/// and a line per timing with its sample count and range.
pub fn end_to_end(
    passes: &[Pass],
    setups: &[f64],
    cells: usize,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let steps: Vec<f64> = passes.iter().flat_map(|p| p.step_s.clone()).collect();
    let ckpts: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ckpts.iter().map(|c| c.wall_s))
        .collect();
    let run: Vec<f64> = passes.iter().map(Pass::run_s).collect();
    let rate: Vec<f64> = passes
        .iter()
        .map(|p| (cells * p.step_s.len()) as f64 / p.step_s.iter().sum::<f64>() / 1e6)
        .collect();
    let restart: Vec<f64> = passes.iter().flat_map(|p| p.restart_s.clone()).collect();
    m.set("setup_s", median(setups));
    m.set("run_s", median(&run));
    m.set("step_s", median(&steps));
    m.set("mcell_steps_per_s", median(&rate));
    m.set("ckpt_write_s", median(&ckpts));
    m.set("restart_s", median(&restart));
    m.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    for (name, xs) in [
        ("setup_s", setups),
        ("run_s", &run[..]),
        ("step_s", &steps[..]),
        ("ckpt_write_s", &ckpts[..]),
        ("restart_s", &restart[..]),
    ] {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        notes.push(format!(
            "samples {name}: n = {}, min {:.4}, p25 {:.4}, median {:.4}, max {:.4}",
            v.len(),
            v[0],
            v[v.len() / 4],
            median(&v),
            v[v.len() - 1]
        ));
    }
    m
}

/// The benchmark's layer sums of one step, bucketed like the steppers' own
/// fold.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSum {
    pub vlasov: f64,
    pub tree: f64,
    pub pm: f64,
    pub other: f64,
}

impl LayerSum {
    pub fn total(&self) -> f64 {
        self.vlasov + self.tree + self.pm + self.other
    }
}

/// Metric name of a kernel variant.
pub fn exec_name(exec: Exec) -> &'static str {
    match exec {
        Exec::Scalar => "scalar",
        Exec::Simd => "simd",
        Exec::Lat => "lat",
    }
}

/// The trace-derived metrics of a traced pass: step count, subnormal
/// fractions, checkpoint layer, coverage, residual, overhead and the
/// per-bucket agreement with the stepper's own fold. Also appends the
/// per-step profile and the agreement table to `notes`.
pub fn trace_summary(pass: &Pass, cells: usize, sum: LayerSum, notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let n = pass.step_s.len();
    let fracs: Vec<f64> = pass
        .traces
        .iter()
        .map(|t| t.subnormal as f64 / cells as f64)
        .collect();
    m.set("stepper.steps", n as f64);
    m.set(
        "sweep.subnormal_frac.max",
        fracs.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "sweep.subnormal_frac.mean",
        fracs.iter().sum::<f64>() / n as f64,
    );

    let msgs: Vec<f64> = pass.traces.iter().map(|t| t.msgs as f64).collect();
    let bytes: Vec<f64> = pass.traces.iter().map(|t| t.bytes as f64).collect();
    m.set("comm.msgs_per_step", median(&msgs));
    m.set("comm.bytes_per_step", median(&bytes));

    let stat = |f: fn(&CkptStats) -> f64| {
        median(&pass.ckpts.iter().map(|c| f(&c.stats)).collect::<Vec<_>>())
    };
    m.set("ckpt.encode.s", stat(|s| s.encode_secs));
    m.set("ckpt.commit.s", stat(|s| s.write_secs));
    m.set("ckpt.bytes", stat(|s| s.file_bytes as f64));
    m.set("ckpt.ratio", stat(|s| s.compression_ratio()));
    m.set("ckpt.load.s", pass.load_s);

    let step_s = median(&pass.step_s);
    m.set("step_s.traced", step_s);
    m.set("stepper.residual.s", step_s - sum.total());
    m.set("trace.coverage", sum.total() / step_s);
    let overhead: f64 = pass.traces.iter().map(|t| t.overhead_s).sum();
    m.set(
        "trace.overhead_pct",
        100.0 * overhead / pass.step_s.iter().sum::<f64>(),
    );

    let bucket = |f: fn(&BucketTotals) -> f64| {
        median(
            &pass
                .traces
                .iter()
                .map(|t| f(&t.buckets))
                .collect::<Vec<_>>(),
        )
    };
    let own = LayerSum {
        vlasov: bucket(|b| b.vlasov),
        tree: bucket(|b| b.tree),
        pm: bucket(|b| b.pm),
        other: bucket(|b| b.other),
    };
    m.set("bucket.vlasov.agreement", sum.vlasov / own.vlasov);
    m.set("bucket.pm.agreement", sum.pm / own.pm);

    notes.push(format!(
        "buckets (s/step): {:<8} {:>10} {:>10} {:>9}",
        "bucket", "layers", "stepper", "agree"
    ));
    for (name, ours, theirs) in [
        ("vlasov", sum.vlasov, own.vlasov),
        ("tree", sum.tree, own.tree),
        ("pm", sum.pm, own.pm),
        ("other", sum.other, own.other),
    ] {
        let agree = if theirs > 0.0 {
            format!("{:.3}", ours / theirs)
        } else {
            "n/a".to_string()
        };
        notes.push(format!(
            "buckets (s/step): {name:<8} {ours:>10.5} {theirs:>10.5} {agree:>9}"
        ));
    }
    notes.push("profile: step  t_or_a  step_s  subnormal  subnormal_frac".to_string());
    for (i, (t, s)) in pass.traces.iter().zip(&pass.step_s).enumerate() {
        notes.push(format!(
            "profile: {:>4} {:>9.5} {:>8.4} {:>10} {:>10.6}",
            i + 1,
            t.t,
            s,
            t.subnormal,
            t.subnormal as f64 / cells as f64
        ));
    }
    m
}

/// Do two phase-space arrays hold the same bits?
pub fn bitwise_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
