//! `hybrid-cosmo`: the serial hybrid stepper — ν Vlasov + CDM TreePM, one
//! shared gravity solve per step, a checkpoint every few steps and a restore
//! at the end. The only workload on the tree, PM and particle layers.

use vlasov6d::{HybridSimulation, SimulationConfig};
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_obs::BucketTotals;
use vlasov6d_phase_space::moments;
use vlasov6d_poisson::PoissonSolver;

use crate::host::{fingerprint, timed};
use crate::layers::{self, DistReplay, Serial, StepFactors};
use crate::report::{Checks, Metrics, Outcome};
use crate::{
    bitwise_equal, end_to_end, repeat_passes, serial_threads, trace_summary, CkptSample, LayerSum,
    Options, Pass, Shape, StepTrace, RESTORES,
};

/// Redshift every pass steps to, from `z = 10` (four CFL-limited steps at
/// the reference shape).
fn z_target(shape: Shape) -> f64 {
    match shape {
        Shape::Reference => 9.2,
        Shape::Tiny => 9.0,
    }
}

fn config(opts: &Options) -> SimulationConfig {
    // The tiny shape keeps 6 x-planes per rank in the two-rank replays: the
    // lane kernels need lines of at least 2 · GHOST cells.
    let (nx, nu, n_pm, n_cdm) = match opts.shape {
        Shape::Reference => (16, 16, 32, 16),
        Shape::Tiny => (12, 8, 16, 8),
    };
    SimulationConfig {
        nx,
        nu,
        n_pm,
        n_cdm,
        seed: opts.seed,
        checkpoint_every_steps: 4,
        checkpoint_keep: 2,
        ..SimulationConfig::small_test()
    }
}

pub fn run(opts: &Options) -> Outcome {
    let cfg = config(opts);
    let mut out = Outcome {
        notes: fingerprint(cfg.phase_space_bytes()),
        ..Outcome::default()
    };
    let cells = cfg.n_phase_space();
    let threads = serial_threads();
    if opts.trace {
        let (pass, mut m, dist) = rayon::with_num_threads(threads, || {
            let (pass, sim) = pass(opts, &cfg, 0, true, &mut out.checks);
            let (m, dist) = replay(&sim, &pass);
            (pass, m, dist)
        });
        m.extend(dist.run());
        let sum = layer_sum(&m, &cfg);
        m.extend(trace_summary(&pass, cells, sum, &mut out.notes));
        out.metrics = m;
    } else {
        let (passes, setups) = rayon::with_num_threads(threads, || {
            repeat_passes(
                opts.seconds,
                &mut out.checks,
                |i, checks| pass(opts, &cfg, i, false, checks).0,
                || timed(|| HybridSimulation::new(cfg.clone())).1,
            )
        });
        out.metrics = end_to_end(&passes, &setups, cells, &mut out.notes);
    }
    out
}

/// One pass: build, step to the target with checkpoints, restore.
fn pass(
    opts: &Options,
    cfg: &SimulationConfig,
    index: usize,
    trace: bool,
    checks: &mut Checks,
) -> (Pass, HybridSimulation) {
    let (mut sim, setup_s) = timed(|| HybridSimulation::new(cfg.clone()));
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let store = CheckpointStore::new(opts.ckpt_dir.join(format!("pass{index}")));
    let a_target = 1.0 / (1.0 + z_target(opts.shape));
    let policy = cfg.checkpoint_policy();
    while sim.a < a_target - 1e-9 {
        let ((), secs) = timed(|| {
            sim.step();
        });
        pass.step_s.push(secs);
        let f = sim
            .neutrinos
            .as_ref()
            .expect("the hybrid run carries neutrinos");
        let (finite, f_min) = layers::finite_min(f.as_slice());
        checks.check(finite && f_min >= 0.0, || {
            format!(
                "step {}: f finite = {finite}, f_min = {f_min}",
                sim.step_count
            )
        });
        if trace {
            let (subnormal, overhead_s) = timed(|| layers::subnormal_count(f.as_slice()));
            let record = sim.records.last().expect("a step leaves a record");
            pass.traces.push(StepTrace {
                subnormal,
                buckets: BucketTotals::from(record.timers),
                overhead_s,
                t: sim.a,
                ..StepTrace::default()
            });
        }
        if policy.due(sim.step_count as u64) {
            write_checkpoint(&sim, &store, &mut pass, checks);
        }
    }
    // The final state is always on disk, so the restore reproduces it.
    if !policy.due(sim.step_count as u64) {
        write_checkpoint(&sim, &store, &mut pass, checks);
    }
    if trace {
        let (loaded, load_s) = timed(|| store.load_serial());
        checks.check(loaded.is_ok(), || format!("checkpoint load: {loaded:?}"));
        pass.load_s = load_s;
    }
    let written = sim.neutrinos.clone().expect("neutrinos");
    let (a, steps) = (sim.a, sim.step_count);
    for _ in 0..RESTORES {
        let (restored, restart_s) = timed(|| sim.restore_checkpoint(&store));
        pass.restart_s.push(restart_s);
        let same_f = sim
            .neutrinos
            .as_ref()
            .is_some_and(|f| bitwise_equal(f.as_slice(), written.as_slice()));
        checks.check(
            restored.is_ok() && same_f && sim.a.to_bits() == a.to_bits() && sim.step_count == steps,
            || {
                format!(
                    "restore: {restored:?}, f bitwise = {same_f}, a {} vs {a}",
                    sim.a
                )
            },
        );
    }
    (pass, sim)
}

fn write_checkpoint(
    sim: &HybridSimulation,
    store: &CheckpointStore,
    pass: &mut Pass,
    checks: &mut Checks,
) {
    let (stats, wall_s) = timed(|| sim.save_checkpoint(store));
    checks.check(stats.is_ok(), || format!("checkpoint write: {stats:?}"));
    if let Ok(stats) = stats {
        pass.ckpts.push(CkptSample { wall_s, stats });
    }
}

/// Replay every serial layer on the final state with the last step's
/// factors; returns the distributed replays still to run.
fn replay(sim: &HybridSimulation, pass: &Pass) -> (Metrics, DistReplay) {
    let mut m = Metrics::default();
    let cfg = &sim.config;
    let f = sim.neutrinos.as_ref().expect("neutrinos");
    let cdm = sim.cdm.as_ref().expect("the hybrid run carries CDM");
    let bg = &sim.background;
    let a2 = sim.a;
    let a1 = pass
        .traces
        .iter()
        .rev()
        .nth(1)
        .map_or(1.0 / (1.0 + cfg.z_init), |t| t.t);
    let am = bg.a_of_time(0.5 * (bg.time_of_a(a1) + bg.time_of_a(a2)));
    let factors = StepFactors {
        k1: bg.kick_factor(a1, am),
        k2: bg.kick_factor(am, a2),
        drift: bg.drift_factor(a1, a2),
    };

    layers::density(&Serial, f, &mut m);
    let rho_nu = moments::density(f);
    let pm_dims = [cfg.n_pm; 3];
    let rho_nu_pm = vlasov6d::fields::deposit_density_to_pm(&rho_nu, pm_dims);
    let mut rho_pm = rho_nu_pm.clone();
    rho_pm.axpy(
        1.0,
        &vlasov6d::fields::particle_density(&cdm.pos, cdm.mass, pm_dims),
    );
    let source = layers::mean_free(&rho_pm);
    let solver = PoissonSolver::cubic(cfg.n_pm).with_cic_deconvolution();
    let force_pm = layers::periodic_poisson(&solver, &source, 1.5 / a2, &mut m);
    layers::fields_layer(&rho_nu, cdm, &force_pm, &mut m);
    let force = force_pm.map(|f| vlasov6d::fields::sample_at_coarse_centers(&f, [cfg.nx; 3]));
    let spatial = layers::spatial_cfl(f, factors.drift);
    let velocity = layers::velocity_cfl(f, &force, factors.k1);
    layers::sweeps(
        &Serial, f, &spatial, &velocity, cfg.scheme, cfg.exec, 1, &mut m,
    );
    layers::isolated_poisson(&rho_nu, 1.0, &mut m);
    layers::nbody(cdm, &rho_nu_pm, cfg.softening(), a2, factors, &mut m);
    let dist = DistReplay {
        f: f.clone(),
        cfl_x: spatial[0].clone(),
        scheme: cfg.scheme,
        production: cfg.exec,
        source,
    };
    (m, dist)
}

/// Layer times of one hybrid step: three spatial and six velocity sweeps,
/// one density moment, one PM deposit, solve and sample for the ν force,
/// the CDM TreePM and the particle kicks and drift.
fn layer_sum(m: &Metrics, cfg: &SimulationConfig) -> LayerSum {
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    LayerSum {
        vlasov: layers::strang_sweeps(m, cfg.exec),
        tree: get("nbody.tree.s"),
        pm: get("moments.density.s")
            + get("fields.deposit.s")
            + get("poisson.periodic.s")
            + get("fields.sample.s")
            + get("nbody.pm.s"),
        other: get("nbody.kick_drift.s"),
    }
}
