//! `king-sphere`: the serial kinetic engine on the self-gravitating King
//! sphere — isolated gravity, static time. The same sweep kernels as the
//! hybrid run on different values: the sphere's tails push `f` through f32
//! subnormals and back out again over the run.
//!
//! The King sphere's initial condition has no random part, so the seed does
//! not change it.

use vlasov6d::scenario::king::king_sphere_with;
use vlasov6d::{KineticDiag, KineticScenario, KineticSimulation};
use vlasov6d_ckpt::CheckpointStore;
use vlasov6d_obs::StepScope;
use vlasov6d_phase_space::moments;
use vlasov6d_poisson::PoissonSolver;

use crate::host::{fingerprint, timed};
use crate::layers::{self, DistReplay, Serial, StepFactors};
use crate::report::{Checks, Metrics, Outcome};
use crate::{
    bitwise_equal, end_to_end, repeat_passes, serial_threads, trace_summary, CkptSample, LayerSum,
    Options, Pass, Shape, StepTrace, RESTORES,
};

/// Checkpoint cadence in steps.
const CKPT_EVERY: usize = 8;

fn scenario(shape: Shape) -> KineticScenario {
    match shape {
        Shape::Reference => king_sphere_with([12, 12, 12], 16),
        Shape::Tiny => king_sphere_with([12, 8, 8], 8),
    }
}

/// Time every pass steps to: past the end of the subnormal wave (at the
/// reference shape the count rises from 0 at t = 0.1 to 3.7 % of the cells
/// at t = 0.35 and is back to 0 by t = 0.95).
fn t_end(shape: Shape) -> f64 {
    match shape {
        Shape::Reference => 1.0,
        Shape::Tiny => 0.1,
    }
}

pub fn run(opts: &Options) -> Outcome {
    let sc = scenario(opts.shape);
    let cells = sc.grid.sdims.iter().product::<usize>() * sc.grid.vgrid.len();
    let mut out = Outcome {
        notes: fingerprint(cells * std::mem::size_of::<f32>()),
        ..Outcome::default()
    };
    let threads = serial_threads();
    if opts.trace {
        let (pass, mut m, dist) = rayon::with_num_threads(threads, || {
            let (pass, sim) = pass(opts, &sc, 0, true, &mut out.checks);
            let (m, dist) = replay(&sc, &sim, opts.seed);
            (pass, m, dist)
        });
        m.extend(dist.run());
        let sum = layer_sum(&m, &sc);
        m.extend(trace_summary(&pass, cells, sum, &mut out.notes));
        out.metrics = m;
    } else {
        let (passes, setups) = rayon::with_num_threads(threads, || {
            repeat_passes(
                opts.seconds,
                &mut out.checks,
                |i, checks| pass(opts, &sc, i, false, checks).0,
                || timed(|| sc.build()).1,
            )
        });
        out.metrics = end_to_end(&passes, &setups, cells, &mut out.notes);
    }
    out
}

fn pass(
    opts: &Options,
    sc: &KineticScenario,
    index: usize,
    trace: bool,
    checks: &mut Checks,
) -> (Pass, KineticSimulation) {
    let (mut sim, setup_s) = timed(|| sc.build());
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let store = CheckpointStore::new(opts.ckpt_dir.join(format!("pass{index}")));
    let initial = sim.diagnose(0.0);
    let t_end = t_end(opts.shape);
    while sim.time() < t_end - 1e-12 {
        let (scope, scope_s) = match trace {
            true => {
                let (s, t) = timed(|| StepScope::begin(sim.step_count() as u64 + 1));
                (Some(s), t)
            }
            false => (None, 0.0),
        };
        let (diag, secs) = timed(|| *sim.step());
        pass.step_s.push(secs);
        check_step(sc, &sim, &initial, &diag, checks);
        if let Some(scope) = scope {
            let f = sim.phase_space().as_slice();
            let ((spans, subnormal), overhead_s) =
                timed(|| (scope.finish(), layers::subnormal_count(f)));
            pass.traces.push(StepTrace {
                subnormal,
                buckets: spans.buckets,
                overhead_s: overhead_s + scope_s,
                t: sim.time(),
                ..StepTrace::default()
            });
        }
        if sim.step_count() % CKPT_EVERY == 0 {
            write_checkpoint(&sim, &store, &mut pass, checks);
        }
    }
    if sim.step_count() % CKPT_EVERY != 0 {
        write_checkpoint(&sim, &store, &mut pass, checks);
    }
    if trace {
        let (loaded, load_s) = timed(|| store.load_serial());
        checks.check(loaded.is_ok(), || format!("checkpoint load: {loaded:?}"));
        pass.load_s = load_s;
    }
    for _ in 0..RESTORES {
        let (restored, restart_s) = timed(|| KineticSimulation::resume(sc, &store));
        pass.restart_s.push(restart_s);
        let same = restored.as_ref().is_ok_and(|r| {
            bitwise_equal(r.phase_space().as_slice(), sim.phase_space().as_slice())
                && r.time().to_bits() == sim.time().to_bits()
                && r.step_count() == sim.step_count()
        });
        checks.check(same, || {
            format!("restore reproduces f and t: {:?}", restored.err())
        });
    }
    (pass, sim)
}

/// Positivity and finiteness of `f`, and the scenario's declared mass,
/// energy and L2 bands against the initial state.
fn check_step(
    sc: &KineticScenario,
    sim: &KineticSimulation,
    initial: &KineticDiag,
    diag: &KineticDiag,
    checks: &mut Checks,
) {
    let step = diag.step;
    let (finite, f_min) = layers::finite_min(sim.phase_space().as_slice());
    checks.check(finite && f_min >= 0.0, || {
        format!("step {step}: f finite = {finite}, f_min = {f_min}")
    });
    let bands = sc.invariants;
    let mass = (diag.mass / initial.mass - 1.0).abs();
    checks.check(mass <= bands.mass_rel, || {
        format!("step {step}: mass drift {mass:e} > {:e}", bands.mass_rel)
    });
    let energy = ((diag.energy - initial.energy) / initial.energy).abs();
    checks.check(energy <= bands.energy_rel, || {
        format!(
            "step {step}: energy drift {energy:e} > {:e}",
            bands.energy_rel
        )
    });
    let l2 = diag.l2 / initial.l2 - 1.0;
    checks.check(l2 <= bands.l2_growth_rel, || {
        format!("step {step}: L2 growth {l2:e} > {:e}", bands.l2_growth_rel)
    });
}

fn write_checkpoint(
    sim: &KineticSimulation,
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

/// Replay every serial layer on the final state with the last step's Δt;
/// returns the distributed replays still to run.
fn replay(sc: &KineticScenario, sim: &KineticSimulation, seed: u64) -> (Metrics, DistReplay) {
    let mut m = Metrics::default();
    let f = sim.phase_space();
    let dt = sim.history().last().map_or(sc.max_step, |d| d.dt);
    let factors = StepFactors {
        k1: 0.5 * dt,
        k2: 0.5 * dt,
        drift: dt,
    };
    let coupling = sc
        .force
        .isolated_coupling()
        .expect("the King sphere has isolated gravity");

    layers::density(&Serial, f, &mut m);
    let rho = moments::density(f);
    let force = layers::isolated_poisson(&rho, coupling, &mut m);
    let spatial = layers::spatial_cfl(f, factors.drift);
    let velocity = layers::velocity_cfl(f, &force, factors.k1);
    layers::sweeps(
        &Serial,
        f,
        &spatial,
        &velocity,
        sc.grid.scheme,
        sc.grid.exec,
        1,
        &mut m,
    );

    // The layers this workload bypasses, on its own grid and mass.
    let source = layers::mean_free(&rho);
    let solver = PoissonSolver::new(rho.dims());
    let pm_force = layers::periodic_poisson(&solver, &source, coupling, &mut m);
    let particles = layers::particles_from_density(&rho, rho.len(), seed);
    layers::fields_layer(&rho, &particles, &pm_force, &mut m);
    layers::nbody(
        &particles,
        &rho,
        layers::softening(particles.len()),
        1.0,
        factors,
        &mut m,
    );
    let dist = DistReplay {
        f: f.clone(),
        cfl_x: spatial[0].clone(),
        scheme: sc.grid.scheme,
        production: sc.grid.exec,
        source,
    };
    (m, dist)
}

/// Layer times of one King step: three spatial and six velocity sweeps, the
/// open-boundary solve with its density moment, and the diagnostics'
/// density moment.
fn layer_sum(m: &Metrics, sc: &KineticScenario) -> LayerSum {
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    LayerSum {
        vlasov: layers::strang_sweeps(m, sc.grid.exec),
        tree: 0.0,
        pm: get("moments.density.s") + get("poisson.isolated.s"),
        other: get("moments.density.s"),
    }
}
