//! `dist-vlasov-2r`: the ν-only distributed stepper on two `mpisim` ranks of
//! one thread each, x-slab decomposed, with the ghost exchange of the x
//! drift hidden behind the interior sweep. The only workload on the
//! exchange pencil loops, the distributed Poisson solve and `mpisim`.

use std::time::Instant;

use vlasov6d::{DistributedVlasov, ForceLaw, OverlapPolicy};
use vlasov6d_advection::line::Scheme;
use vlasov6d_ckpt::{CheckpointPolicy, CheckpointStore};
use vlasov6d_cosmology::{Background, CosmologyParams};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{Comm, Universe};
use vlasov6d_obs::BucketTotals;
use vlasov6d_phase_space::{moments, Exec, PhaseSpace, VelocityGrid};
use vlasov6d_poisson::PoissonSolver;

use crate::host::{fingerprint, median, timed};
use crate::layers::{self, SplitMix, StepFactors};
use crate::report::{Checks, Metrics, Outcome};
use crate::{
    bitwise_equal, end_to_end, repeat_passes, trace_summary, CkptSample, LayerSum, Options, Pass,
    Shape, StepTrace, RESTORES,
};

const RANKS: usize = 2;
const A_INIT: f64 = 0.2;
/// Mean density the component carries (the Poisson source is `ρ - ρ̄`).
const OMEGA: f64 = 1.0;
const SCHEME: Scheme = Scheme::SlMpp5;
const EXEC: Exec = Exec::Simd;
/// Tag window of the benchmark's own checks, far above the stepper's tags.
const CHECK_TAG: u64 = 1 << 41;

fn grid(shape: Shape) -> ([usize; 3], VelocityGrid) {
    match shape {
        Shape::Reference => ([16; 3], VelocityGrid::cubic(16, 0.6)),
        Shape::Tiny => ([12, 8, 8], VelocityGrid::cubic(8, 0.6)),
    }
}

/// Scale factor every pass steps to.
fn a_target(shape: Shape) -> f64 {
    match shape {
        Shape::Reference => 0.2045,
        Shape::Tiny => 0.201,
    }
}

fn policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_steps: 2,
        ..CheckpointPolicy::disabled()
    }
}

/// The ghost-overlap benchmark's smooth density wave times a Maxwellian,
/// with the wave's phases drawn from the seed. The wave's offset (3.5)
/// exceeds its amplitude (3), so `f` starts positive everywhere.
fn fill(seed: u64) -> impl Fn([usize; 3], [f64; 3]) -> f64 + Sync {
    let mut rng = SplitMix(seed);
    let phase: [f64; 3] = std::array::from_fn(|_| std::f64::consts::TAU * rng.unit());
    move |s, u| {
        let sx = (s[0] as f64 * 0.55 + phase[0]).sin()
            + (s[1] as f64 * 0.35 + phase[1]).cos()
            + (s[2] as f64 * 0.75 + phase[2]).sin();
        0.002 * (3.5 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.03).exp()
    }
}

pub fn run(opts: &Options) -> Outcome {
    let (sglobal, vgrid) = grid(opts.shape);
    let cells = sglobal.iter().product::<usize>() * vgrid.len();
    let mut out = Outcome {
        notes: fingerprint(cells * std::mem::size_of::<f32>()),
        ..Outcome::default()
    };
    // Two ranks of one thread each: ranks × threads stays within two cores.
    rayon::with_num_threads(1, || {
        if opts.trace {
            let (pass, m) = on_rank0(rank_pass(opts, 0, true), &mut out.checks);
            let mut m = m.expect("traced passes replay the layers");
            let sum = layer_sum(&m);
            m.extend(trace_summary(&pass, cells, sum, &mut out.notes));
            out.metrics = m;
        } else {
            let (passes, setups) = repeat_passes(
                opts.seconds,
                &mut out.checks,
                |i, checks| on_rank0(rank_pass(opts, i, false), checks).0,
                || setup_only(opts),
            );
            out.metrics = end_to_end(&passes, &setups, cells, &mut out.notes);
        }
    });
    out
}

/// Build each rank's block and stepper.
fn build(comm: &Comm, opts: &Options) -> DistributedVlasov {
    let (sglobal, vgrid) = grid(opts.shape);
    let decomp = Decomp3::new(sglobal, [comm.size(), 1, 1]);
    let rank = comm.rank();
    let mut local = PhaseSpace::zeros_block(
        decomp.local_dims(rank),
        decomp.local_offset(rank),
        sglobal,
        vgrid,
    );
    local.fill_with(fill(opts.seed));
    let bg = Background::new(CosmologyParams::planck2015());
    DistributedVlasov::new(comm, local, bg, A_INIT, OMEGA)
        .with_scheme(SCHEME)
        .with_exec(EXEC)
        .with_overlap(OverlapPolicy::Overlapped)
}

fn setup_only(opts: &Options) -> f64 {
    let start = Instant::now();
    let done = Universe::run(RANKS, |comm| {
        std::hint::black_box(build(comm, opts));
        comm.barrier();
        start.elapsed().as_secs_f64()
    });
    done[0]
}

/// One pass on every rank: spawn, build, step to the target with
/// checkpoints, resume; traced passes then replay the layers. Returns per
/// rank the pass (its times are the slowest rank's), the replayed metrics
/// and the rank's checks.
fn rank_pass(opts: &Options, index: usize, trace: bool) -> Vec<(Pass, Option<Metrics>, Checks)> {
    let start = Instant::now();
    let store = CheckpointStore::new(opts.ckpt_dir.join(format!("pass{index}")));
    let policy = policy();
    let a_target = a_target(opts.shape);
    Universe::run(RANKS, |comm| {
        let mut checks = Checks::default();
        let mut sim = build(comm, opts);
        comm.barrier();
        let mut pass = Pass {
            setup_s: comm.allreduce_max(start.elapsed().as_secs_f64()),
            ..Pass::default()
        };
        let root = comm.rank() == 0;
        let mut skews = Vec::new();
        while sim.a < a_target - 1e-12 {
            comm.barrier();
            let mark = root.then(|| comm.traffic().clone_snapshot());
            comm.barrier();
            let t = Instant::now();
            let (_, _, telemetry) = sim.step_traced(comm);
            let mine = t.elapsed().as_secs_f64();
            comm.barrier();
            let traffic = mark.map(|m| comm.traffic().diff(&m));
            comm.barrier();
            let secs = comm.allreduce_max(mine);
            pass.step_s.push(secs);
            skews.push(secs - comm.allreduce_min(mine));
            check_step(comm, &sim, &mut checks);
            if trace {
                let (subnormal, overhead_s) =
                    timed(|| comm.allreduce_sum(layers::subnormal_count(sim.ps.as_slice()) as f64));
                let (msgs, bytes) =
                    traffic.map_or((0, 0), |t| (t.total_messages(), t.total_bytes()));
                pass.traces.push(StepTrace {
                    subnormal: subnormal as u64,
                    buckets: BucketTotals::from(telemetry.timers),
                    overhead_s,
                    msgs,
                    bytes,
                    t: sim.a,
                });
            }
            if policy.due(sim.step_index()) {
                write_checkpoint(comm, &sim, &store, &policy, &mut pass, &mut checks);
            }
        }
        if !policy.due(sim.step_index()) {
            write_checkpoint(comm, &sim, &store, &policy, &mut pass, &mut checks);
        }
        if trace {
            let (loaded, load_s) = timed(|| store.load_collective(comm));
            checks.check(loaded.is_ok(), || format!("checkpoint load: {loaded:?}"));
            pass.load_s = comm.allreduce_max(load_s);
        }
        for _ in 0..RESTORES {
            let bg = Background::new(CosmologyParams::planck2015());
            let (resumed, restart_s) = timed(|| DistributedVlasov::resume_from(comm, &store, bg));
            pass.restart_s.push(comm.allreduce_max(restart_s));
            let same = resumed.as_ref().is_ok_and(|r| {
                bitwise_equal(r.ps.as_slice(), sim.ps.as_slice())
                    && r.a.to_bits() == sim.a.to_bits()
                    && r.step_index() == sim.step_index()
            });
            checks.check(same, || {
                format!(
                    "rank {} resume reproduces f and a: {:?}",
                    comm.rank(),
                    resumed.err()
                )
            });
        }
        let metrics = trace.then(|| {
            let mut m = rank_replay(comm, &sim, &pass, opts.seed);
            // The stepper's own skew replaces the replayed sweep's.
            m.set("comm.rank_skew.s", median(&skews));
            m
        });
        (pass, metrics, checks)
    })
}

/// Positivity and finiteness of every rank's `f`; the rank-summed mass is
/// finite and equals the stepper's allreduced total.
fn check_step(comm: &Comm, sim: &DistributedVlasov, checks: &mut Checks) {
    let step = sim.step_index();
    let (finite, f_min) = layers::finite_min(sim.ps.as_slice());
    checks.check(finite && f_min >= 0.0, || {
        format!(
            "step {step} rank {}: f finite = {finite}, f_min = {f_min}",
            comm.rank()
        )
    });
    let local = sim.ps.total_mass();
    let total = sim.total_mass(comm);
    // Point-to-point, in rank order, independent of the collective.
    let summed = if comm.rank() == 0 {
        let mut s = local;
        for src in 1..comm.size() {
            s += comm.recv::<f64>(src, CHECK_TAG + step);
        }
        Some(s)
    } else {
        comm.send(0, CHECK_TAG + step, local);
        None
    };
    if let Some(summed) = summed {
        let ok = summed.is_finite() && (summed - total).abs() <= 1e-12 * total.abs();
        checks.check(ok, || {
            format!("step {step}: rank-summed mass {summed} vs allreduced {total}")
        });
    }
}

fn write_checkpoint(
    comm: &Comm,
    sim: &DistributedVlasov,
    store: &CheckpointStore,
    policy: &CheckpointPolicy,
    pass: &mut Pass,
    checks: &mut Checks,
) {
    let (stats, wall_s) = timed(|| sim.checkpoint(comm, store, policy));
    let wall_s = comm.allreduce_max(wall_s);
    checks.check(stats.is_ok(), || format!("checkpoint write: {stats:?}"));
    if let Ok(mut stats) = stats {
        // The checkpoint's size is the sum over ranks' files.
        stats.file_bytes = comm.allreduce_sum(stats.file_bytes as f64) as u64;
        pass.ckpts.push(CkptSample { wall_s, stats });
    }
}

/// Rank 0's pass and replayed metrics, with every rank's checks merged
/// into `checks`.
fn on_rank0(
    mut ranks: Vec<(Pass, Option<Metrics>, Checks)>,
    checks: &mut Checks,
) -> (Pass, Option<Metrics>) {
    let (pass, metrics, rank0_checks) = ranks.remove(0);
    checks.merge(rank0_checks);
    for (_, _, rank_checks) in ranks {
        checks.merge(rank_checks);
    }
    (pass, metrics)
}

/// Replays on the ranks' own blocks, then the serial layers on the
/// gathered density.
fn rank_replay(comm: &Comm, sim: &DistributedVlasov, pass: &Pass, seed: u64) -> Metrics {
    let ps = &sim.ps;
    let bg = &sim.background;
    let a2 = sim.a;
    let a1 = pass.traces.iter().rev().nth(1).map_or(A_INIT, |t| t.t);
    let am = bg.a_of_time(0.5 * (bg.time_of_a(a1) + bg.time_of_a(a2)));
    let factors = StepFactors {
        k1: bg.kick_factor(a1, am),
        k2: bg.kick_factor(am, a2),
        drift: bg.drift_factor(a1, a2),
    };

    // The global density, assembled from the x-slabs in rank order.
    let local_rho = moments::density(ps);
    let rho = Field3::from_vec(ps.sglobal, comm.allgather(local_rho.into_vec()).concat());
    let source = layers::mean_free(&rho);
    let prefactor = ForceLaw::CosmologicalGravity
        .periodic_prefactor(a2)
        .expect("periodic gravity");
    let force = PoissonSolver::force_from_potential(
        &PoissonSolver::new(ps.sglobal).solve(&source, prefactor),
    )
    .map(|f| layers::field_slab(&f, ps));

    let mut m = Metrics::default();
    layers::density(comm, ps, &mut m);
    let spatial = layers::spatial_cfl(ps, factors.drift);
    let velocity = layers::velocity_cfl(ps, &force, factors.k1);
    layers::sweeps(comm, ps, &spatial, &velocity, SCHEME, EXEC, RANKS, &mut m);
    m.extend(layers::rank_dist_layers(
        comm,
        ps,
        &spatial[0],
        SCHEME,
        EXEC,
        &source,
    ));
    if comm.rank() == 0 {
        // The layers this workload bypasses, on its own grid and mass; the
        // other rank waits, as in a serial phase of a real run.
        let solver = PoissonSolver::new(rho.dims());
        let pm_force = layers::periodic_poisson(&solver, &source, prefactor, &mut m);
        layers::isolated_poisson(&rho, prefactor, &mut m);
        let particles = layers::particles_from_density(&rho, rho.len(), seed);
        layers::fields_layer(&rho, &particles, &pm_force, &mut m);
        layers::nbody(
            &particles,
            &rho,
            layers::softening(particles.len()),
            a2,
            factors,
            &mut m,
        );
    }
    comm.barrier();
    m
}

/// Layer times of one distributed step on the slowest rank: the overlapped
/// x sweep, the local y/z sweeps, six velocity sweeps, and two gravity
/// solves each with a density moment and a slab Poisson solve.
fn layer_sum(m: &Metrics) -> LayerSum {
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    LayerSum {
        vlasov: layers::strang_sweeps(m, EXEC) - get("sweep.x.simd.s")
            + get("sweep.x.dist_overlap.s"),
        tree: 0.0,
        pm: 2.0 * (get("moments.density.s") + get("poisson.dist_slab.s")),
        other: 0.0,
    }
}
