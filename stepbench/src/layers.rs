//! Per-layer replays: the benchmark's own timed calls into each layer's
//! public functions, on a workload's state and shapes.
//!
//! A replay never touches the workload's live state: sweeps run on a copy of
//! `f` that is refreshed before every timed call, so each call sees the
//! values the stepper saw. When ranks replay together, every timed call is
//! bracketed by barriers and reports the slowest rank.

use crate::host::{median, timed};
use crate::report::{Metrics, AXES, EXECS};
use vlasov6d::fields;
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{Cart3, Comm, Universe};
use vlasov6d_nbody::{integrator, ParticleSet, TreePm};
use vlasov6d_phase_space::exchange::{
    exchange_ghosts, sweep_spatial_distributed, sweep_spatial_overlapped, GHOST_WIDTH,
};
use vlasov6d_phase_space::{moments, sweep, Exec, PhaseSpace};
use vlasov6d_poisson::{DistPoisson, IsolatedPoisson, PoissonSolver};

/// Bytes one sweep moves per cell, computed (not measured): one `f32` read
/// and one `f32` write.
pub const BYTES_PER_CELL: f64 = 8.0;

/// Tag window of the replays, far above any tag a stepper reaches.
const REPLAY_TAG: u64 = 1 << 40;

/// Calls slower than this are timed once; faster ones take the median of
/// [`REPEATS`] calls.
const REPEAT_BELOW_S: f64 = 0.05;
const REPEATS: usize = 5;

/// How the ranks of a joint replay synchronise and combine their times. The
/// serial form is a no-op barrier and the identity.
pub trait Team {
    fn sync(&self) {}
    fn slowest(&self, secs: f64) -> f64 {
        secs
    }
}

/// A single-process replay.
pub struct Serial;

impl Team for Serial {}

impl Team for Comm {
    fn sync(&self) {
        self.barrier();
    }
    fn slowest(&self, secs: f64) -> f64 {
        self.allreduce_max(secs)
    }
}

/// Median over calls of the slowest rank's time of `call` on `state`, after
/// an untimed `prepare` before each call.
pub fn time_call<S>(
    team: &dyn Team,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S),
) -> f64 {
    let mut samples = Vec::new();
    loop {
        prepare(state);
        team.sync();
        let ((), t) = timed(|| call(state));
        samples.push(team.slowest(t));
        // Every rank sees the same reduced sample, so all stop together.
        if samples[0] >= REPEAT_BELOW_S || samples.len() >= REPEATS {
            return median(&samples);
        }
    }
}

/// [`time_call`] for a call that needs no fresh state.
pub fn time_plain(team: &dyn Team, mut call: impl FnMut()) -> f64 {
    time_call(team, &mut (), |_| {}, |_| call())
}

/// Spatial CFL numbers per velocity index for a drift factor.
pub fn spatial_cfl(ps: &PhaseSpace, drift: f64) -> [Vec<f64>; 3] {
    std::array::from_fn(|d| {
        let n_d = ps.sglobal[d] as f64;
        (0..ps.vgrid.n[d])
            .map(|k| ps.vgrid.center(d, k) * drift * n_d)
            .collect()
    })
}

/// Velocity CFL fields per spatial cell for a force and a kick factor.
pub fn velocity_cfl(ps: &PhaseSpace, force: &[Field3; 3], kick: f64) -> [Field3; 3] {
    std::array::from_fn(|d| {
        let mut cfl = force[d].clone();
        cfl.scale(kick / ps.vgrid.du(d));
        cfl
    })
}

fn exec_of(name: &str) -> Exec {
    match name {
        "scalar" => Exec::Scalar,
        "simd" => Exec::Simd,
        _ => Exec::Lat,
    }
}

/// One sweep of every axis under every kernel variant, on copies of `f`:
/// `sweep.<axis>.<exec>.s`, plus `sweep.<axis>.gflops` at `production`.
/// `ranks` scales the throughput when each rank sweeps its own block.
pub fn sweeps(
    team: &dyn Team,
    f: &PhaseSpace,
    spatial: &[Vec<f64>; 3],
    velocity: &[Field3; 3],
    scheme: Scheme,
    production: Exec,
    ranks: usize,
    m: &mut Metrics,
) {
    let mut work = f.clone();
    let flops = vlasov6d_advection::flops_per_cell(scheme) * (f.len() * ranks) as f64;
    for (axis, axis_name) in AXES.iter().enumerate() {
        for exec_name in EXECS {
            let exec = exec_of(exec_name);
            let secs = time_call(
                team,
                &mut work,
                |w| w.as_mut_slice().copy_from_slice(f.as_slice()),
                |w| {
                    if axis < 3 {
                        sweep::sweep_spatial(w, axis, &spatial[axis], scheme, exec);
                    } else {
                        sweep::sweep_velocity(w, axis - 3, &velocity[axis - 3], scheme, exec);
                    }
                },
            );
            m.set(format!("sweep.{axis_name}.{exec_name}.s"), secs);
            if exec == production {
                m.set(format!("sweep.{axis_name}.gflops"), flops / secs / 1e9);
            }
        }
    }
    m.set(
        "sweep.flops_per_cell",
        vlasov6d_advection::flops_per_cell(scheme),
    );
    m.set("sweep.bytes_per_cell", BYTES_PER_CELL);
}

/// The sweep time of one Strang step at kernel variant `exec`: three
/// spatial sweeps and two half-kicks of three velocity sweeps each.
pub fn strang_sweeps(m: &Metrics, exec: Exec) -> f64 {
    let exec = crate::exec_name(exec);
    let sweep = |axis: &str| m.get(&format!("sweep.{axis}.{exec}.s")).unwrap_or(f64::NAN);
    AXES[..3].iter().map(|a| sweep(a)).sum::<f64>()
        + 2.0 * AXES[3..].iter().map(|a| sweep(a)).sum::<f64>()
}

/// `moments.density.s`: the density moment of `f`.
pub fn density(team: &dyn Team, f: &PhaseSpace, m: &mut Metrics) {
    let secs = time_plain(team, || {
        std::hint::black_box(moments::density(f));
    });
    m.set("moments.density.s", secs);
}

/// Subtract the mean: the periodic Poisson source.
pub fn mean_free(rho: &Field3) -> Field3 {
    let mut s = rho.clone();
    let mean = s.mean();
    for v in s.as_mut_slice() {
        *v -= mean;
    }
    s
}

/// `poisson.periodic.s`: one periodic solve plus the force stencil, with
/// the stepper's own solver; returns the force for the velocity replays.
pub fn periodic_poisson(
    solver: &PoissonSolver,
    source: &Field3,
    prefactor: f64,
    m: &mut Metrics,
) -> [Field3; 3] {
    let mut force = None;
    let secs = time_plain(&Serial, || {
        let phi = solver.solve(source, prefactor);
        force = Some(PoissonSolver::force_from_potential(&phi));
    });
    m.set("poisson.periodic.s", secs);
    force.expect("the solve ran")
}

/// `poisson.isolated.s`: one open-boundary solve plus the force stencil;
/// returns the force.
pub fn isolated_poisson(rho: &Field3, coupling: f64, m: &mut Metrics) -> [Field3; 3] {
    let solver = IsolatedPoisson::new(rho.dims());
    let mut force = None;
    let secs = time_plain(&Serial, || {
        let phi = solver.solve(rho, coupling);
        force = Some(PoissonSolver::force_from_potential(&phi));
    });
    m.set("poisson.isolated.s", secs);
    force.expect("the solve ran")
}

/// `fields.deposit.s` (grid density and particles onto the PM mesh) and
/// `fields.sample.s` (three force components back at the grid centres).
pub fn fields_layer(
    rho_grid: &Field3,
    particles: &ParticleSet,
    pm_force: &[Field3; 3],
    m: &mut Metrics,
) {
    let pm_dims = pm_force[0].dims();
    let deposit = time_plain(&Serial, || {
        std::hint::black_box(fields::deposit_density_to_pm(rho_grid, pm_dims));
        std::hint::black_box(fields::particle_density(
            &particles.pos,
            particles.mass,
            pm_dims,
        ));
    });
    let sample = time_plain(&Serial, || {
        for f in pm_force {
            std::hint::black_box(fields::sample_at_coarse_centers(f, rho_grid.dims()));
        }
    });
    m.set("fields.deposit.s", deposit);
    m.set("fields.sample.s", sample);
}

/// Kick and drift factors of one Strang step.
#[derive(Debug, Clone, Copy)]
pub struct StepFactors {
    pub k1: f64,
    pub k2: f64,
    pub drift: f64,
}

/// `nbody.pm.s` (deposit, long-range solve, force interpolation),
/// `nbody.tree.s` (tree build and short-range walk) and `nbody.kick_drift.s`
/// (two kicks and a drift of the particle set).
pub fn nbody(
    particles: &ParticleSet,
    extra_density: &Field3,
    eps: f64,
    a: f64,
    factors: StepFactors,
    m: &mut Metrics,
) {
    // TreePM meshes are cubic: resample a non-cubic grid onto the cube of
    // its longest side.
    let n = extra_density.dims().into_iter().max().expect("three dims");
    let extra_density = &fields::deposit_density_to_pm(extra_density, [n; 3]);
    let treepm = TreePm::new(n, eps);
    let mut acc = Vec::new();
    let pm = time_plain(&Serial, || {
        let mut rho = treepm.deposit_density(particles);
        rho.axpy(1.0, extra_density);
        let phi = treepm.long_range_potential(&rho, a);
        acc = treepm.pm_accelerations(&phi, &particles.pos);
    });
    let tree = time_plain(&Serial, || {
        std::hint::black_box(treepm.tree_accelerations(particles, a));
    });
    let mut moved = particles.clone();
    let kick_drift = time_call(
        &Serial,
        &mut moved,
        |p| p.clone_from(particles),
        |p| {
            integrator::kick(p, &acc, factors.k1);
            integrator::drift(p, factors.drift);
            integrator::kick(p, &acc, factors.k2);
        },
    );
    m.set("nbody.pm.s", pm);
    m.set("nbody.tree.s", tree);
    m.set("nbody.kick_drift.s", kick_drift);
}

/// Plummer softening of `n` bodies, at the hybrid run's fraction of the
/// mean inter-particle spacing.
pub fn softening(n: usize) -> f64 {
    vlasov6d::SimulationConfig::small_test().softening_frac / (n as f64).cbrt()
}

/// An equal-mass particle set that samples `rho`: `n` bodies drawn cell by
/// cell from the density with a seeded generator and jittered inside their
/// cell. Gives the N-body layers the workload's own mass distribution when
/// the workload carries no particles.
pub fn particles_from_density(rho: &Field3, n: usize, seed: u64) -> ParticleSet {
    let dims = rho.dims();
    let total: f64 = rho.as_slice().iter().map(|v| v.max(0.0)).sum();
    let mut cdf = Vec::with_capacity(rho.len());
    let mut acc = 0.0;
    for v in rho.as_slice() {
        acc += v.max(0.0) / total;
        cdf.push(acc);
    }
    let mut rng = SplitMix(seed);
    // Box volume 1: the total mass is the mean density.
    let mut set = ParticleSet::new(total / rho.len() as f64 / n as f64);
    for _ in 0..n {
        let u = rng.unit();
        let cell = cdf.partition_point(|&c| c < u).min(rho.len() - 1);
        let i = [
            cell / (dims[1] * dims[2]),
            (cell / dims[2]) % dims[1],
            cell % dims[2],
        ];
        set.pos.push(std::array::from_fn(|d| {
            (i[d] as f64 + rng.unit()) / dims[d] as f64
        }));
        set.vel.push([0.0; 3]);
    }
    set
}

/// The splitmix64 generator: seeded, tiny, and the same on every platform.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The x-slab of rank `rank` out of `ranks` of a whole-domain `f`.
pub fn x_slab(f: &PhaseSpace, rank: usize, ranks: usize) -> PhaseSpace {
    let decomp = Decomp3::new(f.sglobal, [ranks, 1, 1]);
    let (dims, off) = (decomp.local_dims(rank), decomp.local_offset(rank));
    let mut local = PhaseSpace::zeros_block(dims, off, f.sglobal, f.vgrid);
    let plane = f.sdims[1] * f.sdims[2] * f.vgrid.len();
    let start = off[0] * plane;
    let len = local.len();
    local
        .as_mut_slice()
        .copy_from_slice(&f.as_slice()[start..start + len]);
    local
}

/// The x-slab of a field owned by a rank's block.
pub fn field_slab(field: &Field3, block: &PhaseSpace) -> Field3 {
    let [_, n1, n2] = field.dims();
    let plane = n1 * n2;
    let start = block.soffset[0] * plane;
    Field3::from_vec(
        block.sdims,
        field.as_slice()[start..start + block.sdims[0] * plane].to_vec(),
    )
}

/// The distributed-layer replays one rank runs on its x-slab `local`:
/// `sweep.x.dist_sync.s`, `sweep.x.dist_overlap.s`, `sweep.x.serial.s` (the
/// rank-local periodic sweep of the same block), their ratio,
/// `comm.ghost_exchange.s`, the rank skew of the overlapped sweep, and the
/// slab and pencil Poisson solves of `source` (whole-domain, mean-free).
/// Metrics land on every rank; the times are the slowest rank's.
pub fn rank_dist_layers(
    comm: &Comm,
    local: &PhaseSpace,
    cfl_x: &[f64],
    scheme: Scheme,
    production: Exec,
    source: &Field3,
) -> Metrics {
    let mut m = Metrics::default();
    let decomp = Decomp3::new(local.sglobal, [comm.size(), 1, 1]);
    let cart = Cart3::new(comm, decomp);
    let mut work = local.clone();
    let mut tag = REPLAY_TAG;
    let mut next_tag = || {
        tag += 64;
        tag
    };
    let refresh = |w: &mut PhaseSpace| w.as_mut_slice().copy_from_slice(local.as_slice());

    let sync = time_call(comm, &mut work, refresh, |w| {
        sweep_spatial_distributed(w, &cart, 0, cfl_x, scheme, next_tag());
    });
    // The overlapped sweep also yields the per-rank spread of its time.
    let mut skews = Vec::new();
    let overlap = time_call(comm, &mut work, refresh, |w| {
        let ((), t) = timed(|| {
            sweep_spatial_overlapped(w, &cart, 0, cfl_x, scheme, next_tag());
        });
        skews.push(comm.allreduce_max(t) - comm.allreduce_min(t));
    });
    let serial = time_call(comm, &mut work, refresh, |w| {
        sweep::sweep_spatial(w, 0, cfl_x, scheme, production);
    });
    let exchange = time_plain(comm, || {
        std::hint::black_box(exchange_ghosts(local, &cart, 0, GHOST_WIDTH, next_tag()));
    });
    m.set("sweep.x.dist_sync.s", sync);
    m.set("sweep.x.dist_overlap.s", overlap);
    m.set("sweep.x.serial.s", serial);
    m.set("sweep.x.dist_over_serial", overlap / serial);
    m.set("comm.ghost_exchange.s", exchange);
    m.set("comm.rank_skew.s", median(&skews));

    for (name, solver) in [
        (
            "poisson.dist_slab.s",
            DistPoisson::new(source.dims(), comm.size()),
        ),
        (
            "poisson.dist_pencil.s",
            DistPoisson::new_pencil(source.dims(), comm.size(), 1),
        ),
    ] {
        let block: Vec<f64> = (0..solver.local_len())
            .map(|flat| {
                let [i0, i1, i2] = solver.local_coords(comm.rank(), flat);
                source.at(i0, i1, i2)
            })
            .collect();
        let secs = time_plain(comm, || {
            std::hint::black_box(solver.solve(comm, &block, 1.0, next_tag()));
        });
        m.set(name, secs);
    }
    m
}

/// The distributed-layer replays of a serial workload: its whole-domain `f`
/// split into two x-slabs, replayed by [`rank_dist_layers`] on two ranks of
/// one thread each.
pub struct DistReplay {
    pub f: PhaseSpace,
    pub cfl_x: Vec<f64>,
    pub scheme: Scheme,
    pub production: Exec,
    /// Mean-free Poisson source on the workload's Poisson grid.
    pub source: Field3,
}

impl DistReplay {
    /// Run the replays. Pins one thread per rank itself, so it must not be
    /// called inside another `rayon::with_num_threads` (the pin is not
    /// re-entrant).
    pub fn run(&self) -> Metrics {
        const RANKS: usize = 2;
        let mut per_rank = rayon::with_num_threads(1, || {
            Universe::run(RANKS, |comm| {
                let local = x_slab(&self.f, comm.rank(), RANKS);
                rank_dist_layers(
                    comm,
                    &local,
                    &self.cfl_x,
                    self.scheme,
                    self.production,
                    &self.source,
                )
            })
        });
        per_rank.swap_remove(0)
    }
}

/// Count of subnormal values in `f` (the cells that take the slow path of
/// the floating-point unit).
pub fn subnormal_count(f: &[f32]) -> u64 {
    f.iter().filter(|v| v.is_subnormal()).count() as u64
}

/// `(every value finite, minimum value)` of `f`.
pub fn finite_min(f: &[f32]) -> (bool, f32) {
    let mut finite = true;
    let mut min = f32::INFINITY;
    for &v in f {
        finite &= v.is_finite();
        min = min.min(v);
    }
    (finite, min)
}
