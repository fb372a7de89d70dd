//! Directional-splitting sweeps over the 6-D grid.
//!
//! A sweep applies the 1-D conservative SL kernel along one axis to every
//! grid line. The three execution variants reproduce the paper's Table 1
//! code shapes:
//!
//! * [`Exec::Scalar`] — "w/o SIMD": one line at a time, element-wise strided
//!   gather/scatter into a line buffer, scalar kernel.
//! * [`Exec::Simd`] — "w/ SIMD inst.": eight lines ride the lanes of an
//!   [`f32x8`]. For every axis except `u_z` the lanes are eight *contiguous*
//!   `iuz` values, so each bundle element is one packed load (paper Fig. 1).
//!   For the `u_z` axis itself the lanes must come from eight different
//!   `iuy` lines, i.e. strided element gathers (paper Fig. 2) — deliberately
//!   the slow shape, kept for the Table 1 comparison.
//! * [`Exec::Lat`] — "w/ LAT method": only meaningful for the `u_z` axis;
//!   eight contiguous lines are loaded as packed registers and transposed
//!   in-register ([`transpose8x8`], paper Fig. 3) into lane form, advected,
//!   and transposed back. Other axes fall back to [`Exec::Simd`].
//!
//! Every spatial sweep — the serial periodic one, both distributed
//! schedules of [`crate::exchange`] and their boundary windows — runs
//! through [`sweep_lines`], which differs between them only in where lines
//! take the cells beyond their ends ([`SpatialEnds`]).
//!
//! The advection velocity is constant along every line *and* across every
//! lane bundle by construction: spatial sweeps depend only on the conjugate
//! velocity index, velocity sweeps only on the spatial cell — and the lane
//! axis is never either of those.
//!
//! Every parallel region here runs on the real thread pool behind
//! `rayon::par_iter`. The per-task index sets are the plans of
//! [`crate::plan`]; `crates/racecheck` proves them pairwise write-disjoint
//! for all grid shapes (so the sweeps are bitwise deterministic at any
//! worker count) and replays single tasks via [`crate::probe`] to pin the
//! proof to this code.

use crate::dist_fn::PhaseSpace;
use crate::plan;
use rayon::prelude::*;
use vlasov6d_advection::lanes::{advect_lanes, LanesWork};
use vlasov6d_advection::line::{advect_line, LineEnds, LineWork, Scheme, GHOST};
use vlasov6d_advection::simd::{f32x8, transpose8x8, LANES};
use vlasov6d_advection::Boundary;
use vlasov6d_mesh::Field3;

/// Kernel execution variant (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exec {
    /// One line at a time, no lane batching.
    Scalar,
    /// Eight lines per bundle; packed loads where the layout allows,
    /// strided gathers on the `u_z` axis.
    #[default]
    Simd,
    /// Load-and-transpose staging for the `u_z` axis.
    Lat,
}

impl Exec {
    /// Whether the lane plans of a spatial sweep along `d` tile the velocity
    /// grid `nu`: the x/y bundles take eight contiguous `iuz`, the z tiles
    /// 8×8 `(iuy, iuz)` blocks. The z condition also covers every velocity
    /// lane plan.
    pub(crate) fn lanes_fit(nu: [usize; 3], d: usize) -> bool {
        nu[2] % LANES == 0 && (d < 2 || nu[1] % LANES == 0)
    }

    /// The kernel rule for a whole step over velocity grid `nu`: the lanes
    /// kernel ([`Exec::Simd`]) when `scheme` has one (SL5, SL-MPP5) and the
    /// lane plans of all three spatial axes fit `nu`, the scalar kernel
    /// otherwise. The exchange sweeps take their kernel from this rule.
    pub fn for_grid(scheme: Scheme, nu: [usize; 3]) -> Exec {
        if matches!(scheme, Scheme::Sl5 | Scheme::SlMpp5) && Exec::lanes_fit(nu, 2) {
            Exec::Simd
        } else {
            Exec::Scalar
        }
    }
}

/// Partition of one axis's cell range into the boundary slabs whose stencils
/// reach into ghost planes and the interior whose stencils stay local — the
/// split that lets the distributed sweep advect interior pencils while the
/// ghost exchange is still in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPartition {
    /// Cells `[0, ghost)` (clamped): stencils reach the low ghost planes.
    pub low: std::ops::Range<usize>,
    /// Cells whose full `±ghost` stencil footprint stays inside `[0, n)`.
    pub interior: std::ops::Range<usize>,
    /// Cells `[n - ghost, n)` (clamped): stencils reach the high ghost planes.
    pub high: std::ops::Range<usize>,
}

/// Split `0..n` into low-boundary, interior and high-boundary ranges for a
/// stencil of half-width `ghost`. The three ranges are disjoint, contiguous
/// and cover `0..n` exactly for every input, including thin axes
/// (`n < 2·ghost`) where the interior is empty and the slabs share the cells
/// between them without overlap.
pub fn partition_axis(n: usize, ghost: usize) -> AxisPartition {
    let lo_end = ghost.min(n);
    let hi_start = n.saturating_sub(ghost).max(lo_end);
    AxisPartition {
        low: 0..lo_end,
        interior: lo_end..hi_start,
        high: hi_start..n,
    }
}

/// Base pointer of the flat `f` array, passed by value into sweep tasks.
#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr(pub(crate) *mut f32);
// The wrapper only moves the raw pointer across pool workers; every
// dereference follows the task's `plan` index set, and racecheck proves the
// plans of distinct tasks pairwise disjoint for all grid shapes (symbolic
// digit proof + taint-probe replay).
// SAFETY: [racecheck: sweep.spatial.x.scalar, sweep.spatial.y.scalar,
// sweep.spatial.z.scalar, sweep.spatial.x.simd, sweep.spatial.y.simd,
// sweep.spatial.z.simd, sweep.spatial.x.lat, sweep.spatial.y.lat,
// sweep.spatial.z.lat]
unsafe impl Send for SendMutPtr {}
// SAFETY: [racecheck: sweep.spatial.x.scalar] — `&SendMutPtr` exposes only
// a `Copy` of the pointer; aliasing discipline is enforced at the
// dereference sites by the same per-task plans as for `Send`.
unsafe impl Sync for SendMutPtr {}

/// Where a spatial sweep takes the `GHOST` cells beyond each end of its
/// lines. The same tasks, lane batching and pool serve every source.
#[derive(Debug, Clone, Copy)]
pub enum SpatialEnds<'a> {
    /// Periodic wrap within the block (an axis owned by one rank).
    Periodic,
    /// Zero continuation: exact for every cell whose stencil stays inside
    /// the block (the overlapped sweep's interior pass).
    Zero,
    /// Neighbour planes in [`crate::exchange::extract_planes`] layout
    /// `[outer][GHOST][inner]`: `low` lies just below the block along the
    /// swept axis, `high` just above. Needs `|cfl| < 1`.
    Ghost { low: &'a [f32], high: &'a [f32] },
}

/// Sweep along spatial axis `d` (0 = x, 1 = y, 2 = z) with periodic bounds.
///
/// `cfl_per_u[k]` is the shift (in cells) of velocity index `k` along axis
/// `d`: `u_d(k) · drift / Δx_d`. Shifts of any size are allowed (periodic
/// integer wrap is exact).
pub fn sweep_spatial(ps: &mut PhaseSpace, d: usize, cfl_per_u: &[f64], scheme: Scheme, exec: Exec) {
    assert!(d < 3);
    const SPAN: [&str; 3] = ["sweep.spatial.x", "sweep.spatial.y", "sweep.spatial.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    let dims = ps.dims6();
    sweep_lines(
        ps.as_mut_slice(),
        dims,
        d,
        cfl_per_u,
        scheme,
        exec,
        SpatialEnds::Periodic,
    );
}

/// Sweep every line along spatial axis `d` of the block `data` (layout and
/// extents `dims`, as [`PhaseSpace::dims6`]) with line ends `ends`: the one
/// plan-driven spatial sweep behind [`sweep_spatial`] and both exchange
/// sweeps of [`crate::exchange`].
///
/// * [`Exec::Scalar`] — parallel over line pencils; racecheck region
///   `sweep.spatial.{x,y,z}.scalar`.
/// * [`Exec::Simd`] / [`Exec::Lat`] along x/y — lanes over eight contiguous
///   `iuz` are packed loads and the conjugate velocity (iux/iuy) is constant
///   across them (Fig. 1). Racecheck region `sweep.spatial.{x,y}.{simd,lat}`.
/// * [`Exec::Simd`] / [`Exec::Lat`] along z — the conjugate velocity *is*
///   iuz, so lanes over iuz would mix shifts. 8×8 `(iuy, iuz)` tiles are
///   staged through the in-register transpose so lanes run over iuy at fixed
///   iuz: constant shift per bundle, packed loads throughout (the LAT trick
///   applied to the spatial z axis). Racecheck region
///   `sweep.spatial.z.{simd,lat}`.
pub fn sweep_lines(
    data: &mut [f32],
    dims: [usize; 6],
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    exec: Exec,
    ends: SpatialEnds<'_>,
) {
    assert!(d < 3);
    assert_eq!(data.len(), dims.iter().product::<usize>());
    assert_eq!(cfl_per_u.len(), dims[3 + d]);
    assert!(
        exec == Exec::Scalar || Exec::lanes_fit([dims[3], dims[4], dims[5]], d),
        "SIMD spatial sweeps along axis {d} need nuz{} divisible by {LANES}",
        if d == 2 { " and nuy" } else { "" }
    );
    if let SpatialEnds::Ghost { low, high } = ends {
        let planes = GHOST * data.len() / dims[d];
        assert!(
            low.len() == planes && high.len() == planes,
            "ghost ends need {GHOST} planes on each side"
        );
    }
    let sweep = SpatialSweep {
        base: SendMutPtr(data.as_mut_ptr()),
        dims,
        d,
        cfl_per_u,
        scheme,
        ends,
    };
    (0..plan::spatial_task_count(&dims, d, exec))
        .into_par_iter()
        .for_each_init(SweepWork::default, |work, task| {
            sweep.task(exec, work, task)
        });
}

/// One spatial sweep as its tasks see it: the block, the per-velocity
/// shifts, the scheme and the line-end source. [`crate::probe`] replays
/// single tasks through the same struct.
#[derive(Clone, Copy)]
pub(crate) struct SpatialSweep<'a> {
    pub(crate) base: SendMutPtr,
    pub(crate) dims: [usize; 6],
    pub(crate) d: usize,
    pub(crate) cfl_per_u: &'a [f64],
    pub(crate) scheme: Scheme,
    pub(crate) ends: SpatialEnds<'a>,
}

impl SpatialSweep<'_> {
    /// Run task `task` of the `exec` region.
    pub(crate) fn task(&self, exec: Exec, work: &mut SweepWork, task: usize) {
        match exec {
            Exec::Scalar => self.line_task(work, task),
            Exec::Simd | Exec::Lat if self.d < 2 => self.bundle_task(work, task),
            Exec::Simd | Exec::Lat => self.tile_task(work, task),
        }
    }

    /// The line ends of the pencil starting at flat offset `base`.
    /// `load(planes, at)` reads the ghost cell at plane offset `at` in the
    /// task's cell type (a value, a packed bundle or a transposed tile).
    fn ends_at<T>(&self, base: usize, load: impl Fn(&[f32], usize) -> T) -> LineEnds<T> {
        match self.ends {
            SpatialEnds::Periodic => LineEnds::Periodic,
            SpatialEnds::Zero => LineEnds::Zero,
            SpatialEnds::Ghost { low, high } => {
                // The pencil sits at (outer, inner) of the [outer][n][inner]
                // block; its ghosts sit at the same (outer, inner) of the
                // [outer][GHOST][inner] planes.
                let stride = plan::spatial_stride(&self.dims, self.d);
                let block = self.dims[self.d] * stride;
                let at = base / block * GHOST * stride + base % block;
                LineEnds::Ghost {
                    low: core::array::from_fn(|g| load(low, at + g * stride)),
                    high: core::array::from_fn(|g| load(high, at + g * stride)),
                }
            }
        }
    }

    /// One scalar task: gather the planned pencil, advect, scatter.
    fn line_task(&self, work: &mut SweepWork, task: usize) {
        let line = plan::spatial_line(&self.dims, self.d, task);
        let cfl = self.cfl_per_u[plan::spatial_conjugate_u(&self.dims, self.d, Exec::Scalar, task)];
        let ends = self.ends_at(line.base, |planes, at| planes[at]);
        let buf = &mut work.line;
        buf.resize(line.len, 0.0);
        // SAFETY: `line` is this task's plan; racecheck proves plans of
        // distinct tasks pairwise disjoint and in bounds, so the strided
        // accesses below touch memory no other task can reach.
        unsafe {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = *self.base.0.add(line.base + i * line.stride);
            }
            advect_line(self.scheme, buf, cfl, ends, &mut work.line_work);
            for (i, b) in buf.iter().enumerate() {
                *self.base.0.add(line.base + i * line.stride) = *b;
            }
        }
    }

    /// One x/y lanes task: packed-load the planned bundle pencil, advect in
    /// lanes, store back.
    fn bundle_task(&self, work: &mut SweepWork, task: usize) {
        let b = plan::spatial_bundle(&self.dims, self.d, task);
        let cfl = self.cfl_per_u[plan::spatial_conjugate_u(&self.dims, self.d, Exec::Simd, task)];
        let ends = self.ends_at(b.base, |planes, at| f32x8::load(&planes[at..]));
        let bundle = &mut work.bundle;
        bundle.resize(b.len, f32x8::ZERO);
        // SAFETY: `b` is this task's plan (disjoint across tasks, in bounds —
        // proved by racecheck); each element is one `lanes`-wide packed access.
        unsafe {
            for (i, v) in bundle.iter_mut().enumerate() {
                let p = self.base.0.add(b.base + i * b.stride);
                *v = f32x8::load(std::slice::from_raw_parts(p, LANES));
            }
            advect_lanes(
                max_simd(self.scheme),
                bundle,
                cfl,
                ends,
                &mut work.lanes_work,
            );
            for (i, v) in bundle.iter().enumerate() {
                let p = self.base.0.add(b.base + i * b.stride);
                v.store(std::slice::from_raw_parts_mut(p, LANES));
            }
        }
    }

    /// One z tile task: stage the planned 8×8 tile pencil (and its ghost
    /// tiles) through the in-register transpose, advect each row with its
    /// own conjugate shift, transpose back and store.
    fn tile_task(&self, work: &mut SweepWork, task: usize) {
        let t = plan::spatial_tile(&self.dims, task);
        let z0 = plan::spatial_conjugate_u(&self.dims, 2, Exec::Lat, task);
        let n_line = t.len;
        let transposed = |planes: &[f32], at: usize| {
            let mut rows: [f32x8; LANES] =
                core::array::from_fn(|l| f32x8::load(&planes[at + l * t.row_stride..]));
            transpose8x8(&mut rows);
            rows
        };
        let ends = self.ends_at(t.base, transposed);
        let bundles = &mut work.bundle;
        bundles.resize(n_line * LANES, f32x8::ZERO);
        // SAFETY: `t` is this task's plan (disjoint across tasks, in bounds —
        // proved by racecheck); every access below is a packed row of the tile.
        unsafe {
            for i in 0..n_line {
                let line_base = t.base + i * t.stride;
                let mut rows: [f32x8; LANES] = core::array::from_fn(|l| {
                    f32x8::load(std::slice::from_raw_parts(
                        self.base.0.add(line_base + l * t.row_stride),
                        LANES,
                    ))
                });
                transpose8x8(&mut rows);
                for (r, row) in rows.iter().enumerate() {
                    bundles[r * n_line + i] = *row;
                }
            }
            for r in 0..LANES {
                advect_lanes(
                    max_simd(self.scheme),
                    &mut bundles[r * n_line..(r + 1) * n_line],
                    self.cfl_per_u[z0 + r],
                    ends.map(|rows| rows[r]),
                    &mut work.lanes_work,
                );
            }
            for i in 0..n_line {
                let line_base = t.base + i * t.stride;
                let mut rows: [f32x8; LANES] = core::array::from_fn(|r| bundles[r * n_line + i]);
                transpose8x8(&mut rows);
                for (l, row) in rows.iter().enumerate() {
                    row.store(std::slice::from_raw_parts_mut(
                        self.base.0.add(line_base + l * t.row_stride),
                        LANES,
                    ));
                }
            }
        }
    }
}

/// Sweep along velocity axis `d` (0 = ux, 1 = uy, 2 = uz) with zero-inflow
/// bounds. `cfl_per_cell` gives the shift per *spatial* cell:
/// `-∂φ/∂x_d · Δt / Δu_d`.
pub fn sweep_velocity(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_cell: &Field3,
    scheme: Scheme,
    exec: Exec,
) {
    assert!(d < 3);
    const SPAN: [&str; 3] = [
        "sweep.velocity.ux",
        "sweep.velocity.uy",
        "sweep.velocity.uz",
    ];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    assert_eq!(cfl_per_cell.dims(), ps.sdims);
    let dims = ps.dims6();
    let vlen = dims[3] * dims[4] * dims[5];
    let cfls = cfl_per_cell.as_slice();
    let data = ps.as_mut_slice();

    // Velocity blocks of different spatial cells are disjoint contiguous
    // chunks — safe rayon parallelism without raw pointers. Racecheck
    // region `sweep.velocity.blocks`.
    data.par_chunks_mut(vlen)
        .enumerate()
        .for_each_init(SweepWork::default, |work, (cell, block)| {
            velocity_cell_task(&dims, d, cfls[cell], scheme, exec, work, block)
        });
}

/// One velocity-sweep task: advect one spatial cell's velocity block.
pub(crate) fn velocity_cell_task(
    dims: &[usize; 6],
    d: usize,
    cfl: f64,
    scheme: Scheme,
    exec: Exec,
    work: &mut SweepWork,
    block: &mut [f32],
) {
    if cfl == 0.0 {
        return;
    }
    let nu = [dims[3], dims[4], dims[5]];
    match d {
        0 | 1 => sweep_block_uxy(block, d, nu, cfl, scheme, exec, work),
        _ => sweep_block_uz(block, nu, cfl, scheme, exec, work),
    }
}

/// Per-worker scratch of the sweep tasks, spatial and velocity.
#[derive(Default)]
pub(crate) struct SweepWork {
    line: Vec<f32>,
    bundle: Vec<f32x8>,
    line_work: LineWork,
    lanes_work: LanesWork,
}

/// The lanes kernel implements SL5/SL-MPP5; map the cheap scalar-only
/// schemes onto their nearest vectorised equivalent when a SIMD sweep is
/// requested (callers wanting exact Upwind1/Sl3 use Exec::Scalar).
fn max_simd(scheme: Scheme) -> Scheme {
    match scheme {
        Scheme::Upwind1 | Scheme::Sl3 | Scheme::Sl5 => Scheme::Sl5,
        Scheme::SlMpp5 => Scheme::SlMpp5,
    }
}

/// The `u_x` / `u_y` block sweeps: strided lines, or bundles of eight
/// contiguous `iuz` lanes (paper Fig. 1 shape).
fn sweep_block_uxy(
    block: &mut [f32],
    d: usize,
    [nux, nuy, nuz]: [usize; 3],
    cfl: f64,
    scheme: Scheme,
    exec: Exec,
    work: &mut SweepWork,
) {
    let n = [nux, nuy][d];
    match exec {
        Exec::Scalar => {
            work.line.resize(n, 0.0);
            for unit in 0..plan::block_unit_count(nux, nuy, nuz, d, Exec::Scalar) {
                let l = match d {
                    0 => plan::block_ux_line(nuy, nuz, nux, unit),
                    _ => plan::block_uy_line(nuy, nuz, unit),
                };
                for i in 0..l.len {
                    work.line[i] = block[l.base + i * l.stride];
                }
                advect_line(
                    scheme,
                    &mut work.line,
                    cfl,
                    Boundary::Zero,
                    &mut work.line_work,
                );
                for i in 0..l.len {
                    block[l.base + i * l.stride] = work.line[i];
                }
            }
        }
        Exec::Simd | Exec::Lat => {
            assert!(nuz % LANES == 0);
            work.bundle.resize(n, f32x8::ZERO);
            for unit in 0..plan::block_unit_count(nux, nuy, nuz, d, Exec::Simd) {
                let p = match d {
                    0 => plan::block_ux_bundle(nuy, nuz, nux, unit),
                    _ => plan::block_uy_bundle(nuy, nuz, unit),
                };
                for (i, b) in work.bundle.iter_mut().enumerate() {
                    *b = f32x8::load(&block[p.base + i * p.stride..]);
                }
                advect_lanes(
                    max_simd(scheme),
                    &mut work.bundle,
                    cfl,
                    Boundary::Zero,
                    &mut work.lanes_work,
                );
                for (i, b) in work.bundle.iter().enumerate() {
                    b.store(&mut block[p.base + i * p.stride..]);
                }
            }
        }
    }
}

fn sweep_block_uz(
    block: &mut [f32],
    [nux, nuy, nuz]: [usize; 3],
    cfl: f64,
    scheme: Scheme,
    exec: Exec,
    work: &mut SweepWork,
) {
    match exec {
        Exec::Scalar => {
            // Lines are contiguous — the scalar path needs no gather at all.
            for unit in 0..plan::block_unit_count(nux, nuy, nuz, 2, Exec::Scalar) {
                let l = plan::block_uz_line(nuz, unit);
                let line = &mut block[l.base..l.base + l.len];
                advect_line(scheme, line, cfl, Boundary::Zero, &mut work.line_work);
            }
        }
        Exec::Simd => {
            // Paper Fig. 2: lanes across iuy require strided element gathers —
            // the deliberately inefficient variant measured in Table 1.
            assert!(
                nuy % LANES == 0,
                "Fig.2 variant needs nuy divisible by {LANES}"
            );
            work.bundle.resize(nuz, f32x8::ZERO);
            for unit in 0..plan::block_unit_count(nux, nuy, nuz, 2, Exec::Simd) {
                let rows = plan::block_uz_rows(nuy, nuz, unit);
                for (i, b) in work.bundle.iter_mut().enumerate() {
                    let mut lanes = [0.0f32; LANES];
                    for (l, lane) in lanes.iter_mut().enumerate() {
                        *lane = block[rows.base + l * rows.stride + i];
                    }
                    *b = f32x8(lanes);
                }
                advect_lanes(
                    max_simd(scheme),
                    &mut work.bundle,
                    cfl,
                    Boundary::Zero,
                    &mut work.lanes_work,
                );
                for (i, b) in work.bundle.iter().enumerate() {
                    for l in 0..LANES {
                        block[rows.base + l * rows.stride + i] = b.0[l];
                    }
                }
            }
        }
        Exec::Lat => {
            // Paper Fig. 3: packed loads + in-register transpose, advect in
            // lane form, transpose back on the way out.
            assert!(nuy % LANES == 0 && nuz % LANES == 0);
            work.bundle.resize(nuz, f32x8::ZERO);
            for unit in 0..plan::block_unit_count(nux, nuy, nuz, 2, Exec::Lat) {
                let rows = plan::block_uz_rows(nuy, nuz, unit);
                // Load & transpose into lane-major bundle.
                for zblock in 0..nuz / LANES {
                    let z0 = zblock * LANES;
                    let mut packed: [f32x8; LANES] = core::array::from_fn(|l| {
                        f32x8::load(&block[rows.base + l * rows.stride + z0..])
                    });
                    transpose8x8(&mut packed);
                    work.bundle[z0..z0 + LANES].copy_from_slice(&packed);
                }
                advect_lanes(
                    max_simd(scheme),
                    &mut work.bundle,
                    cfl,
                    Boundary::Zero,
                    &mut work.lanes_work,
                );
                // Transpose back & store packed.
                for zblock in 0..nuz / LANES {
                    let z0 = zblock * LANES;
                    let mut packed: [f32x8; LANES] = core::array::from_fn(|r| work.bundle[z0 + r]);
                    transpose8x8(&mut packed);
                    for (l, row) in packed.iter().enumerate() {
                        row.store(&mut block[rows.base + l * rows.stride + z0..]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::VelocityGrid;

    fn test_ps() -> PhaseSpace {
        let vg = VelocityGrid::cubic(8, 1.0);
        let mut ps = PhaseSpace::zeros([8, 8, 8], vg);
        // A smooth positive filling varying in all six coordinates.
        ps.fill_with(|s, u| {
            let sx =
                (s[0] as f64 * 0.7).sin() + (s[1] as f64 * 0.4).cos() + (s[2] as f64 * 0.9).sin();
            let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.18).exp();
            (3.2 + sx) * g + 0.01
        });
        ps
    }

    fn total(ps: &PhaseSpace) -> f64 {
        ps.as_slice().iter().map(|&v| v as f64).sum()
    }

    #[test]
    fn partition_covers_exactly_once() {
        for n in 0..40 {
            for ghost in 0..8 {
                let p = partition_axis(n, ghost);
                assert_eq!(p.low.start, 0);
                assert_eq!(p.low.end, p.interior.start, "n={n} ghost={ghost}");
                assert_eq!(p.interior.end, p.high.start, "n={n} ghost={ghost}");
                assert_eq!(p.high.end, n, "n={n} ghost={ghost}");
            }
        }
    }

    #[test]
    fn interior_stencils_stay_local() {
        let p = partition_axis(16, 3);
        assert_eq!(p.low, 0..3);
        assert_eq!(p.interior, 3..13);
        assert_eq!(p.high, 13..16);
        for i in p.interior {
            assert!(i >= 3 && i + 3 < 16);
        }
    }

    #[test]
    fn thin_axis_has_empty_interior() {
        let p = partition_axis(4, 3);
        assert_eq!(p.low, 0..3);
        assert!(p.interior.is_empty());
        assert_eq!(p.high, 3..4);
        let p = partition_axis(2, 3);
        assert_eq!(p.low, 0..2);
        assert!(p.interior.is_empty());
        assert!(p.high.is_empty());
    }

    #[test]
    fn spatial_sweep_execs_agree() {
        let cfl: Vec<f64> = (0..8).map(|k| 0.1 * k as f64 - 0.35).collect();
        for d in 0..3 {
            let mut scalar = test_ps();
            let mut simd = test_ps();
            sweep_spatial(&mut scalar, d, &cfl, Scheme::SlMpp5, Exec::Scalar);
            sweep_spatial(&mut simd, d, &cfl, Scheme::SlMpp5, Exec::Simd);
            let diff = scalar.l1_distance(&simd) / scalar.len() as f64;
            assert!(diff < 1e-5, "axis {d}: mean |Δ| = {diff}");
        }
    }

    /// Spatial lines shorter than the stencil (4 cells along y) sweep
    /// exactly like the same data tiled past the stencil width: the wrapped
    /// stencil is the exact periodic continuation, for the scalar and the
    /// lanes kernel alike.
    #[test]
    fn short_spatial_lines_match_tiled_lines() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let fill = |s: [usize; 3], u: [f64; 3]| {
            let sx = (s[0] as f64 * 0.7).sin() + ((s[1] % 4) as f64 * 1.3).cos();
            (2.0 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp() + 0.01
        };
        let cfl: Vec<f64> = (0..8).map(|k| 0.35 * (k as f64 - 3.5)).collect();
        for exec in [Exec::Scalar, Exec::Simd] {
            let mut short = PhaseSpace::zeros([16, 4, 4], vg);
            let mut tiled = PhaseSpace::zeros([16, 12, 4], vg);
            short.fill_with(fill);
            tiled.fill_with(fill);
            sweep_spatial(&mut short, 1, &cfl, Scheme::SlMpp5, exec);
            sweep_spatial(&mut tiled, 1, &cfl, Scheme::SlMpp5, exec);
            for ix in 0..16 {
                for iy in 0..4 {
                    for iz in 0..4 {
                        let a = short.velocity_block([ix, iy, iz]);
                        let b = tiled.velocity_block([ix, iy, iz]);
                        assert!(
                            a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{exec:?}: cell ({ix},{iy},{iz}) differs from its tiled twin"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn velocity_sweep_execs_agree() {
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.8 * ((i as f64 * 0.13).sin());
        }
        for d in 0..3 {
            let mut scalar = test_ps();
            let mut simd = test_ps();
            sweep_velocity(&mut scalar, d, &accel, Scheme::SlMpp5, Exec::Scalar);
            sweep_velocity(&mut simd, d, &accel, Scheme::SlMpp5, Exec::Simd);
            let diff = scalar.l1_distance(&simd) / scalar.len() as f64;
            assert!(diff < 1e-5, "axis u{d}: mean |Δ| = {diff}");
        }
    }

    #[test]
    fn lat_matches_strided_simd_on_uz() {
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.5 * ((i as f64 * 0.31).cos());
        }
        let mut simd = test_ps();
        let mut lat = test_ps();
        sweep_velocity(&mut simd, 2, &accel, Scheme::SlMpp5, Exec::Simd);
        sweep_velocity(&mut lat, 2, &accel, Scheme::SlMpp5, Exec::Lat);
        let diff = simd.l1_distance(&lat);
        assert!(diff < 1e-4, "LAT vs strided SIMD differ: {diff}");
    }

    /// Tiny-grid scalar sweeps sized for the Miri interpreter. This is the
    /// target of the CI job `cargo miri test -p vlasov6d-phase-space
    /// miri_smoke`, which validates the unsafe gather/scatter line access
    /// (disjoint-index raw-pointer writes through `SendMutPtr`).
    #[test]
    fn miri_smoke_scalar_sweeps() {
        let vg = VelocityGrid::cubic(6, 1.0);
        let mut ps = PhaseSpace::zeros([8, 2, 2], vg);
        ps.fill_with(|s, u| {
            let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp();
            (1.0 + 0.2 * (s[0] as f64 * 0.8).sin()) * g + 0.01
        });
        let m0 = total(&ps);
        let cfl: Vec<f64> = (0..6).map(|k| 0.25 * (k as f64 - 2.5)).collect();
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        let m1 = total(&ps);
        assert!((m1 - m0).abs() < 1e-2 * m0, "{m0} -> {m1}");

        let mut accel = Field3::zeros([8, 2, 2]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = 0.4 * (i as f64 * 0.21).sin();
        }
        sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, Exec::Scalar);
        assert!(ps.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    /// Same shape as [`miri_smoke_scalar_sweeps`] but driven through real
    /// pool workers — the CI Miri data-race step. Two threads are enough
    /// for Miri to explore cross-thread interleavings of the raw-pointer
    /// writes; the sweep must also stay bitwise equal to the 1-thread run.
    #[test]
    fn miri_smoke_threaded_sweep() {
        let build = || {
            let vg = VelocityGrid::cubic(6, 1.0);
            let mut ps = PhaseSpace::zeros([8, 2, 2], vg);
            ps.fill_with(|s, u| {
                let g = (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.3).exp();
                (1.0 + 0.2 * (s[0] as f64 * 0.8).sin()) * g + 0.01
            });
            ps
        };
        let cfl: Vec<f64> = (0..6).map(|k| 0.25 * (k as f64 - 2.5)).collect();
        let mut oracle = build();
        rayon::with_num_threads(1, || {
            sweep_spatial(&mut oracle, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        });
        let mut threaded = build();
        rayon::with_num_threads(2, || {
            sweep_spatial(&mut threaded, 0, &cfl, Scheme::SlMpp5, Exec::Scalar);
        });
        assert_eq!(oracle.as_slice(), threaded.as_slice());
    }

    #[test]
    fn spatial_sweep_conserves_mass() {
        let cfl: Vec<f64> = (0..8).map(|k| 0.3 * (k as f64 - 3.5)).collect();
        for exec in [Exec::Scalar, Exec::Simd] {
            let mut ps = test_ps();
            let m0 = total(&ps);
            for d in 0..3 {
                sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, exec);
            }
            let m1 = total(&ps);
            assert!((m1 - m0).abs() < 1e-2 * m0, "{exec:?}: {m0} -> {m1}");
        }
    }

    #[test]
    fn spatial_sweep_with_uniform_velocity_translates() {
        // cfl = 1 for every velocity: exact one-cell shift along x.
        let cfl = vec![1.0; 8];
        let mut ps = test_ps();
        let orig = ps.clone();
        sweep_spatial(&mut ps, 0, &cfl, Scheme::SlMpp5, Exec::Simd);
        for ix in 0..8 {
            let src = (ix + 7) % 8;
            for iu in 0..8 {
                let a = ps.get([ix, 3, 4], [iu, 2, 5]);
                let b = orig.get([src, 3, 4], [iu, 2, 5]);
                assert!((a - b).abs() < 1e-6, "ix {ix}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn velocity_sweep_shifts_distribution_peak() {
        let vg = VelocityGrid::cubic(16, 2.0);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        ps.fill_with(|_, u| (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.25).exp());
        let mut accel = Field3::zeros([2, 2, 2]);
        accel.fill(4.0); // shift +4 cells = +1.0 in u units (du = 0.25)
        sweep_velocity(&mut ps, 0, &accel, Scheme::SlMpp5, Exec::Simd);
        // The peak along ux should now sit at u ≈ +1.0 (index 11 or 12).
        let mut best = (0, -1.0f32);
        for iux in 0..16 {
            let v = ps.get([0, 0, 0], [iux, 8, 8]);
            if v > best.1 {
                best = (iux, v);
            }
        }
        // u = 1.0 lies at index (1.0 + 2.0)/0.25 - 0.5 = 11.5 → 11 or 12.
        assert!(best.0 == 11 || best.0 == 12, "peak at {}", best.0);
    }

    #[test]
    fn velocity_sweep_drains_mass_at_large_accel() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let mut ps = PhaseSpace::zeros([2, 2, 2], vg);
        ps.fill_with(|_, _| 1.0);
        let mut accel = Field3::zeros([2, 2, 2]);
        accel.fill(3.0);
        let m0 = total(&ps);
        sweep_velocity(&mut ps, 1, &accel, Scheme::SlMpp5, Exec::Scalar);
        // 3 of 8 cells' content pushed past the +V edge.
        let m1 = total(&ps);
        assert!(m1 < m0 * 0.70, "{m0} -> {m1}");
        assert!(m1 > m0 * 0.55);
    }

    #[test]
    fn sweeps_preserve_positivity() {
        let mut ps = test_ps();
        let cfl: Vec<f64> = (0..8).map(|k| 0.45 * (k as f64 - 3.5) / 3.5).collect();
        let mut accel = Field3::zeros([8, 8, 8]);
        for (i, v) in accel.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37) % 17) as f64 / 17.0 - 0.5;
        }
        for _ in 0..3 {
            for d in 0..3 {
                sweep_spatial(&mut ps, d, &cfl, Scheme::SlMpp5, Exec::Simd);
                sweep_velocity(&mut ps, d, &accel, Scheme::SlMpp5, Exec::Lat);
            }
        }
        assert!(ps.min_value() >= 0.0, "min = {}", ps.min_value());
    }
}
