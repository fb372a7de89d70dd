//! Single-task replay entry points for racecheck's taint probe.
//!
//! `crates/racecheck` validates the sweep regions by executing *one task at
//! a time* on a fresh copy of the initial state and diffing: every changed
//! element must lie inside the task's declared [`crate::plan`], no two
//! tasks may change the same element, and splicing the single-task diffs
//! together must reproduce the full parallel sweep bitwise (which proves
//! the tasks neither write nor read each other's footprints). These entry
//! points run exactly the same task bodies the parallel regions dispatch —
//! they are the probe's handle on the real kernels, not reimplementations.

use crate::dist_fn::PhaseSpace;
use crate::plan;
use crate::sweep::{velocity_cell_task, Exec, SendMutPtr, SpatialEnds, SpatialSweep, SweepWork};
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::Field3;

/// Number of parallel tasks `sweep_spatial(ps, d, .., exec)` would launch.
pub fn spatial_task_count(ps: &PhaseSpace, d: usize, exec: Exec) -> usize {
    plan::spatial_task_count(&ps.dims6(), d, exec)
}

/// Execute exactly one task of the spatial-sweep region with line ends
/// `ends` — the same body [`crate::sweep::sweep_lines`] runs on the pool,
/// with fresh scratch state.
pub fn run_spatial_task(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    exec: Exec,
    ends: SpatialEnds<'_>,
    task: usize,
) {
    assert!(d < 3);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    let dims = ps.dims6();
    assert!(task < plan::spatial_task_count(&dims, d, exec));
    let sweep = SpatialSweep {
        base: SendMutPtr(ps.as_mut_slice().as_mut_ptr()),
        dims,
        d,
        cfl_per_u,
        scheme,
        ends,
    };
    sweep.task(exec, &mut SweepWork::default(), task);
}

/// Number of parallel tasks `sweep_velocity` would launch (one per cell).
pub fn velocity_task_count(ps: &PhaseSpace) -> usize {
    plan::velocity_task_count(&ps.dims6())
}

/// Execute exactly one task of the velocity-sweep region (one cell's block).
pub fn run_velocity_task(
    ps: &mut PhaseSpace,
    d: usize,
    cfl_per_cell: &Field3,
    scheme: Scheme,
    exec: Exec,
    cell: usize,
) {
    assert!(d < 3);
    assert_eq!(cfl_per_cell.dims(), ps.sdims);
    let dims = ps.dims6();
    assert!(cell < plan::velocity_task_count(&dims));
    let cfl = cfl_per_cell.as_slice()[cell];
    let block = &mut ps.as_mut_slice()[plan::velocity_block(&dims, cell)];
    let mut work = SweepWork::default();
    velocity_cell_task(&dims, d, cfl, scheme, exec, &mut work, block);
}
