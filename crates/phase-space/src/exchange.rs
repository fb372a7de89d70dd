//! Spatial ghost-plane exchange and distributed sweeps.
//!
//! The spatial axes are block-decomposed across ranks (paper §5.1.3); a
//! spatial sweep needs `GHOST_WIDTH = 3` planes from each neighbour (the
//! half-width of the SL-MPP5 stencil). The exchange is the dominant
//! communication of the Vlasov part: each plane carries the full velocity
//! grid, `width · (Π other spatial dims) · Nu · 4` bytes — the quantity the
//! performance model prices ([`ghost_plane_bytes`]).
//!
//! Both distributed sweeps are schedules over the one plan-driven spatial
//! sweep of [`crate::sweep::sweep_lines`] — the same tasks, lane batching,
//! LAT staging and pool as the serial sweep — whose lines take their ends
//! from the received planes ([`SpatialEnds::Ghost`]). The kernel comes from
//! [`Exec::for_grid`].
//!
//! Distributed sweeps require `|cfl| < 1` so the upwind stencil never reaches
//! beyond the exchanged planes; the time-step controller in `vlasov6d`
//! guarantees this (the paper does the same — spatial CFL below unity).

use crate::dist_fn::PhaseSpace;
use crate::sweep::{sweep_lines, Exec, SpatialEnds};
use vlasov6d_advection::line::Scheme;
use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{Cart3, CommPlan};

/// Ghost planes needed by the fifth-order stencil — by definition the kernel
/// ghost width [`vlasov6d_advection::GHOST`], re-exported here so the
/// exchange layer and the advection kernels cannot drift apart (kerncheck's
/// footprint pass additionally proves both equal the probed stencil radius).
pub const GHOST_WIDTH: usize = vlasov6d_advection::GHOST;

/// Bytes of the `width` edge planes rank `rank` ships along axis `d`:
/// `width · (Π of its other local dims) · vlen · 4`. The one definition
/// behind both exchange plans and kerncheck's per-edge byte audit.
pub fn ghost_plane_bytes(
    decomp: &Decomp3,
    rank: usize,
    vlen: usize,
    d: usize,
    width: usize,
) -> u64 {
    let ld = decomp.local_dims(rank);
    let cross: usize = (0..3).filter(|&a| a != d).map(|a| ld[a]).product();
    (width * cross * vlen * std::mem::size_of::<f32>()) as u64
}

/// Declarative communication plan of [`exchange_ghosts`] over the whole
/// process grid: per rank, a send of its low planes to the low neighbour
/// (tag `tag`) and of its high planes to the high neighbour (tag `tag + 1`),
/// with the matching receives. `vlen` is the velocity-grid length (planes
/// carry `width · (Π other spatial dims) · vlen` f32 values). Verify with
/// [`vlasov6d_mpisim::cart_neighbor_edges`] topology and volume symmetry —
/// neighbours along an axis share their cross-section, so byte counts must
/// balance.
pub fn ghost_exchange_plan(
    decomp: &Decomp3,
    vlen: usize,
    d: usize,
    width: usize,
    tag: u64,
) -> CommPlan {
    let mut plan = CommPlan::new(format!("ghost_exchange.axis{d}"), decomp.n_ranks());
    let bytes = |rank| ghost_plane_bytes(decomp, rank, vlen, d, width);
    for r in 0..decomp.n_ranks() {
        let low = decomp.neighbor(r, d, -1);
        let high = decomp.neighbor(r, d, 1);
        // Mirrors the two shift_exchange calls of `exchange_ghosts`, in
        // program order: low planes toward -1 under `tag`, high planes
        // toward +1 under `tag + 1`.
        plan.send(r, low, tag, bytes(r));
        plan.recv(r, high, tag, bytes(high));
        plan.send(r, high, tag + 1, bytes(r));
        plan.recv(r, low, tag + 1, bytes(low));
    }
    plan
}

/// Declarative plan of the split-phase ghost exchange used by
/// [`sweep_spatial_overlapped`]: the same edges, tags and byte counts as
/// [`ghost_exchange_plan`], but posted as `isend`/`irecv` pairs whose waits
/// come after the interior compute. Verifying it proves the overlap posts
/// every request it later waits on and waits on every request it posts.
pub fn ghost_exchange_split_plan(
    decomp: &Decomp3,
    vlen: usize,
    d: usize,
    width: usize,
    tag: u64,
) -> CommPlan {
    let mut plan = CommPlan::new(format!("ghost_exchange_split.axis{d}"), decomp.n_ranks());
    let bytes = |rank| ghost_plane_bytes(decomp, rank, vlen, d, width);
    for r in 0..decomp.n_ranks() {
        let low = decomp.neighbor(r, d, -1);
        let high = decomp.neighbor(r, d, 1);
        // Post phase (before the interior sweep)...
        plan.isend(r, low, tag, bytes(r));
        plan.irecv(r, high, tag, bytes(high));
        plan.isend(r, high, tag + 1, bytes(r));
        plan.irecv(r, low, tag + 1, bytes(low));
        // ...then the waits (after it), receives first.
        plan.wait_recv(r, high, tag);
        plan.wait_recv(r, low, tag + 1);
        plan.wait_send(r, low, tag);
        plan.wait_send(r, high, tag + 1);
    }
    plan
}

/// Copy `width` planes along one axis between two buffers with the same
/// outer and trailing extents (`stride` values per plane): planes
/// `[src_start, src_start + width)` of `src`, which holds `src_n` planes per
/// outer index, land at `dst_start` in `dst` (`dst_n` planes per outer
/// index). Line order is preserved.
fn copy_planes(
    src: &[f32],
    src_n: usize,
    src_start: usize,
    dst: &mut [f32],
    dst_n: usize,
    dst_start: usize,
    width: usize,
    stride: usize,
) {
    let chunk = width * stride;
    let src_blocks = src.chunks_exact(src_n * stride);
    for (s, t) in src_blocks.zip(dst.chunks_exact_mut(dst_n * stride)) {
        t[dst_start * stride..][..chunk].copy_from_slice(&s[src_start * stride..][..chunk]);
    }
}

/// Extract `width` planes `[start, start+width)` along spatial axis `d` into
/// a flat buffer with layout `[width][trailing dims]` (line order preserved).
pub fn extract_planes(ps: &PhaseSpace, d: usize, start: usize, width: usize) -> Vec<f32> {
    let dims = ps.dims6();
    let n = dims[d];
    assert!(start + width <= n);
    let stride: usize = dims[d + 1..].iter().product();
    let n_outer: usize = dims[..d].iter().product();
    let mut out = vec![0.0f32; n_outer * width * stride];
    copy_planes(ps.as_slice(), n, start, &mut out, width, 0, width, stride);
    out
}

/// Exchange edge planes with both neighbours along spatial axis `d`.
/// Returns `(from_low_neighbor, from_high_neighbor)`: the `width` planes just
/// below and just above this rank's block, in [`extract_planes`] layout.
pub fn exchange_ghosts(
    ps: &PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    width: usize,
    tag: u64,
) -> (Vec<f32>, Vec<f32>) {
    let n = ps.sdims[d];
    assert!(
        n >= width,
        "block thinner than the ghost width along axis {d}"
    );
    // My low planes travel to the low neighbour (becoming its high ghosts);
    // I receive the high neighbour's low planes as my high ghosts — and vice
    // versa.
    let my_low = extract_planes(ps, d, 0, width);
    let my_high = extract_planes(ps, d, n - width, width);
    let from_high = cart.shift_exchange(d, -1, tag, my_low); // send low-, recv from high+... see below
    let from_low = cart.shift_exchange(d, 1, tag + 1, my_high);
    // shift_exchange(axis, dir, ..) sends toward `dir` and receives from the
    // opposite side: dir=-1 sends my low planes to the low neighbour and
    // returns what the high neighbour sent (its low planes) → my high ghosts.
    (from_low, from_high)
}

/// Argument checks shared by both distributed sweeps; returns the kernel
/// the sweep runs ([`Exec::for_grid`]).
fn distributed_exec(ps: &PhaseSpace, d: usize, cfl_per_u: &[f64], scheme: Scheme) -> Exec {
    assert!(d < 3);
    assert_eq!(cfl_per_u.len(), ps.vgrid.n[d]);
    assert!(
        cfl_per_u.iter().all(|c| c.abs() < 1.0),
        "distributed sweeps require |cfl| < 1 (ghost width {GHOST_WIDTH})"
    );
    assert!(
        ps.sdims[d] >= GHOST_WIDTH,
        "block thinner than the ghost width along axis {d}"
    );
    Exec::for_grid(scheme, ps.vgrid.n)
}

/// Distributed spatial sweep along axis `d` with `|cfl| < 1` for every
/// velocity index: exchange the ghost planes, then run the spatial sweep
/// with ghost line ends. Each line sees exactly the stencil values of the
/// same line in the undecomposed periodic grid, so with the kernel of
/// [`Exec::for_grid`] the result equals [`crate::sweep::sweep_spatial`] at
/// that exec bit for bit.
pub fn sweep_spatial_distributed(
    ps: &mut PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    tag: u64,
) {
    let exec = distributed_exec(ps, d, cfl_per_u, scheme);
    const SPAN: [&str; 3] = ["sweep.dist.x", "sweep.dist.y", "sweep.dist.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    let (low, high) = {
        let _g = vlasov6d_obs::span!("sweep.ghost_exchange");
        // The blocking exchange serialises before the sweep: all of its
        // time is exposed on the critical path.
        let _e = vlasov6d_obs::span!("comm.exposed");
        exchange_ghosts(ps, cart, d, GHOST_WIDTH, tag)
    };
    let dims = ps.dims6();
    let ends = SpatialEnds::Ghost {
        low: &low,
        high: &high,
    };
    sweep_lines(ps.as_mut_slice(), dims, d, cfl_per_u, scheme, exec, ends);
}

/// Distributed spatial sweep along axis `d` that hides the ghost exchange
/// behind the interior advection — the paper's overlap of halo traffic with
/// the spatial sweeps. The same sweep as [`sweep_spatial_distributed`] under
/// a second schedule, and bitwise identical to it:
///
/// 1. **Post** the ghost-plane `isend`/`irecv` pairs (same neighbours, tags
///    and byte counts as the blocking exchange).
/// 2. **Interior** (`comm.hidden` span): save the `2·GHOST_WIDTH` planes at
///    each end, then sweep the block with zero line ends. Cells of
///    [`crate::partition_axis`]'s interior keep their result — their
///    `±GHOST_WIDTH` stencils never leave the block.
/// 3. **Wait** (`comm.exposed` span): collect the four requests; only this
///    remainder of the exchange sits on the critical path.
/// 4. **Boundary**: sweep the `GHOST_WIDTH` saved edge planes at each end as
///    a window whose ghost ends are the received planes on the outside and
///    the saved pre-sweep planes next to it on the inside, and copy the
///    windows back into the block. Their stencils hold the same values as
///    in the synchronous sweep.
///
/// The kernel is a pure per-cell function of its stencil window, so every
/// kept cell equals the synchronous result bit for bit, which
/// `tests/distributed_consistency.rs` enforces for every scheme and rank
/// count.
///
/// Blocks thinner than `2·GHOST_WIDTH` along `d` have no interior; they wait
/// immediately and take the synchronous sweep.
pub fn sweep_spatial_overlapped(
    ps: &mut PhaseSpace,
    cart: &Cart3<'_>,
    d: usize,
    cfl_per_u: &[f64],
    scheme: Scheme,
    tag: u64,
) {
    let exec = distributed_exec(ps, d, cfl_per_u, scheme);
    const SPAN: [&str; 3] = ["sweep.overlap.x", "sweep.overlap.y", "sweep.overlap.z"];
    let _obs = vlasov6d_obs::span!(SPAN[d], vlasov6d_obs::Bucket::Vlasov);
    let gw = GHOST_WIDTH;
    let n = ps.sdims[d];
    let dims = ps.dims6();
    let comm = cart.comm();
    let low_nb = cart.neighbor(d, -1);
    let high_nb = cart.neighbor(d, 1);

    // Post phase: the same messages (edges, tags, sizes) as
    // `exchange_ghosts`, so plan verification, traffic accounting and the
    // kerncheck byte audit see an identical exchange.
    let send_low = comm.isend(low_nb, tag, extract_planes(ps, d, 0, gw));
    let recv_high = comm.irecv::<Vec<f32>>(high_nb, tag);
    let send_high = comm.isend(high_nb, tag + 1, extract_planes(ps, d, n - gw, gw));
    let recv_low = comm.irecv::<Vec<f32>>(low_nb, tag + 1);
    // Wait phase: only this remainder of the exchange is exposed.
    let wait = || {
        let _e = vlasov6d_obs::span!("comm.exposed");
        let high = recv_high.wait();
        let low = recv_low.wait();
        send_low.wait();
        send_high.wait();
        (low, high)
    };

    if n < 2 * gw {
        // No interior to hide the messages behind.
        let (low, high) = wait();
        let ends = SpatialEnds::Ghost {
            low: &low,
            high: &high,
        };
        sweep_lines(ps.as_mut_slice(), dims, d, cfl_per_u, scheme, exec, ends);
        return;
    }

    // The interior pass overwrites the planes the boundary stencils still
    // need at their pre-sweep values: save the `2·GHOST_WIDTH` planes at each
    // end. The outer `GHOST_WIDTH` form the window, the inner ones its ghost
    // end facing the interior.
    let mut edge_low = extract_planes(ps, d, 0, gw);
    let inner_low = extract_planes(ps, d, gw, gw);
    let inner_high = extract_planes(ps, d, n - 2 * gw, gw);
    let mut edge_high = extract_planes(ps, d, n - gw, gw);
    {
        let _h = vlasov6d_obs::span!("comm.hidden");
        let ends = SpatialEnds::Zero;
        sweep_lines(ps.as_mut_slice(), dims, d, cfl_per_u, scheme, exec, ends);
    }
    let (low, high) = wait();

    // Boundary phase: both ends of each window are exact, so every window
    // cell equals the synchronous result.
    let mut window_dims = dims;
    window_dims[d] = gw;
    for (window, low, high) in [
        (&mut edge_low, &low, &inner_low),
        (&mut edge_high, &inner_high, &high),
    ] {
        let ends = SpatialEnds::Ghost { low, high };
        sweep_lines(window, window_dims, d, cfl_per_u, scheme, exec, ends);
    }
    let stride: usize = dims[d + 1..].iter().product();
    let data = ps.as_mut_slice();
    copy_planes(&edge_low, gw, 0, data, n, 0, gw, stride);
    copy_planes(&edge_high, gw, 0, data, n, n - gw, gw, stride);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::VelocityGrid;
    use vlasov6d_mesh::Decomp3;
    use vlasov6d_mpisim::Universe;

    fn global_fill(s: [usize; 3], u: [f64; 3]) -> f64 {
        let sx =
            (s[0] as f64 * 0.61).sin() + (s[1] as f64 * 0.37).cos() + (s[2] as f64 * 0.83).sin();
        (2.2 + sx) * (-(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) / 0.4).exp() + 0.02
    }

    #[test]
    fn extract_planes_matches_direct_indexing() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let mut ps = PhaseSpace::zeros([4, 4, 4], vg);
        ps.fill_with(global_fill);
        for d in 0..3 {
            let planes = extract_planes(&ps, d, 1, 2);
            // Check one element: outer=0, plane g=1 (global idx 2 along d), inner=5.
            let dims = ps.dims6();
            let stride: usize = dims[d + 1..].iter().product();
            assert_eq!(planes[stride + 5], {
                let flat = 2 * stride + 5;
                ps.as_slice()[flat]
            });
        }
    }

    /// The distributed sweep is the serial periodic sweep at the exec the
    /// kernel rule picks, bit for bit: every line sees the same stencil
    /// values through the same kernel, whether its ends wrap or arrive as
    /// ghost planes. The 4-cell local blocks make every line shorter than
    /// the stencil reach.
    #[test]
    fn distributed_sweep_matches_serial() {
        let vg = VelocityGrid::cubic(8, 1.0);
        let sglobal = [8usize, 8, 8];
        let cfl: Vec<f64> = (0..8).map(|k| 0.22 * (k as f64 - 3.5) / 3.5).collect();
        let exec = Exec::for_grid(Scheme::SlMpp5, vg.n);
        assert_eq!(exec, Exec::Simd);

        // Serial reference.
        let mut serial = PhaseSpace::zeros(sglobal, vg);
        serial.fill_with(global_fill);
        for d in 0..3 {
            crate::sweep::sweep_spatial(&mut serial, d, &cfl, Scheme::SlMpp5, exec);
        }

        // Distributed run on a 2×2×2 process grid.
        let decomp = Decomp3::new(sglobal, [2, 2, 2]);
        let cfl2 = cfl.clone();
        let blocks = Universe::run(8, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let off = cart.local_offset();
            let ldims = cart.local_dims();
            let mut ps = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
            ps.fill_with(global_fill);
            for d in 0..3 {
                sweep_spatial_distributed(
                    &mut ps,
                    &cart,
                    d,
                    &cfl2,
                    Scheme::SlMpp5,
                    100 + d as u64 * 10,
                );
                cart.comm().barrier();
            }
            (off, ldims, ps.as_slice().to_vec())
        });

        // Compare every local block against the serial result.
        let vlen = vg.len();
        for (off, ldims, data) in blocks {
            for lx in 0..ldims[0] {
                for ly in 0..ldims[1] {
                    for lz in 0..ldims[2] {
                        let cell = (lx * ldims[1] + ly) * ldims[2] + lz;
                        let sref = serial.velocity_block([off[0] + lx, off[1] + ly, off[2] + lz]);
                        let got = &data[cell * vlen..(cell + 1) * vlen];
                        for (a, b) in got.iter().zip(sref) {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "mismatch at block {off:?} cell ({lx},{ly},{lz}): {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_on_single_rank_axis_is_periodic_wrap() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let sglobal = [8usize, 4, 4];
        let decomp = Decomp3::new(sglobal, [1, 1, 1]);
        Universe::run(1, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps = PhaseSpace::zeros_block([8, 4, 4], [0, 0, 0], sglobal, vg);
            ps.fill_with(global_fill);
            let (from_low, from_high) = exchange_ghosts(&ps, &cart, 0, 3, 7);
            // from_low must equal my own top planes (periodic wrap).
            let top = extract_planes(&ps, 0, 5, 3);
            let bottom = extract_planes(&ps, 0, 0, 3);
            assert_eq!(from_low, top);
            assert_eq!(from_high, bottom);
        });
    }

    #[test]
    fn ghost_exchange_plan_verifies_on_cart_topology() {
        use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: true,
        };
        for d in 0..3 {
            let stats = ghost_exchange_plan(&decomp, 512, d, GHOST_WIDTH, 40).assert_valid(&checks);
            assert_eq!(stats.sends, 2 * decomp.n_ranks());
            assert_eq!(stats.recvs, 2 * decomp.n_ranks());
        }
        // Axis 0, 4 ranks: each plane block is 3·8·8·512 f32 = 393216 B.
        let stats = ghost_exchange_plan(&decomp, 512, 0, GHOST_WIDTH, 40)
            .verify()
            .expect("clean");
        assert_eq!(stats.bytes, 8 * 3 * 8 * 8 * 512 * 4);
    }

    #[test]
    fn miswired_ghost_exchange_swapped_tags_is_rejected() {
        use vlasov6d_mpisim::{CommPlan, PlanError};
        // Seeded miswire: rank 0 swaps the two tags of its sends — its low
        // planes travel under the high-ghost tag and vice versa. On a ring
        // with > 2 ranks the neighbours differ, so the verifier must reject
        // the plan statically instead of letting the exchange wedge or
        // deliver planes to the wrong side.
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let good = ghost_exchange_plan(&decomp, 64, 0, GHOST_WIDTH, 40);
        let mut bad = CommPlan::new("ghost_exchange.miswired", decomp.n_ranks());
        for r in 0..decomp.n_ranks() {
            let low = decomp.neighbor(r, 0, -1);
            let high = decomp.neighbor(r, 0, 1);
            let b = 3 * 8 * 8 * 64 * 4;
            let (t_low, t_high) = if r == 0 { (41, 40) } else { (40, 41) };
            bad.send(r, low, t_low, b);
            bad.recv(r, high, 40, b);
            bad.send(r, high, t_high, b);
            bad.recv(r, low, 41, b);
        }
        good.verify().expect("unswapped plan is clean");
        let errs = bad.verify().unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                PlanError::UnmatchedRecv { .. } | PlanError::TagCollision { .. }
            )),
            "swapped tags must surface as unmatched/colliding edges: {errs:?}"
        );
    }

    #[test]
    fn overlapped_sweep_is_bitwise_identical_to_synchronous() {
        // The tentpole guarantee at sweep granularity: for every scheme, for
        // decomposed and wrapped axes, for blocks thick enough to overlap and
        // thin enough to hit the fallback (n = 4 < 2·GHOST_WIDTH), the
        // overlapped sweep reproduces the synchronous sweep bit for bit. The
        // 4-cell velocity grid runs the scalar kernel, the 8-cell one the
        // lanes kernel for SL5 / SL-MPP5 (`Exec::for_grid`).
        for &(ranks, sglobal, nv) in &[
            (1usize, [8usize, 4, 4], 4usize), // n = 8, self-wrap neighbours
            (2, [16, 4, 4], 4),               // n = 8, distinct neighbours
            (4, [16, 4, 4], 4),               // n = 4, thin-block fallback
            (2, [16, 4, 4], 8),
            (4, [16, 4, 4], 8),
        ] {
            let vg = VelocityGrid::cubic(nv, 0.8);
            // Mixed-sign CFL numbers so both line orientations are exercised.
            let mid = (nv as f64 - 1.0) / 2.0;
            let cfl: Vec<f64> = (0..nv).map(|k| 0.675 * (k as f64 - mid) / mid).collect();
            let decomp = Decomp3::new(sglobal, [ranks, 1, 1]);
            for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
                let cfl = cfl.clone();
                Universe::run(ranks, move |comm| {
                    let cart = Cart3::new(comm, decomp);
                    let off = cart.local_offset();
                    let ldims = cart.local_dims();
                    let mut sync = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
                    sync.fill_with(global_fill);
                    let mut over = PhaseSpace::zeros_block(ldims, off, sglobal, vg);
                    over.fill_with(global_fill);
                    for d in 0..3 {
                        let base = 100 + d as u64 * 10;
                        sweep_spatial_distributed(&mut sync, &cart, d, &cfl, scheme, base);
                        cart.comm().barrier();
                        sweep_spatial_overlapped(&mut over, &cart, d, &cfl, scheme, base + 5);
                        cart.comm().barrier();
                    }
                    for (i, (a, b)) in sync.as_slice().iter().zip(over.as_slice()).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "bit divergence: {ranks} rank(s), {scheme:?}, \
                             block {off:?}, flat index {i}: {a:?} vs {b:?}"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn ghost_exchange_split_plan_verifies_on_cart_topology() {
        use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
        let decomp = Decomp3::new([16, 8, 8], [4, 1, 1]);
        let checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: true,
        };
        for d in 0..3 {
            let split = ghost_exchange_split_plan(&decomp, 512, d, GHOST_WIDTH, 40);
            let stats = split.assert_valid(&checks);
            // Identical message set to the blocking plan: same edge count and
            // the same bytes on the wire.
            let blocking = ghost_exchange_plan(&decomp, 512, d, GHOST_WIDTH, 40)
                .verify()
                .expect("clean");
            assert_eq!(stats.sends, blocking.sends);
            assert_eq!(stats.recvs, blocking.recvs);
            assert_eq!(stats.bytes, blocking.bytes);
        }
    }

    #[test]
    fn overlapped_sweep_is_schedule_independent() {
        // Delivery order must not change the bits and no schedule may
        // deadlock or strand a request.
        use vlasov6d_mpisim::sched::Explorer;
        let vg = VelocityGrid::cubic(2, 0.8);
        let sglobal = [16usize, 4, 4];
        let decomp = Decomp3::new(sglobal, [4, 1, 1]);
        let cfl = [-0.4f64, 0.4];
        let report = Explorer::new(4).with_seeds(0..6).explore(move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps =
                PhaseSpace::zeros_block(cart.local_dims(), cart.local_offset(), sglobal, vg);
            ps.fill_with(global_fill);
            for d in 0..3 {
                sweep_spatial_overlapped(
                    &mut ps,
                    &cart,
                    d,
                    &cfl,
                    Scheme::SlMpp5,
                    60 + d as u64 * 10,
                );
                cart.comm().barrier();
            }
            ps.as_slice().iter().fold(0u64, |h, v| {
                h.wrapping_mul(1_099_511_628_211)
                    .wrapping_add(v.to_bits() as u64)
            })
        });
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    #[should_panic(expected = "require |cfl| < 1")]
    fn distributed_sweep_rejects_large_cfl() {
        let vg = VelocityGrid::cubic(4, 1.0);
        let decomp = Decomp3::new([8, 8, 8], [1, 1, 1]);
        Universe::run(1, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mut ps = PhaseSpace::zeros_block([8, 8, 8], [0, 0, 0], [8, 8, 8], vg);
            let cfl = vec![1.5; 4];
            sweep_spatial_distributed(&mut ps, &cart, 0, &cfl, Scheme::SlMpp5, 0);
        });
    }
}
