//! Pass 3 — stencil-footprint extraction and ghost-width consistency.
//!
//! A widened stencil that outruns the halo exchange is the classic silent
//! distributed-memory bug: the kernel reads one plane past what was
//! exchanged, the interior answer is subtly wrong, and no assertion fires.
//! This pass closes the loop from the *kernels themselves* to the *comm
//! layer*:
//!
//! 1. **probe** the real `advect_line` — perturb each input cell over several
//!    bases (limiters flatten single-base probes, so constant, random, and
//!    spike bases are all used) and record which offsets reach a fixed output
//!    cell, for positive and negative shifts;
//! 2. **cross-validate** against the structural footprint from the taint
//!    domain over the pinned model (probing can only under-observe; taint can
//!    only over-approximate — agreement pins the radius from both sides);
//! 3. probe the **mesh stencils** (`gradient_axis`, `laplacian`) the same way
//!    (they are linear, so one delta-field probe is exhaustive by
//!    superposition) and check the advertised radius constants;
//! 4. check the constants line up: probed radius == `advection::GHOST` ==
//!    `phase_space::exchange::GHOST_WIDTH`, and every per-edge byte count of
//!    `ghost_exchange_plan` equals `ghost_plane_bytes` (`GHOST ·
//!    cross-section · vlen · 4`) and the size of the planes the exchange
//!    extracts — so the exchanged volume provably covers the stencil reach.

use crate::model::flux_taint;
use crate::report::Report;
use std::collections::BTreeSet;
use vlasov6d_advection::line::{advect_line, LineWork, GHOST};
use vlasov6d_advection::{Boundary, Scheme};
use vlasov6d_mesh::stencil::{gradient_axis, laplacian, GradientOrder};
use vlasov6d_mesh::{Decomp3, Field3};
use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks};
use vlasov6d_phase_space::exchange::{
    extract_planes, ghost_exchange_plan, ghost_plane_bytes, GHOST_WIDTH,
};
use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// Offsets `d` such that perturbing `line[i + d]` changes `advect_line`'s
/// output at cell `i`, unioned over probe bases, perturbation sizes and the
/// given shifts. Uses a mid-line output cell so the periodic wrap never
/// aliases offsets.
pub fn probe_advection_offsets(scheme: Scheme, cfls: &[f64]) -> BTreeSet<i64> {
    let n = 32usize;
    let i = 16usize;
    let mut work = LineWork::new();
    let mut offsets = BTreeSet::new();
    // Bases chosen to break limiter plateaus: constant (clamp active),
    // pseudo-random positive (generic), spike (extrema clipping active).
    let mut state = 0x853c49e6748fea9bu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
    };
    let random: Vec<f32> = (0..n).map(|_| 0.2 + next()).collect();
    let mut spike = vec![0.1f32; n];
    spike[i] = 3.0;
    let smooth: Vec<f32> = (0..n)
        .map(|k| 2.5 + (2.0 * std::f64::consts::PI * k as f64 / n as f64).sin() as f32)
        .collect();
    let bases: [Vec<f32>; 4] = [vec![1.0; n], random, spike, smooth];
    for &cfl in cfls {
        for base in &bases {
            let mut reference = base.clone();
            advect_line(scheme, &mut reference, cfl, Boundary::Periodic, &mut work);
            for (j, delta) in (0..n).flat_map(|j| [(j, 0.25f32), (j, -0.05), (j, 1e-3)]) {
                let mut perturbed = base.clone();
                perturbed[j] += delta;
                advect_line(scheme, &mut perturbed, cfl, Boundary::Periodic, &mut work);
                if perturbed[i] != reference[i] {
                    offsets.insert(j as i64 - i as i64);
                }
            }
        }
    }
    offsets
}

/// Structural footprint of one cell update from the taint domain: the
/// update reads the center plus its two interface fluxes. The influx at
/// `i − 1/2` sees stencil slot `k` at offset `k − 3`; the outflux at
/// `i + 1/2` sees it at offset `k − 2`.
pub fn structural_offsets(scheme: Scheme) -> BTreeSet<i64> {
    let slots = flux_taint(scheme).flux.slots();
    let mut offsets: BTreeSet<i64> = slots.iter().map(|&k| k as i64 - 3).collect();
    offsets.extend(slots.iter().map(|&k| k as i64 - 2));
    offsets.insert(0);
    offsets
}

fn radius(offsets: &BTreeSet<i64>) -> i64 {
    offsets.iter().map(|d| d.abs()).max().unwrap_or(0)
}

/// Expected per-scheme access radius (the half-width of the flux stencil).
pub fn expected_radius(scheme: Scheme) -> i64 {
    match scheme {
        Scheme::Upwind1 => 1,
        Scheme::Sl3 => 2,
        Scheme::Sl5 | Scheme::SlMpp5 => 3,
    }
}

/// Probe a linear periodic `Field3` operator's reach along `axis` with a
/// delta field (linearity makes one probe exhaustive).
fn probe_field_radius(op: impl Fn(&Field3) -> Field3, axis: usize) -> i64 {
    let n = 8usize;
    let c = 4i64;
    let mut delta = Field3::zeros_cubic(n);
    *delta.at_mut(c as usize, c as usize, c as usize) = 1.0;
    let out = op(&delta);
    let mut r = 0i64;
    for k in 0..n as i64 {
        let v = match axis {
            0 => out.at(k as usize, c as usize, c as usize),
            1 => out.at(c as usize, k as usize, c as usize),
            _ => out.at(c as usize, c as usize, k as usize),
        };
        if v != 0.0 {
            // Output at k reads the delta at c: reach |c − k| (periodic
            // distance; n = 8 with radius ≤ 2 never wraps ambiguously).
            let d = (k - c).rem_euclid(n as i64);
            r = r.max(d.min(n as i64 - d));
        }
    }
    r
}

/// Run the whole pass.
pub fn run(report: &mut Report) {
    // 1+2: advection kernels, probed and structural.
    let cfls = [0.35, 0.85, 0.999, -0.45, -0.92];
    let mut max_radius = 0i64;
    for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
        let probed = probe_advection_offsets(scheme, &cfls);
        let structural = structural_offsets(scheme);
        // The mirror trick reflects the structural footprint for cfl < 0.
        let mirrored: BTreeSet<i64> = structural.iter().map(|d| -d).collect();
        let hull: BTreeSet<i64> = structural.union(&mirrored).copied().collect();
        let (pr, sr) = (radius(&probed), radius(&hull));
        max_radius = max_radius.max(pr).max(sr);
        let name = format!("{scheme:?}.radius");
        let contained = probed.is_subset(&hull);
        let tight = pr == expected_radius(scheme) && sr == expected_radius(scheme);
        if contained && tight {
            report.verified(
                "footprint",
                name,
                format!(
                    "probed offsets {probed:?} ⊆ structural hull, both radius {pr} \
                     (expected {})",
                    expected_radius(scheme)
                ),
            );
        } else {
            report.violated(
                "footprint",
                name,
                "probed and structural footprints disagree with the expected radius",
                Some(format!(
                    "probed {probed:?} (radius {pr}), structural {hull:?} (radius {sr}), \
                     expected radius {}",
                    expected_radius(scheme)
                )),
            );
        }
    }

    // 4a: the widest kernel radius is exactly the ghost width, and the two
    // ghost constants are one constant.
    if max_radius == GHOST as i64 && GHOST == GHOST_WIDTH {
        report.verified(
            "footprint",
            "ghost_width.consistency",
            format!(
                "max kernel radius {max_radius} == advection::GHOST == \
                 phase_space::exchange::GHOST_WIDTH == {GHOST}"
            ),
        );
    } else {
        report.violated(
            "footprint",
            "ghost_width.consistency",
            "stencil radius and ghost-width constants drifted apart",
            Some(format!(
                "max radius {max_radius}, GHOST {GHOST}, GHOST_WIDTH {GHOST_WIDTH}"
            )),
        );
    }

    // 3: mesh stencils against their advertised radii.
    let mesh_cases: [(&str, i64, i64); 3] = [
        (
            "gradient2",
            probe_field_radius(|f| gradient_axis(f, 1, GradientOrder::Two), 1),
            GradientOrder::Two.radius() as i64,
        ),
        (
            "gradient4",
            probe_field_radius(|f| gradient_axis(f, 2, GradientOrder::Four), 2),
            GradientOrder::Four.radius() as i64,
        ),
        (
            "laplacian",
            probe_field_radius(laplacian, 0),
            vlasov6d_mesh::stencil::LAPLACIAN_RADIUS as i64,
        ),
    ];
    for (name, probed, advertised) in mesh_cases {
        if probed == advertised {
            report.verified(
                "footprint",
                format!("mesh.{name}.radius"),
                format!("probed radius {probed} matches the advertised constant"),
            );
        } else {
            report.violated(
                "footprint",
                format!("mesh.{name}.radius"),
                "mesh stencil radius drifted from its advertised constant",
                Some(format!("probed {probed}, advertised {advertised}")),
            );
        }
    }

    // 4b: the PR 2 comm plans exchange exactly the volume the stencil needs.
    let decomp = Decomp3::new([16, 8, 8], [2, 2, 1]);
    let vgrid = VelocityGrid::cubic(4, 1.0);
    let vlen = vgrid.len();
    let checks = PlanChecks {
        topology: Some(cart_neighbor_edges(&decomp)),
        volume_symmetry: true,
    };
    let mut plan_ok = true;
    let mut witness = None;
    for d in 0..3 {
        let plan = ghost_exchange_plan(&decomp, vlen, d, GHOST_WIDTH, 40);
        if let Err(errs) = plan.verify_with(&checks) {
            plan_ok = false;
            witness = Some(format!("axis {d}: {}", errs[0]));
            break;
        }
        for (src, _dst, _tag, bytes) in plan.send_edges() {
            // What the live exchange ships: GHOST_WIDTH planes of the rank's
            // block, extracted by the same routine the sweeps send.
            let block = PhaseSpace::zeros_block(
                decomp.local_dims(src),
                decomp.local_offset(src),
                decomp.global,
                vgrid,
            );
            let shipped = (extract_planes(&block, d, 0, GHOST_WIDTH).len() * 4) as u64;
            let expect = ghost_plane_bytes(&decomp, src, vlen, d, GHOST_WIDTH);
            if bytes != expect || shipped != expect {
                plan_ok = false;
                witness = Some(format!(
                    "axis {d}, rank {src}: plan sends {bytes} B, exchange ships {shipped} B, \
                     stencil needs {expect} B"
                ));
                break;
            }
        }
    }
    if plan_ok {
        report.verified(
            "footprint",
            "comm_plan.volume",
            format!(
                "ghost-exchange plans on a {:?} decomposition verify (topology + volume \
                 symmetry) and every send carries ghost_plane_bytes = GHOST·cross·vlen·4 \
                 bytes, the size of the planes the exchange extracts — the halo always \
                 covers the stencil reach",
                [2, 2, 1]
            ),
        );
    } else {
        report.violated(
            "footprint",
            "comm_plan.volume",
            "ghost-exchange plan volume no longer matches the stencil requirement",
            witness,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_structural_offsets() {
        assert_eq!(structural_offsets(Scheme::Upwind1), BTreeSet::from([-1, 0]));
        assert_eq!(
            structural_offsets(Scheme::Sl3),
            BTreeSet::from([-2, -1, 0, 1])
        );
        assert_eq!(
            structural_offsets(Scheme::SlMpp5),
            BTreeSet::from([-3, -2, -1, 0, 1, 2])
        );
    }

    #[test]
    fn probed_footprint_is_tight_for_sl5() {
        // Positive shifts reach upwind-biased −3..2; the mirror trick
        // reflects that for negative shifts.
        let fwd = probe_advection_offsets(Scheme::Sl5, &[0.35, 0.85]);
        assert_eq!(fwd, BTreeSet::from([-3, -2, -1, 0, 1, 2]));
        let bwd = probe_advection_offsets(Scheme::Sl5, &[-0.35, -0.85]);
        assert_eq!(bwd, BTreeSet::from([-2, -1, 0, 1, 2, 3]));
    }

    #[test]
    fn limited_scheme_probes_full_stencil_despite_clamps() {
        // On a constant line the clamp is active everywhere; the multi-base
        // probe must still surface the full stencil.
        let probed = probe_advection_offsets(Scheme::SlMpp5, &[0.35, 0.85, -0.45]);
        assert_eq!(radius(&probed), 3);
    }

    #[test]
    fn full_footprint_pass_verifies() {
        let mut report = Report::new();
        run(&mut report);
        assert!(report.ok(), "{}", report.render_text());
    }
}
