//! The conventional alternative: MP5 reconstruction + TVD-RK3 time stepping.
//!
//! This is the method-of-lines scheme the paper's §5.2 argues *against*: a
//! spatially fifth-order monotonicity-preserving reconstruction (Suresh &
//! Huynh 1997) needs a temporally third-order integrator for stability, i.e.
//! **three flux evaluations per step** versus SL-MPP5's one, and is CFL-bound
//! (`|c| ≲ 1`) where the semi-Lagrangian scheme takes any shift. We implement
//! it to reproduce the cost ablation honestly — same limiter, same stencil,
//! same storage — so the measured 1-vs-3 flux-stage cost ratio (and the
//! accuracy parity on smooth data) is an apples-to-apples comparison.

use crate::flux::{median_clip, mp5_bracket, Boundary};
use crate::line::{LineEnds, GHOST};

/// Flux (spatial-operator) evaluations per time step — the quantity the
/// paper's cost argument is about.
pub const FLUX_EVALS_PER_STEP: usize = 3;

/// Scratch for the three-stage update.
#[derive(Debug, Default, Clone)]
pub struct MolWork {
    u0: Vec<f64>,
    u1: Vec<f64>,
    rhs: Vec<f64>,
    ghost: Vec<f64>,
}

impl MolWork {
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n: usize) {
        for v in [&mut self.u0, &mut self.u1, &mut self.rhs] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.ghost.clear();
        self.ghost.resize(n + 2 * GHOST, 0.0);
    }
}

/// One TVD-RK3 step of `∂f/∂t + (c/Δt) ∂f/∂x = 0` expressed through the CFL
/// number `cfl = v Δt/Δx` (|cfl| must stay below 1 for stability).
pub fn step_mp5_rk3(line: &mut [f32], cfl: f64, bc: Boundary, work: &mut MolWork) {
    let n = line.len();
    if n == 0 || cfl == 0.0 {
        return;
    }
    let _obs = vlasov6d_obs::span!("advection.mol_rk3", vlasov6d_obs::Bucket::Vlasov);
    assert!(n >= 2 * GHOST, "line too short: {n}");
    assert!(cfl.abs() <= 1.0, "MP5+RK3 is CFL-limited; got {cfl}");
    work.prepare(n);
    for (u, &v) in work.u0.iter_mut().zip(line.iter()) {
        *u = v as f64;
    }

    // u1 = u0 + dt L(u0)
    rhs(&work.u0, cfl, bc, &mut work.ghost, &mut work.rhs);
    for i in 0..n {
        work.u1[i] = work.u0[i] + work.rhs[i];
    }
    // u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))  (stored back into u1)
    rhs_inplace(cfl, bc, work, |u0, u1, r| 0.75 * u0 + 0.25 * (u1 + r));
    // u  = 1/3 u0 + 2/3 (u2 + dt L(u2))
    rhs_inplace(cfl, bc, work, |u0, u1, r| (u0 + 2.0 * (u1 + r)) / 3.0);

    for (v, &u) in line.iter_mut().zip(work.u1.iter()) {
        *v = u as f32;
    }
}

fn rhs_inplace(cfl: f64, bc: Boundary, work: &mut MolWork, combine: impl Fn(f64, f64, f64) -> f64) {
    let MolWork {
        u0,
        u1,
        rhs: r,
        ghost,
    } = work;
    rhs(u1, cfl, bc, ghost, r);
    for i in 0..u1.len() {
        u1[i] = combine(u0[i], u1[i], r[i]);
    }
}

/// `dt·L(u) = -cfl (F̂_{i+1/2} - F̂_{i-1/2})` with MP5-limited upwind interface
/// values.
fn rhs(u: &[f64], cfl: f64, bc: Boundary, ghost: &mut [f64], out: &mut [f64]) {
    let n = u.len();
    // Fill the ghost-extended view, mirroring for negative velocities so the
    // reconstruction below always upwinds to the left.
    let mirrored = cfl < 0.0;
    let ends = LineEnds::from(bc);
    for (j, g) in ghost.iter_mut().enumerate() {
        let idx = j as i64 - GHOST as i64;
        let idx = if mirrored { n as i64 - 1 - idx } else { idx };
        *g = ends.sample(u, idx, 0.0);
    }
    let c = cfl.abs();

    // interface value at i+1/2 from cells i-2..i+2 (ghost offset +3 at cell i).
    let iface = |g: &[f64], i: usize| -> f64 {
        let st = [g[i], g[i + 1], g[i + 2], g[i + 3], g[i + 4]];
        let f5 = (2.0 * st[0] - 13.0 * st[1] + 47.0 * st[2] + 27.0 * st[3] - 3.0 * st[4]) / 60.0;
        let (lo, hi) = mp5_bracket(&st, 4.0);
        median_clip(f5, lo, hi)
    };

    for (i, o) in out.iter_mut().enumerate() {
        // Interfaces i±1/2 of (possibly mirrored) cell i.
        let i_m = if mirrored { n - 1 - i } else { i };
        let f_plus = iface(ghost, i_m + 1); // F̂_{i_m+1/2}: upwind cell i_m → ghost j = i_m+1
        let f_minus = iface(ghost, i_m);
        *o = -c * (f_plus - f_minus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_line(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                ((2.0 * std::f64::consts::PI * (i as f64 + 0.5) / n as f64).sin() + 2.0) as f32
            })
            .collect()
    }

    fn mass(line: &[f32]) -> f64 {
        line.iter().map(|&v| v as f64).sum()
    }

    #[test]
    fn conserves_mass_on_periodic_lines() {
        let mut line = sine_line(64);
        let m0 = mass(&line);
        let mut work = MolWork::new();
        for _ in 0..100 {
            step_mp5_rk3(&mut line, 0.4, Boundary::Periodic, &mut work);
        }
        assert!((mass(&line) - m0).abs() < 1e-3);
    }

    #[test]
    fn advects_sine_with_small_error() {
        let n = 128;
        let mut line = sine_line(n);
        let orig = line.clone();
        let mut work = MolWork::new();
        // 80 steps of CFL 0.4 = 32 cells: lands on a grid point.
        for _ in 0..80 {
            step_mp5_rk3(&mut line, 0.4, Boundary::Periodic, &mut work);
        }
        let mut err = 0.0f64;
        for i in 0..n {
            err = err.max((line[i] - orig[(i + n - 32) % n]).abs() as f64);
        }
        // RK3's O(Δt³) temporal error dominates at CFL 0.4.
        assert!(err < 3e-3, "err = {err}");
    }

    #[test]
    fn negative_velocity_advects_left() {
        let n = 64;
        let mut line = vec![0.0f32; n];
        line[32] = 1.0;
        let mut work = MolWork::new();
        for _ in 0..20 {
            step_mp5_rk3(&mut line, -0.5, Boundary::Periodic, &mut work);
        }
        // Peak should be near cell 22 (moved 10 cells left).
        let peak = line
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((peak as i64 - 22).abs() <= 1, "peak at {peak}");
    }

    #[test]
    fn step_function_stays_bounded() {
        let n = 64;
        let mut line: Vec<f32> = (0..n)
            .map(|i| if (16..32).contains(&i) { 1.0 } else { 0.0 })
            .collect();
        let mut work = MolWork::new();
        for _ in 0..150 {
            step_mp5_rk3(&mut line, 0.3, Boundary::Periodic, &mut work);
        }
        for &v in &line {
            assert!(v > -1e-4 && v < 1.0 + 1e-4, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "CFL-limited")]
    fn rejects_large_cfl() {
        let mut line = sine_line(32);
        step_mp5_rk3(&mut line, 1.5, Boundary::Periodic, &mut MolWork::new());
    }

    #[test]
    fn matches_sl_scheme_on_smooth_data() {
        use crate::line::{advect_line, LineWork, Scheme};
        let n = 128;
        let mut mol_line = sine_line(n);
        let mut sl_line = sine_line(n);
        let mut mwork = MolWork::new();
        let mut swork = LineWork::new();
        for _ in 0..50 {
            step_mp5_rk3(&mut mol_line, 0.4, Boundary::Periodic, &mut mwork);
            advect_line(
                Scheme::SlMpp5,
                &mut sl_line,
                0.4,
                Boundary::Periodic,
                &mut swork,
            );
        }
        for (a, b) in mol_line.iter().zip(&sl_line) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }
}
