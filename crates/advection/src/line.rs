//! Scalar (one line at a time) conservative semi-Lagrangian kernels.
//!
//! A "line" is a 1-D slice of the 6-D distribution function along the sweep
//! axis. The advection velocity is constant along a line (it depends only on
//! transverse coordinates), so one `(scheme, cfl)` pair updates the whole
//! line. Values are `f32` (the paper stores the distribution function in
//! single precision); flux weights and the limiter run in `f64` so the update
//! itself contributes the only rounding.

use crate::flux::{median_clip, mp5_bracket, sl3_weights, sl5_weights, Boundary};

/// Single-stage conservative SL schemes (see crate docs for the ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// First-order upwind.
    Upwind1,
    /// Third-order, unlimited.
    Sl3,
    /// Fifth-order, unlimited.
    Sl5,
    /// Fifth-order with the Suresh–Huynh MP bracket and positivity clamp —
    /// the paper's SL-MPP5. Guarantees: exact conservation, strict
    /// positivity, and monotonicity preservation in the Suresh–Huynh sense
    /// (monotone profiles develop no oscillations; smooth extrema are *not*
    /// clipped, so arbitrary rough data may transiently overshoot its range
    /// — a property shared with the original MP5).
    #[default]
    SlMpp5,
}

/// Ghost width needed by the widest stencil (SL-MPP5 / SL5).
pub const GHOST: usize = 3;

/// Where a line kernel takes the `GHOST` cells beyond each end of a line —
/// the single point at which the line boundary enters the update. Every
/// source fills the kernel's ghost-extended copy and nothing else, so each
/// line still computes exactly its `n + 1` interface fluxes.
///
/// `T` is the cell type of the kernel: `f32` for [`advect_line`], `f32x8`
/// for [`crate::lanes::advect_lanes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineEnds<T> {
    /// Periodic wrap (spatial axes owned by one rank).
    Periodic,
    /// Zero inflow / free outflow (velocity axes).
    Zero,
    /// Caller-supplied ghost cells: `low[k]` is cell `k − GHOST` and
    /// `high[k]` is cell `n + k` (exchanged neighbour planes). No stencil may
    /// reach past them, so the shift must stay below one cell: `|cfl| < 1`.
    Ghost { low: [T; GHOST], high: [T; GHOST] },
}

impl<T> From<Boundary> for LineEnds<T> {
    fn from(bc: Boundary) -> Self {
        match bc {
            Boundary::Periodic => LineEnds::Periodic,
            Boundary::Zero => LineEnds::Zero,
        }
    }
}

impl<T: Copy> LineEnds<T> {
    /// The same source over another cell type, e.g. one row of a staged
    /// tile of ghost cells.
    pub fn map<U>(self, f: impl Fn(T) -> U) -> LineEnds<U> {
        match self {
            LineEnds::Periodic => LineEnds::Periodic,
            LineEnds::Zero => LineEnds::Zero,
            LineEnds::Ghost { low, high } => LineEnds::Ghost {
                low: low.map(&f),
                high: high.map(&f),
            },
        }
    }

    /// Cell `idx` of `line` continued past both ends by this source; `zero`
    /// is the cell type's zero. Lines shorter than the stencil are fine:
    /// the periodic continuation may visit a cell twice (it *is* the exact
    /// periodic continuation), and zero or ghost ends never consult the
    /// line out of range.
    #[inline]
    pub(crate) fn sample(&self, line: &[T], idx: i64, zero: T) -> T {
        let n = line.len() as i64;
        match self {
            LineEnds::Periodic => line[idx.rem_euclid(n) as usize],
            LineEnds::Zero if idx < 0 || idx >= n => zero,
            LineEnds::Ghost { low, .. } if idx < 0 => low[(idx + GHOST as i64) as usize],
            LineEnds::Ghost { high, .. } if idx >= n => high[(idx - n) as usize],
            _ => line[idx as usize],
        }
    }
}

/// Split a shift into the orientation the kernels advect (`cfl ≥ 0`) and
/// the ends it sees. Advecting with `-c` is advecting the reversed line with
/// `+c` (the mirror trick); its ghost sides swap and read backwards. Ghost
/// ends need `|cfl| < 1`.
pub(crate) fn orient<T: Copy>(cfl: f64, ends: LineEnds<T>) -> (bool, f64, LineEnds<T>) {
    let LineEnds::Ghost { low, high } = ends else {
        return (cfl < 0.0, cfl.abs(), ends);
    };
    assert!(
        cfl.abs() < 1.0,
        "ghost line ends need |cfl| < 1 (ghost width {GHOST}), got {cfl}"
    );
    if cfl >= 0.0 {
        return (false, cfl, ends);
    }
    let back = |side: [T; GHOST]| core::array::from_fn(|k| side[GHOST - 1 - k]);
    let (low, high) = (back(high), back(low));
    (true, -cfl, LineEnds::Ghost { low, high })
}

/// Reusable scratch for line updates — allocate once per worker thread.
/// `T` is the kernel's working type: `f64` here ([`LineWork`]), `f32x8` in
/// the lanes kernel ([`crate::lanes::LanesWork`]).
#[derive(Debug, Default, Clone)]
pub struct KernelWork<T> {
    pub(crate) ghost: Vec<T>,
    pub(crate) flux: Vec<T>,
}

/// Scratch of [`advect_line`].
pub type LineWork = KernelWork<f64>;

impl<T: Copy + Default> KernelWork<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn prepare(&mut self, n: usize) {
        self.ghost.clear();
        self.ghost.resize(n + 2 * GHOST, T::default());
        self.flux.clear();
        self.flux.resize(n + 1, T::default());
    }
}

/// Advance one line by shift `cfl = v Δt / Δx` (any magnitude, any sign)
/// with the line ends `ends` (a [`Boundary`] or a [`LineEnds`]).
///
/// The update is in flux form, so on periodic lines total mass is conserved to
/// rounding. `Boundary::Zero` lines lose the mass advected off the ends —
/// physical outflow in velocity space. Lines of any length are fine, thin
/// scenario grids (a quasi-1-D plasma box with 4 transverse cells) and
/// thin rank blocks included: see [`LineEnds::sample`].
pub fn advect_line(
    scheme: Scheme,
    line: &mut [f32],
    cfl: f64,
    ends: impl Into<LineEnds<f32>>,
    work: &mut LineWork,
) {
    if line.is_empty() || cfl == 0.0 {
        return;
    }
    let (mirror, cfl, ends) = orient(cfl, ends.into());
    if mirror {
        line.reverse();
    }
    advect_positive(scheme, line, cfl, &ends, work);
    if mirror {
        line.reverse();
    }
}

fn advect_positive(
    scheme: Scheme,
    line: &mut [f32],
    cfl: f64,
    ends: &LineEnds<f32>,
    work: &mut LineWork,
) {
    debug_assert!(cfl >= 0.0);
    let n = line.len();
    let n_int = cfl.floor() as i64;
    let s = cfl - n_int as f64;
    work.prepare(n);

    // Ghost-extended, integer-shifted upwind copy: ghost[j] = line[j - GHOST - n_int].
    for (j, g) in work.ghost.iter_mut().enumerate() {
        let src = j as i64 - GHOST as i64 - n_int;
        *g = ends.sample(line, src, 0.0) as f64;
    }

    // Interface fluxes: flux[j] = F_{j-1/2}, upwind cell j-1, stencil cells
    // j-3 .. j+1 → ghost indices j .. j+4.
    let ghost = &work.ghost;
    match scheme {
        Scheme::Upwind1 => {
            for (j, fl) in work.flux.iter_mut().enumerate() {
                *fl = s * ghost[j + 2];
            }
        }
        Scheme::Sl3 => {
            let w = sl3_weights(s);
            for (j, fl) in work.flux.iter_mut().enumerate() {
                *fl = w[0] * ghost[j + 1] + w[1] * ghost[j + 2] + w[2] * ghost[j + 3];
            }
        }
        Scheme::Sl5 => {
            let w = sl5_weights(s);
            for (j, fl) in work.flux.iter_mut().enumerate() {
                *fl = w[0] * ghost[j]
                    + w[1] * ghost[j + 1]
                    + w[2] * ghost[j + 2]
                    + w[3] * ghost[j + 3]
                    + w[4] * ghost[j + 4];
            }
        }
        Scheme::SlMpp5 => {
            let w = sl5_weights(s);
            if s < 1e-12 {
                // Pure integer shift: no fractional flux.
                for fl in work.flux.iter_mut() {
                    *fl = 0.0;
                }
            } else {
                let inv_s = 1.0 / s;
                let alpha = crate::flux::mp_alpha(s);
                for (j, fl) in work.flux.iter_mut().enumerate() {
                    let stencil = [
                        ghost[j],
                        ghost[j + 1],
                        ghost[j + 2],
                        ghost[j + 3],
                        ghost[j + 4],
                    ];
                    let f_high = w[0] * stencil[0]
                        + w[1] * stencil[1]
                        + w[2] * stencil[2]
                        + w[3] * stencil[3]
                        + w[4] * stencil[4];
                    // Interface average seen by the MP bracket.
                    let f_sl = f_high * inv_s;
                    let (lo, hi) = mp5_bracket(&stencil, alpha);
                    let f_lim = median_clip(f_sl, lo, hi);
                    // Positivity: the flux leaving cell j-1 cannot exceed its
                    // content and cannot be negative (s ≤ 1 ⇒ swept mass ≤ cell mass).
                    *fl = (s * f_lim).clamp(0.0, stencil[2].max(0.0));
                }
            }
        }
    }

    // Flux-form update.
    for (i, v) in line.iter_mut().enumerate() {
        let updated = work.ghost[i + GHOST] - work.flux[i + 1] + work.flux[i];
        *v = updated as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMES: [Scheme; 4] = [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5];

    fn sine_line(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                (2.0 * (2.0 * std::f64::consts::PI * (i as f64 + 0.5) / n as f64).sin() + 2.5)
                    as f32
            })
            .collect()
    }

    fn mass(line: &[f32]) -> f64 {
        line.iter().map(|&v| v as f64).sum()
    }

    #[test]
    fn periodic_mass_conservation_all_schemes() {
        for scheme in SCHEMES {
            let mut line = sine_line(64);
            let m0 = mass(&line);
            let mut work = LineWork::new();
            for step in 0..50 {
                let cfl = 0.37 + 0.01 * (step % 7) as f64;
                advect_line(scheme, &mut line, cfl, Boundary::Periodic, &mut work);
            }
            let m1 = mass(&line);
            assert!(
                (m1 - m0).abs() < 1e-3 * m0.abs(),
                "{scheme:?}: mass drifted {m0} -> {m1}"
            );
        }
    }

    #[test]
    fn integer_shift_is_exact() {
        for scheme in SCHEMES {
            let mut line = sine_line(32);
            let orig = line.clone();
            let mut work = LineWork::new();
            advect_line(scheme, &mut line, 5.0, Boundary::Periodic, &mut work);
            for i in 0..32 {
                let expect = orig[(i + 32 - 5) % 32];
                assert!(
                    (line[i] - expect).abs() < 1e-5,
                    "{scheme:?} at {i}: {} vs {}",
                    line[i],
                    expect
                );
            }
        }
    }

    #[test]
    fn negative_velocity_mirrors_positive() {
        for scheme in SCHEMES {
            let mut right = sine_line(48);
            // Perturb to break symmetry.
            right[7] += 1.0;
            let mut left = right.clone();
            let mut work = LineWork::new();
            advect_line(scheme, &mut right, 0.4, Boundary::Periodic, &mut work);
            advect_line(scheme, &mut left, -0.4, Boundary::Periodic, &mut work);
            // Advecting left then right by the same shift returns ~original...
            // stronger: left-advected reversed line equals right-advected of
            // reversed original. Just verify they both conserve mass and are
            // mirror images when the input is reversed.
            let mut mirrored: Vec<f32> = right.clone();
            mirrored.reverse();
            let mut reversed_input = sine_line(48);
            reversed_input[7] += 1.0;
            reversed_input.reverse();
            let mut work2 = LineWork::new();
            advect_line(
                scheme,
                &mut reversed_input,
                -0.4,
                Boundary::Periodic,
                &mut work2,
            );
            for (a, b) in mirrored.iter().zip(&reversed_input) {
                assert!((a - b).abs() < 1e-6, "{scheme:?}");
            }
            let _ = left;
        }
    }

    #[test]
    fn sl5_advects_smooth_profile_accurately() {
        let n = 128;
        let mut line = sine_line(n);
        let orig = line.clone();
        let mut work = LineWork::new();
        // 100 steps of CFL 0.32 → total shift 32 cells: back to a grid point.
        for _ in 0..100 {
            advect_line(Scheme::Sl5, &mut line, 0.32, Boundary::Periodic, &mut work);
        }
        let mut max_err = 0.0f64;
        for i in 0..n {
            let expect = orig[(i + n - 32) % n];
            max_err = max_err.max((line[i] - expect).abs() as f64);
        }
        assert!(max_err < 2e-5, "max err {max_err}");
    }

    #[test]
    fn convergence_order_of_sl5_is_about_five() {
        // Error after advecting one full period at fixed CFL; refine the grid.
        let err_at = |n: usize| {
            let mut line: Vec<f32> = (0..n)
                .map(|i| (2.0 * std::f64::consts::PI * (i as f64 + 0.5) / n as f64).sin() as f32)
                .collect();
            let orig = line.clone();
            let mut work = LineWork::new();
            let cfl = 0.4;
            let steps = (n as f64 / cfl).round() as usize; // one full period
            for _ in 0..steps {
                advect_line(
                    Scheme::Sl5,
                    &mut line,
                    n as f64 / steps as f64,
                    Boundary::Periodic,
                    &mut work,
                );
            }
            line.iter()
                .zip(&orig)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max)
        };
        let (e16, e32) = (err_at(16), err_at(32));
        let order = (e16 / e32).log2();
        // f32 storage puts a floor on the error; accept anything ≥ 4.
        assert!(order > 4.0, "measured order {order} (e16={e16}, e32={e32})");
    }

    #[test]
    fn slmpp5_keeps_step_function_in_bounds() {
        let n = 64;
        let mut line = vec![0.0f32; n];
        for v in line.iter_mut().take(32).skip(16) {
            *v = 1.0;
        }
        let mut work = LineWork::new();
        for _ in 0..200 {
            advect_line(
                Scheme::SlMpp5,
                &mut line,
                0.45,
                Boundary::Periodic,
                &mut work,
            );
        }
        for (i, &v) in line.iter().enumerate() {
            assert!((-1e-6..=1.0 + 1e-5).contains(&v), "cell {i}: {v}");
        }
        assert!((mass(&line) - 16.0).abs() < 1e-3);
    }

    #[test]
    fn unlimited_sl5_overshoots_where_slmpp5_does_not() {
        let n = 64;
        let step: Vec<f32> = (0..n)
            .map(|i| if (16..32).contains(&i) { 1.0 } else { 0.0 })
            .collect();
        let overshoot = |scheme: Scheme| {
            let mut line = step.clone();
            let mut work = LineWork::new();
            for _ in 0..50 {
                advect_line(scheme, &mut line, 0.45, Boundary::Periodic, &mut work);
            }
            line.iter().fold(0.0f32, |m, &v| m.max(v - 1.0).max(-v))
        };
        let unlimited = overshoot(Scheme::Sl5);
        let limited = overshoot(Scheme::SlMpp5);
        assert!(
            unlimited > 1e-2,
            "SL5 should visibly overshoot: {unlimited}"
        );
        assert!(limited < 1e-5, "SL-MPP5 must not: {limited}");
    }

    #[test]
    fn positivity_preserved_on_random_nonnegative_data() {
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        let mut line: Vec<f32> = (0..96).map(|_| next() * next()).collect();
        let mut work = LineWork::new();
        for step in 0..300 {
            let cfl = 0.1 + 0.8 * ((step as f64 * 0.618) % 1.0);
            advect_line(
                Scheme::SlMpp5,
                &mut line,
                cfl,
                Boundary::Periodic,
                &mut work,
            );
            for (i, &v) in line.iter().enumerate() {
                assert!(v >= 0.0, "step {step}, cell {i}: {v}");
            }
        }
    }

    #[test]
    fn zero_boundary_drains_outflow() {
        let n = 32;
        let mut line = vec![0.0f32; n];
        line[n - 2] = 1.0;
        let mut work = LineWork::new();
        // Push right for many steps: the bump must leave the domain.
        for _ in 0..40 {
            advect_line(Scheme::SlMpp5, &mut line, 0.9, Boundary::Zero, &mut work);
        }
        assert!(mass(&line) < 1e-6, "mass left: {}", mass(&line));
        // And nothing re-entered from the left.
        assert!(line.iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn zero_cfl_is_identity() {
        let mut line = sine_line(32);
        let orig = line.clone();
        let mut work = LineWork::new();
        advect_line(
            Scheme::SlMpp5,
            &mut line,
            0.0,
            Boundary::Periodic,
            &mut work,
        );
        assert_eq!(line, orig);
    }

    #[test]
    fn large_cfl_combines_integer_and_fraction() {
        let n = 64;
        let mut line = sine_line(n);
        let mut reference = line.clone();
        let mut work = LineWork::new();
        // One step of CFL 3.3 ...
        advect_line(Scheme::Sl5, &mut line, 3.3, Boundary::Periodic, &mut work);
        // ... equals integer shift 3 followed by fractional 0.3.
        advect_line(
            Scheme::Sl5,
            &mut reference,
            3.0,
            Boundary::Periodic,
            &mut work,
        );
        advect_line(
            Scheme::Sl5,
            &mut reference,
            0.3,
            Boundary::Periodic,
            &mut work,
        );
        for (a, b) in line.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// Periodic lines shorter than the stencil: the wrapped stencil is the
    /// exact periodic continuation, so a short line must advect identically
    /// to the same data tiled past the stencil width (translation
    /// invariance keeps the tiled result periodic).
    #[test]
    fn short_periodic_line_matches_tiled_line() {
        for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
            for n in [2usize, 3, 4, 5] {
                for cfl in [0.3, -0.7, 2.4] {
                    let base: Vec<f32> = (0..n).map(|i| 1.0 + (i as f32 * 0.9).sin()).collect();
                    let mut short = base.clone();
                    let tiles = 12usize.div_ceil(n);
                    let mut tiled: Vec<f32> = std::iter::repeat_n(base.iter().copied(), tiles)
                        .flatten()
                        .collect();
                    let mut work = LineWork::new();
                    advect_line(scheme, &mut short, cfl, Boundary::Periodic, &mut work);
                    advect_line(scheme, &mut tiled, cfl, Boundary::Periodic, &mut work);
                    for (i, (a, b)) in short.iter().zip(&tiled).enumerate() {
                        assert!(
                            (a - b).abs() < 1e-6,
                            "{scheme:?} n={n} cfl={cfl} cell {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Ghost ends are the window of a longer line: a line advected with
    /// caller-supplied ghost cells equals, bit for bit, the same cells
    /// inside the ghost-extended line — the kernel sees the same stencil
    /// values either way. Covers lines shorter than the stencil.
    #[test]
    fn ghost_ends_match_extended_line_bitwise() {
        for scheme in [Scheme::Upwind1, Scheme::Sl3, Scheme::Sl5, Scheme::SlMpp5] {
            for n in [1usize, 2, 4, 7, 12] {
                for cfl in [0.3, -0.7, 0.95, -0.05] {
                    let ext: Vec<f32> = (0..n + 2 * GHOST)
                        .map(|i| 1.0 + (i as f32 * 0.77).sin())
                        .collect();
                    let mut long = ext.clone();
                    let mut line = ext[GHOST..GHOST + n].to_vec();
                    let ends = LineEnds::Ghost {
                        low: core::array::from_fn(|g| ext[g]),
                        high: core::array::from_fn(|g| ext[GHOST + n + g]),
                    };
                    let mut work = LineWork::new();
                    advect_line(scheme, &mut long, cfl, Boundary::Zero, &mut work);
                    advect_line(scheme, &mut line, cfl, ends, &mut work);
                    for (i, (a, b)) in line.iter().zip(&long[GHOST..]).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{scheme:?} n={n} cfl={cfl} cell {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ghost line ends need |cfl| < 1")]
    fn ghost_ends_reject_whole_cell_shifts() {
        let ends = LineEnds::Ghost {
            low: [1.0; GHOST],
            high: [1.0; GHOST],
        };
        advect_line(
            Scheme::SlMpp5,
            &mut [1.0; 8],
            -1.0,
            ends,
            &mut LineWork::new(),
        );
    }

    /// A length-1 periodic line is a fixed point of advection by any shift.
    #[test]
    fn singleton_periodic_line_is_invariant() {
        for cfl in [0.0, 0.4, -1.3, 5.7] {
            let mut line = vec![2.5f32];
            advect_line(
                Scheme::SlMpp5,
                &mut line,
                cfl,
                Boundary::Periodic,
                &mut LineWork::new(),
            );
            assert!((line[0] - 2.5).abs() < 1e-6, "cfl {cfl}: {}", line[0]);
        }
    }

    /// Short outflow lines: out-of-range samples are zero, so a short Zero
    /// line must match the window of the same data embedded in a long
    /// zero-padded line.
    #[test]
    fn short_zero_line_matches_embedded_window() {
        for cfl in [0.6, -0.6, 1.4] {
            let mut short = vec![1.0f32, 3.0, 2.0, 0.5];
            let mut long = vec![0.0f32; 20];
            long[8..12].copy_from_slice(&[1.0, 3.0, 2.0, 0.5]);
            let mut work = LineWork::new();
            advect_line(Scheme::SlMpp5, &mut short, cfl, Boundary::Zero, &mut work);
            advect_line(Scheme::SlMpp5, &mut long, cfl, Boundary::Zero, &mut work);
            for (i, (a, b)) in short.iter().zip(&long[8..12]).enumerate() {
                assert!((a - b).abs() < 1e-6, "cfl {cfl} cell {i}: {a} vs {b}");
            }
        }
    }
}
