//! Eight-lines-at-once SIMD kernels.
//!
//! This is the paper's Fig. 1 code shape: eight *adjacent* grid lines (which
//! are contiguous in memory along the innermost axis) ride in the eight lanes
//! of an [`f32x8`] and advance together — same shift, same boundary, one
//! vertical SIMD op per scalar op of the line kernel. All arithmetic is f32,
//! matching the paper's single-precision Vlasov storage.
//!
//! The sweep driver in `vlasov6d-phase-space` feeds this kernel either
//! directly (axes where lanes are contiguous in memory) or through the
//! [`crate::simd::transpose8x8`] LAT staging (the innermost `u_z` axis, where
//! lanes would otherwise be strided loads — paper Fig. 2/3).

use crate::flux::sl5_weights;
use crate::line::{orient, KernelWork, LineEnds, Scheme, GHOST};
use crate::simd::f32x8;

/// Reusable scratch for bundle updates.
pub type LanesWork = KernelWork<f32x8>;

#[inline(always)]
fn vminmod(a: f32x8, b: f32x8) -> f32x8 {
    let half = f32x8::splat(0.5);
    (a.signum_or_zero() + b.signum_or_zero()) * half * a.abs().min(b.abs())
}

#[inline(always)]
fn vminmod4(a: f32x8, b: f32x8, c: f32x8, d: f32x8) -> f32x8 {
    vminmod(vminmod(a, b), vminmod(c, d))
}

#[inline(always)]
fn vmedian_clip(v: f32x8, lo: f32x8, hi: f32x8) -> f32x8 {
    v + vminmod(lo - v, hi - v)
}

/// Advance a bundle of eight lines (`bundle[i]` holds position `i` of all
/// eight lines) by a common shift `cfl` with the line ends `ends` (a
/// [`crate::Boundary`] or a [`LineEnds`] whose ghost cells are bundles).
/// Bundles of any length are fine, exactly as for
/// [`crate::line::advect_line`]. Only the production schemes are
/// vectorised; ask for others through the scalar path.
///
/// # Panics
/// Panics for schemes other than [`Scheme::Sl5`] / [`Scheme::SlMpp5`].
pub fn advect_lanes(
    scheme: Scheme,
    bundle: &mut [f32x8],
    cfl: f64,
    ends: impl Into<LineEnds<f32x8>>,
    work: &mut LanesWork,
) {
    if bundle.is_empty() || cfl == 0.0 {
        return;
    }
    assert!(
        matches!(scheme, Scheme::Sl5 | Scheme::SlMpp5),
        "advect_lanes supports SL5 / SL-MPP5 only"
    );
    let (mirror, cfl, ends) = orient(cfl, ends.into());
    if mirror {
        bundle.reverse();
    }
    advect_lanes_positive(scheme, bundle, cfl, &ends, work);
    if mirror {
        bundle.reverse();
    }
}

fn advect_lanes_positive(
    scheme: Scheme,
    bundle: &mut [f32x8],
    cfl: f64,
    ends: &LineEnds<f32x8>,
    work: &mut LanesWork,
) {
    let n = bundle.len();
    let n_int = cfl.floor() as i64;
    let s = cfl - n_int as f64;
    work.prepare(n);

    for (j, g) in work.ghost.iter_mut().enumerate() {
        let src = j as i64 - GHOST as i64 - n_int;
        *g = ends.sample(bundle, src, f32x8::ZERO);
    }

    let w64 = sl5_weights(s);
    let w: [f32x8; 5] = core::array::from_fn(|i| f32x8::splat(w64[i] as f32));
    let ghost = &work.ghost;

    if s < 1e-12 {
        for fl in work.flux.iter_mut() {
            *fl = f32x8::ZERO;
        }
    } else {
        let s_v = f32x8::splat(s as f32);
        let inv_s = f32x8::splat((1.0 / s) as f32);
        let alpha = f32x8::splat(crate::flux::mp_alpha(s) as f32);
        let half = f32x8::splat(0.5);
        let four_thirds = f32x8::splat(4.0 / 3.0);
        let four = f32x8::splat(4.0);
        let two = f32x8::splat(2.0);
        let zero = f32x8::ZERO;
        for (j, fl) in work.flux.iter_mut().enumerate() {
            let (g0, g1, g2, g3, g4) = (
                ghost[j],
                ghost[j + 1],
                ghost[j + 2],
                ghost[j + 3],
                ghost[j + 4],
            );
            let f_high = (((g0 * w[0] + g1 * w[1]) + g2 * w[2]) + g3 * w[3]) + g4 * w[4];
            match scheme {
                Scheme::Sl5 => *fl = f_high,
                Scheme::SlMpp5 => {
                    let f_sl = f_high * inv_s;
                    // MP5 bracket (vector form of flux::mp5_bracket).
                    let d_m1 = g2 - two * g1 + g0;
                    let d_0 = g3 - two * g2 + g1;
                    let d_p1 = g4 - two * g3 + g2;
                    let dm4_ph = vminmod4(four * d_0 - d_p1, four * d_p1 - d_0, d_0, d_p1);
                    let dm4_mh = vminmod4(four * d_m1 - d_0, four * d_0 - d_m1, d_m1, d_0);
                    let f_ul = g2 + alpha * (g2 - g1);
                    let f_md = half * (g2 + g3) - half * dm4_ph;
                    let f_lc = g2 + half * (g2 - g1) + four_thirds * dm4_mh;
                    let f_min = g2.min(g3).min(f_md).max(g2.min(f_ul).min(f_lc));
                    let f_max = g2.max(g3).max(f_md).min(g2.max(f_ul).max(f_lc));
                    let f_lim = vmedian_clip(f_sl, f_min, f_max);
                    *fl = (s_v * f_lim).clamp(zero, g2.max(zero));
                }
                _ => unreachable!(),
            }
        }
    }

    for (i, v) in bundle.iter_mut().enumerate() {
        *v = work.ghost[i + GHOST] - work.flux[i + 1] + work.flux[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flux::Boundary;
    use crate::line::{advect_line, LineWork};

    fn make_lines(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        (0..8)
            .map(|_| (0..n).map(|_| next() + 0.1).collect())
            .collect()
    }

    fn pack(lines: &[Vec<f32>]) -> Vec<f32x8> {
        let n = lines[0].len();
        (0..n)
            .map(|i| f32x8(core::array::from_fn(|l| lines[l][i])))
            .collect()
    }

    fn unpack(bundle: &[f32x8]) -> Vec<Vec<f32>> {
        (0..8)
            .map(|l| bundle.iter().map(|v| v.0[l]).collect())
            .collect()
    }

    /// Lanes track the scalar kernel for every line-end source, on long
    /// lines and on lines shorter than the stencil.
    #[test]
    fn lanes_match_scalar_kernel() {
        let ghosts = make_lines(2 * GHOST, 13);
        let lane_ghost = |lines: &[Vec<f32>], side: usize| -> [f32x8; GHOST] {
            core::array::from_fn(|g| f32x8(core::array::from_fn(|l| lines[l][side + g])))
        };
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for cfl in [0.3f64, 0.85, -0.42, 2.7, -3.1] {
                for n in [2usize, 4, 40] {
                    for ends in 0..3 {
                        if ends == 2 && cfl.abs() >= 1.0 {
                            continue;
                        }
                        let lines = make_lines(n, 7);
                        let mut bundle = pack(&lines);
                        let vec_ends = match ends {
                            0 => LineEnds::Periodic,
                            1 => LineEnds::Zero,
                            _ => LineEnds::Ghost {
                                low: lane_ghost(&ghosts, 0),
                                high: lane_ghost(&ghosts, GHOST),
                            },
                        };
                        advect_lanes(scheme, &mut bundle, cfl, vec_ends, &mut LanesWork::new());
                        let vec_result = unpack(&bundle);

                        let mut swork = LineWork::new();
                        for (l, line) in lines.iter().enumerate() {
                            let line_ends = match vec_ends {
                                LineEnds::Ghost { .. } => LineEnds::Ghost {
                                    low: core::array::from_fn(|g| ghosts[l][g]),
                                    high: core::array::from_fn(|g| ghosts[l][GHOST + g]),
                                },
                                LineEnds::Periodic => LineEnds::Periodic,
                                LineEnds::Zero => LineEnds::Zero,
                            };
                            let mut scalar = line.clone();
                            advect_line(scheme, &mut scalar, cfl, line_ends, &mut swork);
                            for (i, (a, b)) in vec_result[l].iter().zip(&scalar).enumerate() {
                                assert!(
                                    (a - b).abs() < 2e-4,
                                    "{scheme:?} cfl={cfl} n={n} {line_ends:?} lane {l} \
                                     cell {i}: {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_conserve_mass_per_lane() {
        let lines = make_lines(64, 3);
        let mut bundle = pack(&lines);
        let mut work = LanesWork::new();
        let m0: Vec<f64> = (0..8)
            .map(|l| bundle.iter().map(|v| v.0[l] as f64).sum())
            .collect();
        for step in 0..30 {
            advect_lanes(
                Scheme::SlMpp5,
                &mut bundle,
                0.2 + 0.02 * step as f64,
                Boundary::Periodic,
                &mut work,
            );
        }
        for l in 0..8 {
            let m1: f64 = bundle.iter().map(|v| v.0[l] as f64).sum();
            assert!(
                (m1 - m0[l]).abs() < 1e-3 * m0[l],
                "lane {l}: {} -> {m1}",
                m0[l]
            );
        }
    }

    #[test]
    fn lanes_preserve_positivity() {
        let lines = make_lines(48, 11);
        let mut bundle = pack(&lines);
        let mut work = LanesWork::new();
        for step in 0..100 {
            let cfl = 0.15 + 0.8 * ((step as f64 * 0.377) % 1.0);
            advect_lanes(
                Scheme::SlMpp5,
                &mut bundle,
                cfl,
                Boundary::Periodic,
                &mut work,
            );
            for (i, v) in bundle.iter().enumerate() {
                for (l, &x) in v.0.iter().enumerate() {
                    assert!(x >= 0.0, "step {step} cell {i} lane {l}: {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "SL5 / SL-MPP5")]
    fn unsupported_scheme_panics() {
        let mut bundle = vec![f32x8::ZERO; 16];
        advect_lanes(
            Scheme::Upwind1,
            &mut bundle,
            0.5,
            Boundary::Periodic,
            &mut LanesWork::new(),
        );
    }
}
