//! A working MG V-cycle over z-distributed slabs: the solver ZRAN3
//! initializes in the full NAS MG benchmark.
//!
//! The operators are NAS MG's 27-point stencils:
//!
//! * `resid`  — r = v − A·u with A-weights `a = (−8/3, 0, 1/6, 1/12)`;
//! * `psinv`  — u ← u + S·r with smoother weights `c = (−3/8, 1/32, −1/64, 0)`;
//! * `rprj3`  — full-weighting restriction (½/¼ per axis);
//! * `interp` — trilinear prolongation;
//! * `norm2u3` — L2 norm and max-norm via reductions.
//!
//! Deviation from the reference (documented in DESIGN.md): the grid
//! hierarchy stops at the coarsest level that still gives every rank at
//! least one z-plane (`n_level ≥ 2·p`), where the reference subsets
//! communicators; the coarsest level is smoothed rather than solved
//! exactly. Convergence per cycle is therefore somewhat slower at high
//! rank counts but the communication structure per level is identical.

use gv_msgpass::localview::local_allreduce;
use gv_msgpass::Comm;

use super::comm3::exchange;
use super::grid::{ExtSlab, Slab};

/// A-operator weights by neighbour distance (center, face, edge, corner).
const A: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
/// Smoother weights (classes S/W/A of the reference).
const C: [f64; 4] = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

/// Applies a 27-point stencil with per-distance weights at `(x, y, ze)`
/// of the extended slab (`ze` counts ghost planes, so owned plane `z` is
/// `ze = z + 1`).
#[inline]
fn stencil27(e: &ExtSlab, x: usize, y: usize, ze: usize, w: [f64; 4]) -> f64 {
    let (xi, yi) = (x as isize, y as isize);
    let mut by_distance = [0.0f64; 4];
    for dz in -1i32..=1 {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let dist = (dx != 0) as usize + (dy != 0) as usize + (dz != 0) as usize;
                by_distance[dist] += e.at(xi + dx, yi + dy, (ze as i32 + dz) as usize);
            }
        }
    }
    w[0] * by_distance[0] + w[1] * by_distance[1] + w[2] * by_distance[2] + w[3] * by_distance[3]
}

/// r ← v − A·u (NAS `resid`).
pub fn resid(comm: &Comm, u: &Slab, v: &Slab, r: &mut Slab) {
    let e = exchange(comm, u);
    let n = u.n;
    for z in 0..u.z_len {
        for y in 0..n {
            for x in 0..n {
                let idx = r.idx(x, y, z);
                r.data[idx] = v.data[idx] - stencil27(&e, x, y, z + 1, A);
            }
        }
    }
    comm.advance(u.cells() as u64 * 27);
}

/// u ← u + S·r (NAS `psinv`, one smoothing application).
pub fn psinv(comm: &Comm, r: &Slab, u: &mut Slab) {
    let e = exchange(comm, r);
    let n = r.n;
    for z in 0..r.z_len {
        for y in 0..n {
            for x in 0..n {
                let idx = u.idx(x, y, z);
                u.data[idx] += stencil27(&e, x, y, z + 1, C);
            }
        }
    }
    comm.advance(r.cells() as u64 * 27);
}

/// Full-weighting restriction of `fine` onto a coarse slab (NAS `rprj3`).
///
/// Requires aligned decompositions: with power-of-two grids and balanced
/// chunks over the same `p`, coarse plane `Z` lives on the rank owning
/// fine planes `2Z` and `2Z ± 1` up to the halo, which `exchange` covers.
pub fn rprj3(comm: &Comm, fine: &Slab) -> Slab {
    let p = comm.size();
    let nc = fine.n / 2;
    let mut coarse = Slab::for_rank(nc, comm.rank(), p);
    let e = exchange(comm, fine);
    for zc in 0..coarse.z_len {
        let z_fine_global = 2 * (coarse.z_start + zc);
        // Local extended-z of the fine plane: global − z_start + 1 ghost.
        let ze = z_fine_global - fine.z_start + 1;
        for yc in 0..nc {
            for xc in 0..nc {
                let (xf, yf) = ((2 * xc) as isize, (2 * yc) as isize);
                let mut sum = 0.0;
                for dz in -1i32..=1 {
                    for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            let w = 0.5f64.powi(
                                3 + dx.unsigned_abs() as i32 + dy.unsigned_abs() as i32 + dz.abs(),
                            );
                            sum += w * e.at(xf + dx, yf + dy, (ze as i32 + dz) as usize);
                        }
                    }
                }
                let idx = coarse.idx(xc, yc, zc);
                coarse.data[idx] = sum;
            }
        }
    }
    comm.advance(coarse.cells() as u64 * 27);
    coarse
}

/// Trilinear prolongation: `fine ← fine + P·coarse` (NAS `interp`).
pub fn interp(comm: &Comm, coarse: &Slab, fine: &mut Slab) {
    let e = exchange(comm, coarse);
    let n = fine.n;
    for z in 0..fine.z_len {
        let zg = fine.z_start + z;
        // Surrounding coarse planes of fine plane zg: zg/2 and, when zg is
        // odd, zg/2 + 1. Extended-local index of coarse plane Z:
        // Z − coarse.z_start + 1 (the halo covers ±1).
        let z0 = (zg / 2) as isize - coarse.z_start as isize + 1;
        let zs: &[(isize, f64)] = if zg.is_multiple_of(2) {
            &[(0, 1.0)]
        } else {
            &[(0, 0.5), (1, 0.5)]
        };
        for y in 0..n {
            let ys: &[(isize, f64)] = if y % 2 == 0 {
                &[(0, 1.0)]
            } else {
                &[(0, 0.5), (1, 0.5)]
            };
            let y0 = (y / 2) as isize;
            for x in 0..n {
                let xs: &[(isize, f64)] = if x % 2 == 0 {
                    &[(0, 1.0)]
                } else {
                    &[(0, 0.5), (1, 0.5)]
                };
                let x0 = (x / 2) as isize;
                let mut add = 0.0;
                for &(dz, wz) in zs {
                    for &(dy, wy) in ys {
                        for &(dx, wx) in xs {
                            add += wz * wy * wx * e.at(x0 + dx, y0 + dy, (z0 + dz) as usize);
                        }
                    }
                }
                let idx = fine.idx(x, y, z);
                fine.data[idx] += add;
            }
        }
    }
    comm.advance(fine.cells() as u64 * 8);
}

/// L2 norm and max absolute value of the distributed field (NAS
/// `norm2u3`): two reductions, as in the reference.
pub fn norm2u3(comm: &Comm, r: &Slab) -> (f64, f64) {
    let mut sumsq = 0.0f64;
    let mut maxabs = 0.0f64;
    for &v in &r.data {
        sumsq += v * v;
        maxabs = maxabs.max(v.abs());
    }
    comm.advance(r.cells() as u64 * 2);
    let total_sumsq = local_allreduce(comm, sumsq, |a, b| a + b);
    let total_max = local_allreduce(comm, maxabs, f64::max);
    let total_cells = (r.n * r.n * r.n) as f64;
    ((total_sumsq / total_cells).sqrt(), total_max)
}

/// The multigrid level hierarchy for an `n³` grid over `p` ranks.
pub fn levels(n: usize, p: usize) -> Vec<usize> {
    assert!(n.is_power_of_two(), "MG needs a power-of-two grid edge");
    assert!(
        n >= 2 * p,
        "every rank needs at least two fine z-planes (n={n}, p={p})"
    );
    let mut out = Vec::new();
    let mut edge = n;
    while edge >= 2 * p && edge >= 4 {
        out.push(edge);
        edge /= 2;
    }
    out
}

/// One V-cycle of NAS `mg3P`: restrict the residual to the coarsest
/// level, smooth there, then prolongate/correct/smooth back up. Returns
/// the post-cycle residual norms.
pub fn v_cycle(comm: &Comm, u: &mut Slab, v: &Slab, r: &mut Slab) -> (f64, f64) {
    let p = comm.size();
    let hierarchy = levels(u.n, p);
    let depth = hierarchy.len();

    // Downward: restrict residuals.
    let mut residuals: Vec<Slab> = Vec::with_capacity(depth);
    resid(comm, u, v, r);
    residuals.push(r.clone());
    for _ in 1..depth {
        let coarser = rprj3(comm, residuals.last().expect("nonempty"));
        residuals.push(coarser);
    }

    // Coarsest level: smooth from zero.
    let mut u_level = Slab::for_rank(*hierarchy.last().expect("nonempty"), comm.rank(), p);
    for _ in 0..2 {
        psinv(comm, residuals.last().expect("nonempty"), &mut u_level);
    }

    // Upward: prolongate, correct, smooth.
    for level in (0..depth - 1).rev() {
        let mut u_fine = Slab::for_rank(hierarchy[level], comm.rank(), p);
        interp(comm, &u_level, &mut u_fine);
        let mut r_fine = u_fine.clone();
        resid(comm, &u_fine, &residuals[level], &mut r_fine);
        psinv(comm, &r_fine, &mut u_fine);
        u_level = u_fine;
    }

    // Apply the correction to the solution and report the new residual.
    for (a, b) in u.data.iter_mut().zip(&u_level.data) {
        *a += *b;
    }
    comm.advance(u.cells() as u64);
    resid(comm, u, v, r);
    norm2u3(comm, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg::zran3::{fill_random, zran3, Zran3Variant};
    use gv_msgpass::Runtime;

    #[test]
    fn level_hierarchy_respects_rank_bound() {
        assert_eq!(levels(32, 1), vec![32, 16, 8, 4]);
        assert_eq!(levels(32, 4), vec![32, 16, 8]);
        assert_eq!(levels(64, 16), vec![64, 32]);
    }

    #[test]
    fn resid_of_exact_solution_via_norm() {
        // For u = 0, r must equal v.
        let outcome = Runtime::new(2).run(|comm| {
            let n = 16;
            let u = Slab::for_rank(n, comm.rank(), comm.size());
            let mut v = Slab::for_rank(n, comm.rank(), comm.size());
            fill_random(comm, &mut v, 7);
            let mut r = v.clone();
            resid(comm, &u, &v, &mut r);
            r.data == v.data
        });
        assert_eq!(outcome.results, vec![true, true]);
    }

    #[test]
    fn stencils_are_translation_invariant_on_constant_fields() {
        // A·const: weights sum to −8/3 + 6·0 + 12/6 + 8/12 = 0 → r = v.
        let outcome = Runtime::new(1).run(|comm| {
            let n = 8;
            let mut u = Slab::for_rank(n, 0, 1);
            u.data.fill(3.5);
            let mut v = Slab::for_rank(n, 0, 1);
            v.data.fill(1.0);
            let mut r = v.clone();
            resid(comm, &u, &v, &mut r);
            r.data.iter().all(|&x| (x - 1.0).abs() < 1e-12)
        });
        assert!(outcome.results[0]);
    }

    #[test]
    fn restriction_preserves_constants() {
        let outcome = Runtime::new(2).run(|comm| {
            let mut fine = Slab::for_rank(16, comm.rank(), comm.size());
            fine.data.fill(2.0);
            let coarse = rprj3(comm, &fine);
            coarse.data.iter().all(|&x| (x - 2.0).abs() < 1e-12)
        });
        assert!(outcome.results.iter().all(|&ok| ok));
    }

    #[test]
    fn interpolation_preserves_constants() {
        let outcome = Runtime::new(2).run(|comm| {
            let mut coarse = Slab::for_rank(8, comm.rank(), comm.size());
            coarse.data.fill(1.5);
            let mut fine = Slab::for_rank(16, comm.rank(), comm.size());
            interp(comm, &coarse, &mut fine);
            fine.data.iter().all(|&x| (x - 1.5).abs() < 1e-12)
        });
        assert!(outcome.results.iter().all(|&ok| ok));
    }

    #[test]
    fn v_cycles_reduce_the_residual() {
        for p in [1usize, 2, 4] {
            let outcome = Runtime::new(p).run(move |comm| {
                let n = 32;
                let mut v = Slab::for_rank(n, comm.rank(), comm.size());
                let _ = zran3(comm, &mut v, 10, Zran3Variant::Rsmpi);
                let mut u = Slab::for_rank(n, comm.rank(), comm.size());
                let mut r = v.clone();
                let (first, _) = v_cycle(comm, &mut u, &v, &mut r);
                let mut norms = vec![first];
                for _ in 0..3 {
                    norms.push(v_cycle(comm, &mut u, &v, &mut r).0);
                }
                norms
            });
            for norms in outcome.results {
                // Monotone decrease, and a healthy overall contraction.
                // (One smoothing per level and an approximately solved
                // coarsest level contract ~0.6× per cycle, weaker than the
                // reference's ~0.1× but unmistakably convergent.)
                for w in norms.windows(2) {
                    assert!(w[1] < w[0], "p={p}: residuals not decreasing: {norms:?}");
                }
                assert!(
                    norms[3] < norms[0] * 0.5,
                    "p={p}: residuals {norms:?} did not contract enough"
                );
            }
        }
    }

    #[test]
    fn norms_are_decomposition_invariant() {
        let reference = Runtime::new(1).run(|comm| {
            let mut v = Slab::for_rank(16, 0, 1);
            fill_random(comm, &mut v, 99);
            norm2u3(comm, &v)
        });
        let (l2_ref, max_ref) = reference.results[0];
        for p in [2usize, 4] {
            let outcome = Runtime::new(p).run(move |comm| {
                let mut v = Slab::for_rank(16, comm.rank(), comm.size());
                fill_random(comm, &mut v, 99);
                norm2u3(comm, &v)
            });
            for (l2, max) in outcome.results {
                assert!((l2 - l2_ref).abs() < 1e-12, "p={p}");
                assert_eq!(max, max_ref, "p={p}");
            }
        }
    }
}
