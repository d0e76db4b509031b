//! A distributed conjugate-gradient kernel, in the spirit of NAS CG.
//!
//! NPB's reduction share (the paper's §1 "nearly 9%" statistic) comes
//! largely from CG's two dot products per iteration riding alongside the
//! matvec's point-to-point traffic. This kernel reproduces that call mix
//! with the 1-D Poisson operator `A = tridiag(−1, 2, −1)` block-distributed
//! over ranks: each iteration is one halo-exchanging matvec plus two
//! allreduce dot products (the `ρ` and `p·Ap` reductions), exactly CG's
//! communication skeleton. (The reference NAS CG uses a random sparse
//! matrix; the substitution keeps the communication pattern while staying
//! self-verifying — documented in DESIGN.md.)

use gv_msgpass::localview::local_allreduce;
use gv_msgpass::{Comm, Tag};

const TAG_LO: Tag = 41; // value travelling to the lower-rank neighbour
const TAG_HI: Tag = 42; // value travelling to the higher-rank neighbour

/// One rank's block of a distributed vector for the CG solve.
#[derive(Debug, Clone)]
pub struct CgBlock {
    /// Global problem size.
    pub n: usize,
    /// Global index of the first owned entry.
    pub start: usize,
    /// Owned entries.
    pub data: Vec<f64>,
}

impl CgBlock {
    /// The block rank `rank` of `p` owns, zero-filled.
    pub fn zeros(comm: &Comm, n: usize) -> CgBlock {
        let range = gv_executor::chunk_ranges(n, comm.size())
            .nth(comm.rank())
            .expect("rank < size");
        CgBlock {
            n,
            start: range.start,
            data: vec![0.0; range.len()],
        }
    }

    /// The block filled by evaluating `f` at each global index.
    pub fn from_fn(comm: &Comm, n: usize, f: impl Fn(usize) -> f64) -> CgBlock {
        let mut b = Self::zeros(comm, n);
        for (i, slot) in b.data.iter_mut().enumerate() {
            *slot = f(b.start + i);
        }
        b
    }
}

/// Distributed dot product: one allreduce.
pub fn dot(comm: &Comm, a: &CgBlock, b: &CgBlock) -> f64 {
    let local: f64 = a.data.iter().zip(&b.data).map(|(x, y)| x * y).sum();
    comm.advance(a.data.len() as u64 * 2);
    local_allreduce(comm, local, |x, y| x + y)
}

/// Distributed matvec `y = A·x` with `A = tridiag(−1, 2, −1)` (Dirichlet
/// boundaries): exchanges one boundary value with each neighbour.
pub fn matvec(comm: &Comm, x: &CgBlock, y: &mut CgBlock) {
    let p = comm.size();
    let r = comm.rank();
    let len = x.data.len();
    // Exchange boundary entries with neighbours (empty blocks forward a
    // zero — they own no rows to compute anyway).
    let my_first = x.data.first().copied().unwrap_or(0.0);
    let my_last = x.data.last().copied().unwrap_or(0.0);
    if r > 0 {
        comm.send(r - 1, TAG_LO, my_first);
    }
    if r + 1 < p {
        comm.send(r + 1, TAG_HI, my_last);
    }
    let below = if r > 0 {
        comm.recv::<f64>(r - 1, TAG_HI)
    } else {
        0.0
    };
    let above = if r + 1 < p {
        comm.recv::<f64>(r + 1, TAG_LO)
    } else {
        0.0
    };

    // First row, interior, last row: the interior has no boundary test to
    // branch on, so it runs in vector lanes. Every row is the same
    // expression in the same order, `(2·x − left) − right`.
    let row = |left: f64, x: f64, right: f64| 2.0 * x - left - right;
    let (xs, ys) = (x.data.as_slice(), &mut y.data[..len]);
    match len {
        0 => {}
        1 => ys[0] = row(below, xs[0], above),
        _ => {
            ys[0] = row(below, xs[0], xs[1]);
            for (y, w) in ys[1..].iter_mut().zip(xs.windows(3)) {
                *y = row(w[0], w[1], w[2]);
            }
            ys[len - 1] = row(xs[len - 2], xs[len - 1], above);
        }
    }
    comm.advance(len as u64 * 3);
}

/// Result of a CG solve.
#[derive(Debug, Clone, Copy)]
pub struct CgResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Final residual norm ‖b − A·x‖₂.
    pub residual: f64,
    /// Initial residual norm ‖b‖₂ (x₀ = 0).
    pub initial_residual: f64,
}

/// Solves `A·x = b` by CG from `x = 0`, running `iterations` iterations
/// (NAS style: fixed iteration count, residual reported) unless the search
/// direction vanishes first (`p·Ap = 0`: the residual is exactly zero), in
/// which case it stops there and reports how many ran. Returns the result
/// and leaves the solution in `x`.
pub fn solve(comm: &Comm, b: &CgBlock, x: &mut CgBlock, iterations: usize) -> CgResult {
    let n = b.n;
    let mut r = b.clone(); // residual (x0 = 0 ⇒ r = b)
    let mut p_dir = r.clone();
    let mut ap = CgBlock::zeros(comm, n);
    let mut rho = dot(comm, &r, &r);
    let initial_residual = rho.sqrt();
    let mut executed = 0;
    for _ in 0..iterations {
        matvec(comm, &p_dir, &mut ap);
        let denom = dot(comm, &p_dir, &ap);
        if denom == 0.0 {
            break;
        }
        let alpha = rho / denom;
        // Zipped slices: the compiler sees one length, so the updates run
        // in vector lanes. Elementwise, nothing regrouped or contracted.
        for (x, p) in x.data.iter_mut().zip(&p_dir.data) {
            *x += alpha * p;
        }
        for (r, ap) in r.data.iter_mut().zip(&ap.data) {
            *r -= alpha * ap;
        }
        comm.advance(x.data.len() as u64 * 4);
        let rho_next = dot(comm, &r, &r);
        let beta = rho_next / rho;
        rho = rho_next;
        for (p, r) in p_dir.data.iter_mut().zip(&r.data) {
            *p = r + beta * *p;
        }
        comm.advance(p_dir.data.len() as u64 * 2);
        executed += 1;
    }
    CgResult {
        iterations: executed,
        residual: rho.sqrt(),
        initial_residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_msgpass::{CallKind, Runtime};

    #[test]
    fn matvec_of_known_vector() {
        // x = global index; A·x interior = 2i − (i−1) − (i+1) = 0; the
        // Dirichlet ends see a missing neighbour.
        for p in [1usize, 2, 3] {
            let outcome = Runtime::new(p).run(|comm| {
                let x = CgBlock::from_fn(comm, 12, |i| i as f64);
                let mut y = CgBlock::zeros(comm, 12);
                matvec(comm, &x, &mut y);
                y.data
            });
            let flat: Vec<f64> = outcome.results.into_iter().flatten().collect();
            assert_eq!(flat[0], 0.0 - 1.0); // 2·0 − 0(boundary) − 1
            for v in &flat[1..11] {
                assert_eq!(*v, 0.0);
            }
            assert_eq!(flat[11], 2.0 * 11.0 - 10.0); // right boundary
        }
    }

    #[test]
    fn cg_converges_on_the_poisson_problem() {
        // b = A·x* for a known x*; CG must recover it (1-D Poisson with
        // n=32 converges exactly in ≤ n iterations; we check strong
        // reduction much earlier).
        for p in [1usize, 2, 4] {
            let outcome = Runtime::new(p).run(|comm| {
                let n = 32;
                let x_star = CgBlock::from_fn(comm, n, |i| ((i * 7) % 5) as f64 - 2.0);
                let mut b = CgBlock::zeros(comm, n);
                matvec(comm, &x_star, &mut b);
                let mut x = CgBlock::zeros(comm, n);
                let result = solve(comm, &b, &mut x, n);
                let err: f64 = x
                    .data
                    .iter()
                    .zip(&x_star.data)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (result, err)
            });
            let total_err: f64 = outcome.results.iter().map(|(_, e)| e).sum();
            let result = outcome.results[0].0;
            assert!(result.residual < result.initial_residual * 1e-8, "p={p}");
            assert!(total_err.sqrt() < 1e-6, "p={p} err={total_err}");
        }
    }

    /// `matvec` as the index loop it was: a boundary test on every row.
    fn matvec_indexed(comm: &Comm, x: &CgBlock, y: &mut CgBlock) {
        let (p, r) = (comm.size(), comm.rank());
        let len = x.data.len();
        if r > 0 {
            comm.send(r - 1, TAG_LO, x.data.first().copied().unwrap_or(0.0));
        }
        if r + 1 < p {
            comm.send(r + 1, TAG_HI, x.data.last().copied().unwrap_or(0.0));
        }
        let below = if r > 0 {
            comm.recv::<f64>(r - 1, TAG_HI)
        } else {
            0.0
        };
        let above = if r + 1 < p {
            comm.recv::<f64>(r + 1, TAG_LO)
        } else {
            0.0
        };
        for i in 0..len {
            let left = if i == 0 { below } else { x.data[i - 1] };
            let right = if i + 1 == len { above } else { x.data[i + 1] };
            y.data[i] = 2.0 * x.data[i] - left - right;
        }
    }

    /// `solve` as the index loops it was, over [`matvec_indexed`]; returns
    /// the iterations that ran and `ρ` at the end.
    #[allow(clippy::needless_range_loop)] // the loops are the reference
    fn solve_indexed(comm: &Comm, b: &CgBlock, x: &mut CgBlock, iterations: usize) -> (usize, f64) {
        let mut r = b.clone();
        let mut p_dir = r.clone();
        let mut ap = CgBlock::zeros(comm, b.n);
        let mut rho = dot(comm, &r, &r);
        for done in 0..iterations {
            matvec_indexed(comm, &p_dir, &mut ap);
            let denom = dot(comm, &p_dir, &ap);
            if denom == 0.0 {
                return (done, rho);
            }
            let alpha = rho / denom;
            for i in 0..x.data.len() {
                x.data[i] += alpha * p_dir.data[i];
                r.data[i] -= alpha * ap.data[i];
            }
            let rho_next = dot(comm, &r, &r);
            let beta = rho_next / rho;
            rho = rho_next;
            for i in 0..p_dir.data.len() {
                p_dir.data[i] = r.data[i] + beta * p_dir.data[i];
            }
        }
        (iterations, rho)
    }

    #[test]
    fn matvec_and_solve_equal_the_index_loops_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Up to p = 4 on n = 1, 2, 3: empty and one-row blocks.
        for n in [1usize, 2, 3, 5, 64, 1024] {
            for p in [1usize, 2, 3, 4] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let x_star = CgBlock::from_fn(comm, n, |i| ((i * 7) % 5) as f64 - 1.75);
                    let mut b = CgBlock::zeros(comm, n);
                    matvec(comm, &x_star, &mut b);
                    let mut b_indexed = CgBlock::zeros(comm, n);
                    matvec_indexed(comm, &x_star, &mut b_indexed);
                    let mut x = CgBlock::zeros(comm, n);
                    let result = solve(comm, &b, &mut x, 12);
                    let mut x_indexed = CgBlock::zeros(comm, n);
                    let (ran, rho) = solve_indexed(comm, &b, &mut x_indexed, 12);
                    assert_eq!(result.iterations, ran);
                    assert_eq!(result.residual.to_bits(), rho.sqrt().to_bits());
                    (b.data, b_indexed.data, x.data, x_indexed.data)
                });
                for (rank, (b, b_indexed, x, x_indexed)) in outcome.results.into_iter().enumerate()
                {
                    assert_eq!(bits(&b), bits(&b_indexed), "matvec n={n} p={p} rank {rank}");
                    assert_eq!(bits(&x), bits(&x_indexed), "solve n={n} p={p} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn an_early_exit_reports_the_iterations_that_ran() {
        // b = 0: the first `p·Ap` is zero, so the loop breaks before its
        // first update.
        for p in [1usize, 2, 3] {
            let outcome = Runtime::new(p).run(|comm| {
                let b = CgBlock::zeros(comm, 16);
                let mut x = CgBlock::from_fn(comm, 16, |i| i as f64 + 0.5);
                let untouched = x.data.clone();
                let result = solve(comm, &b, &mut x, 64);
                (result, x.data == untouched)
            });
            for (result, x_untouched) in outcome.results {
                assert_eq!(result.iterations, 0, "p={p}");
                assert_eq!(result.residual, 0.0, "p={p}");
                assert!(x_untouched, "p={p}");
            }
        }
    }

    #[test]
    fn cg_call_mix_is_two_reductions_per_iteration() {
        let iters = 10;
        let outcome = Runtime::new(4).run(move |comm| {
            let b = CgBlock::from_fn(comm, 64, |i| (i % 3) as f64);
            let mut x = CgBlock::zeros(comm, 64);
            solve(comm, &b, &mut x, iters);
        });
        // 1 initial ρ + 2 per iteration, per rank.
        assert_eq!(
            outcome.stats.calls(CallKind::Allreduce),
            (1 + 2 * iters as u64) * 4
        );
        // Matvec p2p: interior ranks send 2, edge ranks 1, per iteration.
        assert_eq!(
            outcome.stats.calls(CallKind::Send),
            (2 + 2 + 1 + 1) * iters as u64
        );
    }
}
