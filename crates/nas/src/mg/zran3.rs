//! ZRAN3 — the NAS MG initialization routine the paper's Figure 3 times.
//!
//! "In the initialization of the NAS MG benchmark, an array is filled with
//! random numbers. The ten largest numbers and their locations in the
//! array along with the ten smallest numbers and their locations in the
//! array are then identified. These positions are then filled with
//! positive ones and negative ones respectively, and the rest of the
//! array is filled with zeros."
//!
//! Two implementations of the extrema search are provided:
//!
//! * [`extrema_mpi`] — the reference structure: one grid walk collecting
//!   local candidates, then **4k built-in reductions** (for k = 10: the
//!   "forty reductions" of §4.2) — per extremum, one value `allreduce` and
//!   one location `allreduce`, for each of the two directions.
//! * [`extrema_rsmpi`] — "a single user-defined reduction, similar to the
//!   mink and mini reductions": one grid walk and one
//!   `TopBottomK` reduction.
//!
//! Both return identical results (ties broken toward the smaller global
//! index); the Figure 3 harness compares their modeled times.
//!
//! On the host clock the routine is three streaming passes over the slab,
//! and each runs on the vector tier: [`fill_random`] is one seed jump and
//! one lane-parallel [`Randlc::fill`] per slab (a z-slab is contiguous in
//! the conceptual array), the extrema walk stages `(value, index)` pairs
//! through `TopBottomK`'s filtered block kernel, and [`apply_charges`] is a
//! `fill(0.0)` and twenty stores. What is charged to the virtual clock
//! (`cells · 10`, `cells · accum_ops`, `cells / 8 + k`) does not depend on
//! any of that.

use gv_core::iter::accumulate_iter;
use gv_core::op::ReduceScanOp;
use gv_core::ops::topk::{TopBottom, TopBottomK};
use gv_msgpass::localview::local_allreduce;
use gv_msgpass::Comm;

use crate::randlc::Randlc;

use super::grid::Slab;

/// Fills the slab with the NPB random stream: cell at global row-major
/// index `g` receives variate `g + 1` of the stream seeded by `seed`.
/// Rank-count invariant by seed jumping: a z-slab is contiguous in the
/// conceptual `n³` array ([`Slab::indexed_cells`] relies on the same), so
/// one jump to its first cell and one [`Randlc::fill`] — which runs in
/// vector lanes where the host has them — cover it.
pub fn fill_random(comm: &Comm, slab: &mut Slab, seed: u64) {
    let mut gen = Randlc::new(seed).jumped(slab.global_index(0, 0, 0));
    gen.fill(&mut slab.data);
    // The reference randlc costs roughly a dozen floating-point operations
    // per variate (split-precision multiplies); charge 10 abstract ops so
    // the fill/communication balance matches the benchmark's.
    comm.advance(slab.cells() as u64 * 10);
}

/// `(value, global_index)` candidate list, best-first.
type Candidates = Vec<(f64, u64)>;

/// One walk over the slab collecting the local `k` largest and `k`
/// smallest cells with their global indices (both lists best-first): the
/// accumulate phase of [`extrema_rsmpi`]'s reduction, same stream, same
/// engine, same charge — the two Figure 3 series differ only in how the
/// candidates then cross ranks.
fn local_candidates(comm: &Comm, slab: &Slab, k: usize) -> (Candidates, Candidates) {
    let op = TopBottomK::<f64, u64>::new(k);
    let (state, cells) = accumulate_iter(&op, slab.indexed_cells());
    comm.advance(cells * op.accum_ops());
    (state.top, state.bottom)
}

/// Reference-style extrema search: 4k built-in reductions (§4.2's forty
/// for k = 10).
pub fn extrema_mpi(comm: &Comm, slab: &Slab, k: usize) -> TopBottom<f64, u64> {
    let (top_cand, bottom_cand) = local_candidates(comm, slab, k);

    // For each extremum: one value allreduce, then one location allreduce
    // (the owner proposes its index, everyone else the neutral element).
    let pick_side = |cands: &[(f64, u64)], largest: bool| -> Vec<(f64, u64)> {
        let mut chosen = Vec::with_capacity(k);
        let mut next = 0usize; // my next unconsumed local candidate
        for _ in 0..k {
            let mine = cands.get(next).copied().unwrap_or(if largest {
                (f64::NEG_INFINITY, u64::MAX)
            } else {
                (f64::INFINITY, u64::MAX)
            });
            let best_val = if largest {
                local_allreduce(comm, mine.0, f64::max)
            } else {
                local_allreduce(comm, mine.0, f64::min)
            };
            let proposal = if mine.0 == best_val { mine.1 } else { u64::MAX };
            let best_pos = local_allreduce(comm, proposal, u64::min);
            chosen.push((best_val, best_pos));
            if mine.0 == best_val && mine.1 == best_pos {
                next += 1;
            }
        }
        chosen
    };

    TopBottom {
        largest: pick_side(&top_cand, true),
        smallest: pick_side(&bottom_cand, false),
    }
}

/// RSMPI-style extrema search: one user-defined reduction over
/// `(value, global_index)` pairs streamed from the slab. `TopBottomK`
/// is splittable (and commutative), so the runtime is free to pick the
/// reduce-scatter + allgather schedule when the state is large enough to
/// warrant it — still one `Allreduce` call per rank either way.
pub fn extrema_rsmpi(comm: &Comm, slab: &Slab, k: usize) -> TopBottom<f64, u64> {
    let op = TopBottomK::<f64, u64>::new(k);
    gv_rsmpi::reduce::reduce_all_from_iter_splittable(comm, &op, slab.indexed_cells())
}

/// Rewrites the slab per the ZRAN3 contract: +1 at the `k` largest
/// positions, −1 at the `k` smallest, 0 everywhere else.
pub fn apply_charges(comm: &Comm, slab: &mut Slab, extrema: &TopBottom<f64, u64>) {
    slab.zero();
    let n = slab.n as u64;
    let plane = n * n;
    let mut place = |global: u64, value: f64| {
        let z = (global / plane) as usize;
        if let Some(z_local) = slab.local_z(z) {
            let rem = global % plane;
            let y = (rem / n) as usize;
            let x = (rem % n) as usize;
            let idx = slab.idx(x, y, z_local);
            slab.data[idx] = value;
        }
    };
    for &(_, pos) in &extrema.largest {
        place(pos, 1.0);
    }
    for &(_, pos) in &extrema.smallest {
        place(pos, -1.0);
    }
    comm.advance(slab.cells() as u64 / 8 + extrema.largest.len() as u64);
}

/// Which extrema implementation ZRAN3 uses (the Figure 3 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zran3Variant {
    /// Reference F+MPI structure: 4k built-in reductions.
    Mpi,
    /// F+RSMPI: one user-defined reduction.
    Rsmpi,
}

impl Zran3Variant {
    /// Both variants with display names.
    pub const ALL: [(Zran3Variant, &'static str); 2] = [
        (Zran3Variant::Mpi, "F+MPI"),
        (Zran3Variant::Rsmpi, "F+RSMPI"),
    ];
}

/// The full ZRAN3 routine: fill, find extrema (by the chosen variant),
/// apply charges. Returns the extrema for verification.
pub fn zran3(comm: &Comm, slab: &mut Slab, k: usize, variant: Zran3Variant) -> TopBottom<f64, u64> {
    fill_random(comm, slab, crate::randlc::DEFAULT_SEED);
    let extrema = match variant {
        Zran3Variant::Mpi => extrema_mpi(comm, slab, k),
        Zran3Variant::Rsmpi => extrema_rsmpi(comm, slab, k),
    };
    apply_charges(comm, slab, &extrema);
    extrema
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_msgpass::Runtime;

    fn serial_oracle(n: usize, k: usize) -> TopBottom<f64, u64> {
        let outcome = Runtime::new(1).run(move |comm| {
            let mut slab = Slab::for_rank(n, 0, 1);
            fill_random(comm, &mut slab, crate::randlc::DEFAULT_SEED);
            extrema_rsmpi(comm, &slab, k)
        });
        outcome.results.into_iter().next().unwrap()
    }

    #[test]
    fn fill_is_rank_count_invariant() {
        let n = 8;
        let serial = Runtime::new(1).run(move |comm| {
            let mut slab = Slab::for_rank(n, 0, 1);
            fill_random(comm, &mut slab, 42);
            slab.data
        });
        let reference = serial.results.into_iter().next().unwrap();
        for p in [2usize, 4] {
            let outcome = Runtime::new(p).run(move |comm| {
                let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
                fill_random(comm, &mut slab, 42);
                slab.data
            });
            let tiled: Vec<f64> = outcome.results.into_iter().flatten().collect();
            assert_eq!(tiled, reference, "p={p}");
        }
    }

    /// The fill as it was before the slab-at-a-time `fill`: one jump and one
    /// stepped row per `(y, z)`, each cell drawn by `next_f64`.
    fn fill_random_by_rows(slab: &mut Slab, seed: u64) {
        let n = slab.n;
        for z in 0..slab.z_len {
            for y in 0..n {
                let mut gen = Randlc::new(seed).jumped(slab.global_index(0, y, z));
                for x in 0..n {
                    let at = slab.idx(x, y, z);
                    slab.data[at] = gen.next_f64();
                }
            }
        }
    }

    #[test]
    fn fill_equals_the_per_row_reference_on_every_rank() {
        for n in [4usize, 8, 16] {
            // p = 5 on n = 4 leaves one rank without a plane.
            for p in [1usize, 2, 3, 5] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
                    fill_random(comm, &mut slab, crate::randlc::DEFAULT_SEED);
                    let mut by_rows = Slab::for_rank(n, comm.rank(), comm.size());
                    fill_random_by_rows(&mut by_rows, crate::randlc::DEFAULT_SEED);
                    (slab, by_rows)
                });
                let mut planes = 0;
                for (rank, (slab, by_rows)) in outcome.results.into_iter().enumerate() {
                    let bits = |s: &Slab| s.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&slab), bits(&by_rows), "n={n} p={p} rank {rank}");
                    planes += slab.z_len;
                }
                assert_eq!(planes, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn both_variants_agree_with_each_other_and_the_serial_oracle() {
        let n = 8;
        let k = 10;
        let oracle = serial_oracle(n, k);
        for p in [1usize, 2, 4] {
            for (variant, name) in Zran3Variant::ALL {
                let oracle = oracle.clone();
                let outcome = Runtime::new(p).run(move |comm| {
                    let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
                    zran3(comm, &mut slab, k, variant)
                });
                for got in outcome.results {
                    assert_eq!(got, oracle, "{name} p={p}");
                }
            }
        }
    }

    #[test]
    fn mpi_variant_issues_forty_reductions_for_k_ten() {
        let outcome = Runtime::new(4).run(|comm| {
            let mut slab = Slab::for_rank(8, comm.rank(), comm.size());
            fill_random(comm, &mut slab, crate::randlc::DEFAULT_SEED);
            extrema_mpi(comm, &slab, 10);
        });
        use gv_msgpass::CallKind;
        // 40 reduction calls per rank (§4.2's "forty reductions").
        assert_eq!(outcome.stats.calls(CallKind::Allreduce), 40 * 4);
    }

    #[test]
    fn rsmpi_variant_issues_one_reduction() {
        let outcome = Runtime::new(4).run(|comm| {
            let mut slab = Slab::for_rank(8, comm.rank(), comm.size());
            fill_random(comm, &mut slab, crate::randlc::DEFAULT_SEED);
            extrema_rsmpi(comm, &slab, 10);
        });
        use gv_msgpass::CallKind;
        assert_eq!(outcome.stats.calls(CallKind::Allreduce), 4);
    }

    #[test]
    fn charges_are_placed_at_the_extrema() {
        let n = 8;
        let k = 5;
        let outcome = Runtime::new(2).run(move |comm| {
            let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
            let extrema = zran3(comm, &mut slab, k, Zran3Variant::Rsmpi);
            let ones = slab.data.iter().filter(|&&v| v == 1.0).count();
            let neg_ones = slab.data.iter().filter(|&&v| v == -1.0).count();
            let zeros = slab.data.iter().filter(|&&v| v == 0.0).count();
            (ones, neg_ones, zeros, extrema, slab.cells())
        });
        let mut total_ones = 0;
        let mut total_neg = 0;
        for (ones, neg_ones, zeros, extrema, cells) in outcome.results {
            assert_eq!(extrema.largest.len(), k);
            assert_eq!(extrema.smallest.len(), k);
            assert_eq!(ones + neg_ones + zeros, cells);
            total_ones += ones;
            total_neg += neg_ones;
        }
        assert_eq!(total_ones, k);
        assert_eq!(total_neg, k);
    }

    #[test]
    fn rsmpi_is_modeled_faster_at_small_sizes() {
        // Figure 3's mechanism: 40 reduction latencies vs 1 dominate when
        // the grid is small.
        let run = |variant| {
            Runtime::new(8)
                .run(move |comm| {
                    let mut slab = Slab::for_rank(16, comm.rank(), comm.size());
                    zran3(comm, &mut slab, 10, variant);
                })
                .modeled_seconds
        };
        let t_mpi = run(Zran3Variant::Mpi);
        let t_rsmpi = run(Zran3Variant::Rsmpi);
        assert!(t_rsmpi < t_mpi, "rsmpi={t_rsmpi} mpi={t_mpi}");
    }
}
