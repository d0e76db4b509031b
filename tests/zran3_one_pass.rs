//! `zran3` generates the NPB field straight into the extrema reduction and
//! stores the slab once; its three public phases store the field, read it
//! back and overwrite it. The two must be indistinguishable: the same slab
//! bit for bit, the same extrema, the same virtual clock on every rank, the
//! same messages and bytes, and the same kernel blocks noted — for both
//! Figure 3 variants, at rank counts that split the grid evenly, unevenly
//! and with ranks left without a plane.
//!
//! The kernel dispatch counters are process-wide, so this file holds one
//! test: nothing else in its binary moves them while it reads them.

use gv_core::kernel::dispatch_counts;
use gv_core::ops::topk::TopBottom;
use gv_msgpass::{CallKind, Runtime};
use gv_nas::mg::zran3::{
    apply_charges, extrema_mpi, extrema_rsmpi, fill_random, zran3, Zran3Variant,
};
use gv_nas::mg::Slab;
use gv_nas::randlc::DEFAULT_SEED;
use gv_nas::MgClass;

const K: usize = 10;

/// What one ZRAN3 run leaves behind, everything compared exactly.
struct Observed {
    /// Per rank: the slab's bits and the extrema.
    ranks: Vec<(Vec<u64>, TopBottom<f64, u64>)>,
    counts: Counts,
}

/// The run's clocks and counters.
#[derive(Debug, PartialEq)]
struct Counts {
    rank_clocks: Vec<u64>,
    messages: u64,
    bytes: u64,
    allreduce_calls: u64,
    /// `(kernel, scalar)` blocks noted during the run.
    blocks: (u64, u64),
}

/// Runs ZRAN3 once on fresh slabs, either as `zran3` over slabs first
/// filled with garbage (NaNs, infinities, charges of an earlier call) or as
/// its three phases over zeroed slabs.
fn observe(n: usize, p: usize, variant: Zran3Variant, one_pass: bool) -> Observed {
    let before = dispatch_counts();
    let outcome = Runtime::new(p).run(move |comm| {
        let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
        let extrema = if one_pass {
            let junk = [f64::NAN, 1.0, -1.0, f64::INFINITY, -0.0, 0.75];
            for (i, cell) in slab.data.iter_mut().enumerate() {
                *cell = junk[i % junk.len()];
            }
            zran3(comm, &mut slab, K, variant)
        } else {
            fill_random(comm, &mut slab, DEFAULT_SEED);
            let extrema = match variant {
                Zran3Variant::Mpi => extrema_mpi(comm, &slab, K),
                Zran3Variant::Rsmpi => extrema_rsmpi(comm, &slab, K),
            };
            apply_charges(comm, &mut slab, &extrema);
            extrema
        };
        (slab.data.iter().map(|v| v.to_bits()).collect(), extrema)
    });
    let after = dispatch_counts();
    Observed {
        ranks: outcome.results,
        counts: Counts {
            rank_clocks: outcome.rank_clocks.iter().map(|t| t.to_bits()).collect(),
            messages: outcome.stats.messages,
            bytes: outcome.stats.bytes,
            allreduce_calls: outcome.stats.calls(CallKind::Allreduce),
            blocks: (after.0 - before.0, after.1 - before.1),
        },
    }
}

#[test]
fn zran3_equals_its_three_phases_and_overwrites_every_cell() {
    // Classes S and W, and a 4³ grid that leaves ranks without a plane.
    for n in [MgClass::S.n, MgClass::W.n, 4] {
        for p in [1usize, 2, 3, 5, 8] {
            for (variant, name) in Zran3Variant::ALL {
                let at = format!("{name} n={n} p={p}");
                let phases = observe(n, p, variant, false);
                let one_pass = observe(n, p, variant, true);
                assert_eq!(one_pass.counts, phases.counts, "{at}");
                for (rank, (got, want)) in one_pass.ranks.iter().zip(&phases.ranks).enumerate() {
                    assert_eq!(got.1, want.1, "{at} rank {rank}: extrema");
                    let differs = got.0.iter().zip(&want.0).position(|(a, b)| a != b);
                    assert_eq!(got.0.len(), want.0.len(), "{at} rank {rank}: cells");
                    assert_eq!(differs, None, "{at} rank {rank}: first cell that differs");
                }

                // Whatever the slab held: zeros, k ones and k minus ones.
                let cells: Vec<f64> = one_pass
                    .ranks
                    .iter()
                    .flat_map(|(bits, _)| bits.iter().map(|&b| f64::from_bits(b)))
                    .collect();
                assert_eq!(cells.len(), n * n * n, "{at}");
                let count = |v: f64| cells.iter().filter(|c| c.to_bits() == v.to_bits()).count();
                assert_eq!(count(1.0), K, "{at}");
                assert_eq!(count(-1.0), K, "{at}");
                assert_eq!(count(0.0), n * n * n - 2 * K, "{at}");
            }
        }
    }
}
