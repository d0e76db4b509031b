//! Integration tests of the NAS kernels end-to-end across the full stack
//! (operators → RSMPI → collectives → runtime).

use gv_msgpass::{CallKind, Runtime};
use gv_nas::is::{run_is, VerifyVariant};
use gv_nas::mg::vcycle::{norm2u3, v_cycle};
use gv_nas::mg::zran3::{zran3, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::{IsClass, MgClass};

#[test]
fn is_pipeline_verifies_across_rank_counts_and_variants() {
    for p in [1usize, 2, 4, 8] {
        for (variant, name) in VerifyVariant::ALL {
            let outcome = Runtime::new(p).run(move |comm| run_is(comm, IsClass::S, variant));
            let total: usize = outcome.results.iter().map(|(_, n)| n).sum();
            assert_eq!(total, IsClass::S.total_keys(), "{name} p={p}");
            assert!(outcome.results.iter().all(|(ok, _)| *ok), "{name} p={p}");
        }
    }
}

#[test]
fn is_detects_an_injected_violation() {
    // Corrupt one key after sorting; every variant must notice.
    for (variant, name) in VerifyVariant::ALL {
        let outcome = Runtime::new(4).run(move |comm| {
            let keys = gv_nas::is::generate_keys(IsClass::S, comm.rank(), comm.size());
            let mut block = gv_nas::is::distributed_sort(comm, &keys, IsClass::S.max_key());
            if comm.rank() == 2 && block.keys.len() > 10 {
                let mid = block.keys.len() / 2;
                block.keys[mid] = block.keys[mid].wrapping_add(1 << 10);
            }
            variant.verify(comm, &block.keys)
        });
        assert_eq!(outcome.results, vec![false; 4], "{name}");
    }
}

#[test]
fn zran3_results_are_rank_count_invariant() {
    let reference = Runtime::new(1).run(|comm| {
        let mut slab = Slab::for_rank(16, 0, 1);
        zran3(comm, &mut slab, 10, Zran3Variant::Rsmpi)
    });
    let expected = &reference.results[0];
    for p in [2usize, 3, 8] {
        for (variant, name) in Zran3Variant::ALL {
            let outcome = Runtime::new(p).run(move |comm| {
                let mut slab = Slab::for_rank(16, comm.rank(), comm.size());
                zran3(comm, &mut slab, 10, variant)
            });
            for got in &outcome.results {
                assert_eq!(got, expected, "{name} p={p}");
            }
        }
    }
}

#[test]
fn zran3_ties_across_rank_boundaries_go_to_the_smaller_global_index() {
    use gv_nas::mg::zran3::{extrema_mpi, extrema_rsmpi};

    // An 8³ field of distinct values in [−0.5, 0.5); nine cells above and
    // nine below it; and the 10th-largest (0.75) and 10th-smallest (−0.75)
    // values on both sides of every plane seam, so whichever seams are rank
    // boundaries at p, the ranks past the first tie must lose it.
    let n = 8;
    let plane = n * n;
    let mut field: Vec<f64> = (0..n * plane)
        .map(|g| ((g * 193) % 521) as f64 / 521.0 - 0.5)
        .collect();
    for z in 0..n {
        field[z * plane + 10] = 1.0 + z as f64;
        field[z * plane + 20] = -1.0 - z as f64;
    }
    field[(n - 1) * plane + 30] = 100.0;
    field[(n - 1) * plane + 40] = -100.0;
    for z in 1..n {
        field[z * plane - 1] = 0.75;
        field[z * plane] = 0.75;
        field[z * plane - 2] = -0.75;
        field[z * plane + 1] = -0.75;
    }

    // The serial oracle: sort every (value, global index), ties by index.
    let k = 10;
    let cells: Vec<(f64, u64)> = field.iter().copied().zip(0..).collect();
    let mut desc = cells.clone();
    desc.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut asc = cells;
    asc.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let largest: Vec<(f64, u64)> = desc[..k].to_vec();
    let smallest: Vec<(f64, u64)> = asc[..k].to_vec();
    assert_eq!(
        largest[k - 1],
        (0.75, plane as u64 - 1),
        "the tie the oracle keeps"
    );
    assert_eq!(
        smallest[k - 1],
        (-0.75, plane as u64 - 2),
        "the tie the oracle keeps"
    );

    for p in [1usize, 2, 3, 5] {
        let field = &field;
        let outcome = Runtime::new(p).run(move |comm| {
            let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
            let first = slab.global_index(0, 0, 0) as usize;
            let len = slab.data.len();
            slab.data.copy_from_slice(&field[first..first + len]);
            (extrema_rsmpi(comm, &slab, k), extrema_mpi(comm, &slab, k))
        });
        for (rank, (rsmpi, mpi)) in outcome.results.into_iter().enumerate() {
            for (name, got) in [("F+RSMPI", rsmpi), ("F+MPI", mpi)] {
                assert_eq!(got.largest, largest, "{name} largest, p={p} rank {rank}");
                assert_eq!(got.smallest, smallest, "{name} smallest, p={p} rank {rank}");
            }
        }
    }
}

#[test]
fn zran3_reduction_counts_match_the_paper() {
    // §4.2: "implemented with forty reductions" vs "a single user-defined
    // reduction".
    let p = 4;
    let count_allreduces = |variant| {
        let outcome = Runtime::new(p).run(move |comm| {
            let mut slab = Slab::for_rank(16, comm.rank(), comm.size());
            zran3(comm, &mut slab, 10, variant);
        });
        outcome.stats.calls(CallKind::Allreduce) / p as u64
    };
    assert_eq!(count_allreduces(Zran3Variant::Mpi), 40);
    assert_eq!(count_allreduces(Zran3Variant::Rsmpi), 1);
}

#[test]
fn mg_benchmark_runs_zran3_then_converges() {
    // The class-S shape: zran3 initializes the charge field, V-cycles
    // drive the residual down — ZRAN3 runs inside a working benchmark.
    let class = MgClass::S;
    let outcome = Runtime::new(2).run(move |comm| {
        let mut v = Slab::for_rank(class.n, comm.rank(), comm.size());
        zran3(comm, &mut v, 10, Zran3Variant::Rsmpi);
        let (initial_l2, initial_max) = norm2u3(comm, &v);
        let mut u = Slab::for_rank(class.n, comm.rank(), comm.size());
        let mut r = v.clone();
        let mut l2 = f64::INFINITY;
        for _ in 0..class.iterations {
            l2 = v_cycle(comm, &mut u, &v, &mut r).0;
        }
        (initial_l2, initial_max, l2)
    });
    for (initial_l2, initial_max, final_l2) in outcome.results {
        // The charge field is ±1 spikes: max-norm exactly 1, L2 tiny.
        assert_eq!(initial_max, 1.0);
        assert!(initial_l2 > 0.0 && initial_l2 < 1.0);
        assert!(final_l2 < initial_l2, "V-cycles must reduce the residual");
    }
}

#[test]
fn modeled_speedup_shape_matches_figure_3() {
    // The headline qualitative claim, as an assertion: at a fixed small
    // grid, the RSMPI/MPI gap *grows* with rank count, and RSMPI stays
    // faster.
    let time = |p: usize, variant| {
        Runtime::new(p)
            .run(move |comm| {
                let mut slab = Slab::for_rank(32, comm.rank(), comm.size());
                zran3(comm, &mut slab, 10, variant);
            })
            .modeled_seconds
    };
    let mut previous_ratio = 0.0;
    for p in [2usize, 8, 32] {
        let ratio = time(p, Zran3Variant::Mpi) / time(p, Zran3Variant::Rsmpi);
        assert!(ratio > 1.0, "RSMPI must win at p={p} (ratio {ratio})");
        assert!(
            ratio > previous_ratio,
            "the gap must widen with p (p={p}: {ratio} vs {previous_ratio})"
        );
        previous_ratio = ratio;
    }
}
