//! Sub-communicator scenarios: global-view reductions over `split`
//! groups, concurrent traffic on duplicated communicators, and a stress
//! test of interleaved collectives.

use gv_core::op::ScanKind;
use gv_core::ops::builtin::sum;
use gv_core::ops::mink::MinK;
use gv_msgpass::Runtime;

#[test]
fn rsmpi_reduction_inside_split_groups() {
    // 8 ranks split into two groups of 4; each group reduces its own
    // conceptual array with a user-defined operator.
    let outcome = Runtime::new(8).run(|comm| {
        let color = (comm.rank() / 4) as i64;
        let sub = comm.split(color, comm.rank() as i64);
        // Group g's conceptual array: [100g, 100g+1, …, 100g+19], 5 per
        // rank.
        let local: Vec<i64> = (0..5)
            .map(|i| color * 100 + sub.rank() as i64 * 5 + i)
            .collect();
        gv_rsmpi::reduce_all(&sub, &MinK::<i64>::new(3), &local)
    });
    for (rank, got) in outcome.results.into_iter().enumerate() {
        let g = (rank / 4) as i64;
        assert_eq!(got, vec![100 * g, 100 * g + 1, 100 * g + 2], "rank {rank}");
    }
}

#[test]
fn scans_on_split_groups_are_independent() {
    let outcome = Runtime::new(6).run(|comm| {
        let color = (comm.rank() % 2) as i64;
        let sub = comm.split(color, comm.rank() as i64);
        let local = vec![1i64; 2];
        gv_rsmpi::scan(&sub, &sum::<i64>(), &local, ScanKind::Inclusive)
    });
    // Each 3-rank group scans [1; 6]: rank-in-group r gets [2r+1, 2r+2].
    for (rank, got) in outcome.results.into_iter().enumerate() {
        let r = (rank / 2) as i64;
        assert_eq!(got, vec![2 * r + 1, 2 * r + 2], "rank {rank}");
    }
}

#[test]
fn world_and_subgroup_collectives_interleave_safely() {
    let outcome = Runtime::new(4).run(|comm| {
        let sub = comm.split((comm.rank() % 2) as i64, 0);
        // Interleave world and subgroup collectives; communicator ids keep
        // the traffic apart.
        let world_total = comm.allreduce(1u64, true, |_| 8, |a, b| a + b);
        let group_total = sub.allreduce(10u64, true, |_| 8, |a, b| a + b);
        comm.barrier();
        let world_scan = comm.scan_inclusive(1u64, |_| 8, |a, b| a + b);
        (world_total, group_total, world_scan)
    });
    for (rank, (wt, gt, ws)) in outcome.results.into_iter().enumerate() {
        assert_eq!(wt, 4);
        assert_eq!(gt, 20);
        assert_eq!(ws, rank as u64 + 1);
    }
}

#[test]
fn nested_splits() {
    // Split twice: quadrants of an 8-rank world.
    let outcome = Runtime::new(8).run(|comm| {
        let half = comm.split((comm.rank() / 4) as i64, comm.rank() as i64);
        let quad = half.split((half.rank() / 2) as i64, half.rank() as i64);
        let total = quad.allreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b);
        (quad.size(), total)
    });
    for (rank, (size, total)) in outcome.results.into_iter().enumerate() {
        assert_eq!(size, 2);
        let base = (rank / 2 * 2) as u64;
        assert_eq!(total, base + base + 1, "rank {rank}");
    }
}

#[test]
fn interleaved_collective_stress() {
    // Many rounds mixing every collective kind on the same communicator;
    // tag/round discipline must keep them all straight.
    let outcome = Runtime::new(6).run(|comm| {
        let mut checksum = 0u64;
        for round in 0..25u64 {
            let s = comm.allreduce(round + comm.rank() as u64, true, |_| 8, |a, b| a + b);
            let g = comm.allgather(round * 10 + comm.rank() as u64, |_| 8);
            let x = comm.scan_exclusive(1u64, || 0, |_| 8, |a, b| a + b);
            let b = comm.bcast(
                (round % comm.size() as u64) as usize,
                (comm.rank() as u64 == round % comm.size() as u64).then_some(round),
            );
            comm.barrier();
            checksum = checksum
                .wrapping_add(s)
                .wrapping_add(g.iter().sum::<u64>())
                .wrapping_add(x)
                .wrapping_add(b);
        }
        checksum
    });
    // All ranks agree on the collective parts; the exscan part differs by
    // rank. Recompute the expectation directly.
    let p = 6u64;
    for (rank, got) in outcome.results.into_iter().enumerate() {
        let mut expect = 0u64;
        for round in 0..25u64 {
            let s = round * p + (0..p).sum::<u64>();
            let g = round * 10 * p + (0..p).sum::<u64>();
            let x = rank as u64;
            let b = round;
            expect = expect
                .wrapping_add(s)
                .wrapping_add(g)
                .wrapping_add(x)
                .wrapping_add(b);
        }
        assert_eq!(got, expect, "rank {rank}");
    }
}
