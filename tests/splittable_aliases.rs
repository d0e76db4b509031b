//! The `_splittable` names, which only the frozen benchmark adapter
//! calls, are aliases of the plain calls: they take a state's `(split,
//! unsplit)` and ignore it. This suite pins what they put on the wire at
//! the benchmark's `large_state` shape — 131 072-slot `Counts` and
//! `BucketRank` states (1 MiB), 512 inputs a rank, p = 16, the default
//! `cluster_2006` model: each call ships its units by recursive doubling,
//! under one dense state's bytes for the whole call. A schedule that
//! carries the dense states, as a reduce-scatter (about 30 MiB) or a
//! chain (15 MiB) would, fails the bound.

use gv_core::op::ScanKind;
use gv_core::ops::counts::{BucketRank, Counts};
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::{CallKind, Runtime};
use gv_testkit::rng::TestRng;

const SLOTS: usize = 131_072;
const INPUTS: usize = 512;
const P: usize = 16;

/// One dense state's wire bytes.
const STATE: u64 = 8 * SLOTS as u64;

#[test]
fn at_large_states_shape_each_call_ships_less_than_one_dense_state() {
    let mut rng = TestRng::new(0x1A46E);
    let inputs: Vec<usize> = (0..P * INPUTS).map(|_| rng.usize_in(0..SLOTS)).collect();
    let oracle_counts = gv_core::seq::reduce(&Counts::new(SLOTS), &inputs);
    let oracle_ranks = gv_core::seq::scan(&BucketRank::new(SLOTS), &inputs, ScanKind::Exclusive);
    type Call = fn(&gv_msgpass::Comm, &[usize]) -> Vec<u64>;
    let calls: [(&str, Call); 3] = [
        ("reduce_all", |comm, local| {
            gv_rsmpi::reduce_all(comm, &Counts::new(SLOTS), local)
        }),
        ("reduce_all_splittable", |comm, local| {
            gv_rsmpi::reduce_all_splittable(comm, &Counts::new(SLOTS), local)
        }),
        ("scan_splittable", |comm, local| {
            let op = BucketRank::new(SLOTS);
            gv_rsmpi::scan::scan_splittable(comm, &op, local, ScanKind::Exclusive)
        }),
    ];
    for (name, call) in calls {
        let outcome = Runtime::new(P).run(|comm| {
            let r = comm.rank();
            call(comm, &inputs[r * INPUTS..][..INPUTS])
        });
        let bytes = outcome.stats.bytes;
        assert!(
            bytes < STATE,
            "{name}: {bytes} B on the wire at p = {P}, one dense state is {STATE} B"
        );
        for (r, got) in outcome.results.iter().enumerate() {
            let expected = match name {
                "scan_splittable" => &oracle_ranks[r * INPUTS..][..INPUTS],
                _ => &oracle_counts[..],
            };
            assert!(
                got == expected,
                "{name}: rank {r} disagrees with the oracle"
            );
        }
    }
}

#[test]
fn the_comm_aliases_ignore_the_segmentation() {
    // `split` and `unsplit` are never called: the plain call's messages
    // and bytes, at a power of two and off one.
    let (split, unsplit) = (
        |_: Vec<u64>, _: usize| -> Vec<Vec<u64>> { unreachable!() },
        |_: Vec<Vec<u64>>| -> Vec<u64> { unreachable!() },
    );
    let wire = |v: &Vec<u64>| v.len() * 8;
    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        a
    };
    for p in [5usize, 8] {
        let aliases = Runtime::new(p).run(|comm| {
            let mine = vec![comm.rank() as u64; 12];
            let root = (comm.rank() == p - 1).then(|| mine.clone());
            (
                comm.allreduce_splittable(mine.clone(), true, split, unsplit, wire, add),
                comm.scan_exclusive_splittable(mine, || vec![0; 12], split, unsplit, wire, add),
                comm.bcast_splittable(p - 1, root, 96, split, unsplit, wire),
            )
        });
        let plain = Runtime::new(p).run(|comm| {
            let mine = vec![comm.rank() as u64; 12];
            let root = (comm.rank() == p - 1).then(|| mine.clone());
            (
                comm.allreduce(mine.clone(), true, wire, add),
                comm.scan_exclusive(mine, || vec![0; 12], wire, add),
                comm.bcast_vec(p - 1, root),
            )
        });
        assert_eq!(aliases.results, plain.results, "p={p}");
        assert_eq!(aliases.stats.messages, plain.stats.messages, "p={p}");
        assert_eq!(aliases.stats.bytes, plain.stats.bytes, "p={p}");
        assert_eq!(aliases.stats.calls(CallKind::Bcast), p as u64, "p={p}");
    }
    // The vector helpers still split and reassemble.
    let parts = split_vec_segments((0..10u64).collect(), 4);
    assert_eq!(parts.len(), 4);
    assert_eq!(unsplit_vec_segments(parts), (0..10).collect::<Vec<u64>>());
}
