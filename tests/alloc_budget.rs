//! Allocation budget of the segmented collectives: the bytes a rank
//! allocates in one call are a small constant times the state size `n`
//! and do not grow with the segment count `S`.
//!
//! Per byte of state the schedules pay: split ≤ 1 move, combine in
//! place, 1 clone per tree child (or chain successor), unsplit 1 move.
//! A split that peels segments off the front of a `Vec` breaks this
//! silently — it allocates ≈ S/2 · n on every rank and every result stays
//! equal — so the budget is pinned here with a counting allocator rather
//! than a timer. Counts are per thread, so each rank reads exactly what it
//! allocated itself and parallel tests do not disturb each other.
//!
//! The streamed reductions get the same treatment at the bottom: what a
//! rank allocates is one staging block and the operator's state, whatever
//! the length of the stream — and a located one, whose pairs are never
//! staged, only the states; and a ZRAN3 call, which generates its located
//! values a window at a time, one window. And the NAS IS ranking: the keys
//! it sends, the block it returns and one count table — no second copy of
//! either.
//!
//! A scan's output and the IS key ranks are allocated once, at their final
//! size: asking for huge pages under a large one (`gv_core::mem`) neither
//! allocates nor grows anything.
//!
//! And the small messages: in steady state an 8-byte allreduce and an
//! `f64` send/receive pair allocate nothing at all (the value rides in
//! the envelope, the envelope in the lane slot, and a launch clones no
//! member list), and a large `Vec` pays no box for its header.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gv_core::split::{split_vec_segments as split, unsplit_vec_segments as unsplit};
use gv_msgpass::{AllreduceAlgorithm, Comm, Runtime, ScanAlgorithm};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread has requested so far (frees are not subtracted).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread may still allocate while it is being torn down.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell<usize>` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// State size: 1 MiB of `u64`.
const N: usize = 1 << 20;
const LEN: usize = N / 8;

#[allow(clippy::ptr_arg)] // passed where Fn(&Vec<u64>) -> usize is expected
fn wire(v: &Vec<u64>) -> usize {
    v.len() * 8
}

fn add(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Bytes each rank allocates inside `call`, its input state excluded.
fn allocated_per_rank(p: usize, call: impl Fn(&Comm, Vec<u64>) + Sync) -> Vec<usize> {
    Runtime::new(p)
        .run(|comm| {
            let state = vec![comm.rank() as u64 + 1; LEN];
            let before = allocated();
            call(comm, state);
            allocated() - before
        })
        .results
}

/// A collective with an explicit segment count.
type Segmented = fn(&Comm, Vec<u64>, usize);

const SEGMENTED: [(&str, Segmented); 4] = [
    ("bcast_pipelined", |comm, state, s| {
        let value = (comm.rank() == 0).then_some(state);
        comm.bcast_pipelined(0, value, s, split, unsplit, wire);
    }),
    ("reduce_pipelined", |comm, state, s| {
        comm.reduce_pipelined(0, state, s, split, unsplit, wire, add);
    }),
    ("allreduce on the tree", |comm, state, s| {
        let plan = (AllreduceAlgorithm::PipelinedTree, s);
        comm.allreduce_by(plan, state, (split, unsplit), wire, add);
    }),
    ("scan on the chain", |comm, state, s| {
        let plan = (ScanAlgorithm::PipelinedChain, s);
        comm.scan_both_by(plan, state, (split, unsplit), wire, add);
    }),
];

#[test]
fn a_rank_allocates_a_few_n_whatever_the_segment_count() {
    for p in [2usize, 4] {
        for (name, call) in SEGMENTED {
            let few = allocated_per_rank(p, |comm, state| call(comm, state, 2));
            let many = allocated_per_rank(p, |comm, state| call(comm, state, 64));
            for (rank, (&few, &many)) in few.iter().zip(&many).enumerate() {
                assert!(
                    many as f64 <= 1.25 * few as f64,
                    "{name} p={p} rank {rank}: {many} B at S=64 vs {few} B at S=2"
                );
                // Split, one clone per child or successor (≤ 2 at p = 4),
                // the exclusive half's clone, two unsplits: ≤ 6 moves.
                assert!(
                    many <= 6 * N,
                    "{name} p={p} rank {rank}: {many} B at S=64 for a {N} B state"
                );
            }
        }
    }
}

#[test]
fn selector_routed_calls_at_two_ranks_copy_the_state_once_per_sender() {
    // At p = 2 the selector runs both calls whole-state: the allreduce is
    // one recursive-doubling exchange, in which each rank clones the
    // state it sends (n per rank), and the broadcast is one tree edge, on
    // which the root clones the state it keeps (n) and a lone segment
    // moves through split and unsplit uncopied. Beyond that, only
    // envelopes and segment lists.
    const ENVELOPES: usize = 4 << 10;
    let allreduce: usize = allocated_per_rank(2, |comm, state| {
        comm.allreduce_splittable(state, true, split, unsplit, wire, add);
    })
    .iter()
    .sum();
    assert!(
        allreduce <= 2 * N + ENVELOPES,
        "allreduce_splittable allocated {allreduce} B for a {N} B state"
    );

    let bcast: usize = allocated_per_rank(2, |comm, state| {
        let value = (comm.rank() == 0).then_some(state);
        comm.bcast_splittable(0, value, N, split, unsplit, wire);
    })
    .iter()
    .sum();
    assert!(
        bcast <= N + ENVELOPES,
        "bcast_splittable allocated {bcast} B for a {N} B state"
    );
}

#[test]
fn a_streamed_reduction_allocates_one_staging_block_whatever_the_stream_length() {
    use gv_core::ops::topk::TopBottomK;

    /// `reduce_all_from_iter(TopBottomK(10))` over `len` generated pairs
    /// per rank: bytes each rank allocated in the call.
    fn streamed(p: usize, len: u64) -> Vec<usize> {
        Runtime::new(p)
            .run(move |comm| {
                let op = TopBottomK::<f64, u64>::new(10);
                let base = comm.rank() as u64 * len;
                let pairs = (base..base + len)
                    .map(|g| ((g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64, g));
                let before = allocated();
                let extrema = gv_rsmpi::reduce_all_from_iter(comm, &op, pairs);
                let spent = allocated() - before;
                assert_eq!(extrema.largest.len(), 10);
                spent
            })
            .results
    }

    for p in [1usize, 2] {
        // Both streams span several staging blocks; one is 256× the other.
        let short = streamed(p, 1 << 12);
        let long = streamed(p, 1 << 20);
        for (rank, (&short, &long)) in short.iter().zip(&long).enumerate() {
            // A staging buffer that grew with its input would add 16 MiB.
            assert!(
                long <= short + 1024,
                "p={p} rank {rank}: {long} B for 1 Mi pairs vs {short} B for 4 Ki"
            );
            // One ≤ 1024-pair block (16 KiB, twice that if it had to grow
            // by doubling) plus a handful of 20-entry states.
            assert!(long <= 64 << 10, "p={p} rank {rank}: {long} B");
        }
    }
}

#[test]
fn a_located_reduction_allocates_states_and_envelopes_only() {
    use gv_core::ops::topk::TopBottomK;

    /// `reduce_all_located(TopBottomK(10))` over `len` values per rank,
    /// the stream above's values: bytes each rank allocated in the call.
    fn located(p: usize, len: u64) -> Vec<usize> {
        Runtime::new(p)
            .run(move |comm| {
                let op = TopBottomK::<f64, u64>::new(10);
                let base = comm.rank() as u64 * len;
                let values: Vec<f64> = (base..base + len)
                    .map(|g| (g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64)
                    .collect();
                let before = allocated();
                let extrema = gv_rsmpi::reduce_all_located(comm, &op, &values, base);
                let spent = allocated() - before;
                assert_eq!(extrema.largest.len(), 10);
                spent
            })
            .results
    }

    for p in [1usize, 2] {
        let short = located(p, 1 << 12);
        let long = located(p, 1 << 20);
        for (rank, (&short, &long)) in short.iter().zip(&long).enumerate() {
            assert_eq!(long, short, "p={p} rank {rank}: 1 Mi values vs 4 Ki");
            // Below the streamed form's one staging block of 1024 pairs.
            assert!(long < 16 << 10, "p={p} rank {rank}: {long} B");
        }
    }
}

#[test]
fn a_zran3_call_allocates_one_generated_block_and_its_states() {
    use gv_nas::mg::zran3::{zran3, Zran3Variant};
    use gv_nas::mg::Slab;
    use gv_nas::MgClass;

    /// One `zran3` on an `n³` grid: bytes each rank allocated in the call.
    fn one_call(p: usize, n: usize, variant: Zran3Variant) -> Vec<usize> {
        Runtime::new(p)
            .run(move |comm| {
                let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
                let before = allocated();
                let extrema = zran3(comm, &mut slab, 10, variant);
                let spent = allocated() - before;
                assert_eq!(extrema.largest.len(), 10);
                spent
            })
            .results
    }

    for p in [1usize, 2] {
        for (variant, name) in Zran3Variant::ALL {
            // Class S's slab is 256 KiB a rank at p = 1, class W's 16 MiB.
            let small = one_call(p, MgClass::S.n, variant);
            let large = one_call(p, MgClass::W.n, variant);
            for (rank, (&small, &large)) in small.iter().zip(&large).enumerate() {
                assert_eq!(large, small, "{name} p={p} rank {rank}: W vs S");
                // One 1024-value window (8 KiB) plus under 1 KiB of states
                // and envelopes; a stored field would be MiBs.
                assert!(large <= 9 << 10, "{name} p={p} rank {rank}: {large} B");
            }
        }
    }
}

#[test]
fn an_is_sort_moves_each_key_once_before_the_exchange_and_once_after() {
    use gv_nas::is::{distributed_sort, generate_keys};
    use gv_nas::IsClass;

    for (class, p) in [
        (IsClass::S, 1usize),
        (IsClass::S, 2),
        (IsClass::S, 4),
        (IsClass::W, 2),
        (IsClass::W, 4),
    ] {
        let ranks = Runtime::new(p)
            .run(move |comm| {
                let keys = generate_keys(class, comm.rank(), p);
                let before = allocated();
                let block = distributed_sort(comm, &keys, class.max_key());
                let spent = allocated() - before;
                let span = (class.max_key() as usize).div_ceil(p);
                let own = comm.rank() * span..(comm.rank() + 1) * span;
                let sent = keys
                    .iter()
                    .filter(|&&k| !own.contains(&(k as usize)))
                    .count();
                (spent, 4 * sent, 4 * block.keys.len())
            })
            .results;
        let histogram = 4 * class.max_key() as usize;
        for (rank, (spent, sent, received)) in ranks.into_iter().enumerate() {
            // Push-doubled buckets and a flattened copy of the received
            // pieces, as before the counting sort, come to about twice this.
            assert!(
                spent <= sent + received + histogram + 4096,
                "class {} p={p} rank {rank}: {spent} B for {sent} B sent, {received} B received \
                 and a {histogram} B histogram",
                class.name
            );
        }
    }
}

#[test]
fn an_output_is_allocated_once_at_its_final_size() {
    use gv_core::op::ScanKind;
    use gv_core::ops::builtin::sum;
    use gv_nas::is::{key_ranks, SortedBlock};

    // Below the 4 MiB at which an output window is advised, and above it.
    for n in [1usize << 12, 1 << 20] {
        let input: Vec<i64> = (0..n as i64).collect();
        let before = allocated();
        let out = gv_core::seq::scan(&sum::<i64>(), &input, ScanKind::Inclusive);
        assert_eq!(allocated() - before, 8 * n, "seq::scan over {n} elements");
        assert_eq!(out.len(), n);

        let block = SortedBlock {
            keys: vec![0; n],
            global_offset: 7,
        };
        let before = allocated();
        let ranks = key_ranks(&block);
        assert_eq!(allocated() - before, 8 * n, "key_ranks of {n} keys");
        assert_eq!(ranks.len(), n);

        let spent = Runtime::new(2)
            .run(|comm| {
                let before = allocated();
                let out = gv_rsmpi::scan(comm, &sum::<i64>(), &input, ScanKind::Exclusive);
                let spent = allocated() - before;
                assert_eq!(out.len(), n);
                spent
            })
            .results;
        for (rank, spent) in spent.into_iter().enumerate() {
            // The output, and what one eight-byte exclusive scan's launch
            // costs on a communicator's first call.
            assert!(
                (8 * n..=8 * n + 4096).contains(&spent),
                "gv_rsmpi::scan over {n} elements, rank {rank}: {spent} B"
            );
        }
    }
}

/// What each rank allocates in `steady` after one untimed `warm_up`.
fn steady_state_bytes(
    p: usize,
    warm_up: impl Fn(&Comm) + Sync,
    steady: impl Fn(&Comm) + Sync,
) -> Vec<usize> {
    Runtime::new(p)
        .run(|comm| {
            warm_up(comm);
            let before = allocated();
            steady(comm);
            allocated() - before
        })
        .results
}

#[test]
fn small_messages_allocate_nothing_in_steady_state() {
    let allreduces = |comm: &Comm, calls: u64| {
        for _ in 0..calls {
            assert_eq!(comm.allreduce(1u64, true, |_| 8, |a, b| a + b), 2);
        }
    };
    let spent = steady_state_bytes(
        2,
        |comm| allreduces(comm, 10),
        |comm| allreduces(comm, 1000),
    );
    assert_eq!(spent, [0, 0], "1000 eight-byte allreduces");

    let pairs = |comm: &Comm, rounds: usize| {
        let peer = 1 - comm.rank();
        for i in 0..rounds {
            comm.send(peer, 7, i as f64);
            assert_eq!(comm.recv::<f64>(peer, 7), i as f64);
        }
    };
    let spent = steady_state_bytes(2, |comm| pairs(comm, 10), |comm| pairs(comm, 1000));
    assert_eq!(spent, [0, 0], "1000 f64 send/recv pairs");
}

#[test]
fn a_large_vec_is_sent_without_a_payload_box() {
    // 1 MiB of `u64` from rank 0 to rank 1 and back, cold: the `Vec`'s
    // header travels in the envelope and the envelope in the lane's slot,
    // so neither send allocates, nor either receive, from the first
    // message on.
    let spent = Runtime::new(2)
        .run(|comm| {
            let state = vec![comm.rank() as u64; LEN];
            let before = allocated();
            let state = if comm.rank() == 0 {
                comm.send_vec(1, 9, state);
                comm.recv(1, 9)
            } else {
                let echoed: Vec<u64> = comm.recv(0, 9);
                comm.send_vec(0, 9, echoed);
                state
            };
            let spent = allocated() - before;
            assert_eq!(state.len(), LEN);
            spent
        })
        .results;
    assert_eq!(spent, [0, 0]);
}
