//! Allocation budget of the collectives: the bytes a rank allocates in
//! one call are a small constant times the state size `n`.
//!
//! Per byte of state the schedules pay: combine in place, 1 clone per
//! tree child or recursive-doubling send. An extra copy breaks this
//! silently — every result stays equal — so the budget is pinned here
//! with a counting allocator rather than a timer. Counts are per thread,
//! so each rank reads exactly what it allocated itself and parallel tests
//! do not disturb each other.
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
//! A reduction whose state is a run of slots lends it at two ranks
//! instead of cloning it: no state-sized block beyond the state itself.
//! With few inputs it ships their slot indices instead, the one block
//! beside its state, and a scan of them builds one identity a rank and
//! no state for the rank's own block.
//!
//! And the small messages: in steady state an 8-byte allreduce and an
//! `f64` send/receive pair allocate nothing at all (the value rides in
//! the envelope, the envelope in the lane slot, and a launch clones no
//! member list), and a large `Vec` pays no box for its header. A
//! non-blocking reduction makes three small allocations — its boxed
//! schedule, its result slot and its shared operator — and the progress
//! engine's sweeps add none; a commutative one allocates no state but the
//! one its rank accumulates: its tree hands every child its own buffer
//! back with the result, where it once cloned a state per child.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gv_msgpass::{AllreduceAlgorithm, Comm, Runtime};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread has requested so far (frees are not subtracted).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Allocations (and reallocations) of under 4 KiB this thread made.
    static SMALL: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread requested in blocks of 4 KiB and up.
    static LARGE: Cell<usize> = const { Cell::new(0) };
}

/// Below this size an allocation counts as small.
const SMALL_LIMIT: usize = 4 << 10;

fn note(bytes: usize) {
    // `try_with`: a thread may still allocate while it is being torn down.
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

fn note_block(size: usize) {
    if size < SMALL_LIMIT {
        let _ = SMALL.try_with(|count| count.set(count.get() + 1));
    } else {
        let _ = LARGE.try_with(|total| total.set(total.get() + size));
    }
}

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

fn small_allocations() -> usize {
    SMALL.with(Cell::get)
}

fn large_bytes() -> usize {
    LARGE.with(Cell::get)
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell<usize>`s without a destructor, so touching them
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_block(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_block(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        note_block(new_size);
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

#[test]
fn the_tree_clones_the_state_once_per_child() {
    // By value, payloads move: a combine consumes the child's partial, a
    // state forwarded to one peer is sent by move, and the down-sweep
    // keeps its copy and sends each tree child a clone. So a broadcast or
    // the blocking fused allreduce allocates one state per child a rank
    // has in the tree rooted at `root`, and a reduce none. Beyond that,
    // envelopes. (A request of a slotted state returns each child its
    // own buffer instead; see the request pins at the end.)
    const ENVELOPES: usize = 4 << 10;
    let children = |p: usize, root: usize, rank: usize| {
        let vrank = (rank + p - root) % p;
        let low = if vrank == 0 {
            p.next_power_of_two()
        } else {
            1 << vrank.trailing_zeros()
        };
        (0..low.trailing_zeros())
            .filter(|&b| vrank + (1 << b) < p)
            .count()
    };
    for p in [4usize, 6, 8] {
        for root in [0, p - 1] {
            let bcast = allocated_per_rank(p, |comm, state| {
                comm.bcast_vec(root, (comm.rank() == root).then_some(state));
            });
            let reduce = allocated_per_rank(p, |comm, state| {
                comm.reduce(root, state, wire, add);
            });
            for rank in 0..p {
                let clones = children(p, root, rank) * N;
                let got = bcast[rank];
                assert!(
                    (clones..=clones + ENVELOPES).contains(&got),
                    "bcast p={p} root={root} rank {rank}: {got} B for {clones} B of clones"
                );
                let got = reduce[rank];
                assert!(
                    got <= ENVELOPES,
                    "reduce p={p} root={root} rank {rank}: {got} B"
                );
            }
        }
        let tree = AllreduceAlgorithm::ReduceBroadcast;
        let allreduce = allocated_per_rank(p, |comm, state| {
            comm.allreduce_by(tree, state, wire, add);
        });
        for (rank, &got) in allreduce.iter().enumerate() {
            let clones = children(p, 0, rank) * N;
            assert!(
                (clones..=clones + ENVELOPES).contains(&got),
                "tree allreduce p={p} rank {rank}: {got} B for {clones} B of clones"
            );
        }
    }
}

#[test]
fn selector_routed_calls_at_two_ranks_copy_the_state_once_per_sender() {
    // At p = 2 both calls run whole-state: the allreduce is one
    // recursive-doubling exchange, in which each rank clones the state it
    // sends (n per rank), and the broadcast is one tree edge, on which the
    // root clones the state it keeps (n). Beyond that, only envelopes.
    const ENVELOPES: usize = 4 << 10;
    let allreduce: usize = allocated_per_rank(2, |comm, state| {
        comm.allreduce(state, true, wire, add);
    })
    .iter()
    .sum();
    assert!(
        allreduce <= 2 * N + ENVELOPES,
        "allreduce allocated {allreduce} B for a {N} B state"
    );

    let bcast: usize = allocated_per_rank(2, |comm, state| {
        let value = (comm.rank() == 0).then_some(state);
        comm.bcast_vec(0, value);
    })
    .iter()
    .sum();
    assert!(
        bcast <= N + ENVELOPES,
        "bcast_vec allocated {bcast} B for a {N} B state"
    );
}

#[test]
fn a_slotted_reduction_at_two_ranks_lends_its_state_instead_of_cloning_it() {
    // `reduce_all` of `Counts` runs the same recursive-doubling exchange
    // as the allreduce above, but each rank lends its state to the other
    // and copies half of the result out of the other's buffer: the one
    // state-sized block a rank allocates is the state its accumulate
    // phase builds. Beyond it, envelopes and the loan's shared cell. Each
    // rank holds more inputs than a state of `LEN` slots ships as units.
    const ENVELOPES: usize = 4 << 10;
    const INPUTS: usize = LEN / 2;
    let op = gv_core::ops::counts::Counts::new(LEN);
    let inputs: Vec<usize> = (0..2 * INPUTS).map(|i| i * 97 % LEN).collect();
    let per_rank = Runtime::new(2).run(|comm| {
        let local = &inputs[comm.rank() * INPUTS..][..INPUTS];
        let (large, all) = (large_bytes(), allocated());
        gv_rsmpi::reduce_all(comm, &op, local);
        (large_bytes() - large, allocated() - all)
    });
    for (rank, &(large, all)) in per_rank.results.iter().enumerate() {
        assert_eq!(
            large, N,
            "rank {rank}: {large} B in state-sized blocks, {N} B state"
        );
        assert!(
            all <= N + ENVELOPES,
            "rank {rank}: {all} B for a {N} B state"
        );
    }
}

#[test]
fn a_counting_reduction_at_two_ranks_allocates_its_state_and_its_units() {
    // With few inputs a rank ships their slot indices, not its state: it
    // allocates the state it accumulates and one `u32` an input, which
    // go out by move, and counts what its partner sends into its state.
    // Beyond them, envelopes.
    const ENVELOPES: usize = 4 << 10;
    const INPUTS: usize = 3000;
    let op = gv_core::ops::counts::Counts::new(LEN);
    let inputs: Vec<usize> = (0..2 * INPUTS).map(|i| i * 97 % LEN).collect();
    let per_rank = Runtime::new(2).run(|comm| {
        let local = &inputs[comm.rank() * INPUTS..][..INPUTS];
        let (large, all) = (large_bytes(), allocated());
        gv_rsmpi::reduce_all(comm, &op, local);
        (large_bytes() - large, allocated() - all)
    });
    let units = 4 * INPUTS;
    for (rank, &(large, all)) in per_rank.results.iter().enumerate() {
        assert_eq!(
            large,
            N + units,
            "rank {rank}: {large} B in large blocks, {N} B state, {units} B units"
        );
        assert!(
            all <= N + units + ENVELOPES,
            "rank {rank}: {all} B for a {N} B state and {units} B of units"
        );
    }
}

#[test]
fn a_slotted_scan_builds_an_identity_only_on_the_rank_that_returns_it() {
    // An exclusive scan runs `ident` on rank 0 only, whose exclusive
    // prefix the identity is. `gv_rsmpi::scan` of a slotted operator
    // accumulates a block into the one identity it builds (the last
    // rank's block is in no prefix), as the plain call's caller does, so
    // the two allocate alike, and rank 0 one state more than rank 1.
    // Each rank holds more inputs than a state of `LEN` slots ships as
    // units.
    use gv_core::op::{ReduceScanOp, ScanKind};
    use gv_core::ops::counts::BucketRank;

    const INPUTS: usize = LEN / 2;
    let op = BucketRank::new(LEN);
    let inputs: Vec<usize> = (0..2 * INPUTS).map(|i| i * 97 % LEN).collect();
    let per_rank = |slotted: bool| {
        Runtime::new(2)
            .run(|comm| {
                let local = &inputs[comm.rank() * INPUTS..][..INPUTS];
                let before = large_bytes();
                let out = if slotted {
                    gv_rsmpi::scan(comm, &op, local, ScanKind::Exclusive)
                } else {
                    let mut state = op.ident();
                    for x in local {
                        op.accum(&mut state, x);
                    }
                    comm.scan_exclusive(state, || op.ident(), wire, add);
                    Vec::new()
                };
                large_bytes() - before - 8 * out.capacity()
            })
            .results
    };
    let (slotted, plain) = (per_rank(true), per_rank(false));
    assert_eq!(slotted, plain, "slotted and plain allocate alike");
    assert_eq!(
        slotted[0],
        slotted[1] + N,
        "rank 0 builds the identity it returns, rank 1 none"
    );
}

#[test]
fn a_counting_scan_allocates_no_state_for_its_own_block() {
    // With few inputs a rank's exclusive prefix is the one identity it
    // builds plus the units lower ranks send, and its own block's units
    // are counted into no state: at two ranks rank 0 ships them, and rank
    // 1, whose block is in no prefix, builds none. Beyond the identity,
    // the units and the output, envelopes.
    use gv_core::op::ScanKind;
    use gv_core::ops::counts::BucketRank;

    const ENVELOPES: usize = 4 << 10;
    const INPUTS: usize = 3000;
    let op = BucketRank::new(LEN);
    let inputs: Vec<usize> = (0..2 * INPUTS).map(|i| i * 97 % LEN).collect();
    let per_rank = Runtime::new(2).run(|comm| {
        let local = &inputs[comm.rank() * INPUTS..][..INPUTS];
        let (large, all) = (large_bytes(), allocated());
        let out = gv_rsmpi::scan(comm, &op, local, ScanKind::Exclusive);
        let output = 8 * out.capacity();
        (large_bytes() - large - output, allocated() - all - output)
    });
    for (rank, &(large, all)) in per_rank.results.iter().enumerate() {
        let units = [4 * INPUTS, 0][rank];
        assert_eq!(
            large,
            N + units,
            "rank {rank}: {large} B in large blocks, {N} B identity, {units} B units"
        );
        assert!(all <= N + units + ENVELOPES, "rank {rank}: {all} B");
    }
}

#[test]
fn a_streamed_reduction_allocates_one_staging_block_whatever_the_stream_length() {
    use gv_core::iter::Staged;
    use gv_core::ops::topk::TopBottomK;

    /// `reduce_all(TopBottomK(10))` over `len` generated pairs, `Staged`,
    /// per rank: bytes each rank allocated in the call.
    fn streamed(p: usize, len: u64) -> Vec<usize> {
        Runtime::new(p)
            .run(move |comm| {
                let op = TopBottomK::<f64, u64>::new(10);
                let base = comm.rank() as u64 * len;
                let pairs = (base..base + len)
                    .map(|g| ((g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64, g));
                let before = allocated();
                let extrema = gv_rsmpi::reduce_all(comm, &op, Staged(pairs));
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
    use gv_core::iter::Located;
    use gv_core::ops::topk::TopBottomK;

    /// `reduce_all(TopBottomK(10))` over `len` values per rank, `Located`,
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
                let extrema = gv_rsmpi::reduce_all(comm, &op, Located::new(&values, base));
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
fn an_is_sort_allocates_its_histogram_the_spans_it_ships_and_its_block() {
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
                (allocated() - before, 4 * block.keys.len())
            })
            .results;
        let max_key = class.max_key() as usize;
        let histogram = 4 * max_key;
        // A kind word and one count per value of each other rank's span.
        let s = max_key.div_ceil(p);
        let span = |q: usize| (s * (q + 1)).min(max_key) - (s * q).min(max_key);
        for (rank, (spent, received)) in ranks.into_iter().enumerate() {
            let shipped: usize = (0..p)
                .filter(|&q| q != rank)
                .map(|q| 4 * (1 + span(q)))
                .sum();
            // Shipping the keys in those spans instead, as the exchange did
            // before it carried counts, comes to 1 MiB a rank at class W and
            // p = 2, against 128 KiB of spans.
            assert!(
                spent <= histogram + shipped + received + 4096,
                "class {} p={p} rank {rank}: {spent} B for a {histogram} B histogram, \
                 {shipped} B of spans shipped and {received} B received",
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

/// The benchmark's `overlap` state: 8192 buckets, 64 KiB of counts, so
/// the state, its wire copies and the output are all large.
const OVERLAP_BUCKETS: usize = 8192;

/// Runs 10 untimed `ireduce_all`s of the `overlap` state on `p` ranks,
/// then `calls` measured ones, and returns what `read` counted on each
/// rank across the measured ones.
fn overlap_requests(p: usize, calls: usize, read: fn() -> usize) -> Vec<usize> {
    use gv_core::ops::Counts;

    Runtime::new(p)
        .run(|comm| {
            let local: Vec<usize> = (0..2048)
                .map(|i| (i * 7 + comm.rank()) % OVERLAP_BUCKETS)
                .collect();
            let reduce = |calls: usize| {
                for _ in 0..calls {
                    let op = Counts::new(OVERLAP_BUCKETS);
                    let mut request = gv_rsmpi::ireduce_all(comm, op, &local);
                    let counts = request.wait().expect("transport alive");
                    assert_eq!(counts.iter().sum::<u64>(), 2048 * comm.size() as u64);
                }
            };
            reduce(10);
            let before = read();
            reduce(calls);
            read() - before
        })
        .results
}

#[test]
fn a_request_allocates_its_schedule_its_slot_and_its_operator() {
    const CALLS: usize = 100;
    for p in [1usize, 2] {
        let small = overlap_requests(p, CALLS, small_allocations);
        for (rank, small) in small.into_iter().enumerate() {
            // The boxed schedule, its slot and the `Rc` the operator is
            // shared through; a sweep allocates nothing.
            assert_eq!(
                small,
                3 * CALLS,
                "p={p} rank {rank}: {small} small allocations in {CALLS} requests"
            );
        }
    }
}

#[test]
fn a_commutative_request_at_two_ranks_allocates_only_the_state_it_accumulates() {
    // Each rank accumulates its own 64 KiB state, and that is all it
    // allocates in large blocks: the request's tree has the root combine
    // the leaf's partial in place, write the result into the leaf's
    // buffer and send it back, and the leaf sends its state by move. The
    // by-value tree had the root clone the result it kept, in every other
    // call on each rank.
    const CALLS: usize = 100;
    const STATE: usize = OVERLAP_BUCKETS * 8;
    let large = overlap_requests(2, CALLS, large_bytes);
    for (rank, &bytes) in large.iter().enumerate() {
        assert_eq!(
            bytes,
            CALLS * STATE,
            "rank {rank}: {bytes} B in large blocks over {CALLS} requests"
        );
    }
}

#[test]
fn a_commutative_request_at_four_and_eight_ranks_allocates_no_state_for_another() {
    // Past p = 2 a rank can have several tree children, and the root of
    // each call has ⌈log₂ p⌉: every child gets its own buffer back with
    // the result, so no rank allocates a state-sized block beyond the
    // one it accumulates, whatever the rotation makes it.
    const CALLS: usize = 40;
    const STATE: usize = OVERLAP_BUCKETS * 8;
    for p in [4usize, 8] {
        let large = overlap_requests(p, CALLS, large_bytes);
        for (rank, &bytes) in large.iter().enumerate() {
            assert_eq!(
                bytes,
                CALLS * STATE,
                "p={p} rank {rank}: {bytes} B in large blocks over {CALLS} requests"
            );
        }
    }
}
