//! The operator contract, checked operator by operator.
//!
//! `assert_op_laws` is a reusable suite that exercises every law the
//! `ReduceScanOp` documentation demands — identity, combine
//! associativity, decomposition invariance, agreement of the
//! sequential / shared-memory / message-passing engines, and honesty of
//! the `COMMUTATIVE` flag — and it is applied below to every operator
//! the `gv_core::ops` library ships.
//!
//! Inputs are generated deterministically from fixed `gv-testkit` seeds,
//! so a failure here is always reproducible by rerunning the test.
//! `MeanVar` is the one exception to exact-equality laws (floating-point
//! merge is only associative up to rounding); it gets a tolerance-based
//! variant at the bottom.

use gv_core::agg::Elementwise;
use gv_core::op::{accumulate_block, combine_all, ReduceScanOp, ScanKind};
use gv_core::ops::builtin::{
    band, bor, bxor, land, lor, lxor, max, maxloc, min, minloc, prod, sum, Sum,
};
use gv_core::ops::counts::{BucketRank, Counts};
use gv_core::ops::histogram::Histogram;
use gv_core::ops::kadane::MaxSubarray;
use gv_core::ops::mink::{MaxK, MinK};
use gv_core::ops::minloc::{maxi, mini};
use gv_core::ops::minmax::minmax;
use gv_core::ops::runs::LongestRun;
use gv_core::ops::segmented::Segmented;
use gv_core::ops::sorted::{Sorted, SortedPaperExact};
use gv_core::ops::stats::MeanVar;
use gv_core::ops::topk::TopBottomK;
use gv_core::ops::translate::Translated;
use gv_core::split::SplittableState;
use gv_core::{par, seq};
use gv_executor::{chunk_ranges, Pool};
use gv_msgpass::Runtime;
use gv_testkit::rng::TestRng;

// ---------------------------------------------------------------------
// The reusable law suite.
// ---------------------------------------------------------------------

/// Accumulates `block` into a fresh identity state (hooks included).
fn state_of<Op: ReduceScanOp + ?Sized>(op: &Op, block: &[Op::In]) -> Op::State {
    let mut s = op.ident();
    accumulate_block(op, &mut s, block);
    s
}

/// Split points for the associativity / commutativity checks: a handful
/// of deterministic 3-way partitions of `0..n`, including degenerate
/// ones (empty outer pieces, empty middle).
fn three_way_splits(n: usize) -> Vec<(usize, usize)> {
    let mut splits = vec![(0, 0), (0, n), (n, n), (n / 3, 2 * n / 3), (n / 2, n / 2)];
    if n >= 1 {
        splits.push((1, n));
        splits.push((0, n - 1));
    }
    splits
}

/// Checks every exact-equality law of the operator contract on each of
/// the given inputs. Panics with `name` and the failing case index.
fn assert_op_laws<Op>(name: &str, op: &Op, inputs: &[Vec<Op::In>])
where
    Op: ReduceScanOp + Sync,
    Op::In: Clone + Sync,
    Op::State: Clone + Send + 'static,
    Op::Out: PartialEq + std::fmt::Debug + Send,
{
    let pool = Pool::new(2);

    // Law 1: reducing nothing is the generated identity.
    assert_eq!(
        seq::reduce(op, &[]),
        op.red_gen(op.ident()),
        "{name}: reduce of [] != red_gen(ident)"
    );

    for (case, data) in inputs.iter().enumerate() {
        let n = data.len();
        let whole = state_of(op, data);
        let expected = op.red_gen(whole.clone());

        // Law 2: the identity is a left and right unit for combine.
        let mut left = op.ident();
        op.combine(&mut left, whole.clone());
        assert_eq!(
            op.red_gen(left),
            expected,
            "{name}[case {case}]: combine(ident, s) != s"
        );
        let mut right = whole.clone();
        op.combine(&mut right, op.ident());
        assert_eq!(
            op.red_gen(right),
            expected,
            "{name}[case {case}]: combine(s, ident) != s"
        );

        // Law 3: combine is associative across any ordered 3-way split.
        for (i, j) in three_way_splits(n) {
            let a = state_of(op, &data[..i]);
            let b = state_of(op, &data[i..j]);
            let c = state_of(op, &data[j..]);
            let mut ab_c = a.clone();
            op.combine(&mut ab_c, b.clone());
            op.combine(&mut ab_c, c.clone());
            let mut bc = b;
            op.combine(&mut bc, c);
            let mut a_bc = a;
            op.combine(&mut a_bc, bc);
            assert_eq!(
                op.red_gen(ab_c),
                op.red_gen(a_bc),
                "{name}[case {case}]: combine not associative at split ({i}, {j})"
            );
        }

        // Law 4: accumulating a block equals combining per-element
        // singleton states — the finest possible decomposition.
        let finest = combine_all(
            op,
            data.iter().map(|x| state_of(op, std::slice::from_ref(x))),
        );
        assert_eq!(
            op.red_gen(finest),
            expected,
            "{name}[case {case}]: accumulate != combine of singletons"
        );

        // Law 5: the shared-memory engine agrees for any chunking.
        for parts in [1, 2, 3, 7] {
            assert_eq!(
                par::reduce(&pool, parts, op, data),
                expected,
                "{name}[case {case}]: par::reduce with {parts} parts disagrees"
            );
        }

        // Law 6: if the operator claims commutativity, swapping combine
        // arguments must not change the generated result.
        if Op::COMMUTATIVE {
            for (i, _) in three_way_splits(n) {
                let a = state_of(op, &data[..i]);
                let b = state_of(op, &data[i..]);
                let mut ab = a.clone();
                op.combine(&mut ab, b.clone());
                let mut ba = b;
                op.combine(&mut ba, a);
                assert_eq!(
                    op.red_gen(ab),
                    op.red_gen(ba),
                    "{name}[case {case}]: declared COMMUTATIVE but combine order matters at split {i}"
                );
            }
        }

        // Law 7: the message-passing engine agrees for several rank
        // counts (block decomposition in rank order).
        for p in [1, 2, 5] {
            let chunks: Vec<Vec<Op::In>> = chunk_ranges(n, p).map(|r| data[r].to_vec()).collect();
            let outcome =
                Runtime::new(p).run(|comm| gv_rsmpi::reduce_all(comm, op, &chunks[comm.rank()]));
            for out in outcome.results {
                assert_eq!(
                    out, expected,
                    "{name}[case {case}]: reduce_all on {p} ranks disagrees"
                );
            }
        }

        // Law 8: scans agree across all three engines, both kinds.
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let oracle = seq::scan(op, data, kind);
            assert_eq!(
                par::scan(&pool, 3, op, data, kind),
                oracle,
                "{name}[case {case}]: par::scan ({kind:?}) disagrees"
            );
            let p = 3;
            let chunks: Vec<Vec<Op::In>> = chunk_ranges(n, p).map(|r| data[r].to_vec()).collect();
            let outcome =
                Runtime::new(p).run(|comm| gv_rsmpi::scan(comm, op, &chunks[comm.rank()], kind));
            let flat: Vec<Op::Out> = outcome.results.into_iter().flatten().collect();
            assert_eq!(
                flat, oracle,
                "{name}[case {case}]: rsmpi::scan ({kind:?}) disagrees"
            );
        }
    }
}

/// Deterministic inputs: one vector per length in `LENS`, all drawn from
/// a single seeded stream so every run sees identical data.
const LENS: [usize; 4] = [0, 1, 13, 57];

fn cases<T>(seed: u64, mut gen: impl FnMut(&mut TestRng) -> T) -> Vec<Vec<T>> {
    let mut rng = TestRng::new(seed);
    LENS.iter()
        .map(|&n| (0..n).map(|_| gen(&mut rng)).collect())
        .collect()
}

// ---------------------------------------------------------------------
// The whole operator library, one law-suite call per operator.
// ---------------------------------------------------------------------

#[test]
fn builtin_arithmetic_monoids_obey_the_laws() {
    assert_op_laws(
        "sum<i64>",
        &sum::<i64>(),
        &cases(1, |r| r.i64_in(-1000..1000)),
    );
    // Tiny factors keep 57-element products inside i64.
    assert_op_laws("prod<i64>", &prod::<i64>(), &cases(2, |r| r.i64_in(-2..3)));
    assert_op_laws(
        "min<i64>",
        &min::<i64>(),
        &cases(3, |r| r.i64_in(-1_000_000..1_000_000)),
    );
    assert_op_laws(
        "max<i64>",
        &max::<i64>(),
        &cases(4, |r| r.i64_in(-1_000_000..1_000_000)),
    );
}

#[test]
fn builtin_logical_and_bitwise_monoids_obey_the_laws() {
    assert_op_laws("land", &land(), &cases(5, |r| r.bool()));
    assert_op_laws("lor", &lor(), &cases(6, |r| r.bool()));
    assert_op_laws("lxor", &lxor(), &cases(7, |r| r.bool()));
    assert_op_laws("band<u64>", &band::<u64>(), &cases(8, |r| r.next_u64()));
    assert_op_laws("bor<u64>", &bor::<u64>(), &cases(9, |r| r.next_u64()));
    assert_op_laws("bxor<u64>", &bxor::<u64>(), &cases(10, |r| r.next_u64()));
}

#[test]
fn builtin_location_monoids_obey_the_laws() {
    // Narrow value range so ties (and MPI's smaller-location rule) are hit.
    let pairs = |seed| cases(seed, |r: &mut TestRng| (r.i64_in(-20..20), r.below(100)));
    assert_op_laws("minloc<i64,u64>", &minloc::<i64, u64>(), &pairs(11));
    assert_op_laws("maxloc<i64,u64>", &maxloc::<i64, u64>(), &pairs(12));
    assert_op_laws("mini<i64,u64>", &mini::<i64, u64>(), &pairs(13));
    assert_op_laws("maxi<i64,u64>", &maxi::<i64, u64>(), &pairs(14));
}

#[test]
fn structured_state_ops_obey_the_laws() {
    assert_op_laws(
        "MinK(5)",
        &MinK::<i64>::new(5),
        &cases(20, |r| r.i64_in(-500..500)),
    );
    assert_op_laws(
        "MaxK(3)",
        &MaxK::<i64>::new(3),
        &cases(21, |r| r.i64_in(-500..500)),
    );
    assert_op_laws(
        "Counts(8)",
        &Counts::new(8),
        &cases(22, |r| r.usize_in(0..8)),
    );
    assert_op_laws(
        "BucketRank(8)",
        &BucketRank::new(8),
        &cases(23, |r| r.usize_in(0..8)),
    );
    assert_op_laws(
        "Histogram(0..100, 8 bins)",
        &Histogram::uniform(0.0, 100.0, 8),
        &cases(24, |r| r.f64_in(-25.0..125.0)),
    );
    assert_op_laws(
        "minmax<i64>",
        &minmax::<i64>(),
        &cases(25, |r| r.i64_in(-400..400)),
    );
    assert_op_laws(
        "TopBottomK(4)",
        &TopBottomK::<i64, u64>::new(4),
        &cases(26, |r: &mut TestRng| (r.i64_in(-100..100), r.below(1000))),
    );
}

#[test]
fn translate_form_ops_obey_the_laws() {
    assert_op_laws(
        "Translated(sum<i64>)",
        &Translated(sum::<i64>()),
        &cases(30, |r| r.i64_in(-1000..1000)),
    );
    assert_op_laws(
        "Translated(MinK(4))",
        &Translated(MinK::<i64>::new(4)),
        &cases(31, |r| r.i64_in(-500..500)),
    );
}

/// The `SplittableState` laws on each input cut in two: `parts` segments
/// exactly, a round trip, and segment-wise combining equal to whole
/// combining — compared through `red_gen`, like the laws above.
fn assert_split_laws<Op>(name: &str, op: &Op, inputs: &[Vec<Op::In>])
where
    Op: SplittableState,
    Op::State: Clone,
    Op::Out: PartialEq + std::fmt::Debug,
{
    for (case, data) in inputs.iter().enumerate() {
        let (head, tail) = data.split_at(data.len() / 2);
        let (a, b) = (state_of(op, head), state_of(op, tail));
        let mut whole = a.clone();
        op.combine(&mut whole, b.clone());
        let expected = op.red_gen(whole.clone());
        for parts in 1..=5 {
            let segments = op.split_state(whole.clone(), parts);
            assert_eq!(segments.len(), parts, "{name}[case {case}]: segment count");
            assert_eq!(
                op.red_gen(op.unsplit_state(segments)),
                expected,
                "{name}[case {case}]: unsplit(split(s, {parts})) != s"
            );
            let combined = op
                .split_state(a.clone(), parts)
                .into_iter()
                .zip(op.split_state(b.clone(), parts))
                .map(|(mut earlier, later)| {
                    op.combine(&mut earlier, later);
                    earlier
                })
                .collect();
            assert_eq!(
                op.red_gen(op.unsplit_state(combined)),
                expected,
                "{name}[case {case}]: combine does not distribute over {parts} segments"
            );
        }
    }
}

/// An aggregated reduction is the operator `Elementwise`: the law suite,
/// the split laws (it is splittable whatever it lifts) and the
/// shared-memory engine against the sequential one, over rows of four
/// slots.
fn assert_elementwise_laws<Op>(name: &str, op: Op, inputs: &[Vec<Vec<i64>>])
where
    Op: ReduceScanOp<In = i64> + Sync,
    Op::State: Clone + Send + 'static,
    Op::Out: PartialEq + std::fmt::Debug + Send,
{
    let op = Elementwise::new(op, 4);
    assert_op_laws(name, &op, inputs);
    assert_split_laws(name, &op, inputs);
    let pool = Pool::new(2);
    for (case, rows) in inputs.iter().enumerate() {
        for parts in 1..=5 {
            assert_eq!(
                par::reduce(&pool, parts, &op, rows),
                seq::reduce(&op, rows),
                "{name}[case {case}]: par::reduce with {parts} parts disagrees"
            );
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                assert_eq!(
                    par::scan(&pool, parts, &op, rows, kind),
                    seq::scan(&op, rows, kind),
                    "{name}[case {case}]: par::scan ({kind:?}) with {parts} parts disagrees"
                );
            }
        }
    }
}

#[test]
fn elementwise_ops_obey_the_laws() {
    let mut inputs = cases(60, |r: &mut TestRng| {
        (0..4).map(|_| r.i64_in(-100..100)).collect::<Vec<i64>>()
    });
    // Slots 0 and 1 ascend, slot 2 descends, slot 3 breaks every seventh
    // row: `Sorted` gives one verdict per slot, across chunk seams.
    inputs.push((0..40).map(|i| vec![i, 2 * i, -i, i % 7]).collect());
    assert_elementwise_laws("Elementwise(sum<i64>)", sum::<i64>(), &inputs);
    // Non-commutative, and its identity differs from every reachable state.
    assert_elementwise_laws("Elementwise(Sorted)", Sorted::<i64>::new(), &inputs);
    // A heap per slot.
    assert_elementwise_laws("Elementwise(MinK(3))", MinK::<i64>::new(3), &inputs);
}

#[test]
fn non_commutative_ops_obey_the_laws() {
    assert_op_laws(
        "MaxSubarray",
        &MaxSubarray,
        &cases(40, |r| r.i64_in(-50..50)),
    );
    // A 3-symbol alphabet produces genuine runs that straddle chunk seams.
    assert_op_laws(
        "LongestRun",
        &LongestRun::<i64>::new(),
        &cases(41, |r| r.i64_in(0..3)),
    );
    assert_op_laws(
        "Segmented(Sum)",
        &Segmented(Sum::<i64>::default()),
        &cases(42, |r: &mut TestRng| (r.i64_in(-100..100), r.bool())),
    );

    // Sorted-ness checks see both random (almost surely unsorted) and
    // genuinely sorted inputs, so both verdicts cross chunk seams.
    let mut sortedness_inputs = cases(43, |r: &mut TestRng| r.i64_in(-100..100));
    sortedness_inputs.push((0..40).collect());
    assert_op_laws("Sorted", &Sorted::<i64>::new(), &sortedness_inputs);
    assert_op_laws(
        "SortedPaperExact",
        &SortedPaperExact::<i64>::new(),
        &sortedness_inputs,
    );
}

// ---------------------------------------------------------------------
// Directed checks the generic suite cannot express.
// ---------------------------------------------------------------------

#[test]
#[allow(clippy::assertions_on_constants)] // pinning compile-time flags is the point
fn non_commutative_ops_declare_it() {
    assert!(!<MaxSubarray as ReduceScanOp>::COMMUTATIVE);
    assert!(!<LongestRun<i64> as ReduceScanOp>::COMMUTATIVE);
    assert!(!<Segmented<Sum<i64>> as ReduceScanOp>::COMMUTATIVE);
    assert!(!<Sorted<i64> as ReduceScanOp>::COMMUTATIVE);
    assert!(!<SortedPaperExact<i64> as ReduceScanOp>::COMMUTATIVE);
    // Translated inherits the flag from the operator it wraps.
    assert!(!<Translated<Sorted<i64>> as ReduceScanOp>::COMMUTATIVE);
    assert!(<Translated<MinK<i64>> as ReduceScanOp>::COMMUTATIVE);
}

/// A positive witness that combine order *matters* for the sorted-ness
/// operators: the blocks [2] and [1] are sorted in the order [1],[2] but
/// not in the order [2],[1]. Guards against anyone flipping these to
/// COMMUTATIVE for a cheap speedup.
#[test]
fn sortedness_combine_order_is_observable() {
    fn witness<Op>(name: &str, op: &Op)
    where
        Op: ReduceScanOp<In = i64, Out = bool>,
        Op::State: Clone,
    {
        let two = state_of(op, &[2]);
        let one = state_of(op, &[1]);
        let mut ascending = one.clone();
        op.combine(&mut ascending, two.clone());
        assert!(op.red_gen(ascending), "{name}: [1] then [2] must be sorted");
        let mut descending = two;
        op.combine(&mut descending, one);
        assert!(
            !op.red_gen(descending),
            "{name}: [2] then [1] must not be sorted"
        );
    }
    witness("Sorted", &Sorted::<i64>::new());
    witness("SortedPaperExact", &SortedPaperExact::<i64>::new());
}

// ---------------------------------------------------------------------
// Block-kernel dispatch laws (`gv_core::kernel`): the vectorized path
// must be bit-identical to the scalar path for regrouping-invariant
// operators, and bit-identical to the *pinned-regrouping reference* for
// float sums/products — at every length around the lane-width seams.
// ---------------------------------------------------------------------

mod kernel_laws {
    use super::*;
    use gv_core::iter::reduce_iter;
    use gv_core::kernel::{self, LANES};
    use gv_core::op::{accumulate_block_scalar, rescan_block, rescan_block_scalar};
    use gv_testkit::prop::{check, from_fn, Config};
    use gv_testkit::{prop_assert, prop_assert_eq};

    /// Every length from empty through four full lane blocks plus a
    /// ragged tail: covers the serial short-block path, the exact lane
    /// boundary, and every remainder length that matters.
    fn lengths() -> impl Iterator<Item = usize> {
        0..=(4 * LANES + 3)
    }

    /// Kernel accumulate and scans must match the forced-scalar loop
    /// bit-for-bit on every prefix length of `data`.
    fn assert_dispatch_exact<Op>(name: &str, op: &Op, data: &[Op::In])
    where
        Op: ReduceScanOp,
        Op::In: Clone,
        Op::State: Clone,
        Op::Out: PartialEq + std::fmt::Debug,
    {
        assert!(data.len() >= 4 * LANES + 3, "{name}: test data too short");
        for n in lengths() {
            let block = &data[..n];
            let mut ks = op.ident();
            accumulate_block(op, &mut ks, block);
            let mut ss = op.ident();
            accumulate_block_scalar(op, &mut ss, block);
            assert_eq!(
                op.red_gen(ks),
                op.red_gen(ss),
                "{name}: kernel reduce != scalar reduce at n={n}"
            );
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let mut kstate = op.ident();
                let mut kout = Vec::new();
                rescan_block(op, &mut kstate, block, kind, &mut kout);
                let mut sstate = op.ident();
                let mut sout = Vec::new();
                rescan_block_scalar(op, &mut sstate, block, kind, &mut sout);
                assert_eq!(
                    kout, sout,
                    "{name}: kernel scan != scalar scan at n={n} {kind:?}"
                );
                assert_eq!(
                    op.red_gen(kstate),
                    op.red_gen(sstate),
                    "{name}: scan carry diverged at n={n} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn integer_kernels_are_bit_identical_to_scalar() {
        let mut rng = TestRng::new(60);
        let n = 4 * LANES + 3;
        let i64s: Vec<i64> = (0..n).map(|_| rng.i64_in(-1000..1000)).collect();
        assert_dispatch_exact("sum<i64>", &sum::<i64>(), &i64s);
        assert_dispatch_exact("min<i64>", &min::<i64>(), &i64s);
        assert_dispatch_exact("max<i64>", &max::<i64>(), &i64s);
        // ±1 factors keep long products from collapsing to zero, so the
        // comparison stays meaningful at every length.
        let signs: Vec<i64> = (0..n).map(|_| if rng.bool() { 1 } else { -1 }).collect();
        assert_dispatch_exact("prod<i64>", &prod::<i64>(), &signs);
        // Wrapping overflow must regroup exactly too.
        let big: Vec<i64> = (0..n).map(|_| rng.i64_in(i64::MAX / 2..i64::MAX)).collect();
        assert_dispatch_exact("sum<i64> wrapping", &sum::<i64>(), &big);
    }

    /// One generated `TopBottomK` kernel case: the inputs that pre-fill the
    /// incoming state, then the block handed to `accum_block`.
    #[derive(Debug, Clone)]
    struct TopkCase<T, L> {
        k: usize,
        prefill: Vec<(T, L)>,
        block: Vec<(T, L)>,
    }

    /// Draws a case whose block is hostile to a filtered kernel. Values
    /// come from a 41-value range, so ties with list entries are routine;
    /// on top of that, at a dozen positions spread over the fill phase and
    /// every later filter chunk, the element is overwritten with either a
    /// duplicate of the *current* worst `top`/`bottom` value carrying a
    /// smaller or a larger location than the entry it ties with, or one of
    /// `specials` (NaN, ±0.0, ±∞ for floats; the type's bounds for ints).
    fn topk_case<T, L>(rng: &mut TestRng, specials: &[T]) -> TopkCase<T, L>
    where
        T: Copy + PartialOrd + std::fmt::Debug + From<i32>,
        L: Copy + Ord + std::fmt::Debug + From<u8>,
    {
        let k = [1usize, 3, 10][rng.usize_in(0..3)];
        let op = TopBottomK::<T, L>::new(k);
        let draw = |rng: &mut TestRng| {
            let value = if rng.below(16) == 0 {
                specials[rng.usize_in(0..specials.len())]
            } else {
                T::from(rng.i64_in(-20..21) as i32)
            };
            (value, L::from(rng.i64_in(64..192) as u8))
        };
        // From an identity state up to one whose lists are already full.
        let prefill: Vec<(T, L)> = (0..rng.usize_in(0..2 * k + 2)).map(|_| draw(rng)).collect();
        let mut block: Vec<(T, L)> = (0..4 * LANES + 3).map(|_| draw(rng)).collect();
        let mut plant_at: Vec<usize> = (0..12).map(|_| rng.usize_in(0..block.len())).collect();
        plant_at.extend([0, k - 1, k, k + 1]);
        plant_at.sort_unstable();
        for at in plant_at {
            // Planting in ascending order keeps every earlier prefix, and
            // so every earlier "current worst", as it was when planted.
            let mut seen = op.ident();
            accumulate_block_scalar(&op, &mut seen, &prefill);
            accumulate_block_scalar(&op, &mut seen, &block[..at]);
            let worst = if rng.bool() {
                seen.top.last()
            } else {
                seen.bottom.last()
            };
            block[at] = match (rng.below(3), worst) {
                (0, Some(&(value, _))) => (value, L::from(rng.i64_in(0..64) as u8)),
                (1, Some(&(value, _))) => (value, L::from(rng.i64_in(192..256) as u8)),
                _ => (specials[rng.usize_in(0..specials.len())], block[at].1),
            };
        }
        TopkCase { k, prefill, block }
    }

    /// `accum_block` must leave exactly the state the per-element loop
    /// leaves — compared through `bits`, so NaN payloads and the sign of
    /// zero count — on every prefix of the case's block: below, at and
    /// above `k`, and from zero to four filter chunks with every ragged
    /// tail.
    fn topk_kernel_matches_scalar<T, L>(
        case: &TopkCase<T, L>,
        bits: fn(T) -> u64,
    ) -> Result<(), String>
    where
        T: Copy + PartialOrd + std::fmt::Debug,
        L: Copy + Ord + std::fmt::Debug,
    {
        let op = TopBottomK::<T, L>::new(case.k);
        let exact = |list: &[(T, L)]| -> Vec<(u64, L)> {
            list.iter()
                .map(|&(value, loc)| (bits(value), loc))
                .collect()
        };
        let mut incoming = op.ident();
        accumulate_block_scalar(&op, &mut incoming, &case.prefill);
        for n in 0..=case.block.len() {
            let block = &case.block[..n];
            let mut kernel = incoming.clone();
            prop_assert!(
                op.accum_block(&mut kernel, block),
                "TopBottomK has a block kernel"
            );
            let mut scalar = incoming.clone();
            accumulate_block_scalar(&op, &mut scalar, block);
            prop_assert_eq!(exact(&kernel.top), exact(&scalar.top), "top at n={n}");
            prop_assert_eq!(
                exact(&kernel.bottom),
                exact(&scalar.bottom),
                "bottom at n={n}"
            );
        }
        Ok(())
    }

    #[test]
    fn topbottomk_f64_kernel_is_bit_identical_to_scalar() {
        let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        check(
            "topbottomk_f64_kernel_is_bit_identical_to_scalar",
            &Config::new(48),
            &from_fn(|rng: &mut TestRng| topk_case::<f64, u64>(rng, &specials)),
            |case| topk_kernel_matches_scalar(case, f64::to_bits),
        );
    }

    #[test]
    fn topbottomk_i64_kernel_is_bit_identical_to_scalar() {
        let specials = [i64::MIN, i64::MAX, 0];
        check(
            "topbottomk_i64_kernel_is_bit_identical_to_scalar",
            &Config::new(48),
            &from_fn(|rng: &mut TestRng| topk_case::<i64, u32>(rng, &specials)),
            |case| topk_kernel_matches_scalar(case, |value| value as u64),
        );
    }

    /// The streamed engine stages its input in blocks of a private size;
    /// these lengths sit on and either side of every power of two up to
    /// 4096 (and at twice it), so they straddle the staging seam whichever
    /// power of two that size is.
    fn seam_lengths() -> impl Iterator<Item = usize> {
        let around = (5..=12).flat_map(|j| [(1usize << j) - 1, 1 << j, (1 << j) + 1]);
        [0, 1].into_iter().chain(around).chain([1 << 13])
    }

    /// `reduce_iter` over a stream must equal `seq::reduce` over the same
    /// elements as a slice, hooks and kernels included.
    fn assert_streamed_matches_slice<Op>(name: &str, op: &Op, data: &[Op::In])
    where
        Op: ReduceScanOp,
        Op::In: Clone,
        Op::Out: PartialEq + std::fmt::Debug,
    {
        for n in seam_lengths() {
            assert_eq!(
                reduce_iter(op, data[..n].iter().cloned()),
                seq::reduce(op, &data[..n]),
                "{name}: streamed != slice at n={n}"
            );
        }
    }

    #[test]
    fn streamed_reductions_match_the_slice_engine_across_staging_seams() {
        let mut rng = TestRng::new(66);
        let n = 1 << 13;
        // Hook-carrying operators: `pre_accum`/`post_accum` must see the
        // stream's first and last element, not each staged block's. One
        // descent sits past every seam, so a run or a sortedness verdict
        // that a seam cut in two would come out different.
        let mut ramp: Vec<i64> = (0..n as i64).map(|i| i / 3).collect();
        assert_streamed_matches_slice("Sorted (sorted)", &Sorted::new(), &ramp);
        assert_streamed_matches_slice("LongestRun (ramp)", &LongestRun::new(), &ramp);
        ramp[n - 2] = -1;
        assert_streamed_matches_slice("Sorted (late descent)", &Sorted::new(), &ramp);
        let runs: Vec<i64> = (0..n).map(|_| rng.i64_in(0..2)).collect();
        assert_streamed_matches_slice("LongestRun (coin flips)", &LongestRun::new(), &runs);
        // Kernel-backed (sum, Counts, TopBottomK) and kernel-less (MinK).
        let i64s: Vec<i64> = (0..n).map(|_| rng.i64_in(-1000..1000)).collect();
        assert_streamed_matches_slice("sum<i64>", &sum::<i64>(), &i64s);
        assert_streamed_matches_slice("MinK(5)", &MinK::<i64>::new(5), &i64s);
        let buckets: Vec<usize> = (0..n).map(|_| rng.usize_in(0..8)).collect();
        assert_streamed_matches_slice("Counts(8)", &Counts::new(8), &buckets);
        let pairs: Vec<(i64, u32)> = i64s.iter().map(|&v| (v, rng.next_u32() % 64)).collect();
        assert_streamed_matches_slice("TopBottomK(10)", &TopBottomK::new(10), &pairs);
        // Kernels that regroup floats block by block: a slice is cut at the
        // staging block's length, so even these agree bit for bit.
        let f64s: Vec<f64> = (0..n).map(|_| rng.f64_in(-1.0..3.0)).collect();
        assert_streamed_matches_slice("MeanVar", &MeanVar, &f64s);
        assert_streamed_matches_slice("MinMax<f64>", &minmax::<f64>(), &f64s);
    }

    /// Lengths on and either side of the seams of the kernels that cut a
    /// run into `kernel::BLOCK`-element blocks.
    const BLOCK_SEAMS: [usize; 4] = [
        kernel::BLOCK - 1,
        kernel::BLOCK,
        kernel::BLOCK + 1,
        2 * kernel::BLOCK + 1,
    ];

    /// `MeanVar`'s state after `block`, through its kernel or forced scalar.
    fn moments(block: &[f64], scalar: bool) -> gv_core::ops::Moments {
        let mut s = MeanVar.ident();
        if scalar {
            accumulate_block_scalar(&MeanVar, &mut s, block);
        } else {
            assert!(
                MeanVar.accum_block(&mut s, block),
                "MeanVar has a block kernel"
            );
        }
        MeanVar.red_gen(s)
    }

    #[test]
    fn meanvar_kernel_matches_welford_within_rounding() {
        // Two-pass per block + Chan merge against the Welford loop: the
        // count is exact, mean and variance agree to 1e-12 relative, at
        // every length through the lane seams and at the block seams.
        let mut rng = TestRng::new(67);
        let data: Vec<f64> = (0..2 * kernel::BLOCK + 1)
            .map(|_| rng.f64_in(-1.0..3.0))
            .collect();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for n in lengths().chain(BLOCK_SEAMS) {
            let (kernel, welford) = (moments(&data[..n], false), moments(&data[..n], true));
            assert_eq!(kernel.count, welford.count, "count at n={n}");
            assert!(
                close(kernel.mean, welford.mean),
                "mean at n={n}: {kernel:?} vs {welford:?}"
            );
            assert!(
                close(kernel.variance, welford.variance),
                "variance at n={n}: {kernel:?} vs {welford:?}"
            );
        }
    }

    /// The exact population variance of `offset + unit·k` over the integers
    /// `ks`, from integer sums: `(n·Σk² − (Σk)²) / n² · unit²`.
    fn exact_variance(ks: &[i64], unit: f64) -> f64 {
        let n = ks.len() as i128;
        let sum: i128 = ks.iter().map(|&k| k as i128).sum();
        let squares: i128 = ks.iter().map(|&k| (k as i128) * (k as i128)).sum();
        (n * squares - sum * sum) as f64 / (n * n) as f64 * unit * unit
    }

    #[test]
    fn meanvar_kernel_is_no_further_from_the_truth_than_welford_under_cancellation() {
        // A mean of 1e9 against a spread of 1: the regime where a variance
        // algorithm loses digits. Both inputs are `1e9 + unit·k` for
        // integers `k`, so the true variance is an integer computation.
        let mut rng = TestRng::new(68);
        let n = 10_000;
        // (a) integer-valued samples.
        let whole: Vec<i64> = (0..n).map(|_| rng.i64_in(-1000..1001)).collect();
        // (b) `1e9 + U(−1, 1)`: a double near 1e9 is a multiple of 2⁻²³,
        // and subtracting 1e9 from it is exact.
        let unit = (2.0f64).powi(-23);
        let fine: Vec<i64> = (0..n)
            .map(|_| ((1e9 + rng.f64_in(-1.0..1.0) - 1e9) / unit) as i64)
            .collect();
        for (name, ks, unit) in [("integers", &whole, 1.0), ("1e9 + U(-1, 1)", &fine, unit)] {
            let data: Vec<f64> = ks.iter().map(|&k| 1e9 + unit * k as f64).collect();
            assert!(
                data.iter()
                    .zip(ks)
                    .all(|(x, &k)| x - 1e9 == unit * k as f64),
                "{name}: samples must be exact"
            );
            let truth = exact_variance(ks, unit);
            let (kernel, welford) = (moments(&data, false), moments(&data, true));
            let (kernel_error, welford_error) = (
                (kernel.variance - truth).abs(),
                (welford.variance - truth).abs(),
            );
            assert!(
                kernel_error <= welford_error,
                "{name}: kernel variance off by {kernel_error:e}, Welford by {welford_error:e}"
            );
            // Block means near 1e9 are only representable to 1.2e-7, which
            // is what the merge across blocks can lose.
            assert!(
                kernel_error <= 1e-8 * truth,
                "{name}: kernel variance off by {kernel_error:e}"
            );
            let mean_truth = 1e9 + unit * ks.iter().sum::<i64>() as f64 / n as f64;
            assert!(
                (kernel.mean - mean_truth).abs() <= 2.0 * f64::EPSILON * 1e9,
                "{name}: mean"
            );
        }
    }

    #[test]
    fn meanvar_kernel_propagates_nan_and_infinities_as_the_scalar_loop_does() {
        // A block with a non-finite sum is handed to the scalar loop, so
        // the outcome is the scalar loop's bit for bit — whichever lane,
        // block or ragged tail the special value lands in.
        let mut rng = TestRng::new(69);
        let finite: Vec<f64> = (0..2 * kernel::BLOCK + 100)
            .map(|_| rng.f64_in(-1.0..3.0))
            .collect();
        let plants: [&[f64]; 4] = [
            &[f64::NAN],
            &[f64::INFINITY],
            &[f64::NEG_INFINITY],
            &[f64::INFINITY, f64::NEG_INFINITY],
        ];
        for plant in plants {
            for at in [
                0,
                5,
                8,
                kernel::BLOCK - 1,
                kernel::BLOCK,
                kernel::BLOCK + 9,
                finite.len() - 5,
            ] {
                let mut data = finite.clone();
                data[at..at + plant.len()].copy_from_slice(plant);
                let (kernel, welford) = (moments(&data, false), moments(&data, true));
                // The planted block is the scalar loop's; the blocks around
                // it regroup, so finite results agree to rounding only.
                let same = |a: f64, b: f64| {
                    a.to_bits() == b.to_bits()
                        || (a.is_nan() && b.is_nan())
                        || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
                };
                assert_eq!(kernel.count, welford.count);
                assert!(
                    same(kernel.mean, welford.mean),
                    "{plant:?} at {at}: {kernel:?} vs {welford:?}"
                );
                assert!(
                    same(kernel.variance, welford.variance),
                    "{plant:?} at {at}: {kernel:?} vs {welford:?}"
                );
            }
        }
    }

    /// `MinK`/`MaxK` kernel against the scalar loop on prefixes of `block`
    /// — every length through the lane seams, then the filter's block
    /// seams — starting from the state `prefill` leaves; `bits` makes NaN
    /// payloads and the sign of zero count.
    fn assert_kbest_kernel_exact<T>(
        name: &str,
        k: usize,
        prefill: &[T],
        block: &[T],
        bits: fn(T) -> u64,
    ) where
        T: gv_core::ops::num::Bounded + Copy + PartialOrd + std::fmt::Debug,
    {
        fn check<Op, T>(name: &str, op: &Op, prefill: &[T], block: &[T], bits: fn(T) -> u64)
        where
            Op: ReduceScanOp<In = T, State = gv_core::ops::KBest<T>>,
            T: Copy + std::fmt::Debug,
        {
            let mut incoming = op.ident();
            accumulate_block_scalar(op, &mut incoming, prefill);
            for n in lengths().chain(BLOCK_SEAMS) {
                let mut kernel = incoming.clone();
                assert!(
                    op.accum_block(&mut kernel, &block[..n]),
                    "{name} has a block kernel"
                );
                let mut scalar = incoming.clone();
                accumulate_block_scalar(op, &mut scalar, &block[..n]);
                let exact = |s: &gv_core::ops::KBest<T>| -> Vec<u64> {
                    s.worst_first().iter().map(|&v| bits(v)).collect()
                };
                assert_eq!(
                    exact(&kernel),
                    exact(&scalar),
                    "{name}: kernel != scalar at n={n}"
                );
            }
        }
        check(
            &format!("MinK({k}) {name}"),
            &MinK::<T>::new(k),
            prefill,
            block,
            bits,
        );
        check(
            &format!("MaxK({k}) {name}"),
            &MaxK::<T>::new(k),
            prefill,
            block,
            bits,
        );
    }

    #[test]
    fn mink_maxk_kernels_are_bit_identical_to_scalar() {
        let mut rng = TestRng::new(70);
        let n = 2 * kernel::BLOCK + 1;
        // Wide values, then five distinct values: duplicates everywhere
        // and, once the state holds one value k times, every element a tie
        // with the worst retained value.
        let wide: Vec<i64> = (0..n).map(|_| rng.i64_in(-1000..1000)).collect();
        let narrow: Vec<i64> = (0..n).map(|_| rng.i64_in(0..5)).collect();
        // Floats with the special values planted throughout.
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        let floats: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => specials[rng.usize_in(0..specials.len())],
                _ => rng.i64_in(-20..21) as f64,
            })
            .collect();
        // k = 1 through k > n for every prefix up to four lane groups
        // (slots that stay at the identity).
        for k in [1, 3, 10, 200] {
            for prefill in [0, 1, k.min(40)] {
                assert_kbest_kernel_exact("wide", k, &wide[..prefill], &wide, |v| v as u64);
                assert_kbest_kernel_exact("narrow", k, &narrow[..prefill], &narrow, |v| v as u64);
                assert_kbest_kernel_exact("floats", k, &floats[..prefill], &floats, f64::to_bits);
            }
        }
    }

    /// Where the k-best filter tests plant a lone element: the last index of
    /// every granule length a filter might cut its block into (the
    /// operators' own are private), of two whole blocks, and of a short
    /// final granule — where a vector loop's tail handling would lose it.
    const GRANULE_ENDS: [usize; 9] = [
        15,
        31,
        63,
        127,
        255,
        511,
        kernel::BLOCK - 1,
        2 * kernel::BLOCK - 1,
        2 * kernel::BLOCK + 2,
    ];

    /// The states `TopBottomK(k)`'s kernel and the scalar loop leave over
    /// `block`, both starting from what `prefill` leaves, and that state.
    #[allow(clippy::type_complexity)]
    fn topk_states(
        k: usize,
        prefill: &[(f64, u64)],
        block: &[(f64, u64)],
    ) -> [(Vec<(f64, u64)>, Vec<(f64, u64)>); 3] {
        let op = TopBottomK::<f64, u64>::new(k);
        let mut incoming = op.ident();
        accumulate_block_scalar(&op, &mut incoming, prefill);
        let mut kernel = incoming.clone();
        assert!(op.accum_block(&mut kernel, block));
        let mut scalar = incoming.clone();
        accumulate_block_scalar(&op, &mut scalar, block);
        [kernel, scalar, incoming].map(|s| (s.top, s.bottom))
    }

    /// The states a `MinK`/`MaxK` kernel and the scalar loop leave over
    /// `block`, both starting from what `prefill` leaves.
    fn kbest_states<Op>(op: &Op, prefill: &[i64], block: &[i64]) -> [gv_core::ops::KBest<i64>; 2]
    where
        Op: ReduceScanOp<In = i64, State = gv_core::ops::KBest<i64>>,
    {
        let mut kernel = op.ident();
        accumulate_block_scalar(op, &mut kernel, prefill);
        let mut scalar = kernel.clone();
        assert!(op.accum_block(&mut kernel, block));
        accumulate_block_scalar(op, &mut scalar, block);
        [kernel, scalar]
    }

    #[test]
    fn kbest_filters_see_a_lone_hit_at_the_end_of_a_granule() {
        let n = 2 * kernel::BLOCK + 3;
        // Lists full at ±8 … ±10; the block sits strictly between them.
        let prefill = [
            (-10.0, 0u64),
            (-9.0, 1),
            (-8.0, 20),
            (8.0, 20),
            (9.0, 4),
            (10.0, 5),
        ];
        // Beating a worst value outright, and tying it with a smaller
        // location (the non-strict half of the filter).
        let louds = [(8.5, 99u64), (-8.5, 99), (8.0, 7), (-8.0, 7)];
        for at in GRANULE_ENDS {
            for loud in louds {
                let mut block = vec![(0.0, 50u64); n];
                block[at] = loud;
                let [kernel, scalar, incoming] = topk_states(3, &prefill, &block);
                assert_eq!(kernel, scalar, "TopBottomK: {loud:?} at {at}");
                assert_ne!(kernel, incoming, "TopBottomK: {loud:?} at {at} must enter");
            }
            // `MinK`/`MaxK`: strict, so the lone hit has to beat the worst
            // (−5 of the smallest three, 5 of the largest).
            let mut ints = vec![0i64; n];
            ints[at] = -6;
            let [kernel, scalar] = kbest_states(&MinK::<i64>::new(3), &[-5, -7, -9], &ints);
            assert_eq!(kernel, scalar, "MinK: -6 at {at}");
            assert!(
                kernel.worst_first().contains(&-6),
                "MinK: -6 at {at} must enter"
            );
            ints[at] = 6;
            let [kernel, scalar] = kbest_states(&MaxK::<i64>::new(3), &[5, 7, 9], &ints);
            assert_eq!(kernel, scalar, "MaxK: 6 at {at}");
            assert!(
                kernel.worst_first().contains(&6),
                "MaxK: 6 at {at} must enter"
            );
        }
    }

    #[test]
    fn kbest_filters_leave_a_tie_with_the_worst_to_the_exact_insert() {
        let n = 2 * kernel::BLOCK + 3;
        let prefill = [
            (-10.0, 0u64),
            (-9.0, 1),
            (-8.0, 100),
            (8.0, 100),
            (9.0, 4),
            (10.0, 5),
        ];
        // Every value equals a worst value. `TopBottomK`'s filter is
        // non-strict, so the location decides: below the worst's 100 an
        // element wins the tie-break and enters, above it nothing moves.
        for value in [8.0, -8.0] {
            let winning: Vec<(f64, u64)> = (0..n as u64).map(|i| (value, 99 - i % 50)).collect();
            let [kernel, scalar, incoming] = topk_states(3, &prefill, &winning);
            assert_eq!(
                kernel, scalar,
                "TopBottomK: ties at {value} with smaller locations"
            );
            assert_ne!(kernel, incoming, "a tie with a smaller location must enter");
            let losing: Vec<(f64, u64)> = (0..n as u64).map(|i| (value, 101 + i)).collect();
            let [kernel, scalar, incoming] = topk_states(3, &prefill, &losing);
            assert_eq!(
                kernel, scalar,
                "TopBottomK: ties at {value} with larger locations"
            );
            assert_eq!(
                kernel, incoming,
                "a tie with a larger location changes nothing"
            );
        }
        // `MinK`/`MaxK` have no tie-break, so their filter is strict: a
        // block of the worst value changes nothing (and replays nothing).
        let ties = vec![5i64; n];
        let [kernel, scalar] = kbest_states(&MinK::<i64>::new(3), &[5, 3, 1], &ties);
        assert_eq!(kernel, scalar);
        assert_eq!(kernel.worst_first(), [5, 3, 1]);
        let [kernel, scalar] = kbest_states(&MaxK::<i64>::new(3), &[5, 7, 9], &ties);
        assert_eq!(kernel, scalar);
        assert_eq!(kernel.worst_first(), [5, 7, 9]);
    }

    /// The state `accum_runs` leaves, hooks applied as `accumulate_block`
    /// applies them around an `accum_block` kernel.
    fn state_through_runs<Op: ReduceScanOp>(op: &Op, block: &[Op::In]) -> Op::State {
        let mut s = op.ident();
        if let (Some(first), Some(last)) = (block.first(), block.last()) {
            op.pre_accum(&mut s, first);
            kernel::accum_runs(op, &mut s, block);
            op.post_accum(&mut s, last);
        }
        s
    }

    /// The state the forced per-element loop leaves.
    fn state_through_scalar<Op: ReduceScanOp>(op: &Op, block: &[Op::In]) -> Op::State {
        let mut s = op.ident();
        accumulate_block_scalar(op, &mut s, block);
        s
    }

    /// Lengths around every seam of `accum_runs`: fewer elements than runs,
    /// the first lengths at which each run holds 1, 2, … elements, and the
    /// block seams, where a short last block follows full ones.
    fn run_seam_lengths() -> impl Iterator<Item = usize> {
        (0..=4 * kernel::RUNS + 3)
            .chain(BLOCK_SEAMS)
            .chain([3 * kernel::BLOCK + kernel::RUNS - 1])
    }

    /// Order-revealing test operator: the state is the input itself, so any
    /// run combined out of order, dropped or doubled shows in the result.
    struct Concat;
    impl ReduceScanOp for Concat {
        type In = char;
        type State = String;
        type Out = String;
        const COMMUTATIVE: bool = false;
        fn ident(&self) -> String {
            String::new()
        }
        fn accum(&self, s: &mut String, x: &char) {
            s.push(*x);
        }
        fn combine(&self, a: &mut String, b: String) {
            a.push_str(&b);
        }
        fn red_gen(&self, s: String) -> String {
            s
        }
        fn scan_gen(&self, s: &String, _x: &char) -> String {
            s.clone()
        }
    }

    #[test]
    fn derived_kernel_matches_scalar_for_non_commutative_operators() {
        let longest = 3 * kernel::BLOCK + kernel::RUNS;
        let text: Vec<char> = (0..longest)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let ramp: Vec<i64> = (0..longest as i64).map(|i| i / 2).collect();
        for n in run_seam_lengths() {
            assert_eq!(
                state_through_runs(&Concat, &text[..n]),
                text[..n].iter().collect::<String>(),
                "Concat at n={n}"
            );
            // Sorted input, then one descent planted at each position in
            // turn around every run boundary: inside a run `accum` must see
            // it, across two runs `combine` must.
            let run = (n.min(kernel::BLOCK) / kernel::RUNS).max(1);
            let descents = (0..=kernel::RUNS)
                .flat_map(|r| [r * run, r * run + 1])
                .chain([n - n.min(1)]);
            for at in std::iter::once(None).chain(descents.filter(|&at| 0 < at && at < n).map(Some))
            {
                let mut data = ramp[..n].to_vec();
                if let Some(at) = at {
                    data[at] = data[at - 1] - 1;
                }
                assert_eq!(
                    state_through_runs(&Sorted::new(), &data),
                    state_through_scalar(&Sorted::new(), &data),
                    "Sorted at n={n}, descent at {at:?}"
                );
                assert_eq!(
                    state_through_runs(&SortedPaperExact::new(), &data),
                    state_through_scalar(&SortedPaperExact::new(), &data),
                    "SortedPaperExact at n={n}, descent at {at:?}"
                );
            }
        }
    }

    #[test]
    fn opted_in_operators_match_scalar_through_the_derived_kernel() {
        // `MinMax` is the library's one `accum_runs` client (DESIGN.md has
        // the table of the rejected ones): bit-identical to the scalar loop
        // at every length, from an empty and from a running state.
        fn assert_exact<T>(name: &str, data: &[T])
        where
            T: Copy + PartialOrd + std::fmt::Debug,
        {
            let op = minmax::<T>();
            for n in lengths().chain(run_seam_lengths()) {
                for prefix in [0, 3] {
                    let mut kernel = op.ident();
                    accumulate_block_scalar(&op, &mut kernel, &data[..prefix]);
                    let mut scalar = kernel;
                    assert!(op.accum_block(&mut kernel, &data[prefix..prefix + n]));
                    accumulate_block_scalar(&op, &mut scalar, &data[prefix..prefix + n]);
                    assert_eq!(
                        kernel, scalar,
                        "{name}: kernel != scalar at n={n} from {prefix}"
                    );
                }
            }
        }
        let mut rng = TestRng::new(71);
        let n = 3 * kernel::BLOCK + 16;
        let ints: Vec<i64> = (0..n).map(|_| rng.i64_in(-1000..1000)).collect();
        assert_exact("MinMax<i64>", &ints);
        let floats: Vec<f64> = (0..n).map(|_| rng.f64_in(-1e9..1e9)).collect();
        assert_exact("MinMax<f64>", &floats);
    }

    #[test]
    fn bitwise_and_logical_kernels_are_bit_identical_to_scalar() {
        let mut rng = TestRng::new(61);
        let n = 4 * LANES + 3;
        let words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        assert_dispatch_exact("band<u64>", &band::<u64>(), &words);
        assert_dispatch_exact("bor<u64>", &bor::<u64>(), &words);
        assert_dispatch_exact("bxor<u64>", &bxor::<u64>(), &words);
        let bools: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
        assert_dispatch_exact("land", &land(), &bools);
        assert_dispatch_exact("lor", &lor(), &bools);
        assert_dispatch_exact("lxor", &lxor(), &bools);
    }

    #[test]
    fn bucketed_kernels_are_bit_identical_to_scalar() {
        let mut rng = TestRng::new(62);
        let n = 4 * LANES + 3;
        let buckets: Vec<usize> = (0..n).map(|_| rng.usize_in(0..8)).collect();
        assert_dispatch_exact("Counts(8)", &Counts::new(8), &buckets);
        assert_dispatch_exact("BucketRank(8)", &BucketRank::new(8), &buckets);
        let values: Vec<f64> = (0..n).map(|_| rng.f64_in(-25.0..125.0)).collect();
        // Counting is exact whatever the dispatch, even over float inputs.
        assert_dispatch_exact(
            "Histogram(uniform)",
            &Histogram::uniform(0.0, 100.0, 8),
            &values,
        );
        assert_dispatch_exact(
            "Histogram(explicit)",
            &Histogram::new(vec![-10.0, 0.5, 40.0, 99.0]),
            &values,
        );
    }

    #[test]
    fn float_min_max_kernels_are_bit_identical_to_scalar() {
        // Comparison-based folds return one of the inputs, so for NaN-free
        // data any regrouping is value-identical — the kernels must be
        // bit-identical to the scalar loop (the NaN caveat is documented
        // in `gv_core::kernel`).
        let mut rng = TestRng::new(63);
        let n = 4 * LANES + 3;
        let values: Vec<f64> = (0..n).map(|_| rng.f64_in(-1e9..1e9)).collect();
        assert_dispatch_exact("min<f64>", &min::<f64>(), &values);
        assert_dispatch_exact("max<f64>", &max::<f64>(), &values);
    }

    #[test]
    fn float_sum_prod_kernels_match_the_pinned_regrouping_reference() {
        // Float addition regroups under the lane fold, so the kernel is
        // *not* bit-identical to the scalar loop — the contract is that it
        // is bit-identical to the portable pinned-regrouping reference
        // (same LANES, same fold order) on every run and every ISA.
        fn assert_matches_reference<Op>(name: &str, op: &Op, data: &[f64], f: fn(f64, f64) -> f64)
        where
            Op: ReduceScanOp<In = f64, State = f64, Out = f64>,
        {
            let ident = op.ident();
            for len in lengths() {
                let block = &data[..len];
                let mut state = op.ident();
                accumulate_block(op, &mut state, block);
                let expected = f(ident, kernel::fold_block_reference(ident, block, f));
                assert_eq!(
                    state.to_bits(),
                    expected.to_bits(),
                    "{name}: kernel reduce != pinned reference at n={len}"
                );
                for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                    let mut kstate = op.ident();
                    let mut kout = Vec::new();
                    rescan_block(op, &mut kstate, block, kind, &mut kout);
                    let mut rcarry = ident;
                    let mut rout = Vec::new();
                    kernel::scan_block_network_reference(&mut rcarry, block, &mut rout, f, kind);
                    assert_eq!(
                        kout.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        rout.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{name}: kernel scan != pinned reference at n={len} {kind:?}"
                    );
                    assert_eq!(kstate.to_bits(), rcarry.to_bits());
                }
            }
        }

        let mut rng = TestRng::new(64);
        let n = 4 * LANES + 3;
        let sums: Vec<f64> = (0..n).map(|_| rng.f64_in(-1e6..1e6)).collect();
        let muls: Vec<f64> = (0..n).map(|_| rng.f64_in(0.9..1.1)).collect();
        assert_matches_reference("sum<f64>", &sum::<f64>(), &sums, |x, y| x + y);
        assert_matches_reference("prod<f64>", &prod::<f64>(), &muls, |x, y| x * y);
    }

    #[test]
    fn float_results_are_deterministic_across_runs_and_thread_counts() {
        // For a fixed decomposition (`parts`), the float result must be
        // bit-identical however many worker threads execute it and however
        // many times it runs — the kernels' regrouping depends only on the
        // pinned LANES/SCAN_GROUP constants, never on scheduling.
        let mut rng = TestRng::new(65);
        let data: Vec<f64> = (0..10_000).map(|_| rng.f64_in(-1e6..1e6)).collect();
        let op = sum::<f64>();
        let parts = 7;
        let reference_reduce = par::reduce(&Pool::new(1), parts, &op, &data);
        let reference_scan = par::scan(&Pool::new(1), parts, &op, &data, ScanKind::Inclusive);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for _run in 0..3 {
                let red = par::reduce(&pool, parts, &op, &data);
                assert_eq!(
                    red.to_bits(),
                    reference_reduce.to_bits(),
                    "reduce diverged at threads={threads}"
                );
                let scan = par::scan(&pool, parts, &op, &data, ScanKind::Inclusive);
                assert!(
                    scan.iter()
                        .zip(&reference_scan)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "scan diverged at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn kernel_dispatch_is_observed_in_the_counters() {
        let (k0, s0) = kernel::dispatch_counts();
        seq::reduce(&sum::<i64>(), &[1i64; 256]);
        let (k1, _) = kernel::dispatch_counts();
        assert!(k1 > k0, "built-in reduce should dispatch to a kernel");
        struct Opaque;
        impl gv_core::monoid::Monoid for Opaque {
            type T = i64;
            fn identity(&self) -> i64 {
                0
            }
            fn combine(&self, a: &mut i64, b: &i64) {
                *a += *b;
            }
        }
        seq::reduce(&gv_core::monoid::MonoidOp(Opaque), &[1i64; 256]);
        let (_, s2) = kernel::dispatch_counts();
        assert!(
            s2 > s0,
            "user-defined op without kernels should stay scalar"
        );

        // An aggregated call is one kernel block a row accumulated and one
        // a state combined, whatever the operator. The counters are
        // process-wide and other tests tick them too: the quietest of many
        // attempts is the call's own count.
        let rows = [[1.5f64, -2.0, 0.25]; 64];
        let rows: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let op = Elementwise::for_rows(minmax::<f64>(), &rows);
        let ticks = |run: &dyn Fn()| {
            (0..1000)
                .map(|_| {
                    let (before, _) = kernel::dispatch_counts();
                    run();
                    kernel::dispatch_counts().0 - before
                })
                .min()
        };
        let accumulated = ticks(&|| {
            gv_core::agg::reduce_elementwise(&minmax::<f64>(), &rows);
        });
        assert_eq!(accumulated, Some(64), "one kernel block a row");
        let combined = ticks(&|| {
            let mut earlier = state_of(&op, &rows[..32]);
            op.combine(&mut earlier, op.ident());
        });
        assert_eq!(combined, Some(32 + 1), "32 rows, then one combine");
    }
}

/// `MeanVar` merges running moments; exact equality across different
/// associations fails in floating point, so it gets the law suite's
/// shape with tolerances instead of `assert_eq!`.
#[test]
fn meanvar_obeys_the_laws_up_to_rounding() {
    let op = MeanVar;
    let inputs = cases(50, |r: &mut TestRng| r.f64_in(-1e6..1e6));
    let pool = Pool::new(2);

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));

    for data in &inputs {
        let expected = seq::reduce(&op, data);

        // Identity unit (exact: merging a zero-count state is exact).
        let mut s = state_of(&op, data);
        op.combine(&mut s, op.ident());
        let merged = op.red_gen(s);
        assert_eq!(merged.count, expected.count);
        assert!(close(merged.mean, expected.mean));

        // Chunking invariance up to rounding, through both engines.
        for parts in [1, 3, 7] {
            let got = par::reduce(&pool, parts, &op, data);
            assert_eq!(got.count, expected.count);
            assert!(close(got.mean, expected.mean), "parts={parts}");
            assert!(close(got.variance, expected.variance), "parts={parts}");
        }
        let p = 3;
        let chunks: Vec<Vec<f64>> = chunk_ranges(data.len(), p)
            .map(|r| data[r].to_vec())
            .collect();
        let outcome =
            Runtime::new(p).run(|comm| gv_rsmpi::reduce_all(comm, &op, &chunks[comm.rank()]));
        for got in outcome.results {
            assert_eq!(got.count, expected.count);
            assert!(close(got.mean, expected.mean));
            assert!(close(got.variance, expected.variance));
        }
    }
}
