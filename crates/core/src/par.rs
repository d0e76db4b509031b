//! Shared-memory engine: Listings 2 and 3 over virtual processors.
//!
//! Each virtual processor `q` owns a contiguous chunk of the input. The
//! reduce engine runs the accumulate phase in parallel and then combines
//! the per-chunk states along an in-order binary tree (log depth, valid for
//! any associative operator — commutative or not, adjacent-only combining
//! preserves set order). The scan engine is Listing 3 verbatim: parallel
//! accumulate, an exclusive scan over the `p` chunk states, then a parallel
//! rescan that interleaves `scan_gen` with `accum`.
//!
//! Both parallel phases are one `forall processors q` loop: the `p`
//! virtual processors are cut in order into at most `pool.threads()`
//! shares, the calling thread runs the first and one scoped thread each of
//! the others, so no call starts more threads than its [`Pool`] counts.

use std::panic::resume_unwind;

use gv_executor::chunks::chunk_ranges;
use gv_executor::Pool;

use crate::mem;
use crate::op::{accumulate_block, rescan_block, ReduceScanOp, ScanKind};

/// Combines `states` (already in set order) pairwise along an in-order
/// binary tree until one state remains. Returns the identity for an empty
/// input.
///
/// Adjacent pairing means every `combine(earlier, later)` call respects set
/// order, so this is correct for non-commutative associative operators; the
/// tree shape mirrors what the message-passing layer does with log-depth
/// communication.
///
/// Runs in place over a single buffer by gap doubling: round `g` combines
/// slot `i` with slot `i + g` for `i ≡ 0 (mod 2g)`, so after the round slot
/// `i` holds the fold of original states `[i, min(i + 2g, n))`. That is
/// *exactly* the combine tree of per-level adjacent pairing (the order of
/// every `combine` call is identical — pinned by a unit test), without
/// allocating a fresh vector per level.
pub fn tree_combine<Op: ReduceScanOp + ?Sized>(op: &Op, states: Vec<Op::State>) -> Op::State {
    if states.is_empty() {
        return op.ident();
    }
    let mut slots: Vec<Option<Op::State>> = states.into_iter().map(Some).collect();
    let n = slots.len();
    let mut gap = 1;
    while gap < n {
        let mut i = 0;
        while i + gap < n {
            let right = slots[i + gap].take().expect("right slot filled");
            let left = slots[i].as_mut().expect("left slot filled");
            op.combine(left, right);
            i += 2 * gap;
        }
        gap *= 2;
    }
    slots[0].take().expect("root slot filled")
}

/// Runs `visit` on each of `parts`, in order, over at most
/// `pool.threads()` threads, and returns the results in the same order.
/// `parts` is cut into contiguous shares ([`chunk_ranges`]); the calling
/// thread runs the first and a scoped thread each of the others. A panic
/// in any share resumes on the caller once every share has finished.
fn forall<I, R>(pool: &Pool, parts: Vec<I>, visit: impl Fn(I) -> R + Sync) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let threads = pool.threads().min(parts.len());
    let mut parts = parts.into_iter();
    let mut shares = chunk_ranges(parts.len(), threads)
        .map(move |share| parts.by_ref().take(share.len()).collect::<Vec<I>>());
    let visit = &visit;
    pool.scope(|scope| {
        let first = shares.next().expect("at least one share");
        let others: Vec<_> = shares
            .map(|share| scope.spawn(move || share.into_iter().map(visit).collect::<Vec<R>>()))
            .collect();
        let mut results: Vec<R> = first.into_iter().map(visit).collect();
        for other in others {
            results.extend(other.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        results
    })
}

/// Runs the accumulate phase of Listing 2 in parallel: one state per chunk.
fn accumulate_phase<Op>(pool: &Pool, parts: usize, op: &Op, input: &[Op::In]) -> Vec<Op::State>
where
    Op: ReduceScanOp + Sync + ?Sized,
    Op::In: Sync,
    Op::State: Send,
{
    let chunks = chunk_ranges(input.len(), parts)
        .map(|range| &input[range])
        .collect();
    forall(pool, chunks, |chunk| {
        let mut state = op.ident();
        accumulate_block(op, &mut state, chunk);
        state
    })
}

/// Global-view parallel reduction (Listing 2) over `parts` virtual
/// processors scheduled on `pool`.
///
/// The result is identical to [`crate::seq::reduce`] for any associative
/// operator and any `parts ≥ 1`.
pub fn reduce<Op>(pool: &Pool, parts: usize, op: &Op, input: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp + Sync + ?Sized,
    Op::In: Sync,
    Op::State: Send,
{
    let states = accumulate_phase(pool, parts, op, input);
    op.red_gen(tree_combine(op, states))
}

/// Global-view parallel scan (Listing 3) over `parts` virtual processors
/// scheduled on `pool`.
///
/// `State: Clone` is needed because the exclusive scan over chunk states
/// keeps a running prefix while also handing each chunk its starting state
/// — exactly the `s_q` values of Listing 3 line 9.
pub fn scan<Op>(
    pool: &Pool,
    parts: usize,
    op: &Op,
    input: &[Op::In],
    kind: ScanKind,
) -> Vec<Op::Out>
where
    Op: ReduceScanOp + Sync + ?Sized,
    Op::In: Sync,
    Op::State: Clone + Send,
    Op::Out: Send,
{
    // Phase 1 (Listing 3 lines 1–8): per-chunk accumulate with hooks.
    let states = accumulate_phase(pool, parts, op, input);

    // Line 9: exclusive scan of the chunk states, in set order. `p` is
    // small, so this runs sequentially here; the message-passing engine
    // does the same step with a log-depth communication schedule.
    let mut chunk_prefixes = Vec::with_capacity(parts);
    let mut running = op.ident();
    for s in states {
        chunk_prefixes.push(running.clone());
        op.combine(&mut running, s);
    }

    // Phase 2 (lines 10–13): parallel rescan, each chunk starting from its
    // exclusive prefix state. Exclusive order is generate-then-accumulate;
    // inclusive interchanges the two lines, as the paper prescribes. Chunk
    // 0 rescans straight into the output that is returned; only the later
    // chunks' outputs are appended to it.
    let windows = chunk_ranges(input.len(), parts)
        .zip(chunk_prefixes)
        .enumerate()
        .map(|(q, (range, prefix))| (q, &input[range], prefix))
        .collect();
    let pieces = forall(pool, windows, |(q, chunk, mut state)| {
        let mut out = if q == 0 {
            mem::output_vec(input.len())
        } else {
            Vec::with_capacity(chunk.len())
        };
        rescan_block(op, &mut state, chunk, kind, &mut out);
        out
    });
    let mut pieces = pieces.into_iter();
    let mut out = pieces.next().expect("one output per chunk");
    for piece in pieces {
        out.extend(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Monoid, MonoidOp};
    use crate::seq;

    struct Add;
    impl Monoid for Add {
        type T = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn combine(&self, a: &mut i64, b: &i64) {
            *a += *b;
        }
    }

    struct Concat;
    impl Monoid for Concat {
        type T = String;
        const COMMUTATIVE: bool = false;
        fn identity(&self) -> String {
            String::new()
        }
        fn combine(&self, a: &mut String, b: &String) {
            a.push_str(b);
        }
    }

    #[test]
    fn tree_combine_of_nothing_is_identity() {
        let op = MonoidOp(Add);
        assert_eq!(tree_combine(&op, vec![]), 0);
    }

    #[test]
    fn tree_combine_preserves_order() {
        let op = MonoidOp(Concat);
        for n in 1..=9 {
            let states: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let expected: String = states.concat();
            assert_eq!(tree_combine(&op, states), expected, "n={n}");
        }
    }

    /// Fully parenthesizing combine pins not just the *order* but the
    /// exact grouping of the combine tree. This shape is a semantic
    /// contract for float operators (regrouping changes rounding): the
    /// in-place gap-doubling walk must keep producing the adjacent-pairing
    /// tree of the original per-level implementation.
    struct Paren;
    impl Monoid for Paren {
        type T = String;
        const COMMUTATIVE: bool = false;
        fn identity(&self) -> String {
            String::new()
        }
        fn combine(&self, a: &mut String, b: &String) {
            *a = format!("({a}+{b})");
        }
    }

    #[test]
    fn tree_combine_grouping_is_pinned() {
        let op = MonoidOp(Paren);
        let tree = |n: usize| {
            let states: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            tree_combine(&op, states)
        };
        assert_eq!(tree(1), "0");
        assert_eq!(tree(2), "(0+1)");
        assert_eq!(tree(3), "((0+1)+2)");
        assert_eq!(tree(4), "((0+1)+(2+3))");
        assert_eq!(tree(5), "(((0+1)+(2+3))+4)");
        assert_eq!(tree(6), "(((0+1)+(2+3))+(4+5))");
        assert_eq!(tree(7), "(((0+1)+(2+3))+((4+5)+6))");
        assert_eq!(tree(8), "(((0+1)+(2+3))+((4+5)+(6+7)))");
        assert_eq!(tree(9), "((((0+1)+(2+3))+((4+5)+(6+7)))+8)");
    }

    #[test]
    fn parallel_reduce_matches_sequential_for_all_chunkings() {
        let pool = Pool::new(3);
        let op = MonoidOp(Add);
        let input: Vec<i64> = (0..257).map(|i| (i * 7) % 31 - 15).collect();
        let expected = seq::reduce(&op, &input);
        for parts in [1, 2, 3, 5, 8, 64, 300] {
            assert_eq!(reduce(&pool, parts, &op, &input), expected, "parts={parts}");
        }
    }

    #[test]
    fn parallel_noncommutative_reduce_matches_sequential() {
        let pool = Pool::new(4);
        let op = MonoidOp(Concat);
        let input: Vec<String> = (0..41).map(|i| format!("<{i}>")).collect();
        let expected = seq::reduce(&op, &input);
        for parts in [1, 2, 3, 7, 41, 100] {
            assert_eq!(reduce(&pool, parts, &op, &input), expected, "parts={parts}");
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_for_all_chunkings() {
        let pool = Pool::new(3);
        let op = MonoidOp(Add);
        let input: Vec<i64> = (0..130).map(|i| (i * 13) % 17 - 8).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let expected = seq::scan(&op, &input, kind);
            for parts in [1, 2, 4, 9, 130, 200] {
                assert_eq!(
                    scan(&pool, parts, &op, &input, kind),
                    expected,
                    "parts={parts} kind={kind:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_noncommutative_scan_matches_sequential() {
        let pool = Pool::new(2);
        let op = MonoidOp(Concat);
        let input: Vec<String> = "abcdefghij".chars().map(String::from).collect();
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let expected = seq::scan(&op, &input, kind);
            for parts in [1, 3, 10, 12] {
                assert_eq!(scan(&pool, parts, &op, &input, kind), expected);
            }
        }
    }

    #[test]
    fn empty_input_parallel() {
        let pool = Pool::new(2);
        let op = MonoidOp(Add);
        assert_eq!(reduce(&pool, 4, &op, &[]), 0);
        assert!(scan(&pool, 4, &op, &[], ScanKind::Inclusive).is_empty());
    }
}
