//! Recursive-doubling allreduce — the latency-optimal alternative to
//! reduce-then-broadcast.
//!
//! Reduce+bcast needs ~2·⌈log₂ p⌉ sequential message hops; recursive
//! doubling needs ⌈log₂ p⌉ exchange rounds (plus a fold/unfold round when
//! `p` is not a power of two). Both can be forced through
//! [`Comm::allreduce_by`], so the harnesses can show the cost model
//! distinguishing real algorithmic choices.
//!
//! Non-commutative safety: after the fold, every surviving rank covers a
//! contiguous, 2^k-aligned block of ranks at round `k`, and its partner
//! covers the adjacent block — so ordering the combine by block position
//! (`lower rank first`) preserves set order for any associative operator.
//!
//! A state whose slots combine slot by slot ([`ElementwiseState`]) and
//! that is at least `LEND_MIN_BYTES` runs `allreduce_rd_lent`
//! instead: each pairwise round lends the state (`message::loan`) rather
//! than sending a clone, and each partner combines half of the slots in
//! place from the other's buffer and copies the other half once final.
//! The round sends the same one message of the same modeled bytes and
//! charges the same combine, so messages, bytes and the modeled clock
//! are recursive doubling's; the fold and unfold sends still clone.

use gv_core::op::ElementwiseState;

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::loan::{lend, Loan, View};
use crate::message::Key;
use crate::request::recv;

/// What a pairwise round needs to exchange a state by view: its slots,
/// and the modeled combine operations a combine of one such state is
/// charged (the charge the combine closure makes on the clone path).
pub(crate) type Lending<'a, T> = (&'a dyn ElementwiseState<T>, &'a dyn Fn(&T) -> u64);

/// The smallest state, in modeled bytes, that recursive doubling lends
/// rather than clones. A `reduce_all` of `Counts` at p = 2 read the two
/// even at 4 KiB and the loan 10 % ahead at 8 KiB (EXPERIMENTS.md,
/// TXT-VIEW): below that, its signals cost what the clone saves. Every
/// rank must decide alike, so this reads the rank's own state under the
/// SPMD convention that equal calls pass equal-shaped states, as the
/// selector does.
pub(crate) const LEND_MIN_BYTES: usize = 8 << 10;

/// Recursive-doubling allreduce: fold to a power of two, ⌈log₂ p₂⌉
/// pairwise exchange rounds, unfold. Each round's send goes out as soon
/// as the previous round's combine lands.
pub(crate) async fn allreduce_rd<T: Clone + Send + 'static>(
    comm: Comm,
    mut acc: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
) -> Result<T, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::AllreduceRd.key(seq);
    let send = |dst: usize, acc: &T| {
        let bytes = bytes_of(acc);
        comm.send_key(dst, tag, acc.clone(), bytes);
    };
    // Fold down to the largest power of two p2: the first `2·rem` ranks
    // pair up (even donates to odd, and gets the result back at the end).
    let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - p2;
    let folded = r < 2 * rem;
    if folded && r.is_multiple_of(2) {
        send(r + 1, &acc);
        return recv(&comm, r + 1, tag).await;
    }
    // This rank's survivor id in `0..p2`.
    let s = if folded {
        let earlier = recv(&comm, r - 1, tag).await?;
        acc = combine(earlier, acc);
        r / 2
    } else {
        r - rem
    };
    let mut mask = 1;
    while mask < p2 {
        // The partner survivor's world rank.
        let t = s ^ mask;
        let partner = if t < rem { 2 * t + 1 } else { t + rem };
        send(partner, &acc);
        let theirs = recv(&comm, partner, tag).await?;
        // Lower-block partial precedes the higher-block one.
        acc = if s & mask == 0 {
            combine(acc, theirs)
        } else {
            combine(theirs, acc)
        };
        mask <<= 1;
    }
    if folded {
        send(r - 1, &acc);
    }
    Ok(acc)
}

/// [`allreduce_rd`] for a state whose slots combine slot by slot: the
/// same fold, rounds and unfold, messages, bytes, combine charges and
/// modeled clock, but each pairwise round lends the state to the partner
/// instead of sending it a clone ([`combine_by_view`]). A schedule of its
/// own rather than a branch in [`allreduce_rd`]: with one body for both,
/// `cg_solve`, whose 8-byte allreduces take the clone path, read about
/// 6 % slower (EXPERIMENTS.md, TXT-VIEW).
pub(crate) async fn allreduce_rd_lent<T: Clone + Send + 'static>(
    comm: Comm,
    mut acc: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
    (slots, combine_ops): Lending<'_, T>,
) -> Result<T, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::AllreduceRd.key(seq);
    let send = |dst: usize, acc: &T| {
        let bytes = bytes_of(acc);
        comm.send_key(dst, tag, acc.clone(), bytes);
    };
    let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - p2;
    let folded = r < 2 * rem;
    if folded && r.is_multiple_of(2) {
        send(r + 1, &acc);
        return recv(&comm, r + 1, tag).await;
    }
    let s = if folded {
        let earlier = recv(&comm, r - 1, tag).await?;
        acc = combine(earlier, acc);
        r / 2
    } else {
        r - rem
    };
    let mut mask = 1;
    while mask < p2 {
        let t = s ^ mask;
        let partner = if t < rem { 2 * t + 1 } else { t + rem };
        let lower = s & mask == 0;
        // The round's one message carries a view, not a clone.
        let (bytes, ops) = (bytes_of(&acc), combine_ops(&acc));
        let (loan, view) = lend(acc, slots, lower, comm.parker(), comm.parker_of(partner));
        comm.send_key(partner, tag, view, bytes);
        let theirs = recv(&comm, partner, tag).await?;
        comm.advance(ops);
        acc = combine_by_view(&comm, partner, tag, loan, theirs, slots, lower);
        mask <<= 1;
    }
    if folded {
        send(r - 1, &acc);
    }
    Ok(acc)
}

/// The rest of a pairwise round by view, once the partner's view has
/// arrived: combines the half of the slots this rank keeps (the lower
/// half on the `lower` side) in place from the partner's buffer, lower ⊕
/// higher, and copies the other half out of it once the partner has
/// published it. Returns only once the partner has let go of this rank's
/// state. Waits as a receive from the partner does.
fn combine_by_view<T>(
    comm: &Comm,
    partner: usize,
    tag: Key,
    mut loan: Loan<T>,
    mut theirs: View<T>,
    slots: &dyn ElementwiseState<T>,
    lower: bool,
) -> T {
    let (mine, given) = (loan.kept(), theirs.given());
    slots.combine_slots(
        mine.expect("the kept run is unpublished"),
        given.expect("the given run is held"),
        lower,
    );
    theirs.give_back();
    loan.publish();
    let their_run = comm.wait_for(partner, tag, || theirs.kept());
    comm.wait_for(partner, tag, || loan.given_back().then_some(()));
    let mine = loan.given().expect("the given run is back");
    mine.copy_from_slice(their_run);
    drop(theirs);
    comm.wait_for(partner, tag, || loan.released().then_some(()));
    loan.reclaim()
}

#[cfg(test)]
mod tests {
    use crate::collectives::tree::whole;
    use crate::comm::Comm;
    use crate::cost::AllreduceAlgorithm::{self, RecursiveDoubling};
    use crate::request::Request;
    use crate::runtime::Runtime;

    fn sum(comm: &Comm, algo: AllreduceAlgorithm, value: u64) -> u64 {
        comm.allreduce_by(algo, value, whole(), |_| 8, |a, b| a + b)
    }

    fn isum(comm: &Comm, value: u64) -> Request<u64> {
        comm.iallreduce(value, true, |_| 8, |a, b| a + b)
    }

    #[test]
    fn matches_reference_allreduce_for_all_sizes() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17] {
            let outcome = Runtime::new(p).run(|comm| {
                let rd = sum(comm, RecursiveDoubling, comm.rank() as u64 + 1);
                let reference = sum(
                    comm,
                    AllreduceAlgorithm::ReduceBroadcast,
                    comm.rank() as u64 + 1,
                );
                (rd, reference)
            });
            for (rank, (rd, reference)) in outcome.results.into_iter().enumerate() {
                assert_eq!(rd, reference, "p={p} rank={rank}");
                assert_eq!(rd, (p * (p + 1) / 2) as u64);
            }
        }
    }

    #[test]
    fn preserves_order_for_noncommutative_operators() {
        for p in [2usize, 3, 5, 8, 11] {
            let outcome = Runtime::new(p).run(|comm| {
                comm.allreduce_by(
                    RecursiveDoubling,
                    format!("<{}>", comm.rank()),
                    whole(),
                    |s: &String| s.len(),
                    |a, b| a + &b,
                )
            });
            let expected: String = (0..p).map(|r| format!("<{r}>")).collect();
            assert_eq!(outcome.results, vec![expected; p], "p={p}");
        }
    }

    #[test]
    fn fewer_critical_path_hops_than_reduce_plus_bcast() {
        // At a power-of-two rank count with idle ranks, recursive doubling
        // finishes in log2(p) rounds vs ~2·log2(p) for reduce+bcast.
        let time = |algo: AllreduceAlgorithm| {
            Runtime::new(16)
                .run(move |comm| {
                    sum(comm, algo, 1);
                })
                .modeled_seconds
        };
        let t_rd = time(RecursiveDoubling);
        let t_rb = time(AllreduceAlgorithm::ReduceBroadcast);
        assert!(t_rd < t_rb, "rd={t_rd} reduce+bcast={t_rb}");
    }

    #[test]
    fn concurrent_requests_on_one_comm_do_not_cross_match() {
        // Two in-flight recursive-doubling allreduces whose waits are
        // issued in opposite order on different ranks: the call sequence in
        // their keys must keep their traffic apart.
        for p in [2usize, 3, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                let a = isum(comm, comm.rank() as u64);
                let b = isum(comm, comm.rank() as u64 * 100);
                let (mut a, mut b) = (a, b);
                if comm.rank() % 2 == 0 {
                    (a.wait().unwrap(), b.wait().unwrap())
                } else {
                    let vb = b.wait().unwrap();
                    let va = a.wait().unwrap();
                    (va, vb)
                }
            });
            let sum: u64 = (0..p as u64).sum();
            assert_eq!(outcome.results, vec![(sum, sum * 100); p], "p={p}");
        }
    }
}
