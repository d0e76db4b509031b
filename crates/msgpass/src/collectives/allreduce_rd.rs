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
//! A counting state ([`gv_core::op::ElementwiseState`]) runs
//! `allreduce_rd_lent` instead: each round's one message is a [`Piece`]
//! (`counting.rs`) — the units the sender's partial counted while they
//! are the cheaper form, else the state, lent (`message::loan`) when it
//! is at least `LEND_MIN_BYTES`, cloned below that. Two partners that
//! both lend each combine half of the slots in place from the other's
//! buffer and copy the other half once final; a rank sent units counts
//! them into its own slots; in a mixed round the lender publishes its
//! kept run untouched and counts the units once its view is released,
//! while the units sender adds both runs of the view it holds. States
//! cost what they cost by value, so a run in which every round lends or
//! clones records recursive doubling's messages, bytes and modeled clock.
//! The fold sends a piece too, and the unfold a clone of the result.

use super::counting::{add_slots, ships_units, units_bytes, Counting, Piece};
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::loan::{lend, Loan, View};
use crate::message::Key;
use crate::request::recv;

/// The smallest state, in modeled bytes, that recursive doubling lends
/// rather than clones. A `reduce_all` of `Counts` at p = 2 read the two
/// even at 4 KiB and the loan 10 % ahead at 8 KiB (EXPERIMENTS.md,
/// TXT-VIEW): below that, its signals cost what the clone saves. Partners
/// decide alike under the SPMD convention that equal calls pass
/// equal-shaped states, as the selector does.
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

/// [`allreduce_rd`] for a counting state: the same fold, rounds and
/// unfold, and the same messages, but each a [`Piece`] that its sender
/// chooses alone (module docs). A schedule of its own rather than a
/// branch in [`allreduce_rd`]: with one body for both, `cg_solve`, whose
/// 8-byte allreduces take the clone path, read about 6 % slower
/// (EXPERIMENTS.md, TXT-VIEW).
pub(crate) async fn allreduce_rd_lent<T: Clone + Send + 'static, I>(
    comm: Comm,
    mut acc: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut combine: impl FnMut(T, T) -> T,
    mut counting: Counting<'_, T, I>,
) -> Result<T, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::AllreduceRd.key(seq);
    let slots = counting.slots;
    let width = slots.slots(&mut acc).len();
    // The units this rank's partial counted, while it is a list of them.
    let mut units = counting.units.take();
    let send = |dst: usize, bytes: usize, piece: Piece<T>| comm.send_key(dst, tag, piece, bytes);
    // Folds `theirs` into `acc`, `mine_first` when this rank's partial
    // precedes theirs: units are counted (and kept, while `units` lists
    // the partial's), a state combined.
    let mut absorb =
        |mut acc: T, theirs: Piece<T>, mine_first: bool, units: &mut Option<Vec<u32>>| match theirs
        {
            Piece::Units(theirs) => {
                counting.count(&comm, &mut acc, &theirs);
                if let Some(units) = units {
                    units.extend_from_slice(&theirs);
                }
                acc
            }
            Piece::Whole(theirs) => {
                *units = None;
                if mine_first {
                    combine(acc, theirs)
                } else {
                    combine(theirs, acc)
                }
            }
            Piece::Lent(_) => unreachable!("a view is taken by the round that lends"),
        };
    let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - p2;
    let folded = r < 2 * rem;
    if folded && r.is_multiple_of(2) {
        // This rank's state is done with once sent: the result comes back.
        match units.filter(|u| ships_units(u.len(), width)) {
            Some(units) => send(r + 1, units_bytes(units.len()), Piece::Units(units)),
            None => send(r + 1, bytes_of(&acc), Piece::Whole(acc)),
        }
        return recv(&comm, r + 1, tag).await;
    }
    let s = if folded {
        let earlier = recv(&comm, r - 1, tag).await?;
        acc = absorb(acc, earlier, false, &mut units);
        r / 2
    } else {
        r - rem
    };
    let mut mask = 1;
    while mask < p2 {
        let t = s ^ mask;
        let partner = if t < rem { 2 * t + 1 } else { t + rem };
        let lower = s & mask == 0;
        let ops = (counting.combine_ops)(&acc);
        // `Ok` the state this rank kept, `Err` the loan it sent a view of.
        let mine = if units.as_ref().is_some_and(|u| ships_units(u.len(), width)) {
            // The last round's units are not needed after it.
            let piece = if mask << 1 >= p2 {
                units.take()
            } else {
                units.clone()
            };
            let piece = piece.expect("a rank that ships units holds them");
            send(partner, units_bytes(piece.len()), Piece::Units(piece));
            Ok(acc)
        } else {
            units = None;
            let bytes = bytes_of(&acc);
            if bytes >= LEND_MIN_BYTES {
                let (loan, view) = lend(
                    acc,
                    |s| slots.slots(s),
                    lower,
                    comm.parker(),
                    comm.parker_of(partner),
                );
                send(partner, bytes, Piece::Lent(view));
                Err(loan)
            } else {
                send(partner, bytes, Piece::Whole(acc.clone()));
                Ok(acc)
            }
        };
        let theirs = recv(&comm, partner, tag).await?;
        acc = match (mine, theirs) {
            (Err(loan), Piece::Lent(theirs)) => {
                comm.advance(ops);
                combine_by_view(&comm, partner, tag, loan, theirs)
            }
            (Err(mut loan), theirs) => {
                // The partner adds both runs of this rank's state: publish
                // the kept run as it is, and count theirs in once it lets go.
                loan.publish();
                comm.wait_for(partner, tag, || loan.released().then_some(()));
                absorb(loan.reclaim(), theirs, lower, &mut units)
            }
            (Ok(mut acc), Piece::Lent(theirs)) => {
                comm.advance(ops);
                units = None;
                add_view(&comm, partner, tag, slots.slots(&mut acc), theirs, lower);
                acc
            }
            (Ok(acc), theirs) => absorb(acc, theirs, lower, &mut units),
        };
        mask <<= 1;
    }
    if folded {
        comm.send_key(r - 1, tag, acc.clone(), bytes_of(&acc));
    }
    Ok(acc)
}

/// The rest of a round in which both partners lent, once the partner's
/// view has arrived: adds the partner's given run into the half of the
/// slots this rank keeps, in place, and copies the other half out of the
/// partner's buffer once the partner has published it. Returns only once
/// the partner has let go of this rank's state. Waits as a receive from
/// the partner does.
fn combine_by_view<T>(
    comm: &Comm,
    partner: usize,
    tag: Key,
    mut loan: Loan<T>,
    mut theirs: View<T>,
) -> T {
    let (mine, given) = (loan.kept(), theirs.given());
    add_slots(
        mine.expect("the kept run is unpublished"),
        given.expect("the given run is held"),
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

/// The rest of a round in which this rank sent units, or a clone, and
/// the partner lent: adds both runs of the partner's state into `mine`,
/// the given run at once and the kept run once published, then lets the
/// view go. The partner keeps the half this rank would: the upper one
/// when this rank is the `lower`. Waits as a receive from the partner
/// does.
fn add_view<T>(
    comm: &Comm,
    partner: usize,
    tag: Key,
    mine: &mut [u64],
    mut theirs: View<T>,
    lower: bool,
) {
    let (low, high) = mine.split_at_mut(mine.len() / 2);
    let (to_given, to_kept) = if lower { (low, high) } else { (high, low) };
    let given = theirs.given().expect("the given run is held");
    debug_assert_eq!(given.len(), to_given.len(), "partners of one width");
    add_slots(to_given, given);
    theirs.give_back();
    let kept = comm.wait_for(partner, tag, || theirs.kept());
    add_slots(to_kept, kept);
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
