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
//! The rounds are one body, generic over how a state crosses
//! (`Exchange`, `exchange.rs`): by value each round sends a clone and
//! combines what comes back; a counting state's round sends its units, a
//! loan or a clone (`counting.rs`). The fold sends the partial for good,
//! and the unfold a clone of the result, as a state either way.

use super::exchange::Exchange;
use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::request::recv;

/// Recursive-doubling allreduce: fold to a power of two, ⌈log₂ p₂⌉
/// pairwise exchange rounds, unfold. Each round's send goes out as soon
/// as the previous round's combine lands.
pub(crate) async fn allreduce_rd<T: Clone + Send + 'static, X: Exchange<T>>(
    comm: Comm,
    mut acc: T,
    seq: u64,
    bytes_of: impl Fn(&T) -> usize,
    mut x: X,
) -> Result<T, ShutdownError> {
    let p = comm.size();
    let r = comm.rank();
    let tag = TagBase::AllreduceRd.key(seq);
    x.begin(&mut acc);
    // Fold down to the largest power of two p2: the first `2·rem` ranks
    // pair up (even donates to odd, and gets the result back at the end).
    let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
    let rem = p - p2;
    let folded = r < 2 * rem;
    if folded && r.is_multiple_of(2) {
        let bytes = bytes_of(&acc);
        x.give((&comm, r + 1, tag), acc, bytes);
        return recv(&comm, r + 1, tag).await;
    }
    // This rank's survivor id in `0..p2`.
    let s = if folded {
        let earlier = recv(&comm, r - 1, tag).await?;
        acc = x.settle((&comm, r - 1, tag), X::hold(acc), earlier, false);
        r / 2
    } else {
        r - rem
    };
    let mut mask = 1;
    while mask < p2 {
        // The partner survivor's world rank.
        let t = s ^ mask;
        let partner = if t < rem { 2 * t + 1 } else { t + rem };
        // Lower-block partial precedes the higher-block one.
        let lower = s & mask == 0;
        let bytes = bytes_of(&acc);
        let held = x.offer((&comm, partner, tag), acc, bytes, lower, mask << 1 >= p2);
        let theirs = recv(&comm, partner, tag).await?;
        acc = x.settle((&comm, partner, tag), held, theirs, lower);
        mask <<= 1;
    }
    if folded {
        comm.send_key(r - 1, tag, acc.clone(), bytes_of(&acc));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use crate::comm::Comm;
    use crate::cost::AllreduceAlgorithm::{self, RecursiveDoubling};
    use crate::request::Request;
    use crate::runtime::Runtime;

    fn sum(comm: &Comm, algo: AllreduceAlgorithm, value: u64) -> u64 {
        comm.allreduce_by(algo, value, |_| 8, |a, b| a + b)
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
