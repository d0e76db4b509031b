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

use super::TagBase;
use crate::comm::Comm;
use crate::mailbox::ShutdownError;
use crate::message::Tag;
use crate::request::Schedule;

enum RdPhase {
    /// Folded-away even rank: fold send issued, waiting for the unfold.
    AwaitUnfold,
    /// Odd rank of a folded pair: waiting for the even partner's value.
    AwaitFold,
    /// Exchange rounds: the send for the current `mask` is already out,
    /// waiting for the partner's.
    Round,
    Done,
}

/// Resumable recursive-doubling allreduce: fold to a power of two,
/// ⌈log₂ p₂⌉ pairwise exchange rounds, unfold. Each round's send goes out
/// as soon as the previous round's combine lands; the receive is the only
/// suspension point.
pub(crate) struct AllreduceRdSchedule<T, B, F> {
    comm: Comm,
    tag: Tag,
    bytes_of: B,
    combine: F,
    acc: Option<T>,
    /// Survivor id in `0..p2`, `None` for folded-away even ranks.
    survivor: Option<usize>,
    p2: usize,
    rem: usize,
    mask: usize,
    phase: RdPhase,
}

impl<T, B, F> AllreduceRdSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    pub(crate) fn new(comm: Comm, value: T, salt: Tag, bytes_of: B, combine: F) -> Self {
        let p = comm.size();
        let r = comm.rank();
        // Fold down to the largest power of two p2: the first `2·rem`
        // ranks pair up (even donates to odd).
        let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
        let rem = p - p2;
        let mut schedule = AllreduceRdSchedule {
            comm,
            tag: TagBase::AllreduceRd.tag(salt),
            bytes_of,
            combine,
            acc: Some(value),
            survivor: None,
            p2,
            rem,
            mask: 1,
            phase: RdPhase::Done,
        };
        if p == 1 {
            return schedule;
        }
        if r < 2 * rem {
            if r.is_multiple_of(2) {
                schedule.send_acc(r + 1);
                schedule.phase = RdPhase::AwaitUnfold;
            } else {
                schedule.survivor = Some(r / 2);
                schedule.phase = RdPhase::AwaitFold;
            }
        } else {
            schedule.survivor = Some(r - rem);
            schedule.start_rounds();
        }
        schedule
    }

    /// Maps a survivor id back to its world rank.
    fn world_of(&self, s: usize) -> usize {
        if s < self.rem {
            2 * s + 1
        } else {
            s + self.rem
        }
    }

    fn send_acc(&self, dst: usize) {
        let acc = self.acc.as_ref().expect("partial is live while sends remain");
        let bytes = (self.bytes_of)(acc);
        self.comm.send_with_bytes(dst, self.tag, acc.clone(), bytes);
    }

    /// Issues the send of the current round, or, when the rounds are
    /// over, transitions into the unfold.
    fn start_rounds(&mut self) {
        if self.mask < self.p2 {
            let s = self.survivor.expect("only survivors run exchange rounds");
            self.send_acc(self.world_of(s ^ self.mask));
            self.phase = RdPhase::Round;
        } else {
            self.enter_unfold();
        }
    }

    /// Odd survivors of the folded prefix return the result to their
    /// even partners; everyone else is finished.
    fn enter_unfold(&mut self) {
        let r = self.comm.rank();
        if r < 2 * self.rem && r % 2 == 1 {
            self.send_acc(r - 1);
        }
        self.phase = RdPhase::Done;
    }
}

impl<T, B, F> Schedule for AllreduceRdSchedule<T, B, F>
where
    T: Clone + Send + 'static,
    B: Fn(&T) -> usize,
    F: FnMut(T, T) -> T,
{
    type Output = T;

    fn poll(&mut self) -> Result<Option<T>, ShutdownError> {
        let _guard = self.comm.enter_collective();
        let r = self.comm.rank();
        loop {
            match self.phase {
                RdPhase::AwaitFold => {
                    let Some(earlier) = self.comm.try_recv_schedule::<T>(r - 1, self.tag)?
                    else {
                        return Ok(None);
                    };
                    let acc = self.acc.take().expect("partial present before the fold");
                    self.acc = Some((self.combine)(earlier, acc));
                    self.start_rounds();
                }
                RdPhase::Round => {
                    let s = self.survivor.expect("only survivors run exchange rounds");
                    let partner = self.world_of(s ^ self.mask);
                    let Some(theirs) = self.comm.try_recv_schedule::<T>(partner, self.tag)?
                    else {
                        return Ok(None);
                    };
                    let acc = self.acc.take().expect("partial present each round");
                    // Lower-block partial precedes the higher-block one.
                    self.acc = Some(if s & self.mask == 0 {
                        (self.combine)(acc, theirs)
                    } else {
                        (self.combine)(theirs, acc)
                    });
                    self.mask <<= 1;
                    self.start_rounds();
                }
                RdPhase::AwaitUnfold => {
                    let Some(result) = self.comm.try_recv_schedule::<T>(r + 1, self.tag)?
                    else {
                        return Ok(None);
                    };
                    self.acc = Some(result);
                    self.phase = RdPhase::Done;
                }
                RdPhase::Done => {
                    return Ok(Some(self.acc.take().expect("result ready exactly once")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::tree::whole;
    use crate::comm::Comm;
    use crate::cost::AllreduceAlgorithm::{self, RecursiveDoubling};
    use crate::request::Request;
    use crate::runtime::Runtime;

    fn sum(comm: &Comm, algo: AllreduceAlgorithm, value: u64) -> u64 {
        comm.allreduce_by((algo, 1), value, whole(), |_| 8, |a, b| a + b)
    }

    fn isum(comm: &Comm, value: u64) -> Request<u64> {
        comm.iallreduce_by((RecursiveDoubling, 1), value, whole(), |_| 8, |a, b| a + b)
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
                    (RecursiveDoubling, 1),
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
        // issued in opposite order on different ranks: tag salting must
        // keep their traffic apart.
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
