//! Dissemination barrier.

use super::TagBase;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Blocks until every rank of the communicator has entered the
    /// barrier. ⌈log₂ p⌉ rounds; in round `k` rank `r` signals
    /// `(r + 2^k) mod p` and waits for `(r − 2^k) mod p`.
    ///
    /// Every round sends on one tag: a rank's round-`k` source differs
    /// per round (`2^k < p`), and `(comm, src, tag)` is non-overtaking, so
    /// rounds cannot cross.
    pub fn barrier(&self) {
        self.counters().record_call(CallKind::Barrier);
        let _guard = self.enter_collective();
        let tag = TagBase::Barrier.tag(0);
        let p = self.size();
        let r = self.rank();
        let mut dist = 1usize;
        while dist < p {
            self.send((r + dist) % p, tag, ());
            let () = self.recv((r + p - dist) % p, tag);
            dist <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::runtime::{RunError, Runtime};
    use crate::watchdog::RankState;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1usize, 2, 3, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
                comm.rank()
            });
            assert_eq!(outcome.results, (0..p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_stall_in_any_round_is_reported_as_a_barrier() {
        // Rank 16 never enters, so at p = 17 the other ranks stall in
        // every one of the five rounds (rank 0 waits on 16 in round 0,
        // rank 1 in round 1, rank 3 in round 2, …): each must be named as
        // waiting in the barrier, not in some unnamed collective.
        let err = Runtime::new(17)
            .watchdog(Duration::from_millis(150))
            .try_run(|comm| {
                if comm.rank() == 16 {
                    let _: u8 = comm.recv(0, 5);
                } else {
                    comm.barrier();
                }
            })
            .unwrap_err();
        let RunError::Stalled(report) = err else {
            panic!("expected Stalled, got {err:?}");
        };
        for stall in &report.ranks[..16] {
            assert_eq!(stall.state, RankState::Blocked, "rank {}", stall.rank);
            let on = stall.blocked_on.expect("a blocked rank records its wait");
            assert_eq!(on.op, "barrier", "rank {}: {on}", stall.rank);
        }
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        // A rank that did lots of local work before the barrier must drag
        // every other rank's clock forward past its own pre-barrier time.
        let outcome = Runtime::new(4).run(|comm| {
            if comm.rank() == 2 {
                comm.advance(1_000_000); // 1 ms at default gamma
            }
            comm.barrier();
            comm.now()
        });
        let slowest_start = 1_000_000_f64 * 1.0e-9;
        for (rank, t) in outcome.results.iter().enumerate() {
            assert!(
                *t >= slowest_start,
                "rank {rank} exited the barrier at {t}, before the slowest entrant"
            );
        }
    }
}
