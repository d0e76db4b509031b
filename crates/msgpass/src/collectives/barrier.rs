//! Dissemination barrier.

use super::TAG_BARRIER;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Blocks until every rank of the communicator has entered the
    /// barrier. ⌈log₂ p⌉ rounds; in round `k` rank `r` signals
    /// `(r + 2^k) mod p` and waits for `(r − 2^k) mod p`.
    pub fn barrier(&self) {
        self.counters().record_call(CallKind::Barrier);
        let _guard = self.enter_collective();
        let p = self.size();
        let r = self.rank();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (r + dist) % p;
            let from = (r + p - dist) % p;
            self.send(to, TAG_BARRIER + round, ());
            let () = self.recv(from, TAG_BARRIER + round);
            dist <<= 1;
            round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

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
