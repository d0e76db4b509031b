//! Personalized all-to-all exchange (MPI_Alltoallv).

use super::TagBase;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Sends `outgoing[d]` to rank `d` and returns the vector received
    /// from each rank (index = source rank). `outgoing.len()` must equal
    /// the communicator size; the slot addressed to this rank is moved
    /// straight to the result.
    ///
    /// The exchange is rotated (rank `r` sends first to `r+1`, then `r+2`,
    /// …) so no single destination is hammered by all senders at once.
    pub fn alltoallv<T: Send + 'static>(&self, mut outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        let r = self.rank();
        assert_eq!(
            outgoing.len(),
            p,
            "alltoallv needs exactly one outgoing vector per rank"
        );
        self.counters().record_call(CallKind::Alltoallv);
        let _guard = self.enter_collective();
        let tag = TagBase::Alltoall.tag(0);
        let mut incoming: Vec<Vec<T>> = Vec::with_capacity(p);
        incoming.resize_with(p, Vec::new);
        incoming[r] = std::mem::take(&mut outgoing[r]);
        for offset in 1..p {
            let dst = (r + offset) % p;
            self.send_vec(dst, tag, std::mem::take(&mut outgoing[dst]));
        }
        for offset in 1..p {
            let src = (r + p - offset) % p;
            incoming[src] = self.recv(src, tag);
        }
        incoming
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn alltoallv_routes_every_slot() {
        for p in [1usize, 2, 3, 6] {
            let outcome = Runtime::new(p).run(move |comm| {
                let r = comm.rank();
                let outgoing: Vec<Vec<(usize, usize)>> =
                    (0..p).map(|d| vec![(r, d); d + 1]).collect();
                comm.alltoallv(outgoing)
            });
            for (dst, incoming) in outcome.results.into_iter().enumerate() {
                for (src, slot) in incoming.into_iter().enumerate() {
                    assert_eq!(slot, vec![(src, dst); dst + 1], "p={p}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_message_count_is_p_times_p_minus_one() {
        let outcome = Runtime::new(5).run(|comm| {
            let outgoing: Vec<Vec<u8>> = (0..5).map(|d| vec![d as u8]).collect();
            comm.alltoallv(outgoing);
        });
        assert_eq!(outcome.stats.messages, 5 * 4);
    }
}
