//! Binomial gather and allgather.

use super::launch::Blocking;
use super::tree::{vec_bytes, whole, TreeBcast};
use super::TAG_GATHER;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Gathers one value per rank to `root`, which receives them in rank
    /// order; other ranks receive `None`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.counters().record_call(CallKind::Gather);
        let _guard = self.enter_collective();
        self.gather_impl(root, value)
    }

    /// Gathers one value per rank and delivers the full rank-ordered
    /// vector to every rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        // One collective, one call record: the gather runs inside the
        // launch (under the collective guard), the broadcast of its
        // result is the schedule the launch then drives.
        self.launch::<Blocking, _>(CallKind::Allgather, |comm, salt| {
            let gathered = comm.gather_impl(0, value);
            let (split, unsplit) = whole();
            TreeBcast::new(comm, 0, gathered, 1, split, salt, vec_bytes, unsplit)
        })
    }

    /// Binomial gather without call accounting. The tree runs on
    /// root-relative ranks, so each subtree covers a contiguous relative
    /// range and segments concatenate in order.
    pub(crate) fn gather_impl<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        let p = self.size();
        let r = self.rank();
        assert!(root < p, "gather root {root} out of range");
        let vrank = (r + p - root) % p;

        let mut segment = vec![value];
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                // Hand the accumulated contiguous segment to the parent.
                let parent = ((vrank - mask) + root) % p;
                self.send_vec(parent, TAG_GATHER, segment);
                return None;
            }
            if vrank + mask < p {
                let child = ((vrank + mask) + root) % p;
                let sub: Vec<T> = self.recv(child, TAG_GATHER);
                segment.extend(sub);
            }
            mask <<= 1;
        }

        // Only the root reaches this point. Rotate from relative order to
        // world rank order.
        debug_assert_eq!(vrank, 0);
        debug_assert_eq!(segment.len(), p);
        let mut out: Vec<Option<T>> = Vec::with_capacity(p);
        out.resize_with(p, || None);
        for (j, v) in segment.into_iter().enumerate() {
            out[(root + j) % p] = Some(v);
        }
        Some(
            out.into_iter()
                .map(|slot| slot.expect("gather produced a hole"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn gather_collects_in_rank_order() {
        for p in [1usize, 2, 3, 7, 8] {
            for root in [0, p / 2, p - 1] {
                let outcome = Runtime::new(p).run(move |comm| {
                    comm.gather(root, (comm.rank() * 10) as u64)
                });
                for (rank, res) in outcome.results.into_iter().enumerate() {
                    if rank == root {
                        let expected: Vec<u64> = (0..p).map(|r| (r * 10) as u64).collect();
                        assert_eq!(res, Some(expected), "p={p} root={root}");
                    } else {
                        assert_eq!(res, None);
                    }
                }
            }
        }
    }

    #[test]
    fn allgather_delivers_everywhere() {
        let outcome = Runtime::new(6).run(|comm| comm.allgather(comm.rank() as i32 - 3));
        let expected: Vec<i32> = (0..6).map(|r| r - 3).collect();
        for res in outcome.results {
            assert_eq!(res, expected);
        }
    }

    #[test]
    fn allgather_counts_one_collective_call_per_rank() {
        let outcome = Runtime::new(4).run(|comm| {
            comm.allgather(comm.rank());
        });
        use crate::stats::CallKind;
        assert_eq!(outcome.stats.calls(CallKind::Allgather), 4);
        assert_eq!(outcome.stats.calls(CallKind::Gather), 0, "internal gather not double-counted");
        assert_eq!(outcome.stats.calls(CallKind::Bcast), 0);
    }
}
