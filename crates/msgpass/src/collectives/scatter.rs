//! Binomial scatter (root distributes one value per rank).

use super::TAG_SCATTER;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Scatters `values[r]` to each rank `r`. The root passes
    /// `Some(values)` (length = communicator size, world-rank indexed);
    /// everyone else passes `None`. Each rank returns its own value.
    ///
    /// Binomial tree over root-relative ranks: each internal node forwards
    /// the contiguous relative sub-range its subtree owns, halving per
    /// level — O(log p) depth, each value travels once per tree level.
    pub fn scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> T {
        self.counters().record_call(CallKind::Scatter);
        let _guard = self.enter_collective();
        let p = self.size();
        let r = self.rank();
        assert!(root < p, "scatter root {root} out of range");
        let vrank = (r + p - root) % p;

        // Rotate the root's buffer into relative order so subtree ranges
        // are contiguous.
        let mut segment: Option<Vec<T>> = if vrank == 0 {
            let values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), p, "scatter needs one value per rank");
            let mut rotated: Vec<Option<T>> = values.into_iter().map(Some).collect();
            let mut rel: Vec<T> = Vec::with_capacity(p);
            for j in 0..p {
                rel.push(rotated[(root + j) % p].take().expect("each slot used once"));
            }
            Some(rel)
        } else {
            None
        };

        // Phase 1: receive my subtree's segment from the parent.
        let mut mask = 1usize;
        if vrank != 0 {
            while mask < p {
                if vrank & mask != 0 {
                    let parent = ((vrank - mask) + root) % p;
                    segment = Some(self.recv(parent, TAG_SCATTER));
                    break;
                }
                mask <<= 1;
            }
        } else {
            while mask < p {
                mask <<= 1;
            }
        }
        let mut segment = segment.expect("segment set after phase 1");

        // Phase 2: forward the tail halves to children. The subtree of
        // `vrank` covers relative ranks [vrank, vrank + subtree_len); the
        // child at vrank + mask gets [vrank + mask, …).
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                let child = ((vrank + mask) + root) % p;
                // Child's slice starts `mask` into my segment.
                let tail: Vec<T> = if segment.len() > mask {
                    segment.split_off(mask)
                } else {
                    Vec::new()
                };
                self.send_vec(child, TAG_SCATTER, tail);
            }
            mask >>= 1;
        }
        debug_assert_eq!(segment.len(), 1);
        segment.pop().expect("own value remains")
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn scatter_delivers_each_rank_its_slot() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, p - 1, p / 2] {
                let outcome = Runtime::new(p).run(move |comm| {
                    let values = (comm.rank() == root)
                        .then(|| (0..p).map(|r| r * 100 + 7).collect::<Vec<_>>());
                    comm.scatter(root, values)
                });
                let expected: Vec<usize> = (0..p).map(|r| r * 100 + 7).collect();
                assert_eq!(outcome.results, expected, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips() {
        let outcome = Runtime::new(6).run(|comm| {
            let values = (comm.rank() == 2).then(|| vec![10i64, 11, 12, 13, 14, 15]);
            let mine = comm.scatter(2, values);
            comm.gather(2, mine)
        });
        assert_eq!(
            outcome.results[2],
            Some(vec![10i64, 11, 12, 13, 14, 15])
        );
    }
}
