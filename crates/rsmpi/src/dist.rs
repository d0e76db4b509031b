//! `DistVector` — the *conceptual entire array* of the global-view model.
//!
//! The paper's Chapel call sites operate on whole distributed arrays:
//!
//! ```text
//! minimums = mink(integer, 10) reduce A;
//! var (val, loc) = mini(integer) reduce [i in 1..n] (A(i), i);
//! ```
//!
//! `DistVector` is the Rust rendering of `A`: a block-distributed vector
//! whose handle lives on every rank of a communicator and whose `reduce`
//! and `scan` methods hide both phases of Figure 1 — the accumulate phase
//! over each rank's block *and* the combine phase across ranks. The
//! `enumerate` adapter is the `[i in 1..n] (A(i), i)` array expression.

use gv_core::op::{ReduceScanOp, ScanKind};
use gv_executor::chunk_ranges;
use gv_msgpass::Comm;

/// One rank's handle to a block-distributed global vector.
///
/// All methods taking `&self` must be called **collectively**: every rank
/// of the communicator calls the same method in the same order (the usual
/// SPMD discipline).
pub struct DistVector<'c, T> {
    comm: &'c Comm,
    local: Vec<T>,
    offset: u64,
    global_len: u64,
}

impl<'c, T> DistVector<'c, T> {
    /// Builds the distributed vector from per-rank local blocks; global
    /// offsets are established with an exclusive scan (one collective).
    pub fn from_local(comm: &'c Comm, local: Vec<T>) -> Self {
        let n = local.len() as u64;
        let offset = comm.scan_exclusive(n, || 0, |_| 8, |a, b| a + b);
        let global_len = comm.allreduce(n, true, |_| 8, |a, b| a + b);
        DistVector {
            comm,
            local,
            offset,
            global_len,
        }
    }

    /// Builds the vector by evaluating `f` at every global index of this
    /// rank's block of a `global_len`-element vector (balanced block
    /// distribution; no communication).
    pub fn generate(comm: &'c Comm, global_len: usize, f: impl Fn(u64) -> T) -> Self {
        let range = chunk_ranges(global_len, comm.size())
            .nth(comm.rank())
            .expect("rank < size");
        let offset = range.start as u64;
        let local: Vec<T> = range.map(|i| f(i as u64)).collect();
        DistVector {
            comm,
            local,
            offset,
            global_len: global_len as u64,
        }
    }

    /// Total (global) element count.
    pub fn global_len(&self) -> u64 {
        self.global_len
    }

    /// This rank's block.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Global index of `local()[0]`.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The communicator this vector is distributed over.
    pub fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// Global-view reduction of the entire vector; the result appears on
    /// every rank. The paper's `op reduce A`.
    pub fn reduce<Op>(&self, op: &Op) -> Op::Out
    where
        Op: ReduceScanOp<In = T>,
        Op::State: Clone + Send + 'static,
    {
        crate::reduce::reduce_all(self.comm, op, &self.local)
    }

    /// Global-view scan of the entire vector; each rank receives the
    /// outputs for its own block, as a new `DistVector`. The paper's
    /// `op scan A`.
    pub fn scan<Op>(&self, op: &Op, kind: ScanKind) -> DistVector<'c, Op::Out>
    where
        Op: ReduceScanOp<In = T>,
        Op::State: Clone + Send + 'static,
    {
        let out = crate::scan::scan(self.comm, op, &self.local, kind);
        DistVector {
            comm: self.comm,
            local: out,
            offset: self.offset,
            global_len: self.global_len,
        }
    }

    /// Element-wise map (no communication).
    pub fn map<U>(&self, f: impl Fn(&T) -> U) -> DistVector<'c, U> {
        DistVector {
            comm: self.comm,
            local: self.local.iter().map(f).collect(),
            offset: self.offset,
            global_len: self.global_len,
        }
    }

    /// The paper's `[i in 1..n] (A(i), i)` array expression: pairs each
    /// element with its **1-based** global index (no communication).
    pub fn enumerate(&self) -> DistVector<'c, (T, u64)>
    where
        T: Clone,
    {
        DistVector {
            comm: self.comm,
            local: self
                .local
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), self.offset + i as u64 + 1))
                .collect(),
            offset: self.offset,
            global_len: self.global_len,
        }
    }

    /// Gathers the whole vector onto every rank (testing/debug; O(n)
    /// traffic: each block crosses as `len · size_of::<T>()` bytes).
    pub fn gather_to_all(&self) -> Vec<T>
    where
        T: Clone + Send + 'static,
    {
        let block_bytes = |block: &Vec<T>| block.len() * std::mem::size_of::<T>();
        let blocks: Vec<Vec<T>> = self.comm.allgather(self.local.clone(), block_bytes);
        blocks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_core::ops::builtin::sum;
    use gv_core::ops::mink::MinK;
    use gv_core::ops::minloc::mini;
    use gv_core::ops::sorted::Sorted;
    use gv_msgpass::Runtime;

    #[test]
    fn paper_call_site_mink_reduce_a() {
        // `minimums = mink(integer, 10) reduce A;` over A = [0, 3, 6, …].
        let outcome = Runtime::new(4).run(|comm| {
            let a = DistVector::generate(comm, 100, |i| (i as i64 * 3) % 47);
            a.reduce(&MinK::<i64>::new(10))
        });
        let mut oracle: Vec<i64> = (0..100).map(|i| (i * 3) % 47).collect();
        oracle.sort();
        oracle.truncate(10);
        for got in outcome.results {
            assert_eq!(got, oracle);
        }
    }

    #[test]
    fn paper_call_site_mini_over_enumerate() {
        // `var (val, loc) = mini(integer) reduce [i in 1..n] (A(i), i);`
        let outcome = Runtime::new(3).run(|comm| {
            let a = DistVector::generate(comm, 50, |i| ((i as i64) - 20).abs());
            a.enumerate().reduce(&mini::<i64, u64>())
        });
        // Minimum |i − 20| = 0 at global index 20, i.e. 1-based loc 21.
        assert_eq!(outcome.results, vec![Some((0, 21)); 3]);
    }

    #[test]
    fn scan_returns_a_distributed_result() {
        let outcome = Runtime::new(4).run(|comm| {
            let a = DistVector::generate(comm, 20, |i| i as i64 + 1);
            let prefix = a.scan(&sum::<i64>(), ScanKind::Inclusive);
            assert_eq!(prefix.global_len(), 20);
            assert_eq!(prefix.offset(), a.offset());
            prefix.gather_to_all()
        });
        let expected: Vec<i64> = (1..=20)
            .scan(0, |s, x| {
                *s += x;
                Some(*s)
            })
            .collect();
        for got in outcome.results {
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn gather_to_all_moves_each_foreign_element_once() {
        // The circulant allgather ships each rank's p − 1 foreign blocks
        // once, so p ranks of n u64s move p·(p − 1)·n·8 bytes in total,
        // whatever the size of the `Vec` header a block travels in.
        for (p, n) in [(2usize, 1000usize), (3, 17), (5, 64)] {
            let outcome = Runtime::new(p)
                .run(move |comm| DistVector::generate(comm, p * n, |i| i).gather_to_all());
            let all: Vec<u64> = (0..(p * n) as u64).collect();
            assert_eq!(outcome.results, vec![all; p], "p={p} n={n}");
            let bytes = (p * (p - 1) * n * 8) as u64;
            assert_eq!(outcome.stats.bytes, bytes, "p={p} n={n}");
        }
    }

    #[test]
    fn from_local_establishes_offsets() {
        let outcome = Runtime::new(4).run(|comm| {
            // Deliberately unbalanced blocks: rank r holds r + 1 elements.
            let local: Vec<u32> = vec![comm.rank() as u32; comm.rank() + 1];
            let v = DistVector::from_local(comm, local);
            (v.offset(), v.global_len())
        });
        assert_eq!(outcome.results, vec![(0, 10), (1, 10), (3, 10), (6, 10)]);
    }

    #[test]
    fn map_then_reduce() {
        let outcome = Runtime::new(3).run(|comm| {
            let a = DistVector::generate(comm, 10, |i| i as i64);
            a.map(|x| x * x).reduce(&sum::<i64>())
        });
        assert_eq!(outcome.results, vec![285; 3]);
    }

    #[test]
    fn sorted_reads_naturally() {
        let outcome = Runtime::new(4).run(|comm| {
            let a = DistVector::generate(comm, 64, |i| i as i64);
            let b = DistVector::generate(comm, 64, |i| (i as i64 * 7) % 64);
            (a.reduce(&Sorted::new()), b.reduce(&Sorted::new()))
        });
        assert_eq!(outcome.results, vec![(true, false); 4]);
    }
}
