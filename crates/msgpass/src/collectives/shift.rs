//! Neighbour shift: each rank passes a value to its successor.
//!
//! This is the communication the paper says is unavoidable when deriving
//! an exclusive scan from an inclusive one with a non-invertible operator:
//! "the exclusive scan can only be computed from the inclusive scan by
//! shifting the values across the processors" (§2).

use super::TagBase;
use crate::comm::Comm;
use crate::stats::CallKind;

impl Comm {
    /// Sends `value` to rank `r + 1` and returns the value received from
    /// rank `r − 1` (`None` at rank 0). Non-periodic.
    pub fn shift_up<T: Send + 'static>(&self, value: T) -> Option<T> {
        let p = self.size();
        let r = self.rank();
        let tag = TagBase::Shift.key(self.next_seq());
        if r + 1 < p {
            self.counters().record_call(CallKind::Send);
            self.send_key(r + 1, tag, value, size_of::<T>());
        }
        (r > 0).then(|| self.recv_key(r - 1, tag))
    }

    /// Sends `value` to rank `(r + 1) mod p` and returns the value from
    /// `(r − 1) mod p`. Periodic.
    pub fn shift_up_periodic<T: Send + 'static>(&self, value: T) -> T {
        let p = self.size();
        if p == 1 {
            return value;
        }
        let r = self.rank();
        let tag = TagBase::Shift.key(self.next_seq());
        self.counters().record_call(CallKind::Send);
        self.send_key((r + 1) % p, tag, value, size_of::<T>());
        self.recv_key((r + p - 1) % p, tag)
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn shift_up_moves_values_one_rank() {
        let outcome = Runtime::new(5).run(|comm| comm.shift_up(comm.rank() as u32 * 10));
        assert_eq!(
            outcome.results,
            vec![None, Some(0), Some(10), Some(20), Some(30)]
        );
    }

    #[test]
    fn periodic_shift_wraps() {
        let outcome = Runtime::new(4).run(|comm| comm.shift_up_periodic(comm.rank()));
        assert_eq!(outcome.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn single_rank_shift() {
        let outcome = Runtime::new(1).run(|comm| (comm.shift_up(7u8), comm.shift_up_periodic(9u8)));
        assert_eq!(outcome.results, vec![(None, 9)]);
    }
}
