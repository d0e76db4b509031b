//! Collective operations over a [`crate::comm::Comm`].
//!
//! All collectives are implemented on top of the point-to-point layer with
//! the textbook algorithms an MPI implementation uses:
//!
//! * [`barrier`](crate::comm::Comm::barrier) — dissemination barrier,
//!   ⌈log₂ p⌉ rounds;
//! * [`bcast`](crate::comm::Comm::bcast), [`reduce`](crate::comm::Comm::reduce)
//!   and the tree allreduce — one binomial tree (`tree.rs`) that carries
//!   whole states, with rank-order combines when rooted at rank 0;
//! * [`allgather`](crate::comm::Comm::allgather) — the circulant
//!   allgather, ⌈log₂ p⌉ rounds at any p (`reduce_scatter.rs`, where it
//!   is also the second half of reduce-scatter + allgather);
//! * [`reduce_with_branching`](crate::comm::Comm::reduce_with_branching) —
//!   contiguous-block k-ary trees with distinct combining schedules for
//!   commutative vs. non-commutative operators (paper §1);
//! * [`allreduce`](crate::comm::Comm::allreduce) — cost-driven selection
//!   between recursive doubling and (commutative splittable states) the
//!   circulant reduce-scatter + allgather; the tree runs the commutative
//!   requests;
//! * [`scan_inclusive`](crate::comm::Comm::scan_inclusive) /
//!   [`scan_exclusive`](crate::comm::Comm::scan_exclusive) — cost-driven
//!   selection among a shifted Hillis–Steele parallel prefix, a
//!   work-efficient binomial up/down-sweep, and (for splittable states) a
//!   segmented chain; all valid for any (also non-power-of-two) rank
//!   count and any associative, possibly non-commutative operator;
//! * [`alltoallv`](crate::comm::Comm::alltoallv) — rotated pairwise
//!   exchange.
//!
//! Which schedule runs is decided in `select.rs` alone: the selector-routed
//! entry points price the candidates, and a caller that must run one
//! schedule (an ablation, a test) names it to
//! [`allreduce_by`](crate::comm::Comm::allreduce_by) or
//! [`scan_both_by`](crate::comm::Comm::scan_both_by). Each of those
//! schedules is an `async fn` whose only suspension point is a receive
//! (`request::recv`). Every schedule-based collective takes the one
//! launch path in `launch.rs` and is driven on the caller's stack, except
//! [`iallreduce`](crate::comm::Comm::iallreduce): the one non-blocking
//! collective registers its future with the rank's progress engine
//! (`request.rs`) and returns a request. A commutative request runs the
//! tree rooted at its call sequence mod p, a non-commutative one the
//! blocking call's recursive doubling (`select.rs`).
//!
//! Every collective must be called by all ranks of the communicator in the
//! same order (MPI's usual rule). Combine closures always receive
//! `(earlier, later)` in set order, making non-commutative operators safe.

pub mod allreduce_rd;
pub mod alltoall;
pub mod barrier;
pub(crate) mod counting;
mod exchange;
pub(crate) mod launch;
pub mod reduce;
pub mod reduce_scatter;
pub mod scan;
pub mod scan_binomial;
pub mod scan_chain;
pub mod select;
pub mod shift;
pub mod tree;

pub use counting::{ships_units, Counted};
pub use exchange::{By, ByValue, Crossing};

use std::fmt;

use crate::message::Key;

/// Declares [`TagBase`] from one list, so its variants, [`TagBase::ALL`]
/// and [`TagBase::name`] cannot disagree.
macro_rules! tag_bases {
    ($($base:ident, $name:literal;)*) => {
        /// Which message stream of a collective call a key names: a
        /// protocol, or one phase of it. A discriminant is the base's index
        /// in [`TagBase::ALL`], the low byte of its keys.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum TagBase {
            $($base,)*
        }

        impl TagBase {
            /// Every base, in declaration order.
            pub(crate) const ALL: &'static [TagBase] = &[$(TagBase::$base),*];

            /// The protocol this base's keys belong to, for failure
            /// diagnostics.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(TagBase::$base => $name,)*
                }
            }
        }
    };
}

tag_bases! {
    Barrier, "barrier";
    Bcast, "bcast";
    Reduce, "reduce";
    Scan, "scan";
    Alltoall, "alltoall";
    Shift, "shift";
    AllreduceTreeUp, "allreduce (tree up)";
    AllreduceTreeDown, "allreduce (tree down)";
    AllreduceRd, "allreduce (recursive doubling)";
    ScanUp, "scan (binomial up-sweep)";
    ScanDown, "scan (binomial down-sweep)";
    ScanChain, "scan (chain)";
    Calibrate, "calibration probe";
    ReduceScatter, "reduce-scatter (circulant)";
    Allgather, "allgather (circulant)";
}

/// The bit that marks a collective's key: a user tag is a `u32`, so it
/// never sets it.
const COLLECTIVE: Key = 1 << 63;

impl TagBase {
    /// This base's key in the collective that drew call sequence `seq`
    /// on its communicator. The sequence has 55 bits: at one collective a
    /// nanosecond a run would take over a year to wrap it.
    pub(crate) const fn key(self, seq: u64) -> Key {
        COLLECTIVE | seq << 8 | self as Key
    }
}

/// A match key, rendered for diagnostics: `p2p tag=0x9` for a user tag,
/// `<protocol> #<call sequence>` for a collective's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShowKey(pub(crate) Key);

impl ShowKey {
    /// `"p2p"`, or the collective protocol the key belongs to.
    pub(crate) fn op(self) -> &'static str {
        if self.0 & COLLECTIVE == 0 {
            return "p2p";
        }
        TagBase::ALL
            .get((self.0 & 0xFF) as usize)
            .map_or("collective", |base| base.name())
    }
}

impl fmt::Display for ShowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 & COLLECTIVE == 0 {
            write!(f, "p2p tag={:#x}", self.0)
        } else {
            write!(f, "{} #{}", self.op(), (self.0 & !COLLECTIVE) >> 8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diagnostics name each schedule distinctly, and its call, at any
    /// sequence a run can reach.
    #[test]
    fn the_keys_rendering_names_every_base() {
        for &base in TagBase::ALL {
            for seq in [0, 1 << 40] {
                let key = ShowKey(base.key(seq));
                assert_eq!(key.op(), base.name());
                assert_eq!(key.to_string(), format!("{} #{seq}", base.name()));
            }
        }
        assert_eq!(ShowKey(0xF000_0100).op(), "p2p");
        assert_eq!(
            ShowKey(u64::from(u32::MAX)).to_string(),
            "p2p tag=0xffffffff"
        );
    }
}
