//! Collective operations over a [`crate::comm::Comm`].
//!
//! All collectives are implemented on top of the point-to-point layer with
//! the textbook algorithms an MPI implementation uses:
//!
//! * [`barrier`](crate::comm::Comm::barrier) — dissemination barrier,
//!   ⌈log₂ p⌉ rounds;
//! * [`bcast`](crate::comm::Comm::bcast), [`reduce`](crate::comm::Comm::reduce)
//!   and the tree allreduce — one segmented binomial tree (`tree.rs`),
//!   whose `S = 1` case is the whole-state binomial tree, with
//!   rank-order combines at every segment count;
//! * [`allgather`](crate::comm::Comm::allgather) — the circulant
//!   allgather, ⌈log₂ p⌉ rounds at any p (`reduce_scatter.rs`, where it
//!   is also the second half of reduce-scatter + allgather);
//! * [`reduce_with_branching`](crate::comm::Comm::reduce_with_branching) —
//!   contiguous-block k-ary trees with distinct combining schedules for
//!   commutative vs. non-commutative operators (paper §1);
//! * [`allreduce`](crate::comm::Comm::allreduce) — cost-driven selection
//!   among recursive doubling, the tree, and (commutative splittable
//!   states) the circulant reduce-scatter + allgather;
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
//! schedule (an ablation, a test) names it in the plan it passes to
//! [`allreduce_by`](crate::comm::Comm::allreduce_by),
//! [`iallreduce_by`](crate::comm::Comm::iallreduce_by) or
//! [`scan_both_by`](crate::comm::Comm::scan_both_by). Every schedule-based
//! collective takes the one launch path in `launch.rs`, so a blocking
//! call and its `i*` twin run the same code.
//!
//! Every collective must be called by all ranks of the communicator in the
//! same order (MPI's usual rule). Combine closures always receive
//! `(earlier, later)` in set order, making non-commutative operators safe.

pub mod allreduce_rd;
pub mod alltoall;
pub mod barrier;
pub(crate) mod launch;
pub mod reduce;
pub mod reduce_scatter;
pub mod scan;
pub mod scan_binomial;
pub mod scan_chain;
pub mod select;
pub mod shift;
pub mod tree;

use crate::message::{Tag, RESERVED_TAG_BASE};

/// Declares [`TagBase`] from one list, so its variants, [`TagBase::ALL`]
/// and [`TagBase::name`] cannot disagree.
macro_rules! tag_bases {
    ($($base:ident = $offset:literal, $name:literal;)*) => {
        /// The reserved tag base of every collective protocol. A
        /// discriminant is the base's offset above [`RESERVED_TAG_BASE`],
        /// so two equal offsets do not compile; the salt occupies bits
        /// 12–23, so two bases may share a 0x?00 block as long as they
        /// stay distinct below it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u32)]
        pub(crate) enum TagBase {
            $($base = $offset,)*
        }

        impl TagBase {
            /// Every base, in declaration order.
            pub(crate) const ALL: &'static [TagBase] = &[$(TagBase::$base),*];

            /// The protocol this base's tags belong to, for failure
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
    Barrier = 0x000, "barrier";
    Bcast = 0x100, "bcast";
    Reduce = 0x300, "reduce";
    Scan = 0x400, "scan";
    Alltoall = 0x500, "alltoall";
    Shift = 0x600, "shift";
    AllreduceTreeUp = 0x680, "allreduce (tree up)";
    AllreduceTreeDown = 0x780, "allreduce (tree down)";
    AllreduceRd = 0x800, "allreduce (recursive doubling)";
    ScanUp = 0xB00, "scan (binomial up-sweep)";
    ScanDown = 0xC00, "scan (binomial down-sweep)";
    ScanChain = 0xD00, "scan (chain)";
    Calibrate = 0xE00, "calibration probe";
    ReduceScatter = 0xF00, "reduce-scatter (circulant)";
    Allgather = 0xF80, "allgather (circulant)";
}

// Collision-freedom between concurrent collectives needs every base below
// the salt bits (`Comm::next_collective_salt`).
const _: () = {
    let mut i = 0;
    while i < TagBase::ALL.len() {
        assert!(
            (TagBase::ALL[i] as Tag) < 0x1000,
            "a tag base overlaps the salt bits"
        );
        i += 1;
    }
};

impl TagBase {
    /// This base's tag in the collective that drew `salt`.
    pub(crate) const fn tag(self, salt: Tag) -> Tag {
        RESERVED_TAG_BASE + self as Tag + salt
    }
}

/// Names the protocol a tag belongs to, for failure diagnostics: `"p2p"`
/// for user tags, otherwise the collective schedule whose reserved base
/// the tag carries. Reserved bases live in the low 12 bits (the salt sits
/// in bits 12–23), so `tag & 0xFFF` recovers the base offset.
pub(crate) fn describe_tag(tag: Tag) -> &'static str {
    if tag < RESERVED_TAG_BASE {
        return "p2p";
    }
    TagBase::ALL
        .iter()
        .find(|&&base| base as Tag == tag & 0xFFF)
        .map_or("collective", |base| base.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diagnostics must name each schedule distinctly, whatever salt its
    /// collective drew.
    #[test]
    fn describe_tag_names_every_base() {
        for &base in TagBase::ALL {
            let salted = base.tag(7 << 12);
            let name = describe_tag(salted);
            assert_ne!(name, "collective", "no name for {base:?}");
            assert_ne!(name, "p2p");
            assert_eq!(
                name,
                describe_tag(base.tag(0)),
                "salt must not change the label"
            );
        }
    }
}
