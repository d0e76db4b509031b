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
//! * [`gather`](crate::comm::Comm::gather) / allgather — binomial gather
//!   (+ broadcast);
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
//! Every schedule-based collective takes the one launch path in
//! `launch.rs`, so a blocking call and its `i*` twin run the same code.
//!
//! Every collective must be called by all ranks of the communicator in the
//! same order (MPI's usual rule). Combine closures always receive
//! `(earlier, later)` in set order, making non-commutative operators safe.

pub mod allreduce_rd;
pub mod alltoall;
pub mod barrier;
pub mod gather;
pub(crate) mod launch;
pub mod reduce;
pub mod reduce_scatter;
pub mod scan;
pub mod scan_binomial;
pub mod scan_chain;
pub mod scatter;
pub mod select;
pub mod shift;
pub mod tree;

use crate::message::{Tag, RESERVED_TAG_BASE};

// The salt occupies bits 12–23, so two bases may share a 0x?00 block as
// long as they stay distinct below it.
pub(crate) const TAG_BARRIER: Tag = RESERVED_TAG_BASE;
pub(crate) const TAG_BCAST: Tag = RESERVED_TAG_BASE + 0x100;
pub(crate) const TAG_GATHER: Tag = RESERVED_TAG_BASE + 0x200;
pub(crate) const TAG_REDUCE: Tag = RESERVED_TAG_BASE + 0x300;
pub(crate) const TAG_SCAN: Tag = RESERVED_TAG_BASE + 0x400;
pub(crate) const TAG_ALLTOALL: Tag = RESERVED_TAG_BASE + 0x500;
pub(crate) const TAG_SHIFT: Tag = RESERVED_TAG_BASE + 0x600;
pub(crate) const TAG_ALLREDUCE_TREE_UP: Tag = RESERVED_TAG_BASE + 0x680;
pub(crate) const TAG_SCATTER: Tag = RESERVED_TAG_BASE + 0x700;
pub(crate) const TAG_ALLREDUCE_TREE_DOWN: Tag = RESERVED_TAG_BASE + 0x780;
pub(crate) const TAG_ALLREDUCE_RD: Tag = RESERVED_TAG_BASE + 0x800;
pub(crate) const TAG_SCAN_UP: Tag = RESERVED_TAG_BASE + 0xB00;
pub(crate) const TAG_SCAN_DOWN: Tag = RESERVED_TAG_BASE + 0xC00;
pub(crate) const TAG_SCAN_CHAIN: Tag = RESERVED_TAG_BASE + 0xD00;
pub(crate) const TAG_CALIBRATE: Tag = RESERVED_TAG_BASE + 0xE00;
pub(crate) const TAG_REDUCE_SCATTER_CIRC: Tag = RESERVED_TAG_BASE + 0xF00;
pub(crate) const TAG_ALLGATHER_CIRC: Tag = RESERVED_TAG_BASE + 0xF80;

/// Names the protocol a tag belongs to, for failure diagnostics: `"p2p"`
/// for user tags, otherwise the collective schedule whose reserved base
/// the tag carries. Reserved bases live in the low 12 bits (the salt sits
/// in bits 12–23), so `tag & 0xFFF` recovers the base offset.
pub(crate) fn describe_tag(tag: Tag) -> &'static str {
    if tag < RESERVED_TAG_BASE {
        return "p2p";
    }
    match tag & 0xFFF {
        0x000 => "barrier",
        0x100 => "bcast",
        0x200 => "gather",
        0x300 => "reduce",
        0x400 => "scan",
        0x500 => "alltoall",
        0x600 => "shift",
        0x680 => "allreduce (tree up)",
        0x700 => "scatter",
        0x780 => "allreduce (tree down)",
        0x800 => "allreduce (recursive doubling)",
        0xB00 => "scan (binomial up-sweep)",
        0xC00 => "scan (binomial down-sweep)",
        0xD00 => "scan (chain)",
        0xE00 => "calibration probe",
        0xF00 => "reduce-scatter (circulant)",
        0xF80 => "allgather (circulant)",
        _ => "collective",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every reserved tag base the collectives use, in one place. A new
    /// schedule's base must be added here so the pins below cover it.
    const ALL_BASES: [Tag; 17] = [
        TAG_BARRIER,
        TAG_BCAST,
        TAG_GATHER,
        TAG_REDUCE,
        TAG_SCAN,
        TAG_ALLTOALL,
        TAG_SHIFT,
        TAG_ALLREDUCE_TREE_UP,
        TAG_SCATTER,
        TAG_ALLREDUCE_TREE_DOWN,
        TAG_ALLREDUCE_RD,
        TAG_SCAN_UP,
        TAG_SCAN_DOWN,
        TAG_SCAN_CHAIN,
        TAG_CALIBRATE,
        TAG_REDUCE_SCATTER_CIRC,
        TAG_ALLGATHER_CIRC,
    ];

    /// The salt occupies bits 12–23, so collision-freedom between
    /// concurrent collectives requires every base offset to sit below
    /// 0x1000 and be pairwise distinct there (`comm.rs`,
    /// `next_collective_salt`). A shared 0x?00 block is fine only when
    /// the low bits differ — the invariant a schedule overlapped with a
    /// shift/scatter on the same salt relies on.
    #[test]
    fn reserved_bases_distinct_below_salt() {
        let mut offsets: Vec<Tag> = ALL_BASES
            .iter()
            .map(|&t| {
                assert!(t >= RESERVED_TAG_BASE, "base {t:#x} below reserved range");
                let off = t - RESERVED_TAG_BASE;
                assert!(off < 0x1000, "base offset {off:#x} overlaps the salt bits");
                off
            })
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), ALL_BASES.len(), "reserved tag bases collide");
    }

    /// Diagnostics must name each schedule distinctly; a fallthrough to
    /// the generic "collective" arm means a describe_tag entry is missing.
    #[test]
    fn describe_tag_names_every_base() {
        for &base in &ALL_BASES {
            let salted = base + (7 << 12);
            let name = describe_tag(salted);
            assert_ne!(name, "collective", "no describe_tag arm for {base:#x}");
            assert_ne!(name, "p2p");
            assert_eq!(name, describe_tag(base), "salt must not change the label");
        }
    }
}
