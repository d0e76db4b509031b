//! What a counting state ([`ElementwiseState`]) sends in one round of
//! recursive doubling: its slots, or the units its partial counted.
//!
//! A counting state's slots hold how many of its inputs landed in each, so
//! a partial that covers few inputs is described exactly by their slot
//! indices, one `u32` a unit, which the receiver counts into its own
//! slots. Recursive doubling's allreduce (`allreduce_rd.rs`) and shifted
//! scan (`scan.rs`) send each round one [`Piece`]: the units while
//! [`ships_units`] says they are the cheaper form, else the state, lent
//! or cloned. Each sender chooses alone from what its own partial covers,
//! so two partners need not agree; a rank that sent or received slots
//! keeps to slots, since its partial is then no list of units.
//!
//! A piece is priced by what it carries: `4` bytes a unit and a `4`-byte
//! kind word, and the receiver charges the operator's `accum_ops` per
//! unit it counts; a state costs its wire size and one combine, as it
//! does by value.

use gv_core::op::ElementwiseState;

use crate::comm::Comm;

/// `R`: a partial of `n` units over `m` slots ships its units while
/// their `4·n` bytes are under the state's `8·m` divided by `R`, that is
/// while `n < m / 8`. At p = 2 a `reduce_all` of `Counts` read units and
/// state even near `n = m / 8` at 1 MiB and between `m / 12` and `m / 8`
/// at 64 KiB and 8 KiB (EXPERIMENTS.md, TXT-UNITS): a unit counted into
/// a cold slot costs what a few slots added in a stream do.
const UNIT_RATIO: usize = 16;

/// Whether `units` slot indices are the cheaper form of a partial of
/// `slots` slots, `4·units < 8·slots / R` with `R` read off a measured
/// crossover (`UNIT_RATIO`), for a state a `u32` indexes. A caller
/// that builds a block's units only when this holds builds none that no
/// round would ship.
pub fn ships_units(units: usize, slots: usize) -> bool {
    slots <= u32::MAX as usize && 4 * units * UNIT_RATIO < 8 * slots
}

/// A counting reduction's or scan's operator, as the transport takes it:
/// the state's slots, the modeled operations of one combine and of one
/// counted unit, and the rank's units when it built them.
pub struct Counting<'a, T, I> {
    /// The operator's counting capability.
    pub slots: &'a dyn ElementwiseState<T, I>,
    /// The modeled operations `combine` charges to combine a state like
    /// the one given.
    pub combine_ops: &'a dyn Fn(&T) -> u64,
    /// The modeled operations counting one unit costs: the operator's
    /// `accum_ops`.
    pub accum_ops: u64,
    /// The slot each input of the rank's block adds one to, in input
    /// order, or `None` when the rank did not build them (a block whose
    /// units no round would ship, one that is no slice, or a call whose
    /// schedule is not recursive doubling, which ships none).
    pub units: Option<Vec<u32>>,
}

/// One round's message of a counting exchange, behind its kind word.
pub(crate) enum Piece<T> {
    /// The slot indices the sender's partial counted.
    Units(Vec<u32>),
    /// The sender's partial, lent for the round (`message::loan`).
    Lent(crate::message::loan::View<T>),
    /// A clone of the sender's partial, or the partial itself.
    Whole(T),
}

/// The modeled bytes of a units piece of `units` units: 4 a unit and a
/// 4-byte kind word.
pub(crate) fn units_bytes(units: usize) -> usize {
    4 * (units + 1)
}

impl<T, I> Counting<'_, T, I> {
    /// Counts `units` into `state`, charging one accumulate a unit; no
    /// units leave the state's slots unread.
    pub(crate) fn count(&self, comm: &Comm, state: &mut T, units: &[u32]) {
        if units.is_empty() {
            return;
        }
        comm.advance(units.len() as u64 * self.accum_ops);
        gv_core::kernel::count_into(self.slots.slots(state), units, |&unit| unit as usize);
    }
}

/// Adds `theirs` to `mine`, slot by slot: a counting state's combine.
pub(crate) fn add_slots(mine: &mut [u64], theirs: &[u64]) {
    gv_core::kernel::combine_elementwise(mine, theirs, |a, b| a + b);
}
