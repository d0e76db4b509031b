//! [`Counted`]: how a counting state
//! ([`ElementwiseState`](gv_core::op::ElementwiseState)) crosses ranks in
//! the generic schedule bodies (`exchange.rs`).
//!
//! A counting state's slots count the inputs that landed in each, so two
//! states add slot by slot, and a partial that covers few inputs is told
//! exactly by their slot indices, one `u32` a unit. In recursive doubling
//! (allreduce and scan) each sender picks each round's [`Piece`] alone:
//! its units while [`ships_units`] holds, else a clone of its state. A
//! rank that sent or received a state keeps to states. In the tree a rank
//! adds each child's partial into its own state, keeps the child's buffer
//! and writes the result into it for the way back, so no rank clones or
//! frees another's state.
//!
//! A units piece costs `4` bytes a unit plus a `4`-byte kind word, and
//! `accum_ops` a unit counted; a state costs what it does by value, so a
//! run that ships no units records the by-value run's messages, bytes and
//! modeled clock.

use std::ops::Deref;

use gv_core::op::ReduceScanOp;

use super::exchange::{Crossing, Exchange, Partials, Peer};
use crate::comm::Comm;

/// `R`: a partial of `n` units over `m` slots ships its units while
/// their `4·n` bytes are under the state's `8·m` divided by `R`, that is
/// while `n < m / 8`. At p = 2 a `reduce_all` of `Counts`, whose state
/// crosses as a clone, read units and state even between `m / 12` and
/// `m / 8` at 8 KiB, and units ahead up to `m / 4` at 64 KiB and 1 MiB
/// (EXPERIMENTS.md, TXT-UNITS): one ratio for every width keeps to the
/// smallest state's crossover.
const UNIT_RATIO: usize = 16;

/// Whether `units` slot indices are the cheaper form of a partial of
/// `slots` slots, `4·units < 8·slots / R` with `R` read off a measured
/// crossover (`UNIT_RATIO`), for a state a `u32` indexes. A caller
/// that builds a block's units only when this holds builds none that no
/// round would ship.
pub fn ships_units(units: usize, slots: usize) -> bool {
    slots <= u32::MAX as usize && 4 * units * UNIT_RATIO < 8 * slots
}

/// A counting operator's [`Crossing`]: `op` is the operator, by
/// reference or shared (`Rc`) for a request, whose
/// [`elementwise`](ReduceScanOp::elementwise) capability it reads. States
/// are combined, sized and counted into through `op`.
pub struct Counted<P: Deref<Target: ReduceScanOp>> {
    op: P,
    /// The rank's units while its partial is a list of them.
    units: Option<Vec<u32>>,
    /// The state's slot count, read as recursive doubling begins.
    width: usize,
    /// The tree children's buffers, for the way back.
    kept: Kept<State<P>>,
}

/// The state of the operator `P` points to.
type State<P> = <<P as Deref>::Target as ReduceScanOp>::State;

impl<P: Deref<Target: ReduceScanOp>> Counted<P> {
    /// `units` is the slot each input of the rank's block adds one to,
    /// in input order, where the rank built them, else `None`; only
    /// recursive doubling ships them. A reduction's state
    /// has them counted in already; a scan's is an identity they are not
    /// yet counted into.
    pub fn new(op: P, units: Option<Vec<u32>>) -> Self {
        Counted {
            op,
            units,
            width: 0,
            kept: Kept {
                first: None,
                rest: Vec::new(),
            },
        }
    }
}

impl<T, P> Crossing<T> for Counted<P>
where
    T: Clone + Send + 'static,
    P: Deref<Target: ReduceScanOp<State = T>>,
{
    /// Combines through `op`, as the caller's `combine` does.
    fn exchange(self, _: impl FnMut(T, T) -> T) -> impl Exchange<T> {
        self
    }
}

/// One round's message of a counting exchange, behind its kind word.
pub enum Piece<T> {
    /// The slot indices the sender's partial counted.
    Units(Vec<u32>),
    /// A clone of the sender's partial, or the partial itself.
    Whole(T),
}

/// Sends a units piece: 4 modeled bytes a unit and a 4-byte kind word.
fn send_units<T: Send + 'static>((comm, dst, key): Peer, units: Vec<u32>) {
    let bytes = 4 * (units.len() + 1);
    comm.send_key(dst, key, Piece::<T>::Units(units), bytes);
}

impl<T, P> Counted<P>
where
    P: Deref<Target: ReduceScanOp<State = T>>,
{
    fn slots<'s>(&self, state: &'s mut T) -> &'s mut [u64] {
        let slots = self.op.elementwise().expect("a counting operator");
        slots.slots(state)
    }

    /// `earlier ⊕ later`, charged as the by-value combine is.
    fn combine(&self, comm: &Comm, mut earlier: T, later: T) -> T {
        comm.advance(self.op.combine_ops(&later));
        self.op.combine(&mut earlier, later);
        earlier
    }

    /// Counts `units` into `state`, charging one accumulate a unit; no
    /// units leave the state's slots unread.
    fn count(&self, comm: &Comm, state: &mut T, units: &[u32]) {
        if units.is_empty() {
            return;
        }
        comm.advance(units.len() as u64 * self.op.accum_ops());
        let slots = self.slots(state);
        for &unit in units {
            slots[unit as usize] += 1;
        }
    }

    /// This rank's units while they ship: cloned where a later round
    /// needs them (`keep`), else taken.
    fn shipping(&mut self, keep: bool) -> Option<Vec<u32>> {
        let units = self
            .units
            .as_ref()
            .filter(|u| ships_units(u.len(), self.width))?;
        Some(if keep {
            units.clone()
        } else {
            self.units.take()?
        })
    }
}

/// A counting scan's partials: the exclusive `prefix` and the inclusive
/// `partial`, which while `listed` is `prefix` plus `units` — the rank's
/// own first `own`, then the lower ranks' — and no state.
struct Prefix<P: Deref<Target: ReduceScanOp>> {
    x: Counted<P>,
    prefix: Option<State<P>>,
    partial: Option<State<P>>,
    units: Vec<u32>,
    own: usize,
    listed: bool,
}

impl<T, P> Exchange<T> for Counted<P>
where
    T: Clone + Send + 'static,
    P: Deref<Target: ReduceScanOp<State = T>>,
{
    type Piece = Piece<T>;

    fn begin(&mut self, state: &mut T) {
        self.width = self.slots(state).len();
    }

    fn give(&mut self, to: Peer, state: T, bytes: usize) {
        match self.shipping(false) {
            Some(units) => send_units::<T>(to, units),
            None => to.0.send_key(to.1, to.2, Piece::Whole(state), bytes),
        }
    }

    fn offer(&mut self, to: Peer, state: &T, bytes: usize, last: bool) {
        let (comm, dst, key) = to;
        match self.shipping(!last) {
            Some(units) => send_units::<T>(to, units),
            None => {
                self.units = None;
                comm.send_key(dst, key, Piece::Whole(state.clone()), bytes);
            }
        }
    }

    /// Units are counted into `acc` (and kept, while `units` lists the
    /// partial's), a state combined.
    fn settle(&mut self, comm: &Comm, mut acc: T, theirs: Piece<T>, lower: bool) -> T {
        match theirs {
            Piece::Units(theirs) => {
                self.count(comm, &mut acc, &theirs);
                if let Some(units) = &mut self.units {
                    units.extend_from_slice(&theirs);
                }
                acc
            }
            Piece::Whole(theirs) => {
                self.units = None;
                match lower {
                    true => self.combine(comm, acc, theirs),
                    false => self.combine(comm, theirs, acc),
                }
            }
        }
    }

    fn adopt(&mut self, comm: &Comm, mut acc: T, mut child: T) -> T {
        comm.advance(self.op.combine_ops(&child));
        add_slots(self.slots(&mut acc), self.slots(&mut child));
        self.kept.keep(child);
        acc
    }

    fn hand_down(&mut self, result: &T) -> T {
        self.kept.write_back(result)
    }

    /// Given units, `value` is an identity they are not counted into: it
    /// starts the prefix, and the partial is listed.
    fn partials(mut self, value: T, _: (bool, bool)) -> impl Partials<T> {
        let (mut prefix, mut partial, units) = match self.units.take() {
            Some(units) => (Some(value), None, units),
            None => (None, Some(value), Vec::new()),
        };
        let state = prefix.as_mut().or(partial.as_mut()).expect("a state");
        self.width = self.slots(state).len();
        let (own, listed) = (units.len(), partial.is_none());
        Prefix {
            x: self,
            prefix,
            partial,
            units,
            own,
            listed,
        }
    }
}

impl<T, P> Partials<T> for Prefix<P>
where
    T: Clone + Send + 'static,
    P: Deref<Target: ReduceScanOp<State = T>>,
{
    type Piece = Piece<T>;

    fn send(&mut self, to: Peer, bytes_of: impl Fn(&T) -> usize, sends_on: bool) {
        let (comm, dst, key) = to;
        if self.listed && ships_units(self.units.len(), self.x.width) {
            let units = if sends_on {
                self.units.clone()
            } else {
                std::mem::take(&mut self.units)
            };
            return send_units::<T>(to, units);
        }
        // A state goes out: the rank's own units are counted into a clone
        // of the prefix only now.
        self.listed = false;
        let state = self.partial.take().unwrap_or_else(|| {
            let mut state = self.prefix.clone().expect("units mode holds a prefix");
            self.x.count(comm, &mut state, &self.units[..self.own]);
            state
        });
        let bytes = bytes_of(&state);
        if sends_on {
            self.partial = Some(state.clone());
        }
        comm.send_key(dst, key, Piece::Whole(state), bytes);
    }

    fn take(&mut self, comm: &Comm, earlier: Piece<T>, sends_on: bool) {
        let x = &self.x;
        if !sends_on {
            self.partial = None;
        }
        match earlier {
            Piece::Units(theirs) => {
                let prefix = self.prefix.get_or_insert_with(|| x.op.ident());
                x.count(comm, prefix, &theirs);
                if let Some(partial) = self.partial.as_mut() {
                    x.count(comm, partial, &theirs);
                }
                if self.listed && sends_on {
                    self.units.extend_from_slice(&theirs);
                }
            }
            // Added in place, into the prefix and into the partial while
            // later rounds send it, each charged a combine.
            Piece::Whole(mut theirs) => {
                self.listed = false;
                let ops = x.op.combine_ops(&theirs);
                if let Some(partial) = self.partial.as_mut() {
                    comm.advance(ops);
                    add_slots(x.slots(partial), x.slots(&mut theirs));
                }
                match self.prefix.as_mut() {
                    Some(prefix) => {
                        comm.advance(ops);
                        add_slots(x.slots(prefix), x.slots(&mut theirs));
                    }
                    None => self.prefix = Some(theirs),
                }
            }
        }
    }

    fn finish(self) -> (Option<T>, Option<T>) {
        (self.prefix, None)
    }
}

/// Adds `theirs` to `mine`, slot by slot: a counting state's combine.
pub(crate) fn add_slots(mine: &mut [u64], theirs: &[u64]) {
    gv_core::kernel::combine_elementwise(mine, theirs, |a, b| a + b);
}

/// The buffers a rank's tree children sent up, kept to carry the result
/// back down: the first inline, so a rank with one child — every parent
/// at p = 2 — keeps it without allocating, and the rest in
/// increasing-mask order.
struct Kept<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T: Clone> Kept<T> {
    fn keep(&mut self, partial: T) {
        match self.first {
            None => self.first = Some(partial),
            Some(_) => self.rest.push(partial),
        }
    }

    /// The buffer of the child the down-sweep sends to next, holding
    /// `result`. The down-sweep takes the children largest subtree first,
    /// the reverse of the up-sweep, so the buffers come off the back.
    fn write_back(&mut self, result: &T) -> T {
        let mut buffer = (self.rest.pop().or_else(|| self.first.take()))
            .expect("a buffer is kept for every child");
        buffer.clone_from(result);
        buffer
    }
}
