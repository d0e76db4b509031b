//! How a state crosses a rank boundary, as one schedule body sees it.
//!
//! Recursive doubling's allreduce (`allreduce_rd.rs`) and the tree
//! allreduce (`tree.rs`) are each one `async` body, generic over an
//! [`Exchange`]; recursive doubling's scan (`scan.rs`) is one loop,
//! generic over a rank's [`Partials`]. [`ByValue`]'s clone the state and
//! combine it by the call's `combine`; [`Counted`](super::Counted)'s ship
//! units or clone, and return buffers (`counting.rs`). A type parameter,
//! not a branch: the by-value instantiation is the code a by-value
//! schedule had on its own, where one body branching on the crossing at
//! run time read `cg_solve`'s 8-byte allreduces about 6 % slower
//! (EXPERIMENTS.md, TXT-VIEW). Every other schedule carries whole states.

use crate::comm::Comm;
use crate::cost::AllreduceAlgorithm;
use crate::message::Key;

/// A forced plan and how its states cross: the `plan` argument of
/// [`Comm::allreduce_by`]. A bare plan converts into `By(plan, ByValue)`.
pub struct By<P, X>(pub P, pub X);

impl From<AllreduceAlgorithm> for By<AllreduceAlgorithm, ByValue> {
    fn from(algo: AllreduceAlgorithm) -> Self {
        By(algo, ByValue)
    }
}

/// How a call's states cross: [`ByValue`], or a counting state's
/// [`Counted`](super::Counted).
pub trait Crossing<T>: Sized {
    /// The exchange a generic body drives, combining by `combine` where
    /// it combines by value.
    fn exchange(self, combine: impl FnMut(T, T) -> T) -> impl Exchange<T>;
}

/// States cross as themselves: cloned where the sender keeps one,
/// combined by the call's `combine`.
pub struct ByValue;

impl<T: Clone + Send + 'static> Crossing<T> for ByValue {
    fn exchange(self, combine: impl FnMut(T, T) -> T) -> impl Exchange<T> {
        Cloned(combine)
    }
}

/// A round's other end: the communicator, the peer's rank, the call's key.
pub type Peer<'c> = (&'c Comm, usize, Key);

/// How a call's states cross. Recursive doubling's allreduce uses
/// `begin`, `give`, `offer` and `settle`, the tree `adopt` and
/// `hand_down`; its shifted scan starts from `partials`.
pub trait Exchange<T>: Sized {
    /// One message of a recursive-doubling round.
    type Piece: Send + 'static;

    /// Called once, before recursive doubling's first send.
    fn begin(&mut self, _state: &mut T) {}
    /// Sends `state`, of `bytes` modeled bytes, for good.
    fn give(&mut self, to: Peer, state: T, bytes: usize);
    /// Sends `state`'s piece, which the rank keeps; `last` in the last
    /// round.
    fn offer(&mut self, to: Peer, state: &T, bytes: usize, last: bool);
    /// Folds the peer's piece into `held`, this rank's partial; `lower`
    /// when it precedes the peer's.
    fn settle(&mut self, comm: &Comm, held: T, theirs: Self::Piece, lower: bool) -> T;

    /// `acc ⊕ child` on the tree's way up, keeping what its way down needs.
    fn adopt(&mut self, comm: &Comm, acc: T, child: T) -> T;
    /// The next child's copy of `result` on the tree's way down.
    fn hand_down(&mut self, result: &T) -> T;

    /// A shifted scan's partials on a rank holding `value`, given the
    /// halves the caller consumes, `(exclusive, inclusive)`.
    fn partials(self, value: T, need: (bool, bool)) -> impl Partials<T>;
}

/// A rank's partials in recursive doubling's shifted scan.
pub trait Partials<T> {
    /// One message of a scan round.
    type Piece: Send + 'static;

    /// Sends the inclusive partial; `sends_on` when this rank sends again
    /// after this round. It is kept only while the caller or a later send
    /// needs it.
    fn send(&mut self, to: Peer, bytes_of: impl Fn(&T) -> usize, sends_on: bool);
    /// Folds a lower rank's piece into both partials.
    fn take(&mut self, comm: &Comm, earlier: Self::Piece, sends_on: bool);
    /// `(exclusive, inclusive)`, each `None` where there is none.
    fn finish(self) -> (Option<T>, Option<T>);
}

/// [`ByValue`]'s exchange: the call's `combine`.
struct Cloned<C>(C);

impl<T: Clone + Send + 'static, C: FnMut(T, T) -> T> Exchange<T> for Cloned<C> {
    type Piece = T;

    fn give(&mut self, (comm, dst, key): Peer, state: T, bytes: usize) {
        comm.send_key(dst, key, state, bytes);
    }

    fn offer(&mut self, (comm, dst, key): Peer, state: &T, bytes: usize, _: bool) {
        comm.send_key(dst, key, state.clone(), bytes);
    }

    fn settle(&mut self, _: &Comm, held: T, theirs: T, lower: bool) -> T {
        match lower {
            true => (self.0)(held, theirs),
            false => (self.0)(theirs, held),
        }
    }

    fn adopt(&mut self, _: &Comm, acc: T, child: T) -> T {
        (self.0)(acc, child)
    }

    fn hand_down(&mut self, result: &T) -> T {
        result.clone()
    }

    fn partials(self, value: T, need: (bool, bool)) -> impl Partials<T> {
        let (exclusive, inclusive, combine) = (None, Some(value), self.0);
        Both {
            exclusive,
            inclusive,
            need,
            combine,
        }
    }
}

/// [`ByValue`]'s scan partials: the halves the caller consumes, `need`,
/// and the call's `combine`.
struct Both<T, C> {
    exclusive: Option<T>,
    inclusive: Option<T>,
    need: (bool, bool),
    combine: C,
}

impl<T: Clone + Send + 'static, C: FnMut(T, T) -> T> Partials<T> for Both<T, C> {
    type Piece = T;

    fn send(&mut self, (comm, dst, key): Peer, bytes_of: impl Fn(&T) -> usize, sends_on: bool) {
        let inclusive = &mut self.inclusive;
        let bytes = bytes_of(inclusive.as_ref().expect("partial live while sends remain"));
        // A partial with no use left moves onto the wire instead of
        // being cloned.
        let payload = match self.need.1 || sends_on {
            true => inclusive.clone(),
            false => inclusive.take(),
        };
        comm.send_key(dst, key, payload.unwrap(), bytes);
    }

    fn take(&mut self, _: &Comm, earlier: T, sends_on: bool) {
        let (need_exclusive, need_inclusive) = self.need;
        let combine = &mut self.combine;
        // `earlier` moves into the exclusive half once the inclusive one
        // has no use left, instead of being cloned for both.
        let (to_exclusive, to_inclusive) = match (need_exclusive, need_inclusive || sends_on) {
            (true, true) => (Some(earlier.clone()), Some(earlier)),
            (false, _) => (None, Some(earlier)),
            (true, false) => (Some(earlier), None),
        };
        if let Some(earlier) = to_exclusive {
            self.exclusive = Some(match self.exclusive.take() {
                None => earlier,
                Some(e) => combine(earlier, e),
            });
        }
        let inclusive = &mut self.inclusive;
        *inclusive = to_inclusive.map(|earlier| combine(earlier, inclusive.take().unwrap()));
    }

    fn finish(self) -> (Option<T>, Option<T>) {
        (self.exclusive, self.inclusive)
    }
}
