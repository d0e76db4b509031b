//! A state lent to one partner for one pairwise round, instead of a clone
//! of it sent.
//!
//! Two ranks that exchange counting states, whose slots add slot by slot
//! ([`gv_core::op::ElementwiseState`]), need not ship them whole: each lends its state
//! to the other, combines *its* half of the slots in place from the
//! other's buffer, and then copies the other half, once final, out of the
//! other's buffer. Each rank reads and writes `n` slots, not a clone of
//! `n` plus a combine of `n`, and writes only into its own, cache-hot
//! buffer. The lender splits its slots at `mid = len / 2` into the run it
//! *keeps* (combines) and the run it *gives* (the borrower combines the
//! matching run of its own state from it):
//!
//! 1. the lender writes its kept run; the borrower reads its given run;
//! 2. the lender [`publish`](Loan::publish)es: its kept run is final, and
//!    the borrower may read it; the borrower
//!    [`give_back`](View::give_back)s: it reads the given run no more, and
//!    the lender may write it;
//! 3. the borrower drops its [`View`], and the lender
//!    [`reclaim`](Loan::reclaim)s its state.
//!
//! # Safety argument
//!
//! The state moves into an `Arc` shared by the [`Loan`] and its one
//! [`View`], so it lives as long as either side holds it: a lender that
//! unwinds, is cancelled or leaks its loan frees nothing the borrower can
//! still read, whoever drops last frees the state, and no wait is needed
//! for memory safety — only to get the state back. Its slots are taken
//! once, while the `Arc` is unique, as a raw run that every later access
//! goes through; the rest of the state is not touched until the lender
//! owns the `Arc` alone again. Every access to the slots is through one of
//! four methods, and the two signals keep the lender's writes and the
//! borrower's reads apart:
//!
//! - [`Loan::kept`] (`&mut`) answers only before the lender publishes;
//!   [`View::kept`] (`&`) only after it has seen the publication
//!   (release/acquire on `kept_final`);
//! - [`View::given`] (`&`) answers only before the borrower gives the run
//!   back, which takes `&mut self`, so no read of it outlives the signal;
//!   [`Loan::given`] (`&mut`) only after it has seen the signal
//!   (release/acquire on `given_back`). Dropping a view gives back too.
//!
//! The kept and given runs are disjoint, so what one side reads while the
//! other writes is never the same slot. Whatever the borrower does — a
//! partner of another length, a view kept forever — can make the result
//! wrong or the lender wait, never make a read race a write.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gv_executor::lane::Parker;

/// A lent state and the signals of its loan, shared by the lender's
/// [`Loan`] and the borrower's [`View`].
struct Shared<T> {
    /// Reached only through `base` while the view is live.
    state: UnsafeCell<T>,
    /// The first of the state's `len` slots, taken once when lent.
    base: *mut u64,
    /// The lender's run: `[0, len / 2)` or `[len / 2, len)`.
    kept: Range<usize>,
    /// The borrower's run of the lender's slots: the other one.
    given: Range<usize>,
    /// The lender writes its kept run no more.
    kept_final: AtomicBool,
    /// The borrower reads the given run no more.
    given_back: AtomicBool,
    /// Woken when the borrower gives back or lets go.
    lender: Arc<Parker>,
    /// Woken when the lender publishes.
    borrower: Arc<Parker>,
}

// SAFETY: the slots are plain `u64`s, shared between the two sides under
// the protocol in the module docs; the rest of the state is reached only
// by the side that holds the `Arc` alone (`Loan::reclaim`, or the last
// drop), which may be either thread — hence `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: as above; no `&T` is ever handed out.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// The slots of `run`.
    ///
    /// # Safety
    /// `run` must be `kept` or `given`, and no other thread may write it
    /// for as long as the slice lives.
    unsafe fn read(&self, run: &Range<usize>) -> &[u64] {
        // SAFETY: `kept` and `given` lie inside the slots taken at `lend`,
        // which the `Arc` keeps alive; the caller excludes writers.
        unsafe { std::slice::from_raw_parts(self.base.add(run.start), run.len()) }
    }

    /// The slots of `run`, to write.
    ///
    /// # Safety
    /// `run` must be `kept` or `given`, and no other access to it may
    /// happen for as long as the slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn write(&self, run: &Range<usize>) -> &mut [u64] {
        // SAFETY: as in `read`; the caller excludes every other access.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(run.start), run.len()) }
    }
}

/// The lender's side of a loan.
pub struct Loan<T> {
    shared: Arc<Shared<T>>,
}

/// The borrower's side of a loan: sent to the partner in place of a clone.
pub struct View<T> {
    /// `None` only inside `drop`, which lets go before it wakes the lender.
    shared: Option<Arc<Shared<T>>>,
    /// This view gave the given run back.
    gave_back: bool,
}

/// Lends `state`, whose slots `slots` returns, for one pairwise round:
/// the lender keeps the lower half of the slots if `keeps_lower`, else
/// the upper one. `lender` and `borrower` are the two sides' parkers,
/// which the other side's signals wake.
pub(crate) fn lend<T>(
    state: T,
    slots: impl FnOnce(&mut T) -> &mut [u64],
    keeps_lower: bool,
    lender: Arc<Parker>,
    borrower: Arc<Parker>,
) -> (Loan<T>, View<T>) {
    let mut shared = Arc::new(Shared {
        state: UnsafeCell::new(state),
        base: std::ptr::null_mut(),
        kept: 0..0,
        given: 0..0,
        kept_final: AtomicBool::new(false),
        given_back: AtomicBool::new(false),
        lender,
        borrower,
    });
    let unique = Arc::get_mut(&mut shared).expect("a new Arc is unique");
    let run = slots(unique.state.get_mut());
    let (base, len) = (run.as_mut_ptr(), run.len());
    let (lower, upper) = (0..len / 2, len / 2..len);
    (unique.kept, unique.given) = if keeps_lower {
        (lower, upper)
    } else {
        (upper, lower)
    };
    unique.base = base;
    let view = View {
        shared: Some(Arc::clone(&shared)),
        gave_back: false,
    };
    (Loan { shared }, view)
}

impl<T> Loan<T> {
    /// The run this side combines, until it [`publish`](Self::publish)es.
    pub(crate) fn kept(&mut self) -> Option<&mut [u64]> {
        let s = &*self.shared;
        if s.kept_final.load(Ordering::Relaxed) {
            return None;
        }
        // SAFETY: unpublished, so the borrower does not read the kept run
        // (`View::kept`), and `&mut self` makes this the only slice of it
        // on this side.
        Some(unsafe { s.write(&s.kept) })
    }

    /// Declares the kept run final, for the borrower to copy.
    pub(crate) fn publish(&mut self) {
        self.shared.kept_final.store(true, Ordering::Release);
        self.shared.borrower.unpark();
    }

    /// Whether the borrower gave the given run back.
    pub(crate) fn given_back(&self) -> bool {
        self.shared.given_back.load(Ordering::Acquire)
    }

    /// The given run, to overwrite, once the borrower gave it back.
    pub(crate) fn given(&mut self) -> Option<&mut [u64]> {
        let s = &*self.shared;
        if !self.given_back() {
            return None;
        }
        // SAFETY: given back, so the borrower reads the given run no more
        // (`View::given`), and `&mut self` makes this the only slice of it
        // on this side.
        Some(unsafe { s.write(&s.given) })
    }

    /// Whether the borrower has let go of its view.
    pub(crate) fn released(&self) -> bool {
        Arc::strong_count(&self.shared) == 1
    }

    /// The state, back; only once [`released`](Self::released).
    pub(crate) fn reclaim(self) -> T {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.state.into_inner(),
            Err(_) => panic!("a lent state reclaimed while its view is live"),
        }
    }
}

impl<T> View<T> {
    fn shared(&self) -> &Shared<T> {
        self.shared
            .as_deref()
            .expect("a view is live until dropped")
    }

    /// The lender's given run, until this view gives it back.
    pub(crate) fn given(&self) -> Option<&[u64]> {
        let s = self.shared();
        // SAFETY: not given back yet, so the lender does not write the
        // given run (`Loan::given`); `give_back` takes `&mut self`, so no
        // slice returned here outlives the signal.
        (!self.gave_back).then(|| unsafe { s.read(&s.given) })
    }

    /// Gives the given run back to the lender, to overwrite.
    pub(crate) fn give_back(&mut self) {
        if !self.gave_back {
            self.gave_back = true;
            let s = self.shared();
            s.given_back.store(true, Ordering::Release);
            s.lender.unpark();
        }
    }

    /// The lender's kept run, once published final.
    pub(crate) fn kept(&self) -> Option<&[u64]> {
        let s = self.shared();
        // SAFETY: published, so the lender writes the kept run no more
        // (`Loan::kept`).
        s.kept_final
            .load(Ordering::Acquire)
            .then(|| unsafe { s.read(&s.kept) })
    }
}

impl<T> Drop for View<T> {
    /// Gives back what it still holds and lets go of the state, then
    /// wakes the lender — after the count has dropped, which is what
    /// [`Loan::released`] reads.
    fn drop(&mut self) {
        self.give_back();
        let shared = self.shared.take().expect("dropped once");
        let lender = Arc::clone(&shared.lender);
        drop(shared);
        lender.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::counting::add_slots;

    fn run(state: &mut Vec<u64>) -> &mut [u64] {
        state
    }

    fn parkers() -> (Arc<Parker>, Arc<Parker>) {
        (Arc::new(Parker::new()), Arc::new(Parker::new()))
    }

    /// The full exchange, both sides on one thread: each ends with the
    /// sum of the two states, lower ⊕ higher.
    #[test]
    fn a_pair_of_loans_leaves_each_side_the_combined_state() {
        for len in [0usize, 1, 2, 7, 8] {
            let a: Vec<u64> = (0..len as u64).collect();
            let b: Vec<u64> = (0..len as u64).map(|x| 100 * x + 1).collect();
            let expected: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let (pa, pb) = parkers();
            let (mut loan_a, view_a) = lend(a, run, true, Arc::clone(&pa), Arc::clone(&pb));
            let (mut loan_b, view_b) = lend(b, run, false, pb, pa);
            // Each side holds the other's view.
            let (mut a_holds, mut b_holds) = (view_b, view_a);
            add_slots(loan_a.kept().unwrap(), a_holds.given().unwrap());
            add_slots(loan_b.kept().unwrap(), b_holds.given().unwrap());
            a_holds.give_back();
            b_holds.give_back();
            loan_a.publish();
            loan_b.publish();
            assert!(loan_a.kept().is_none() && a_holds.given().is_none());
            loan_a
                .given()
                .unwrap()
                .copy_from_slice(a_holds.kept().unwrap());
            loan_b
                .given()
                .unwrap()
                .copy_from_slice(b_holds.kept().unwrap());
            assert!(!loan_a.released());
            drop((a_holds, b_holds));
            assert!(loan_a.released() && loan_b.released());
            assert_eq!(loan_a.reclaim(), expected, "len {len}");
            assert_eq!(loan_b.reclaim(), expected, "len {len}");
        }
    }

    /// Each signal is what opens the other side's access, and nothing
    /// else does.
    #[test]
    fn a_run_opens_only_on_its_signal() {
        let (pa, pb) = parkers();
        let (mut loan, mut view) = lend(vec![1u64, 2, 3, 4], run, true, pa, pb);
        assert_eq!(view.kept(), None);
        assert!(loan.given().is_none());
        assert_eq!(view.given(), Some(&[3u64, 4][..]));
        loan.kept().unwrap()[0] = 10;
        loan.publish();
        assert_eq!(view.kept(), Some(&[10u64, 2][..]));
        assert!(loan.given().is_none());
        view.give_back();
        assert_eq!(view.given(), None);
        assert_eq!(loan.given().unwrap(), &[3u64, 4][..]);
    }

    /// A side that goes away — a lender that unwinds, a borrower that
    /// drops its view early — leaves the other side's reads valid and
    /// frees the state exactly once, on whichever side lets go last.
    #[test]
    fn the_state_lives_until_both_sides_let_go() {
        let witness = Arc::new(());
        struct Tracked(Vec<u64>, #[allow(dead_code)] Arc<()>);
        fn slots(state: &mut Tracked) -> &mut [u64] {
            &mut state.0
        }

        // The lender lets go first: the borrower still reads the state.
        let state = Tracked(vec![5, 6, 7], Arc::clone(&witness));
        let (mut loan, view) = lend(state, slots, false, parkers().0, parkers().1);
        loan.kept().unwrap()[0] = 9;
        loan.publish();
        drop(loan);
        assert_eq!(Arc::strong_count(&witness), 2);
        assert_eq!(view.given(), Some(&[5u64][..]));
        assert_eq!(view.kept(), Some(&[9u64, 7][..]));
        drop(view);
        assert_eq!(Arc::strong_count(&witness), 1);

        // The borrower lets go first: the given run is the lender's again.
        let state = Tracked(vec![5, 6, 7], Arc::clone(&witness));
        let (mut loan, view) = lend(state, slots, true, parkers().0, parkers().1);
        drop(view);
        assert!(loan.given_back() && loan.released());
        loan.given().unwrap()[0] = 1;
        let back = loan.reclaim();
        assert_eq!(
            (back.0.as_slice(), Arc::strong_count(&witness)),
            (&[5u64, 1, 7][..], 2)
        );
    }

    #[test]
    #[should_panic(expected = "reclaimed while its view is live")]
    fn reclaiming_a_live_loan_panics() {
        let (pa, pb) = parkers();
        let (loan, _view) = lend(vec![1u64], run, true, pa, pb);
        loan.reclaim();
    }
}
