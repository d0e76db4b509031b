//! The global-view operator abstraction (paper §3).
//!
//! An operator describes a reduction/scan over three types:
//!
//! * **`In`** — the element type of the collection being reduced or scanned;
//! * **`State`** — the value accumulated on each (virtual) processor and
//!   exchanged between processors during the combine phase;
//! * **`Out`** — the result type (a single value for a reduction, one value
//!   per element for a scan).
//!
//! and up to seven functions, with the type signatures from the paper:
//!
//! ```text
//! f_ident      : ()              -> state
//! f_pre_accum  : (state × in)    -> state     (optional)
//! f_accum      : (state × in)    -> state
//! f_post_accum : (state × in)    -> state     (optional)
//! f_combine    : (state × state) -> state
//! f_red_gen    : (state)         -> out
//! f_scan_gen   : (state × in)    -> out
//! ```
//!
//! In this Rust formulation the state is threaded by mutable reference
//! rather than returned, which is both idiomatic and what the paper's
//! Chapel classes do implicitly (`this` is the state). `pre_accum` and
//! `post_accum` default to no-ops, and `red_gen`/`scan_gen` get automatic
//! definitions whenever `State` converts into `Out` — covering the common
//! case the paper describes where "reductions and scans can share the same
//! generate functions" or need none at all.

/// Whether a scan is inclusive or exclusive (paper §1).
///
/// The exclusive scan is the primitive: the paper notes that the inclusive
/// scan can always be computed from the exclusive scan without
/// communication, while the converse requires either an invertible combine
/// function or an extra shift communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKind {
    /// Position `i` receives the combination of elements `0..=i`.
    Inclusive,
    /// Position `i` receives the combination of elements `0..i` (the
    /// identity at position 0).
    Exclusive,
}

/// A user-defined (or built-in) operator for global-view reductions and
/// scans.
///
/// Implementations must satisfy two laws for the parallel engines to agree
/// with the sequential one:
///
/// 1. **Associativity of `combine`** over the states reachable by
///    accumulation. (Non-associative operators can still be *expressed* —
///    the paper allows it for abstraction value — but only the sequential
///    engine is then guaranteed to match the language-specified order.)
/// 2. **Accumulate/combine coherence**: accumulating a run of elements into
///    a fresh identity state and then `combine`-ing it onto a previous state
///    must equal accumulating those elements directly onto the previous
///    state. This is what lets the accumulate phase be split at arbitrary
///    chunk boundaries.
///
/// If [`COMMUTATIVE`](Self::COMMUTATIVE) is `false`, every engine combines
/// states strictly in set order; if `true`, the message-passing reduce is
/// free to combine partial results in arrival order (paper §1: commutative
/// operators "immediately combine whichever partial results are available").
pub trait ReduceScanOp {
    /// Element type of the input collection.
    type In;
    /// Per-processor accumulation state; the value exchanged between
    /// processors in the combine phase.
    type State;
    /// Result type.
    type Out;

    /// Whether `combine` is commutative. Defaults to `true`, matching the
    /// paper's compiler rule: "If it is undefined, it is assumed to be true."
    const COMMUTATIVE: bool = true;

    /// `f_ident`: produces the identity state.
    fn ident(&self) -> Self::State;

    /// `f_pre_accum`: observes the *first* element on a processor before
    /// accumulation starts. No-op by default. Only called when the
    /// processor's block is non-empty (the `if n > 0` guard in Listings
    /// 2–3).
    fn pre_accum(&self, _state: &mut Self::State, _first: &Self::In) {}

    /// `f_accum`: folds one input element into the state.
    fn accum(&self, state: &mut Self::State, x: &Self::In);

    /// `f_post_accum`: observes the *last* element on a processor after
    /// accumulation finishes. No-op by default; same emptiness guard as
    /// [`pre_accum`](Self::pre_accum).
    fn post_accum(&self, _state: &mut Self::State, _last: &Self::In) {}

    /// `f_combine`: merges the state of a *later* run of elements (`later`)
    /// into the state of an *earlier* run (`earlier`), leaving in `earlier`
    /// the state of the concatenated run.
    ///
    /// The argument order is significant for non-commutative operators:
    /// `earlier` always corresponds to elements that precede `later`'s in
    /// the input ordering.
    fn combine(&self, earlier: &mut Self::State, later: Self::State);

    /// `f_red_gen`: produces the reduction result from the final state.
    ///
    /// Like the paper's Chapel interface ("every class … must define at
    /// least the three functions accum, combine, and gen"), the generate
    /// functions are required; the [`crate::monoid::MonoidOp`] adapter and
    /// the [`crate::impl_passthrough_gen!`] macro supply them for the common
    /// case where `State == Out`.
    fn red_gen(&self, state: Self::State) -> Self::Out;

    /// `f_scan_gen`: produces the scan output at one position from the
    /// running state and the input element at that position.
    ///
    /// For an exclusive scan the engines call `scan_gen` *before*
    /// accumulating the element; for an inclusive scan, *after* (the
    /// line-interchange the paper describes below Listing 3). The paper
    /// notes many operators "can share the same generate functions" — in
    /// that spirit, implementations with `State: Clone + Into<Out>` can
    /// write `scan_gen` as `state.clone().into()`, which is exactly what
    /// [`crate::impl_passthrough_gen!`] expands to.
    fn scan_gen(&self, state: &Self::State, x: &Self::In) -> Self::Out;

    /// Size in bytes this state occupies "on the wire", used by the
    /// message-passing cost model. Defaults to `size_of::<State>()`;
    /// operators whose state owns heap storage (e.g. `mink`'s vector)
    /// should override it.
    fn wire_size(&self, _state: &Self::State) -> usize {
        std::mem::size_of::<Self::State>()
    }

    /// Abstract operation count of one `accum` call, for the cost model.
    /// Defaults to 1 (one scalar update).
    fn accum_ops(&self) -> u64 {
        1
    }

    /// Abstract operation count of one `combine` call, for the cost model.
    /// Defaults to 1; operators with structured state (vectors, heaps)
    /// should report its size — the paper's observation that "the
    /// accumulate function often has a substantially faster implementation
    /// than the combine function" is exactly this asymmetry.
    fn combine_ops(&self, _incoming: &Self::State) -> u64 {
        1
    }

    /// Block-kernel hook for the accumulate phase: folds a whole run of
    /// elements into `state` at once, *without* the `pre_accum`/`post_accum`
    /// hooks ([`accumulate_block`] wraps those around it).
    ///
    /// Returning `false` (the default) makes every engine fall back to the
    /// per-element [`accum`](Self::accum) loop, so user-defined operators
    /// keep working unchanged. Implementations that return `true` must
    /// leave `state` exactly as the kernel's documented regrouping
    /// specifies (see [`crate::kernel`] for the pinned float contract;
    /// regrouping-invariant operators must match the scalar loop
    /// bit-for-bit). An operator whose `accum` is a latency chain on a
    /// small state need not write a kernel: [`crate::kernel::accum_runs`]
    /// derives one from `ident`/`accum`/`combine`, to be called from here
    /// once it measures ahead of the scalar loop (it often does not).
    fn accum_block(&self, _state: &mut Self::State, _block: &[Self::In]) -> bool {
        false
    }

    /// Block-kernel hook for the rescan phase: appends one output per
    /// element of `block` to `out` and leaves `state` as the running state
    /// after the block (the engines' per-element `scan_gen`/`accum`
    /// interleave, batched).
    ///
    /// Returning `false` (the default) falls back to the per-element loop.
    fn scan_block(
        &self,
        _state: &mut Self::State,
        _block: &[Self::In],
        _out: &mut Vec<Self::Out>,
        _kind: ScanKind,
    ) -> bool {
        false
    }
}

/// Operators pass by reference transparently: `&Op` is itself an operator.
impl<Op: ReduceScanOp + ?Sized> ReduceScanOp for &Op {
    type In = Op::In;
    type State = Op::State;
    type Out = Op::Out;

    const COMMUTATIVE: bool = Op::COMMUTATIVE;

    fn ident(&self) -> Self::State {
        (**self).ident()
    }
    fn pre_accum(&self, state: &mut Self::State, first: &Self::In) {
        (**self).pre_accum(state, first);
    }
    fn accum(&self, state: &mut Self::State, x: &Self::In) {
        (**self).accum(state, x);
    }
    fn post_accum(&self, state: &mut Self::State, last: &Self::In) {
        (**self).post_accum(state, last);
    }
    fn combine(&self, earlier: &mut Self::State, later: Self::State) {
        (**self).combine(earlier, later);
    }
    fn red_gen(&self, state: Self::State) -> Self::Out {
        (**self).red_gen(state)
    }
    fn scan_gen(&self, state: &Self::State, x: &Self::In) -> Self::Out {
        (**self).scan_gen(state, x)
    }
    fn wire_size(&self, state: &Self::State) -> usize {
        (**self).wire_size(state)
    }
    fn accum_ops(&self) -> u64 {
        (**self).accum_ops()
    }
    fn combine_ops(&self, incoming: &Self::State) -> u64 {
        (**self).combine_ops(incoming)
    }
    fn accum_block(&self, state: &mut Self::State, block: &[Self::In]) -> bool {
        (**self).accum_block(state, block)
    }
    fn scan_block(
        &self,
        state: &mut Self::State,
        block: &[Self::In],
        out: &mut Vec<Self::Out>,
        kind: ScanKind,
    ) -> bool {
        (**self).scan_block(state, block, out, kind)
    }
}

/// Accumulates a full block of elements into `state`, applying the
/// pre/post hooks exactly as Listing 2 lines 3–8 specify (hooks are skipped
/// for empty blocks).
///
/// This helper is the single definition of the accumulate phase shared by
/// every engine in the repository. The inner element loop dispatches to
/// the operator's [`ReduceScanOp::accum_block`] kernel when it has one,
/// falling back to the per-element `accum` loop otherwise; either way the
/// dispatch is recorded in the [`crate::kernel`] counters.
pub fn accumulate_block<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    state: &mut Op::State,
    block: &[Op::In],
) {
    if let (Some(first), Some(last)) = (block.first(), block.last()) {
        op.pre_accum(state, first);
        accumulate_run(op, state, block);
        op.post_accum(state, last);
    }
}

/// The hook-free inner loop of the accumulate phase: one run of elements
/// through the operator's [`ReduceScanOp::accum_block`] kernel, or the
/// per-element `accum` loop when it has none, recorded in the
/// [`crate::kernel`] counters. [`accumulate_block`] wraps the hooks around
/// one run; [`crate::iter::accumulate_iter`] around a stream of them.
pub(crate) fn accumulate_run<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    state: &mut Op::State,
    run: &[Op::In],
) {
    if op.accum_block(state, run) {
        crate::kernel::note_kernel_block();
    } else {
        crate::kernel::note_scalar_block();
        for x in run {
            op.accum(state, x);
        }
    }
}

/// [`accumulate_block`] with the block kernel forcibly bypassed: always
/// the per-element `accum` loop (hooks included). This is the scalar
/// baseline the kernel micro-benchmark and the kernel property tests
/// measure and compare against.
pub fn accumulate_block_scalar<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    state: &mut Op::State,
    block: &[Op::In],
) {
    if let (Some(first), Some(last)) = (block.first(), block.last()) {
        op.pre_accum(state, first);
        for x in block {
            op.accum(state, x);
        }
        op.post_accum(state, last);
    }
}

/// Scans a full block of elements: appends one output per element to
/// `out`, leaving `state` as the running fold through the block. This is
/// the single definition of the (re)scan loop shared by the sequential
/// engine, the shared-memory engine's rescan phase, and the
/// message-passing local rescan.
///
/// Dispatches to the operator's [`ReduceScanOp::scan_block`] kernel when it
/// has one, falling back to the per-element Listing 3 loop otherwise;
/// either way the dispatch is recorded in the [`crate::kernel`] counters.
/// The `pre_accum`/`post_accum` hooks do not participate — they only run in
/// the accumulate phase feeding the cross-processor combine.
pub fn rescan_block<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    state: &mut Op::State,
    block: &[Op::In],
    kind: ScanKind,
    out: &mut Vec<Op::Out>,
) {
    if block.is_empty() {
        return;
    }
    // The window about to be filled, if the caller sized `out` for it (a
    // caller that did not is left to grow as before): every scan in the
    // repository writes its output through here, so this is the one place
    // a large output asks for huge pages ([`crate::mem`]).
    if let Some(window) = out.spare_capacity_mut().get_mut(..block.len()) {
        crate::mem::map_huge(window);
    }
    if op.scan_block(state, block, out, kind) {
        crate::kernel::note_kernel_block();
    } else {
        crate::kernel::note_scalar_block();
        for x in block {
            match kind {
                ScanKind::Exclusive => {
                    out.push(op.scan_gen(state, x));
                    op.accum(state, x);
                }
                ScanKind::Inclusive => {
                    op.accum(state, x);
                    out.push(op.scan_gen(state, x));
                }
            }
        }
    }
}

/// [`rescan_block`] with the scan kernel forcibly bypassed: always the
/// per-element Listing 3 loop. The scalar baseline for the kernel
/// micro-benchmark and the kernel property tests.
pub fn rescan_block_scalar<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    state: &mut Op::State,
    block: &[Op::In],
    kind: ScanKind,
    out: &mut Vec<Op::Out>,
) {
    for x in block {
        match kind {
            ScanKind::Exclusive => {
                out.push(op.scan_gen(state, x));
                op.accum(state, x);
            }
            ScanKind::Inclusive => {
                op.accum(state, x);
                out.push(op.scan_gen(state, x));
            }
        }
    }
}

/// Folds `states` (in order) into a single state using `op.combine`,
/// starting from the identity.
pub fn combine_all<Op: ReduceScanOp + ?Sized>(
    op: &Op,
    states: impl IntoIterator<Item = Op::State>,
) -> Op::State {
    let mut acc = op.ident();
    for s in states {
        op.combine(&mut acc, s);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal hand-rolled operator exercising the default methods.
    struct PlainSum;
    impl ReduceScanOp for PlainSum {
        type In = i64;
        type State = i64;
        type Out = i64;
        fn ident(&self) -> i64 {
            0
        }
        fn accum(&self, s: &mut i64, x: &i64) {
            *s += *x;
        }
        fn combine(&self, a: &mut i64, b: i64) {
            *a += b;
        }
        fn red_gen(&self, s: i64) -> i64 {
            s
        }
        fn scan_gen(&self, s: &i64, _x: &i64) -> i64 {
            *s
        }
    }

    #[test]
    fn default_generates_pass_state_through() {
        let op = PlainSum;
        assert_eq!(op.red_gen(7), 7);
        assert_eq!(op.scan_gen(&7, &99), 7);
    }

    #[test]
    fn accumulate_block_sums() {
        let op = PlainSum;
        let mut s = op.ident();
        accumulate_block(&op, &mut s, &[1, 2, 3, 4]);
        assert_eq!(s, 10);
    }

    #[test]
    fn accumulate_block_empty_is_identity() {
        let op = PlainSum;
        let mut s = op.ident();
        accumulate_block(&op, &mut s, &[]);
        assert_eq!(s, 0);
    }

    #[test]
    fn hooks_fire_once_per_nonempty_block() {
        struct HookCounter;
        impl ReduceScanOp for HookCounter {
            type In = i64;
            type State = (u32, u32, u32); // (pre, accum, post) call counts
            type Out = (u32, u32, u32);
            fn ident(&self) -> Self::State {
                (0, 0, 0)
            }
            fn pre_accum(&self, s: &mut Self::State, _x: &i64) {
                s.0 += 1;
            }
            fn accum(&self, s: &mut Self::State, _x: &i64) {
                s.1 += 1;
            }
            fn post_accum(&self, s: &mut Self::State, _x: &i64) {
                s.2 += 1;
            }
            fn combine(&self, a: &mut Self::State, b: Self::State) {
                a.0 += b.0;
                a.1 += b.1;
                a.2 += b.2;
            }
            fn red_gen(&self, s: Self::State) -> Self::Out {
                s
            }
            fn scan_gen(&self, s: &Self::State, _x: &i64) -> Self::Out {
                *s
            }
        }
        let op = HookCounter;
        let mut s = op.ident();
        accumulate_block(&op, &mut s, &[10, 20, 30]);
        assert_eq!(s, (1, 3, 1));
        accumulate_block(&op, &mut s, &[]);
        assert_eq!(s, (1, 3, 1), "hooks must not fire on empty blocks");
    }

    #[test]
    fn combine_all_folds_in_order() {
        let op = PlainSum;
        assert_eq!(combine_all(&op, [1, 2, 3]), 6);
        assert_eq!(combine_all(&op, std::iter::empty()), 0);
    }
}
