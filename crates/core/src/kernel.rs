//! Intra-rank block kernels: the vector-lane tier under the engines.
//!
//! The repository's reduction path is tiered like the generic GPU design
//! (arXiv:1710.07358): vector lanes within a block (this module), the
//! `gv-executor` chunked tree across cores (`crate::par`), message-passing
//! ranks across the machine (`gv-msgpass`/`gv-rsmpi`). Everything here is
//! plain Rust over fixed-width lane arrays — the workspace is hermetic, so
//! there is no `std::simd` and no intrinsics crate; LLVM auto-vectorizes
//! the lane loops, and runtime ISA dispatch (memchr-style:
//! `is_x86_feature_detected!` + `#[target_feature]` monomorphizations of
//! the *same* loop, written once in [`isa_tiers!`](crate::isa_tiers)) lets
//! one portable binary use AVX2/AVX-512 registers without changing a
//! single result.
//!
//! # The float-determinism contract
//!
//! Integer, bitwise and boolean kernels are *regrouping-invariant*: they
//! produce results bit-identical to the per-element scalar loop, always.
//! Float kernels necessarily reassociate (that is where the speedup comes
//! from), so their grouping is **pinned** instead of left to the optimizer:
//!
//! * [`fold_block`] folds lane `l ∈ 0..LANES` over elements
//!   `l, l+LANES, l+2·LANES, …` of the full-group prefix, folds the lanes
//!   together in ascending lane order, then folds the remainder serially —
//!   exactly the algorithm [`fold_block_reference`] spells out.
//! * [`scan_block_network`] runs a [`SCAN_GROUP`]-wide Hillis–Steele
//!   prefix network per group with a serial carry between groups
//!   ([`scan_block_network_reference`] is the spelled-out oracle).
//! * [`accum_runs`] cuts each [`BLOCK`]-element block of a run into
//!   [`RUNS`] contiguous pieces, accumulates each into an identity state of
//!   its own and combines the pieces in order; `MeanVar`'s hand kernel
//!   (`ops::stats`) reduces each [`BLOCK`]-element block with two
//!   [`fold_block`] passes and merges block onto block. Blocks are counted from the start of the run,
//!   and the streamed engine ([`crate::iter`]) stages [`BLOCK`] elements at
//!   a time, so a stream and a slice of the same elements regroup alike.
//!
//! The lane count, group width, block length and run count are
//! compile-time constants, the dispatch variants are monomorphizations of
//! one body, and no variant enables FMA contraction — so the same input
//! produces the same float result on every run, every thread count, and
//! every ISA tier. ([`any_in_block`], the k-best operators' block filter,
//! is the one kernel whose AVX2 tier spells its loop differently — a hit
//! count where the others OR — which a yes-or-no answer cannot show.) Changing [`LANES`], [`SCAN_GROUP`], [`BLOCK`] or
//! [`RUNS`] *is* a semantic change for floats and must be treated like one
//! (recordings re-checked).
//!
//! NaN caveat (same as MPI's `MPI_MIN`/`MPI_MAX`): comparison-based folds
//! and scans are only regrouping-invariant for totally-ordered float data,
//! because `if b < a { b } else { a }` is not associative across NaN (or
//! a +0/−0 mix). The pinned regrouping still makes them deterministic;
//! they just may differ from the serial order when NaNs are present.
//!
//! # Dispatch observability
//!
//! Every block routed through a kernel ticks a process-wide counter, and
//! every block that falls back to the generic per-element loop ticks
//! another ([`dispatch_counts`]). `gv-msgpass` snapshots both into its
//! `StatsSnapshot` as *observed* counters — masked from determinism pins
//! exactly like the transport counters, because they measure how compute
//! ran, not what it produced.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::op::{ReduceScanOp, ScanKind};

/// Accumulator lanes in a [`fold_block`] group. Pinned: part of the float
/// results' definition, not a tuning knob (32 × 8-byte lanes = four
/// AVX-512 registers, eight AVX2, sixteen SSE2 — enough independent
/// chains to cover FP-add latency on all of them).
pub const LANES: usize = 32;

/// Width of the [`scan_block_network`] prefix network. Pinned for the same
/// reason as [`LANES`].
pub const SCAN_GROUP: usize = 8;

/// Elements per block of the accumulate-phase kernels that regroup
/// ([`accum_runs`], `MeanVar`'s), and what [`crate::iter::Staged`]
/// stages per kernel call: 16 KiB of `(f64, u64)` pairs, so a block is
/// still in L1 when a second pass or the kernel after the staging reads it
/// back. Pinned like [`LANES`].
pub const BLOCK: usize = 1024;

/// Independent states [`accum_runs`] keeps per block. Pinned like
/// [`LANES`]; four is where `MinMax<f64>`, the op that gains most, peaks
/// (EXPERIMENTS.md, TXT-OPKERNEL: 3–4× at four, 1.9× at eight).
pub const RUNS: usize = 4;

/// The two dispatch counters, a cache line to a shard and a shard to a
/// thread: two ranks ticking one shared line pay its transfer between
/// their cores on every tick — about 50 ns against 5 on a line of their
/// own (EXPERIMENTS.md, TXT-AGG), once a row in an aggregated call.
#[repr(align(128))]
struct Shard {
    kernel: AtomicU64,
    scalar: AtomicU64,
}

static SHARDS: [Shard; 16] = [const {
    Shard {
        kernel: AtomicU64::new(0),
        scalar: AtomicU64::new(0),
    }
}; 16];
static THREADS: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static SHARD: &'static Shard = &SHARDS[THREADS.fetch_add(1, Ordering::Relaxed) % SHARDS.len()];
}

/// Records one block dispatched through a specialized block kernel.
#[inline]
pub fn note_kernel_block() {
    SHARD.with(|shard| shard.kernel.fetch_add(1, Ordering::Relaxed));
}

/// Records one block handled by the generic per-element scalar loop.
#[inline]
pub fn note_scalar_block() {
    SHARD.with(|shard| shard.scalar.fetch_add(1, Ordering::Relaxed));
}

/// Process-wide `(kernel_blocks, scalar_blocks)` dispatch counts.
///
/// Observed (not modeled) and monotone; consumers that need a delta take
/// two readings. The counters say nothing about results — they exist so
/// benchmarks and stats can *prove* which path ran.
pub fn dispatch_counts() -> (u64, u64) {
    SHARDS.iter().fold((0, 0), |(kernel, scalar), shard| {
        (
            kernel + shard.kernel.load(Ordering::Relaxed),
            scalar + shard.scalar.load(Ordering::Relaxed),
        )
    })
}

/// Which vector ISA tier the dispatcher selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaTier {
    /// Baseline build target (SSE2 on x86-64); also every non-x86 arch.
    Portable,
    /// AVX2 detected at runtime.
    Avx2,
    /// AVX-512 (F+DQ+BW+VL) detected at runtime.
    Avx512,
}

impl IsaTier {
    /// Short display name (`portable`/`avx2`/`avx512`).
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Portable => "portable",
            IsaTier::Avx2 => "avx2",
            IsaTier::Avx512 => "avx512",
        }
    }

    /// The tiers this host can run, narrowest first: every tier up to
    /// [`isa_tier`] (a host with AVX-512 has AVX2).
    pub fn available() -> &'static [IsaTier] {
        const ALL: [IsaTier; 3] = [IsaTier::Portable, IsaTier::Avx2, IsaTier::Avx512];
        match isa_tier() {
            IsaTier::Portable => &ALL[..1],
            IsaTier::Avx2 => &ALL[..2],
            IsaTier::Avx512 => &ALL,
        }
    }
}

/// Detects the ISA tier the kernels will run on. Cheap to call (the std
/// detection macro caches in an atomic).
#[inline]
pub fn isa_tier() -> IsaTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return IsaTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return IsaTier::Avx2;
        }
    }
    IsaTier::Portable
}

/// Compiles a kernel once per ISA tier and calls a tier only after
/// detecting it: the one place the workspace writes `#[target_feature]`,
/// and the only `unsafe` a tier needs.
///
/// ```
/// gv_core::isa_tiers! {
///     /// The wrapping sum of `xs`.
///     fn total(xs: &[u64]) -> u64 {
///         xs.iter().fold(0, |a, &x| a.wrapping_add(x))
///     }
/// }
/// assert_eq!(total(&[1, 2, 3]), 6);
/// for &tier in gv_core::kernel::IsaTier::available() {
///     assert_eq!(total::on(tier, &[1, 2, 3]), 6);
/// }
/// ```
///
/// A `fn` emits the function as written — attributes, visibility,
/// signature — as the dispatched entry: it reads
/// [`isa_tier`](crate::kernel::isa_tier) on every call and runs the widest
/// tier. Beside it, a private module of the same name holds one build of
/// the body under each tier's `#[target_feature]` and `on(tier, ..)`, the
/// per-tier entry tests and benches call to hold every tier to one answer;
/// it panics if the host cannot run `tier`. Writing `mod` for `fn` emits
/// the module alone, for one body on every tier.
///
/// The body is a function body for every tier, or `{ portable: .., avx2:
/// .., avx512: .. }`, one expression a tier, for a kernel whose tiers
/// measured best in different loop forms. Each tier's build is a
/// monomorphization of its expression, so an `#[inline(always)]` body
/// function called from it compiles once per tier and computes the same
/// value on each. Invoke it at module level: the module sees the caller's
/// items through `use super::*`.
#[macro_export]
macro_rules! isa_tiers {
    (
        @mod $name:ident
        $(<$($g:ident $(: $bound:path)?),*>)? ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?
        { $portable:expr, $avx2:expr, $avx512:expr }
    ) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The kernel as compiled for `tier`.
            ///
            /// # Panics
            ///
            /// If the host cannot run `tier`.
            // A library kernel's per-tier entry may have no caller but its
            // tests.
            #[allow(dead_code)]
            pub(super) fn on $(<$($g $(: $bound)?),*>)? (
                tier: $crate::kernel::IsaTier,
                $($arg: $ty),*
            ) $(-> $ret)? {
                assert!(
                    $crate::kernel::IsaTier::available().contains(&tier),
                    "this host cannot run the {} tier",
                    tier.name()
                );
                match tier {
                    // SAFETY: the host was just found to run this tier.
                    #[cfg(target_arch = "x86_64")]
                    $crate::kernel::IsaTier::Avx512 => unsafe { avx512($($arg),*) },
                    // SAFETY: the host was just found to run this tier.
                    #[cfg(target_arch = "x86_64")]
                    $crate::kernel::IsaTier::Avx2 => unsafe { avx2($($arg),*) },
                    _ => $portable,
                }
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2 $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)? {
                $avx2
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(
                enable = "avx512f",
                enable = "avx512dq",
                enable = "avx512bw",
                enable = "avx512vl"
            )]
            pub(super) fn avx512 $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)? {
                $avx512
            }
        }
    };
    (
        $(#[$attr:meta])* $vis:vis fn $name:ident
        $(<$($g:ident $(: $bound:path)?),* $(,)?>)? ($($arg:ident: $ty:ty),* $(,)?)
        $(-> $ret:ty)?
        { portable: $portable:expr, avx2: $avx2:expr, avx512: $avx512:expr $(,)? }
    ) => {
        $(#[$attr])*
        $vis fn $name $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            match $crate::kernel::isa_tier() {
                // SAFETY: the matching features were just detected at runtime.
                $crate::kernel::IsaTier::Avx512 => return unsafe { $name::avx512($($arg),*) },
                // SAFETY: AVX2 was just detected at runtime.
                $crate::kernel::IsaTier::Avx2 => return unsafe { $name::avx2($($arg),*) },
                $crate::kernel::IsaTier::Portable => {}
            }
            $portable
        }

        $crate::isa_tiers! {
            @mod $name $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)?
            { $portable, $avx2, $avx512 }
        }
    };
    (
        $(#[$attr:meta])* $vis:vis fn $name:ident
        $(<$($g:ident $(: $bound:path)?),* $(,)?>)? ($($arg:ident: $ty:ty),* $(,)?)
        $(-> $ret:ty)?
        { $($body:tt)* }
    ) => {
        $crate::isa_tiers! {
            $(#[$attr])* $vis fn $name $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)?
            { portable: { $($body)* }, avx2: { $($body)* }, avx512: { $($body)* } }
        }
    };
    (
        mod $name:ident
        $(<$($g:ident $(: $bound:path)?),* $(,)?>)? ($($arg:ident: $ty:ty),* $(,)?)
        $(-> $ret:ty)?
        { $($body:tt)* }
    ) => {
        $crate::isa_tiers! {
            @mod $name $(<$($g $(: $bound)?),*>)? ($($arg: $ty),*) $(-> $ret)?
            { { $($body)* }, { $($body)* }, { $($body)* } }
        }
    };
}

// ---------------------------------------------------------------------------
// Lane fold (reduce / accumulate kernels)
// ---------------------------------------------------------------------------

/// The one lane-fold body. Every ISA variant is a monomorphization of this
/// exact code, so the value computed is ISA-independent by construction.
/// Folds `map(x)` for each element `x`; the plain folds pass the identity.
#[inline(always)]
fn fold_block_body<T: Copy>(
    ident: T,
    block: &[T],
    map: impl Fn(T) -> T + Copy,
    f: impl Fn(T, T) -> T + Copy,
) -> T {
    if block.len() < LANES {
        let mut total = ident;
        for &x in block {
            total = f(total, map(x));
        }
        return total;
    }
    let mut acc = [ident; LANES];
    let n = block.len();
    let mut i = 0;
    // 4× unrolled main loop. Lane l still folds its elements strictly in
    // sequence (l, l+LANES, l+2·LANES, …), so the unroll is a scheduling
    // change only — the combine tree is identical to the 1× loop below.
    while i + 4 * LANES <= n {
        let c = &block[i..i + 4 * LANES];
        for (l, a) in acc.iter_mut().enumerate() {
            let t = f(*a, map(c[l]));
            let t = f(t, map(c[LANES + l]));
            let t = f(t, map(c[2 * LANES + l]));
            *a = f(t, map(c[3 * LANES + l]));
        }
        i += 4 * LANES;
    }
    while i + LANES <= n {
        let c = &block[i..i + LANES];
        for (a, &x) in acc.iter_mut().zip(c) {
            *a = f(*a, map(x));
        }
        i += LANES;
    }
    let mut total = acc[0];
    for &a in &acc[1..] {
        total = f(total, a);
    }
    for &x in &block[i..] {
        total = f(total, map(x));
    }
    total
}

/// The pinned-regrouping oracle for [`fold_block`]: same body, no runtime
/// dispatch. Property tests compare the dispatched kernel against this.
pub fn fold_block_reference<T: Copy>(ident: T, block: &[T], f: impl Fn(T, T) -> T + Copy) -> T {
    fold_block_body(ident, block, |x| x, f)
}

/// Folds `block` into a single value over [`LANES`] independent
/// accumulator lanes, dispatching to the widest detected ISA.
///
/// Regrouping is pinned (module docs): for regrouping-invariant `f`
/// (wrapping integer sums, min/max, bitwise, boolean) the result is
/// bit-identical to a serial fold; for floats it equals
/// [`fold_block_reference`] on every ISA.
///
/// `ident` must be a true identity of `f` — it pads the lane array.
#[inline]
pub fn fold_block<T: Copy>(ident: T, block: &[T], f: impl Fn(T, T) -> T + Copy) -> T {
    fold_block_map(ident, block, |x| x, f)
}

isa_tiers! {
    /// [`fold_block`] over `map(x)` for each element `x` of `block`, mapped as
    /// it is loaded: one pass, same lanes, same pinned regrouping — a sum of
    /// squared deviations costs what a sum costs.
    #[inline]
    pub fn fold_block_map<T: Copy>(
        ident: T,
        block: &[T],
        map: impl Fn(T) -> T + Copy,
        f: impl Fn(T, T) -> T + Copy,
    ) -> T {
        fold_block_body(ident, block, map, f)
    }
}

// ---------------------------------------------------------------------------
// Block filter (the k-best operators' "can this block change the state?")
// ---------------------------------------------------------------------------

/// The any-hit body: an OR over every element with no exit to predict, so
/// the loop vectorizes to compare + OR. The baseline and the AVX-512 tier
/// compile this one.
#[inline(always)]
fn any_or<T: Copy>(block: &[T], hit: impl Fn(T) -> bool + Copy) -> bool {
    let mut any = false;
    for &x in block {
        any |= hit(x);
    }
    any
}

/// The AVX2 tier asks "how many" instead. Only AVX-512 has mask registers;
/// under AVX2 a compare result is a vector lane as wide as its operands, and
/// a count of that width keeps it there, where the `bool` OR of [`any_or`]
/// has every group of results packed down to bytes first
/// (`kernel_microbench`, `filter/*` rows: 0.27 against 0.09 ns per `i64`,
/// 0.44 against 0.27 per pair — behind the baseline). The answer cannot
/// differ: it is a predicate OR either way.
#[inline(always)]
fn any_count<T: Copy>(block: &[T], hit: impl Fn(T) -> bool + Copy) -> bool {
    let mut hits = 0u64;
    for &x in block {
        hits += u64::from(hit(x));
    }
    hits != 0
}

isa_tiers! {
    /// Whether `hit` holds for any element of `block`: `block.iter().any(..)`
    /// with every element tested and no early exit, dispatched to the widest
    /// detected ISA.
    ///
    /// `hit` must be pure — it is called once per element, in no promised
    /// order. This is the pre-filter under the k-best accumulate kernels
    /// (`TopBottomK`, `MinK`, `MaxK`) and under every located input
    /// ([`ValueGate`]): each asks whether any element of a
    /// granule could enter its state and replays only the granules where one
    /// could, so the answer decides how much work is done and never what the
    /// result is. A predicate OR rather than a best-of-block fold because the
    /// operators' inputs differ in shape: over `(value, location)` pairs the
    /// values sit at stride two, which a lane min and a lane max fold load
    /// badly (0.47 ns per pair against 0.15 under AVX-512, 1.1 against 0.3
    /// below it), while a compare of each element against two broadcast bounds
    /// does not care.
    #[inline]
    pub fn any_in_block<T: Copy>(block: &[T], hit: impl Fn(T) -> bool + Copy) -> bool {
        portable: any_or(block, hit),
        avx2: any_count(block, hit),
        avx512: any_or(block, hit),
    }
}

/// What an operator over `(value, location)` pairs can say from a value
/// alone: "could an element with this value change the state?" A
/// capability beside [`ReduceScanOp`], not a hook on it. It is what
/// [`crate::iter::Located`] needs to read a located input — a
/// slice of values whose locations are implied — without building a pair
/// for every element, and what `TopBottomK`'s pairs kernel filters with.
///
/// `TopBottomK`, `MinI` and `MaxI` implement it. Their gates are
/// non-strict, because a value equal to the one it has to beat may still
/// win on its location, which only `accum` decides.
pub trait ValueGate<T: Copy>: ReduceScanOp {
    /// What [`admits`](Self::admits) compares a value against: for
    /// `TopBottomK` the worst value of each list, for `MinI` the best so far.
    type Gate: Copy;

    /// The gate `state` sets, or `None` while any element at all could
    /// still change it (`TopBottomK` until both lists are full). Once
    /// `Some`, it stays `Some` for every state `accum` leads to.
    fn gate(&self, state: &Self::State) -> Option<Self::Gate>;

    /// Whether an element of value `x` could change a state whose gate is
    /// `gate`, at some location. `false` must mean `accum` leaves the state
    /// as it is, whatever the location; `true` may be wrong (a tie that
    /// loses its tie-break). Asked of every value, so it has to be cheap
    /// and branch-free; an unordered value (NaN) answers as `accum` would.
    fn admits(gate: Self::Gate, x: T) -> bool;
}

/// Elements [`accum_gated`] asks [`any_in_block`] about at a time: long
/// enough that the dispatched compare loop amortizes its call and its
/// final reduction, short enough that a fresh state, which is hit often,
/// still skips most of a short input (64 reads 15 % ahead on 4096 pairs
/// and 5–10 % behind on ZRAN3's 2²⁰, 256 the reverse; EXPERIMENTS.md,
/// TXT-ZRAN3).
const GATE_GRANULE: usize = 128;

/// The filtered accumulate under every [`ValueGate`] operator, whatever
/// the elements look like: staged pairs (`TopBottomK::accum_block`) or
/// bare values with implied locations (`iter::Located`). `value`
/// reads an element's value, and `input(i, e)` builds the operator's input
/// for element `i` of `elements`. `input` is called only for the elements
/// that reach `accum`.
///
/// Until the gate closes every element goes through `accum`. After that,
/// a granule in which [`any_in_block`] finds no admitted value is skipped
/// whole, and in any other the same test guards `accum` element by
/// element. By the [`ValueGate`] contract that is the per-element loop's
/// state bit for bit.
pub(crate) fn accum_gated<Op, T, E>(
    op: &Op,
    state: &mut Op::State,
    elements: &[E],
    value: impl Fn(E) -> T + Copy,
    input: impl Fn(usize, E) -> Op::In,
) where
    Op: ValueGate<T> + ?Sized,
    T: Copy,
    E: Copy,
{
    let mut start = 0;
    let mut gate = loop {
        if let Some(gate) = op.gate(state) {
            break gate;
        }
        let Some(&e) = elements.get(start) else {
            return;
        };
        op.accum(state, &input(start, e));
        start += 1;
    };
    for (g, granule) in elements[start..].chunks(GATE_GRANULE).enumerate() {
        if !any_in_block(granule, |e| Op::admits(gate, value(e))) {
            continue;
        }
        let base = start + g * GATE_GRANULE;
        for (i, &e) in granule.iter().enumerate() {
            if Op::admits(gate, value(e)) {
                op.accum(state, &input(base + i, e));
                // Re-read after every insert: each can only tighten it.
                gate = op.gate(state).expect("a closed gate stays closed");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Derived accumulate kernel (any associative operator)
// ---------------------------------------------------------------------------

/// The accumulate kernel an operator gets without writing one: breaks the
/// `accum` dependence chain with the operator's own three functions.
///
/// Each [`BLOCK`]-element block of `block` is cut into [`RUNS`] contiguous
/// runs (the last takes the remainder). Every run is accumulated into an
/// `ident()` state of its own exactly as a virtual processor would — the
/// `pre_accum`/`post_accum` hooks see the run's first and last element —
/// with the runs' `accum` calls interleaved so the CPU works on `RUNS`
/// independent chains at once; the run states are then `combine`d onto
/// `state` in run order. By the accumulate/combine coherence law that is
/// the per-element loop's state for every associative operator,
/// commutative or not, up to the regrouping of float arithmetic.
///
/// This is **not** a universal win: it pays where `accum` is a true
/// latency chain on a small state (`MinMax`: every element goes through two
/// compare-and-keep chains) and loses where the scalar loop is already a
/// well-predicted branch (`MinI`/`MaxI`, `Sorted`), the state is large
/// (`MinK`) or `combine` is costly (`MaxSubarray`, `LongestRun`); table in
/// DESIGN.md. So it is never a default: an operator opts in by calling it
/// from [`ReduceScanOp::accum_block`], after measuring.
pub fn accum_runs<Op: ReduceScanOp + ?Sized>(op: &Op, state: &mut Op::State, block: &[Op::In]) {
    for chunk in block.chunks(BLOCK) {
        let len = chunk.len() / RUNS;
        if len == 0 {
            for x in chunk {
                op.accum(state, x);
            }
            continue;
        }
        // Equal-length heads; what is left over extends the last run.
        let (heads, tail) = chunk.split_at(RUNS * len);
        let runs: [&[Op::In]; RUNS] = std::array::from_fn(|r| &heads[r * len..][..len]);
        let mut states: [Op::State; RUNS] = std::array::from_fn(|_| op.ident());
        for (s, run) in states.iter_mut().zip(&runs) {
            op.pre_accum(s, &run[0]);
        }
        for i in 0..len {
            for (s, run) in states.iter_mut().zip(&runs) {
                op.accum(s, &run[i]);
            }
        }
        for x in tail {
            op.accum(&mut states[RUNS - 1], x);
        }
        for (r, s) in states.iter_mut().enumerate() {
            let last = if r + 1 == RUNS {
                chunk.len()
            } else {
                (r + 1) * len
            };
            op.post_accum(s, &chunk[last - 1]);
        }
        for s in states {
            op.combine(state, s);
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise slot zip (splittable vector states, aggregated slots)
// ---------------------------------------------------------------------------

isa_tiers! {
    /// [`zip_slots`] without the dispatch-counter tick, for callers that
    /// already account for the enclosing block (e.g. [`count_into`]).
    #[inline]
    fn zip_each<S, I: Iterator>(slots: &mut [S], other: I, f: impl Fn(&mut S, I::Item)) {
        for (s, x) in slots.iter_mut().zip(other) {
            f(s, x);
        }
    }
}

/// `f(&mut slots[i], other[i])` over the shorter of the two, dispatched to
/// the widest detected ISA: the slot pass under [`combine_elementwise`] and
/// under [`crate::agg::Elementwise`], which zips its states with a borrowed
/// row to accumulate and an owned state vector to combine. `f` is compiled
/// once per tier, so a user operator vectorizes wherever its body can.
#[inline]
pub(crate) fn zip_slots<S, I: IntoIterator>(
    slots: &mut [S],
    other: I,
    f: impl Fn(&mut S, I::Item),
) {
    note_kernel_block();
    zip_each(slots, other.into_iter(), f)
}

/// `a[i] = f(a[i], b[i])` over `min(a.len(), b.len())` slots, in place,
/// dispatched to the widest detected ISA.
///
/// Purely elementwise — no regrouping — so this is exact for *every* type,
/// floats included. This is the segment-combine kernel under the
/// reduce-scatter/circulant collectives.
#[inline]
pub fn combine_elementwise<T: Copy>(a: &mut [T], b: &[T], f: impl Fn(T, T) -> T + Copy) {
    zip_slots(a, b, |x, &y| *x = f(*x, y));
}

// ---------------------------------------------------------------------------
// Scan block kernels
// ---------------------------------------------------------------------------

/// Serial-order block scan written in slice form: appends one output per
/// element to `out` and leaves `carry` as the fold through the block.
///
/// The combine order is *identical* to the engines' per-element loop, so
/// the outputs are bit-identical to the scalar path for every type and
/// every input (NaNs included) — the win comes purely from loop hygiene
/// (one reservation instead of per-element `push`, no per-element
/// `ScanKind` match). This is the right scan kernel for latency-1
/// dependent chains (integer sums, bitwise, integer min/max), which
/// already run at ~1 element/cycle; high-latency float chains use
/// [`scan_block_network`] instead.
pub fn scan_block_serial<T: Copy>(
    carry: &mut T,
    block: &[T],
    out: &mut Vec<T>,
    f: impl Fn(T, T) -> T + Copy,
    kind: ScanKind,
) {
    // A slice map is `TrustedLen`: `extend` reserves once and writes each
    // output straight into spare capacity, with no pre-fill to overwrite.
    // The closures own their running value (a captured `&mut` would be
    // reloaded around every store); the carry is read back off the output.
    let mut c = *carry;
    match kind {
        ScanKind::Inclusive => {
            out.extend(block.iter().map(move |&x| {
                c = f(c, x);
                c
            }));
            if !block.is_empty() {
                *carry = out[out.len() - 1];
            }
        }
        ScanKind::Exclusive => {
            out.extend(block.iter().map(move |&x| {
                let before = c;
                c = f(c, x);
                before
            }));
            if let Some(&last) = block.last() {
                *carry = f(out[out.len() - 1], last);
            }
        }
    }
}

/// One [`SCAN_GROUP`]-wide Hillis–Steele prefix network, hand-unrolled.
///
/// Each step reads the pre-step values (`p`), which computes exactly what
/// the classic in-place descending-index update computes — it is spelled
/// as three constant-trip elementwise loops so LLVM can turn each step
/// into shuffle + combine vector ops. The network never applies `ident`:
/// it is pure regrouping, so it is bit-identical to a serial scan for any
/// exactly-associative `f` (wrapping ints, bitwise, totally-ordered
/// min/max).
#[inline(always)]
fn network_group<T: Copy>(v: &mut [T; SCAN_GROUP], f: impl Fn(T, T) -> T + Copy) {
    const _: () = assert!(
        SCAN_GROUP == 8,
        "network_group is hand-unrolled for SCAN_GROUP == 8"
    );
    let p = *v;
    for j in 1..8 {
        v[j] = f(p[j - 1], p[j]);
    }
    let p = *v;
    for j in 2..8 {
        v[j] = f(p[j - 2], p[j]);
    }
    let p = *v;
    for j in 4..8 {
        v[j] = f(p[j - 4], p[j]);
    }
}

/// Groups per super-chunk in [`scan_block_network_body`]. Pass 1 runs
/// `SUPER` group networks with no carry on the critical path; pass 2
/// threads the carry through the group totals. The combine tree is
/// identical to processing one group at a time — the split is purely a
/// scheduling change, so `SUPER` is *not* part of the pinned contract.
const SCAN_SUPER: usize = 16;

/// The one network-scan body; every ISA variant monomorphizes this code.
#[inline(always)]
fn scan_block_network_body<T: Copy>(
    carry: &mut T,
    block: &[T],
    out: &mut [T],
    f: impl Fn(T, T) -> T + Copy,
    kind: ScanKind,
) {
    const W: usize = SCAN_GROUP;
    debug_assert_eq!(block.len(), out.len());
    // Pass-1/pass-2 super-chunks: the group networks are mutually
    // independent, so they pipeline; only the cheap per-group total fold
    // sits on the serial carry chain.
    let mut super_b = block.chunks_exact(W * SCAN_SUPER);
    let mut super_o = out.chunks_exact_mut(W * SCAN_SUPER);
    for (sb, so) in (&mut super_b).zip(&mut super_o) {
        let mut totals = [sb[0]; SCAN_SUPER];
        for ((group, og), t) in sb
            .chunks_exact(W)
            .zip(so.chunks_exact_mut(W))
            .zip(&mut totals)
        {
            let mut v = [group[0]; W];
            v.copy_from_slice(group);
            network_group(&mut v, f);
            *t = v[W - 1];
            og.copy_from_slice(&v);
        }
        for (og, &t) in so.chunks_exact_mut(W).zip(&totals) {
            let c = *carry;
            match kind {
                ScanKind::Inclusive => {
                    for x in og.iter_mut() {
                        *x = f(c, *x);
                    }
                }
                ScanKind::Exclusive => {
                    // In-place shift-by-one: descending j reads the
                    // not-yet-overwritten scanned value at j − 1.
                    let mut j = W;
                    while j > 1 {
                        j -= 1;
                        og[j] = f(c, og[j - 1]);
                    }
                    og[0] = c;
                }
            }
            *carry = f(c, t);
        }
    }
    let mut groups = super_b.remainder().chunks_exact(W);
    let mut outs = super_o.into_remainder().chunks_exact_mut(W);
    for (group, og) in (&mut groups).zip(&mut outs) {
        let mut v = [group[0]; W];
        v.copy_from_slice(group);
        network_group(&mut v, f);
        let c = *carry;
        match kind {
            ScanKind::Inclusive => {
                for (o, &x) in og.iter_mut().zip(&v) {
                    *o = f(c, x);
                }
            }
            ScanKind::Exclusive => {
                og[0] = c;
                for (o, &x) in og[1..].iter_mut().zip(&v[..W - 1]) {
                    *o = f(c, x);
                }
            }
        }
        *carry = f(c, v[W - 1]);
    }
    let mut c = *carry;
    for (o, &x) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
        match kind {
            ScanKind::Inclusive => {
                c = f(c, x);
                *o = c;
            }
            ScanKind::Exclusive => {
                *o = c;
                c = f(c, x);
            }
        }
    }
    *carry = c;
}

/// The pinned-regrouping oracle for [`scan_block_network`]: same body, no
/// dispatch, spelled out for property tests.
pub fn scan_block_network_reference<T: Copy>(
    carry: &mut T,
    block: &[T],
    out: &mut Vec<T>,
    f: impl Fn(T, T) -> T + Copy,
    kind: ScanKind,
) {
    let start = out.len();
    out.resize(start + block.len(), *carry);
    scan_block_network_body(carry, block, &mut out[start..], f, kind);
}

/// Block scan through a pinned [`SCAN_GROUP`]-wide Hillis–Steele prefix
/// network with a serial carry between groups, dispatched to the widest
/// detected ISA. Appends one output per element to `out`; leaves `carry`
/// as the (network-grouped) fold through the block.
///
/// For regrouping-invariant `f` the outputs equal the serial scan; for
/// floats they equal [`scan_block_network_reference`] on every ISA — the
/// per-group regrouping is part of the result's definition, pinned by
/// [`SCAN_GROUP`].
pub fn scan_block_network<T: Copy>(
    carry: &mut T,
    block: &[T],
    out: &mut Vec<T>,
    f: impl Fn(T, T) -> T + Copy,
    kind: ScanKind,
) {
    scan_block_network_append(carry, block, out, f, kind)
}

isa_tiers! {
    /// [`scan_block_network`]'s body: one super-chunk at a time into a
    /// window on the stack, appended whole, so each output is written to
    /// `out` once (a pre-filled `out` would be written twice). The body
    /// runs each full chunk as one super-chunk and the tail as its own
    /// tail, exactly as over the whole block.
    #[inline]
    fn scan_block_network_append<T: Copy>(
        carry: &mut T,
        block: &[T],
        out: &mut Vec<T>,
        f: impl Fn(T, T) -> T + Copy,
        kind: ScanKind,
    ) {
        out.reserve(block.len());
        let mut window = [*carry; SCAN_GROUP * SCAN_SUPER];
        for chunk in block.chunks(SCAN_GROUP * SCAN_SUPER) {
            let window = &mut window[..chunk.len()];
            scan_block_network_body(carry, chunk, window, f, kind);
            out.extend_from_slice(window);
        }
    }
}

// ---------------------------------------------------------------------------
// Bucketed counting (Histogram / Counts fast path)
// ---------------------------------------------------------------------------

/// Sub-histogram ways for [`count_into`]. Breaks the store-to-load
/// forwarding stall when consecutive elements land in the same bucket.
const COUNT_WAYS: usize = 4;
/// Largest table replicated per way (4 × 2048 × 8 B = 64 KiB of scratch).
const COUNT_MAX_REPLICATED: usize = 2048;
/// Minimum block size worth the scratch allocation and final fold.
const COUNT_MIN_BLOCK: usize = 4 * LANES;

/// Increments `counts[index_of(x)]` for every `x` in `block` — the
/// bucketed accumulate kernel under `Histogram`/`Counts`.
///
/// For small tables and large blocks the counts are kept in
/// [`COUNT_WAYS`] interleaved sub-tables (so a run of same-bucket inputs
/// does not serialize on one memory cell) and folded back with a
/// vectorized elementwise add. Counting is commutative integer addition,
/// so the result is bit-identical to the naive loop either way.
/// `index_of` is called once per element in input order — panics and
/// side effects happen exactly as in the scalar loop.
///
/// Does not tick the dispatch counters itself: it runs under
/// [`crate::op::accumulate_block`], which accounts for the block.
pub fn count_into<T>(counts: &mut [u64], block: &[T], index_of: impl Fn(&T) -> usize) {
    let k = counts.len();
    if k == 0 || k > COUNT_MAX_REPLICATED || block.len() < COUNT_MIN_BLOCK {
        for x in block {
            counts[index_of(x)] += 1;
        }
        return;
    }
    let mut sub = vec![0u64; (COUNT_WAYS - 1) * k];
    let mut quads = block.chunks_exact(COUNT_WAYS);
    for quad in &mut quads {
        // Way 0 is `counts` itself, ways 1.. are the scratch sub-tables.
        counts[index_of(&quad[0])] += 1;
        sub[index_of(&quad[1])] += 1;
        sub[k + index_of(&quad[2])] += 1;
        sub[2 * k + index_of(&quad[3])] += 1;
    }
    for x in quads.remainder() {
        counts[index_of(x)] += 1;
    }
    let (s1, rest) = sub.split_at(k);
    let (s2, s3) = rest.split_at(k);
    zip_each(counts, s1.iter(), |a, &b| *a += b);
    zip_each(counts, s2.iter(), |a, &b| *a += b);
    zip_each(counts, s3.iter(), |a, &b| *a += b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_block_integer_matches_serial_all_lengths() {
        for n in 0..(4 * LANES + 3) {
            let data: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 - 50).collect();
            let serial = data.iter().fold(0i64, |a, &b| a.wrapping_add(b));
            assert_eq!(
                fold_block(0i64, &data, |a, b| a.wrapping_add(b)),
                serial,
                "n={n}"
            );
            assert_eq!(
                fold_block_reference(0i64, &data, |a, b| a.wrapping_add(b)),
                serial,
                "reference n={n}"
            );
        }
    }

    #[test]
    fn fold_block_float_matches_pinned_reference() {
        for n in 0..(4 * LANES + 3) {
            let data: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
            let kernel = fold_block(0.0f64, &data, |a, b| a + b);
            let reference = fold_block_reference(0.0f64, &data, |a, b| a + b);
            assert_eq!(kernel.to_bits(), reference.to_bits(), "n={n}");
        }
    }

    #[test]
    fn scan_serial_is_bit_identical_to_loop() {
        for n in 0..(4 * SCAN_GROUP + 3) {
            let data: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let mut expect = Vec::new();
                let mut c = 0i64;
                for &x in &data {
                    match kind {
                        ScanKind::Inclusive => {
                            c += x;
                            expect.push(c);
                        }
                        ScanKind::Exclusive => {
                            expect.push(c);
                            c += x;
                        }
                    }
                }
                let mut out = Vec::new();
                let mut carry = 0i64;
                scan_block_serial(&mut carry, &data, &mut out, |a, b| a + b, kind);
                assert_eq!(out, expect, "n={n} kind={kind:?}");
                assert_eq!(carry, c, "carry n={n} kind={kind:?}");
            }
        }
    }

    #[test]
    fn scan_network_integer_matches_serial_and_float_matches_reference() {
        for n in 0..(4 * SCAN_GROUP + 3) {
            let di: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 23 - 11).collect();
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let mut serial = Vec::new();
                let mut cs = 0i64;
                scan_block_serial(&mut cs, &di, &mut serial, |a, b| a.wrapping_add(b), kind);
                let mut net = Vec::new();
                let mut cn = 0i64;
                scan_block_network(&mut cn, &di, &mut net, |a, b| a.wrapping_add(b), kind);
                assert_eq!(net, serial, "i64 n={n} kind={kind:?}");
                assert_eq!(cn, cs, "i64 carry n={n} kind={kind:?}");

                let df: Vec<f64> = di.iter().map(|&x| x as f64 / 3.0).collect();
                let mut reference = Vec::new();
                let mut cr = 0.0f64;
                scan_block_network_reference(&mut cr, &df, &mut reference, |a, b| a + b, kind);
                let mut kernel = Vec::new();
                let mut ck = 0.0f64;
                scan_block_network(&mut ck, &df, &mut kernel, |a, b| a + b, kind);
                let kb: Vec<u64> = kernel.iter().map(|x| x.to_bits()).collect();
                let rb: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
                assert_eq!(kb, rb, "f64 n={n} kind={kind:?}");
                assert_eq!(ck.to_bits(), cr.to_bits(), "f64 carry n={n} kind={kind:?}");
            }
        }
    }

    #[test]
    fn combine_elementwise_is_exact() {
        let mut a: Vec<f64> = (0..100).map(|i| i as f64 / 7.0).collect();
        let b: Vec<f64> = (0..100).map(|i| (i * i) as f64 / 11.0).collect();
        let expect: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        combine_elementwise(&mut a, &b, |x, y| x + y);
        assert_eq!(a, expect);
    }

    #[test]
    fn count_into_matches_naive_both_paths() {
        // Small block → scalar path; large block → interleaved path.
        for n in [7usize, 1000] {
            let data: Vec<usize> = (0..n).map(|i| (i * 7 + 1) % 13).collect();
            let mut naive = vec![0u64; 13];
            for &x in &data {
                naive[x] += 1;
            }
            let mut kernel = vec![0u64; 13];
            count_into(&mut kernel, &data, |&x| x);
            assert_eq!(kernel, naive, "n={n}");
        }
    }

    /// Inputs of every length 0 … 4·[`LANES`] + 2: integers, finite floats,
    /// and the finite floats with NaN, +0 and −0 planted among them.
    fn tier_inputs() -> impl Iterator<Item = (Vec<i64>, [Vec<f64>; 2])> {
        (0..4 * LANES + 3).map(|n| {
            let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 - 50).collect();
            let finite: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 1e3).collect();
            let specials = [f64::NAN, 0.0, -0.0];
            let special = (0..n)
                .map(|i| match i % 5 {
                    4 => specials[i / 5 % 3],
                    _ => finite[i],
                })
                .collect();
            (ints, [finite, special])
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `kernel(tier)` on every tier this host runs must be `reference`.
    fn assert_on_every_tier<R: PartialEq + std::fmt::Debug>(
        what: &str,
        reference: R,
        kernel: impl Fn(IsaTier) -> R,
    ) {
        for &tier in IsaTier::available() {
            assert_eq!(kernel(tier), reference, "{what}: {} tier", tier.name());
        }
    }

    #[test]
    fn fold_block_map_matches_the_reference_on_every_tier() {
        let add = |a: i64, b: i64| a.wrapping_add(b);
        let min = |a: f64, b: f64| if b < a { b } else { a };
        for (ints, floats) in tier_inputs() {
            let n = ints.len();
            assert_on_every_tier(
                &format!("i64 sum n={n}"),
                fold_block_reference(0, &ints, add),
                |tier| fold_block_map::on(tier, 0, &ints, |x| x, add),
            );
            assert_on_every_tier(
                &format!("i64 min n={n}"),
                fold_block_reference(i64::MAX, &ints, i64::min),
                |tier| fold_block_map::on(tier, i64::MAX, &ints, |x| x, i64::min),
            );
            for data in &floats {
                assert_on_every_tier(
                    &format!("f64 sum n={n}"),
                    fold_block_reference(0.0, data, |a, b| a + b).to_bits(),
                    |tier| fold_block_map::on(tier, 0.0, data, |x| x, |a, b| a + b).to_bits(),
                );
                assert_on_every_tier(
                    &format!("f64 min n={n}"),
                    fold_block_reference(f64::INFINITY, data, min).to_bits(),
                    |tier| fold_block_map::on(tier, f64::INFINITY, data, |x| x, min).to_bits(),
                );
            }
        }
    }

    #[test]
    fn scan_block_network_matches_the_reference_on_every_tier() {
        /// Both scan kinds of `data` from `init`, outputs and carry
        /// compared through `key`.
        fn check<T: Copy, K: PartialEq + std::fmt::Debug>(
            what: &str,
            data: &[T],
            init: T,
            f: impl Fn(T, T) -> T + Copy,
            key: impl Fn(T) -> K + Copy,
        ) {
            let keyed =
                |out: &[T], carry: T| (out.iter().map(|&x| key(x)).collect::<Vec<_>>(), key(carry));
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                // Appended after an output already there, as a rescan
                // appends block after block.
                let mut carry = init;
                let mut out = vec![init];
                scan_block_network_reference(&mut carry, data, &mut out, f, kind);
                assert_on_every_tier(&format!("{what} {kind:?}"), keyed(&out, carry), |tier| {
                    let mut carry = init;
                    let mut out = vec![init];
                    scan_block_network_append::on(tier, &mut carry, data, &mut out, f, kind);
                    keyed(&out, carry)
                });
            }
        }
        let min = |a: f64, b: f64| if b < a { b } else { a };
        for (ints, floats) in tier_inputs() {
            let n = ints.len();
            check(
                &format!("i64 sum n={n}"),
                &ints,
                0,
                |a, b| a.wrapping_add(b),
                |x| x,
            );
            for data in &floats {
                check(
                    &format!("f64 sum n={n}"),
                    data,
                    0.0,
                    |a, b| a + b,
                    f64::to_bits,
                );
                check(
                    &format!("f64 min n={n}"),
                    data,
                    f64::INFINITY,
                    min,
                    f64::to_bits,
                );
            }
        }
        // Several super-chunks and a tail, each through its own window.
        let n = 3 * SCAN_GROUP * SCAN_SUPER + 13;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 1e3).collect();
        check(
            &format!("f64 sum n={n}"),
            &data,
            0.0,
            |a, b| a + b,
            f64::to_bits,
        );
    }

    #[test]
    fn zip_each_is_the_plain_zip_on_every_tier() {
        for (ints, floats) in tier_inputs() {
            let n = ints.len();
            let other: Vec<i64> = ints.iter().rev().copied().collect();
            let zipped: Vec<i64> = ints
                .iter()
                .zip(&other)
                .map(|(a, b)| a.wrapping_add(*b))
                .collect();
            assert_on_every_tier(&format!("i64 n={n}"), zipped, |tier| {
                let mut slots = ints.clone();
                zip_each::on(tier, &mut slots, other.iter(), |a, &b| {
                    *a = a.wrapping_add(b)
                });
                slots
            });
            let [finite, special] = &floats;
            let zipped: Vec<f64> = finite.iter().zip(special).map(|(a, b)| a + b).collect();
            assert_on_every_tier(&format!("f64 n={n}"), bits(&zipped), |tier| {
                let mut slots = finite.clone();
                zip_each::on(tier, &mut slots, special.iter(), |a, &b| *a += b);
                bits(&slots)
            });
        }
    }

    /// `any_in_block` as dispatched and as compiled for every tier this
    /// host can run, each called directly.
    fn any_on_every_tier<T: Copy>(
        block: &[T],
        hit: impl Fn(T) -> bool + Copy,
    ) -> Vec<(&'static str, bool)> {
        let tiers = IsaTier::available().iter();
        let answers = tiers.map(|&tier| (tier.name(), any_in_block::on(tier, block, hit)));
        std::iter::once(("dispatched", any_in_block(block, hit)))
            .chain(answers)
            .collect()
    }

    /// Every prefix of `quiet` (no element passes `hit`) must answer no on
    /// every tier, and yes once `loud` (which passes) is planted at its
    /// first, middle or last position — the last is the one a vector loop's
    /// tail handling would lose.
    fn assert_any_matches_iter_any<T: Copy + std::fmt::Debug>(
        name: &str,
        quiet: &[T],
        loud: T,
        hit: impl Fn(T) -> bool + Copy,
    ) {
        assert!(
            hit(loud) && !quiet.iter().any(|&x| hit(x)),
            "{name}: bad test data"
        );
        for n in 0..=quiet.len() {
            for (tier, answer) in any_on_every_tier(&quiet[..n], hit) {
                assert!(!answer, "{name}: {tier} found a hit in {n} quiet elements");
            }
            for at in [0, n / 2, n.saturating_sub(1)] {
                if at < n {
                    let mut block = quiet[..n].to_vec();
                    block[at] = loud;
                    for (tier, answer) in any_on_every_tier(&block, hit) {
                        assert!(answer, "{name}: {tier} missed the hit at {at} of {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn any_in_block_matches_iter_any_on_every_tier() {
        let n = 2 * BLOCK + 1;
        let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101).collect();
        assert_any_matches_iter_any("i64 <", &ints, -1, |x| x < 0);
        assert_any_matches_iter_any("i64 >", &ints, 101, |x| x > 100);
        // NaN passes no ordered comparison; −0.0 is not below +0.0.
        let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, 1.0];
        let floats: Vec<f64> = (0..n).map(|i| specials[i % specials.len()]).collect();
        assert_any_matches_iter_any("f64 <", &floats, -f64::MIN_POSITIVE, |x| x < 0.0);
        assert_any_matches_iter_any("f64 < −∞", &floats, f64::NEG_INFINITY, |x| {
            x <= f64::NEG_INFINITY
        });
        let finite: Vec<f64> = floats
            .iter()
            .map(|&x| if x == f64::INFINITY { 2.0 } else { x })
            .collect();
        assert_any_matches_iter_any("f64 >", &finite, f64::INFINITY, |x| x > 2.0);
        // `TopBottomK`'s question: either bound reached, non-strictly.
        let pairs: Vec<(f64, u64)> = finite.iter().map(|&v| (v, 7)).collect();
        let (hi, lo) = (3.0, -1.0);
        for loud in [
            (3.0, 0),
            (f64::INFINITY, 0),
            (-1.0, 0),
            (f64::NEG_INFINITY, 0),
        ] {
            assert_any_matches_iter_any("pair", &pairs, loud, |x| (x.0 >= hi) | (x.0 <= lo));
        }
    }

    #[test]
    fn dispatch_counters_are_monotone() {
        let (k0, s0) = dispatch_counts();
        note_kernel_block();
        note_scalar_block();
        let (k1, s1) = dispatch_counts();
        assert!(k1 > k0);
        assert!(s1 > s0);
    }

    #[test]
    fn isa_tier_is_stable() {
        assert_eq!(isa_tier(), isa_tier());
    }
}
