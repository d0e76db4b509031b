//! The adapter: the only file of the benchmark that names the program.
//!
//! Later changes to the program may not edit the benchmark, except that a
//! change which folds or renames an entry point edits this one file. So
//! every call into `gv_*` is made here, behind a function or an opaque
//! type of the benchmark's own, and `main.rs` has a test that no other
//! source file mentions a `gv_` path.
//!
//! The surface used is the narrow one ROADMAP item 3 intends to keep: the
//! selector-routed `Comm` entry points, the `gv_rsmpi` global-view calls,
//! the `gv_nas` phase functions, the `gv_core` engines and kernels,
//! `gv_executor::{lane, Pool}` and the public counter snapshots. No
//! fixed-schedule entry point, no `Transport::SharedMailbox`, no algorithm
//! enum variant.
//!
//! Spans (see `trace.rs`) are opened here, around each call into a layer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gv_core::kernel;
use gv_core::op::{accumulate_block, rescan_block};
use gv_core::ops::{TopBottom, TopBottomK};
use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_executor::lane::{lane, LaneReceiver, Parker};
use gv_msgpass::{Request, Runtime};
use gv_nas::cg::{self, CgBlock};
use gv_nas::is::{self, VerifyVariant};
use gv_nas::mg::zran3::{self, Zran3Variant};
use gv_nas::mg::Slab;
use gv_nas::randlc::{Randlc, DEFAULT_SEED};
use gv_nas::{IsClass, MgClass};

use crate::trace::{end_phase, phase, span};

pub use gv_core::op::{ReduceScanOp, ScanKind};
pub use gv_core::ops::builtin::{min, sum};
pub use gv_core::ops::{BucketRank, Counts, MeanVar, MinK, Moments};
pub use gv_core::split::SplittableState;
pub use gv_executor::Pool;
pub use gv_msgpass::Comm;
pub use gv_testkit::rng::TestRng;

// Span names: the layer a span's self time is charged to.
pub const ACCUMULATE: &str = "core.op.accumulate";
pub const RESCAN: &str = "core.op.rescan";
pub const GENERATE: &str = "core.op.red_gen";
pub const COMBINE: &str = "msgpass.collectives.combine";
pub const REQUEST_START: &str = "msgpass.request.start";
pub const IS_SORT: &str = "nas.is.sort";
pub const IS_KEY_RANKS: &str = "nas.is.key_ranks";
pub const IS_VERIFY: &str = "nas.is.verify";
pub const MG_FILL: &str = "nas.mg.fill";
pub const MG_EXTREMA: &str = "nas.mg.extrema";
pub const MG_CHARGES: &str = "nas.mg.charges";
pub const CG_DOT: &str = "nas.cg.dot";
pub const CG_MATVEC: &str = "nas.cg.matvec";
pub const CG_AXPY: &str = "nas.cg.axpy";

// ───────────────────────────── runtime ─────────────────────────────

/// A stalled run is aborted by the program's own watchdog after this long
/// without global progress and comes back as an error, not a hang.
const WATCHDOG: Duration = Duration::from_secs(30);

/// What a finished SPMD run reports.
pub struct RankRun<R> {
    /// Per-rank return values, in rank order.
    pub results: Vec<R>,
}

/// Runs `f` once per rank on `p` rank threads. A panic in a rank, a stall
/// or a failed spawn is an `Err` with the program's own description.
///
/// While every rank can have a core of its own, rank `r` is bound to the
/// `r`-th core (see `pin.rs`); with more ranks than cores (the modeled
/// mode) the threads are left to the scheduler.
pub fn run_ranks<R: Send>(p: usize, f: impl Fn(&Comm) -> R + Sync) -> Result<RankRun<R>, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Runtime::new(p)
        .watchdog(WATCHDOG)
        .try_run(|comm| {
            if p <= cores {
                crate::pin::pin_current_thread(comm.rank());
            }
            f(comm)
        })
        .map(|outcome| RankRun {
            results: outcome.results,
        })
        .map_err(|e| e.to_string())
}

pub fn rank(comm: &Comm) -> usize {
    comm.rank()
}

pub fn size(comm: &Comm) -> usize {
    comm.size()
}

pub fn barrier(comm: &Comm) {
    comm.barrier();
}

/// This rank's α–β–γ virtual clock, in modeled seconds.
pub fn modeled_now(comm: &Comm) -> f64 {
    comm.now()
}

/// The block of a conceptual `len`-element array that `rank` of `p` owns
/// (the program's own block distribution).
pub fn block_range(len: usize, rank: usize, p: usize) -> std::ops::Range<usize> {
    gv_executor::chunk_ranges(len, p)
        .nth(rank)
        .expect("rank < p")
}

/// The vector ISA tier the block kernels dispatch to on this host.
pub fn isa_tier() -> &'static str {
    kernel::isa_tier().name()
}

/// The public counter snapshots, flattened to the counters the benchmark
/// reports, indexed by the constants below. `MSGS`, `BYTES`,
/// `COLLECTIVE_CALLS` and `REQUESTS_STARTED` are modeled semantics (exact,
/// repeatable); the rest are observed mechanics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters(pub [u64; 12]);

pub const MSGS: usize = 0;
pub const BYTES: usize = 1;
pub const COLLECTIVE_CALLS: usize = 2;
pub const REQUESTS_STARTED: usize = 3;
pub const EAGER_SENDS: usize = 4;
pub const QUEUED_SENDS: usize = 5;
pub const PARKS: usize = 6;
pub const STASH_RECVS: usize = 7;
pub const POOL_HITS: usize = 8;
pub const POOL_MISSES: usize = 9;
pub const KERNEL_BLOCKS: usize = 10;
pub const SCALAR_BLOCKS: usize = 11;

/// Reads the runtime-wide counters (shared by all ranks of the run; the
/// kernel dispatch counts are process-wide).
pub fn counters(comm: &Comm) -> Counters {
    let s = comm.stats().snapshot();
    let t = s.transport;
    Counters([
        s.messages,
        s.bytes,
        s.collective_calls(),
        s.requests_started,
        t.eager_sends,
        t.queued_sends,
        t.parks,
        t.stash_recvs,
        t.pool_hits,
        t.pool_misses,
        s.kernel.kernel_blocks,
        s.kernel.scalar_blocks,
    ])
}

impl Counters {
    /// Counter-wise `self − earlier` (all counters are monotone).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

// ─────────────────── rsmpi: global-view calls, whole ───────────────────

pub fn reduce_all<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    gv_rsmpi::reduce_all(comm, op, local)
}

fn reduce_all_splittable<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    gv_rsmpi::reduce_all_splittable(comm, op, local)
}

pub fn scan<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    gv_rsmpi::scan(comm, op, local, kind)
}

fn scan_splittable<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    gv_rsmpi::scan::scan_splittable(comm, op, local, kind)
}

/// `k` concurrent non-blocking reductions, then a wait on each in order.
fn ireduce_all_batch<Op>(comm: &Comm, op: Op, locals: &[&[Op::In]]) -> Vec<Op::Out>
where
    Op: ReduceScanOp + Copy + 'static,
    Op::State: Clone + Send + 'static,
{
    let mut requests: Vec<_> = locals
        .iter()
        .map(|local| gv_rsmpi::ireduce_all(comm, op, local))
        .collect();
    requests
        .iter_mut()
        .map(|r| r.wait().expect("transport alive"))
        .collect()
}

/// `(count, mean, variance)` of a `MeanVar` result.
pub fn moments_parts(m: &Moments) -> (u64, f64, f64) {
    (m.count, m.mean, m.variance)
}

// ───────── rsmpi: the same calls, as their public parts, with spans ─────────
//
// accumulate (gv_core) → cross-rank combine (Comm) → generate/rescan
// (gv_core). The traced driver runs these and asserts the result equals
// the whole call's.

fn accumulate<Op: ReduceScanOp>(op: &Op, local: &[Op::In]) -> Op::State {
    span(ACCUMULATE, || {
        let mut state = op.ident();
        accumulate_block(op, &mut state, local);
        state
    })
}

fn combining<Op: ReduceScanOp>(op: &Op) -> impl FnMut(Op::State, Op::State) -> Op::State + '_ {
    move |mut earlier, later| {
        op.combine(&mut earlier, later);
        earlier
    }
}

fn reduce_all_parts<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate(op, local);
    let state = span(COMBINE, || {
        comm.allreduce(state, Op::COMMUTATIVE, |s| op.wire_size(s), combining(op))
    });
    span(GENERATE, || op.red_gen(state))
}

fn reduce_all_splittable_parts<Op>(comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate(op, local);
    let state = span(COMBINE, || {
        comm.allreduce_splittable(
            state,
            Op::COMMUTATIVE,
            |s, parts| op.split_state(s, parts),
            |segments| op.unsplit_state(segments),
            |s| op.wire_size(s),
            combining(op),
        )
    });
    span(GENERATE, || op.red_gen(state))
}

fn rescan<Op: ReduceScanOp>(
    op: &Op,
    local: &[Op::In],
    kind: ScanKind,
    mut running: Op::State,
) -> Vec<Op::Out> {
    span(RESCAN, || {
        let mut out = Vec::with_capacity(local.len());
        rescan_block(op, &mut running, local, kind, &mut out);
        out
    })
}

fn scan_parts<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: ReduceScanOp,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate(op, local);
    let running = span(COMBINE, || {
        comm.scan_exclusive(state, || op.ident(), |s| op.wire_size(s), combining(op))
    });
    rescan(op, local, kind, running)
}

fn scan_splittable_parts<Op>(comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
where
    Op: SplittableState,
    Op::State: Clone + Send + 'static,
{
    let state = accumulate(op, local);
    let running = span(COMBINE, || {
        comm.scan_exclusive_splittable(
            state,
            || op.ident(),
            |s, parts| op.split_state(s, parts),
            |segments| op.unsplit_state(segments),
            |s| op.wire_size(s),
            combining(op),
        )
    });
    rescan(op, local, kind, running)
}

fn ireduce_all_batch_parts<Op>(comm: &Comm, op: Op, locals: &[&[Op::In]]) -> Vec<Op::Out>
where
    Op: ReduceScanOp + Copy + 'static,
    Op::State: Clone + Send + 'static,
{
    let mut requests: Vec<Request<Op::State>> = locals
        .iter()
        .map(|local| {
            let state = accumulate(&op, local);
            span(REQUEST_START, || {
                comm.iallreduce(
                    state,
                    Op::COMMUTATIVE,
                    move |s| op.wire_size(s),
                    move |mut earlier, later| {
                        op.combine(&mut earlier, later);
                        earlier
                    },
                )
            })
        })
        .collect();
    requests
        .iter_mut()
        .map(|r| {
            let state = span(COMBINE, || r.wait().expect("transport alive"));
            span(GENERATE, || op.red_gen(state))
        })
        .collect()
}

/// The global-view calls the synthetic workloads make, in either form:
/// [`Whole`] is the program's one call, [`Parts`] its public parts in spans.
pub trait GlobalView {
    fn reduce_all<Op>(&self, comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
    where
        Op: ReduceScanOp,
        Op::State: Clone + Send + 'static;
    fn reduce_all_splittable<Op>(&self, comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
    where
        Op: SplittableState,
        Op::State: Clone + Send + 'static;
    fn scan<Op>(&self, comm: &Comm, op: &Op, local: &[Op::In], kind: ScanKind) -> Vec<Op::Out>
    where
        Op: ReduceScanOp,
        Op::State: Clone + Send + 'static;
    fn scan_splittable<Op>(
        &self,
        comm: &Comm,
        op: &Op,
        local: &[Op::In],
        kind: ScanKind,
    ) -> Vec<Op::Out>
    where
        Op: SplittableState,
        Op::State: Clone + Send + 'static;
    fn ireduce_all_batch<Op>(&self, comm: &Comm, op: Op, locals: &[&[Op::In]]) -> Vec<Op::Out>
    where
        Op: ReduceScanOp + Copy + 'static,
        Op::State: Clone + Send + 'static;
}

macro_rules! global_view {
    ($form:ident: $reduce_all:path, $reduce_all_splittable:path, $scan:path, $scan_splittable:path, $batch:path) => {
        impl GlobalView for $form {
            fn reduce_all<Op>(&self, comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
            where
                Op: ReduceScanOp,
                Op::State: Clone + Send + 'static,
            {
                $reduce_all(comm, op, local)
            }
            fn reduce_all_splittable<Op>(&self, comm: &Comm, op: &Op, local: &[Op::In]) -> Op::Out
            where
                Op: SplittableState,
                Op::State: Clone + Send + 'static,
            {
                $reduce_all_splittable(comm, op, local)
            }
            fn scan<Op>(
                &self,
                comm: &Comm,
                op: &Op,
                local: &[Op::In],
                kind: ScanKind,
            ) -> Vec<Op::Out>
            where
                Op: ReduceScanOp,
                Op::State: Clone + Send + 'static,
            {
                $scan(comm, op, local, kind)
            }
            fn scan_splittable<Op>(
                &self,
                comm: &Comm,
                op: &Op,
                local: &[Op::In],
                kind: ScanKind,
            ) -> Vec<Op::Out>
            where
                Op: SplittableState,
                Op::State: Clone + Send + 'static,
            {
                $scan_splittable(comm, op, local, kind)
            }
            fn ireduce_all_batch<Op>(
                &self,
                comm: &Comm,
                op: Op,
                locals: &[&[Op::In]],
            ) -> Vec<Op::Out>
            where
                Op: ReduceScanOp + Copy + 'static,
                Op::State: Clone + Send + 'static,
            {
                $batch(comm, op, locals)
            }
        }
    };
}

/// The program's whole calls.
pub struct Whole;
global_view!(Whole: reduce_all, reduce_all_splittable, scan, scan_splittable, ireduce_all_batch);

/// The same calls as their public parts, each part in a span.
pub struct Parts;
global_view!(Parts: reduce_all_parts, reduce_all_splittable_parts, scan_parts, scan_splittable_parts, ireduce_all_batch_parts);

// ───────────────────────────── NAS IS ─────────────────────────────

const IS_CLASS: IsClass = IsClass::A;

pub fn is_total_keys() -> usize {
    IS_CLASS.total_keys()
}

pub fn is_max_key() -> u32 {
    IS_CLASS.max_key()
}

/// The whole NAS key sequence, for the sequential oracle.
pub fn is_keys_serial() -> Vec<u32> {
    is::generate_keys_serial(IS_CLASS)
}

/// One rank's share of the NAS key sequence (program-side set-up).
pub struct IsKeys(Vec<u32>);

pub fn is_keys(comm: &Comm) -> IsKeys {
    IsKeys(is::generate_keys(IS_CLASS, comm.rank(), comm.size()))
}

#[derive(Debug, PartialEq)]
pub struct IsOutput {
    /// This rank's block of the globally sorted keys.
    pub keys: Vec<u32>,
    /// Global index of `keys[0]`.
    pub global_offset: u64,
    /// Global rank of every local key.
    pub ranks: Vec<u64>,
    /// What the `Sorted` global-view reduction answered.
    pub verified: bool,
}

/// One IS rep: distributed sort, key ranks, RSMPI verification.
pub fn is_rep(comm: &Comm, keys: &IsKeys) -> IsOutput {
    let block = span(IS_SORT, || {
        is::distributed_sort(comm, &keys.0, IS_CLASS.max_key())
    });
    let ranks = span(IS_KEY_RANKS, || is::key_ranks(&block));
    let verified = span(IS_VERIFY, || VerifyVariant::Rsmpi.verify(comm, &block.keys));
    IsOutput {
        keys: block.keys,
        global_offset: block.global_offset,
        ranks,
        verified,
    }
}

/// Modeled-clock cost on this rank of the reference C+MPI verification and
/// of the RSMPI one over the same sorted block (the paper's Fig. 2 y-axis).
pub fn is_verify_modeled_pair(comm: &Comm, out: &IsOutput) -> (f64, f64) {
    let timed = |variant: VerifyVariant| {
        comm.barrier();
        let t0 = comm.now();
        assert!(
            variant.verify(comm, &out.keys),
            "{variant:?} rejected a sorted block"
        );
        comm.barrier();
        comm.now() - t0
    };
    (timed(VerifyVariant::NasMpi), timed(VerifyVariant::Rsmpi))
}

// ───────────────────────────── NAS MG ─────────────────────────────

const MG_CLASS: MgClass = MgClass::C_SCALED;
const MG_K: usize = 10;

/// The NAS random field in global row-major order, straight from the NPB
/// stream: the sequential oracle's input.
pub fn mg_field_serial() -> Vec<f64> {
    let mut field = vec![0.0; MG_CLASS.cells()];
    Randlc::new(DEFAULT_SEED).fill(&mut field);
    field
}

/// One rank's slab of z-planes (program-side set-up).
pub struct MgSlab(Slab);

pub fn mg_slab(comm: &Comm) -> MgSlab {
    MgSlab(Slab::for_rank(MG_CLASS.n, comm.rank(), comm.size()))
}

impl MgSlab {
    /// `(global index, value)` of every non-zero cell this rank owns.
    pub fn nonzero_cells(&self) -> Vec<(u64, f64)> {
        let slab = &self.0;
        let base = (slab.z_start * slab.n * slab.n) as u64;
        slab.data
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (base + i as u64, *v))
            .collect()
    }
}

/// The `k` largest and `k` smallest `(value, global index)` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Extrema {
    pub largest: Vec<(f64, u64)>,
    pub smallest: Vec<(f64, u64)>,
}

impl From<TopBottom<f64, u64>> for Extrema {
    fn from(tb: TopBottom<f64, u64>) -> Self {
        Extrema {
            largest: tb.largest,
            smallest: tb.smallest,
        }
    }
}

/// ZRAN3 as one call (the RSMPI variant: one `TopBottomK` reduction).
pub fn mg_zran3(comm: &Comm, slab: &mut MgSlab) -> Extrema {
    zran3::zran3(comm, &mut slab.0, MG_K, Zran3Variant::Rsmpi).into()
}

/// ZRAN3 as its three public phases, each in a span.
pub fn mg_zran3_parts(comm: &Comm, slab: &mut MgSlab) -> Extrema {
    span(MG_FILL, || {
        zran3::fill_random(comm, &mut slab.0, DEFAULT_SEED)
    });
    let extrema = span(MG_EXTREMA, || zran3::extrema_rsmpi(comm, &slab.0, MG_K));
    span(MG_CHARGES, || {
        zran3::apply_charges(comm, &mut slab.0, &extrema)
    });
    extrema.into()
}

/// Modeled-clock cost on this rank of ZRAN3 in the reference F+MPI form
/// (forty builtin reductions) and in the RSMPI form (paper Fig. 3).
pub fn mg_zran3_modeled_pair(comm: &Comm, slab: &mut MgSlab) -> (f64, f64) {
    let mut timed = |variant: Zran3Variant| {
        comm.barrier();
        let t0 = comm.now();
        zran3::zran3(comm, &mut slab.0, MG_K, variant);
        comm.barrier();
        comm.now() - t0
    };
    (timed(Zran3Variant::Mpi), timed(Zran3Variant::Rsmpi))
}

/// The iterator-engine path ZRAN3 accumulates through: `TopBottomK(10)`
/// over streamed `(value, index)` pairs, on one thread.
pub fn seq_reduce_iter_topbottomk(values: &[f64]) -> Extrema {
    let op = TopBottomK::<f64, u64>::new(MG_K);
    gv_core::iter::reduce_iter(&op, values.iter().enumerate().map(|(i, v)| (*v, i as u64))).into()
}

// ───────────────────────────── NAS CG ─────────────────────────────

/// A self-verifying CG problem on one rank: `b = A·x*` for a known `x*`.
pub struct CgProblem {
    b: CgBlock,
    x_star: CgBlock,
    x: CgBlock,
    iterations: usize,
}

/// The known solution at global index `i`.
pub fn cg_x_star(i: usize) -> f64 {
    ((i * 7) % 5) as f64 - 2.0
}

pub fn cg_problem(comm: &Comm, n: usize, iterations: usize) -> CgProblem {
    let x_star = CgBlock::from_fn(comm, n, cg_x_star);
    let mut b = CgBlock::zeros(comm, n);
    cg::matvec(comm, &x_star, &mut b);
    CgProblem {
        b,
        x_star,
        x: CgBlock::zeros(comm, n),
        iterations,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOutcome {
    pub iterations: usize,
    pub residual: f64,
    pub initial_residual: f64,
    /// Largest `|x − x*|` over this rank's entries.
    pub max_error: f64,
}

impl CgProblem {
    fn outcome(&self, result: cg::CgResult) -> CgOutcome {
        let max_error = self
            .x
            .data
            .iter()
            .zip(&self.x_star.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        CgOutcome {
            iterations: result.iterations,
            residual: result.residual,
            initial_residual: result.initial_residual,
            max_error,
        }
    }
}

/// One CG solve from `x = 0`, as the program's one call.
pub fn cg_solve(comm: &Comm, problem: &mut CgProblem) -> CgOutcome {
    problem.x.data.fill(0.0);
    let result = cg::solve(comm, &problem.b, &mut problem.x, problem.iterations);
    problem.outcome(result)
}

/// `dot` as its two public parts, each a phase: the local product, then
/// the one-word allreduce.
fn cg_dot_parts(comm: &Comm, a: &CgBlock, b: &CgBlock) -> f64 {
    phase(CG_DOT);
    let local: f64 = a.data.iter().zip(&b.data).map(|(x, y)| x * y).sum();
    phase(COMBINE);
    comm.allreduce(local, true, |_| std::mem::size_of::<f64>(), |x, y| x + y)
}

/// The same solve, re-run over the public `matvec` and the parts of `dot`,
/// traced as back-to-back phases; it must reproduce `cg_solve` bit for
/// bit.
pub fn cg_solve_parts(comm: &Comm, problem: &mut CgProblem) -> CgOutcome {
    let CgProblem {
        b, x, iterations, ..
    } = problem;
    x.data.fill(0.0);
    let mut r = b.clone();
    let mut p_dir = r.clone();
    let mut ap = CgBlock::zeros(comm, b.n);
    let mut rho = cg_dot_parts(comm, &r, &r);
    let initial_residual = rho.sqrt();
    for _ in 0..*iterations {
        phase(CG_MATVEC);
        cg::matvec(comm, &p_dir, &mut ap);
        let denom = cg_dot_parts(comm, &p_dir, &ap);
        if denom == 0.0 {
            break;
        }
        let alpha = rho / denom;
        phase(CG_AXPY);
        for i in 0..x.data.len() {
            x.data[i] += alpha * p_dir.data[i];
            r.data[i] -= alpha * ap.data[i];
        }
        let rho_next = cg_dot_parts(comm, &r, &r);
        let beta = rho_next / rho;
        rho = rho_next;
        phase(CG_AXPY);
        for i in 0..p_dir.data.len() {
            p_dir.data[i] = r.data[i] + beta * p_dir.data[i];
        }
    }
    end_phase();
    let result = cg::CgResult {
        iterations: *iterations,
        residual: rho.sqrt(),
        initial_residual,
    };
    problem.outcome(result)
}

// ─────────────────── core: kernels and engines, one thread ───────────────────

pub fn kernel_fold_sum_i64(block: &[i64]) -> i64 {
    kernel::fold_block(0i64, block, |a, b| a.wrapping_add(b))
}

pub fn kernel_fold_min_f64(block: &[f64]) -> f64 {
    kernel::fold_block(f64::INFINITY, block, |a, b| if b < a { b } else { a })
}

/// Inclusive serial-carry scan (the kernel exact integer ops take).
pub fn kernel_scan_sum_i64(block: &[i64], out: &mut Vec<i64>) {
    out.clear();
    let mut carry = 0i64;
    kernel::scan_block_serial(
        &mut carry,
        block,
        out,
        |a, b| a.wrapping_add(b),
        ScanKind::Inclusive,
    );
}

/// Inclusive prefix-network scan (the kernel float ops take).
pub fn kernel_scan_min_f64(block: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let mut carry = f64::INFINITY;
    kernel::scan_block_network(
        &mut carry,
        block,
        out,
        |a, b| if b < a { b } else { a },
        ScanKind::Inclusive,
    );
}

pub fn kernel_combine_elementwise_u64(a: &mut [u64], b: &[u64]) {
    kernel::combine_elementwise(a, b, |x, y| x + y);
}

pub fn kernel_count_into(counts: &mut [u64], block: &[usize]) {
    kernel::count_into(counts, block, |x| *x);
}

pub fn seq_reduce<Op: ReduceScanOp>(op: &Op, input: &[Op::In]) -> Op::Out {
    gv_core::seq::reduce(op, input)
}

pub fn seq_scan<Op: ReduceScanOp>(op: &Op, input: &[Op::In], kind: ScanKind) -> Vec<Op::Out> {
    gv_core::seq::scan(op, input, kind)
}

pub fn par_reduce<Op>(pool: &Pool, parts: usize, op: &Op, input: &[Op::In]) -> Op::Out
where
    Op: ReduceScanOp + Sync,
    Op::In: Sync,
    Op::State: Send,
{
    gv_core::par::reduce(pool, parts, op, input)
}

pub fn par_scan<Op>(
    pool: &Pool,
    parts: usize,
    op: &Op,
    input: &[Op::In],
    kind: ScanKind,
) -> Vec<Op::Out>
where
    Op: ReduceScanOp + Sync,
    Op::In: Sync,
    Op::State: Clone + Send,
    Op::Out: Send,
{
    gv_core::par::scan(pool, parts, op, input, kind)
}

// ───────────────────────────── executor ─────────────────────────────

/// One empty job per worker, scoped: the fixed cost of a fork-join.
pub fn pool_scope_noop(pool: &Pool) {
    pool.scope(|scope| {
        for _ in 0..pool.threads() {
            scope.spawn(|| ());
        }
    });
}

/// Receives one message with the mailbox's backoff: poll, spin, yield,
/// then park on the lane's parker.
fn lane_recv(rx: &mut LaneReceiver<u64>) -> u64 {
    /// The mailbox's yield budget between spinning and parking.
    const YIELD_LIMIT: u32 = 64;
    let spin_limit = gv_executor::lane::suggested_spin_limit();
    let mut waits = 0;
    loop {
        if let Some(v) = rx.try_recv() {
            return v;
        }
        waits += 1;
        if waits <= spin_limit {
            std::hint::spin_loop();
        } else if waits <= spin_limit + YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let parker = Arc::clone(rx.parker());
            let ticket = parker.ticket();
            if !rx.ready() {
                assert!(!rx.is_closed(), "lane peer exited early");
                parker.park_timeout(ticket, Duration::from_millis(50));
            }
            waits = 0;
        }
    }
}

/// Seconds for `round_trips` one-word ping-pongs between two threads over
/// a pair of SPSC lanes. Both sides are spawned threads, as ranks are.
pub fn lane_pingpong(round_trips: u64) -> f64 {
    let (ping_tx, mut ping_rx) = lane::<u64>(32, Arc::new(Parker::new()));
    let (pong_tx, mut pong_rx) = lane::<u64>(32, Arc::new(Parker::new()));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..round_trips {
                let v = lane_recv(&mut ping_rx);
                pong_tx.send(v + 1).expect("ping side alive");
            }
        });
        let ping = scope.spawn(move || {
            let start = Instant::now();
            for i in 0..round_trips {
                ping_tx.send(i).expect("pong side alive");
                assert_eq!(lane_recv(&mut pong_rx), i + 1);
            }
            start.elapsed().as_secs_f64()
        });
        ping.join().expect("ping thread")
    })
}

/// Seconds to stream `messages` one-word messages one way over one lane
/// (a burst: the 32-slot ring fills and the overflow queue takes over).
pub fn lane_stream(messages: u64) -> f64 {
    let (tx, mut rx) = lane::<u64>(32, Arc::new(Parker::new()));
    std::thread::scope(|scope| {
        let start = Instant::now();
        scope.spawn(move || {
            for i in 0..messages {
                tx.send(i).expect("consumer alive");
            }
        });
        let consumer = scope.spawn(move || {
            let mut sum = 0u64;
            for _ in 0..messages {
                sum = sum.wrapping_add(lane_recv(&mut rx));
            }
            assert_eq!(sum, messages.wrapping_mul(messages.wrapping_sub(1)) / 2);
        });
        consumer.join().expect("consumer thread");
        start.elapsed().as_secs_f64()
    })
}

// ─────────────── msgpass: point to point and raw collectives ───────────────

const PING_TAG: gv_msgpass::Tag = 7;

pub fn send_word(comm: &Comm, dst: usize, value: u64) {
    comm.send(dst, PING_TAG, value);
}

pub fn recv_word(comm: &Comm, src: usize) -> u64 {
    comm.recv(src, PING_TAG)
}

pub fn send_words(comm: &Comm, dst: usize, values: Vec<u64>) {
    comm.send_vec(dst, PING_TAG, values);
}

pub fn recv_words(comm: &Comm, src: usize) -> Vec<u64> {
    comm.recv(src, PING_TAG)
}

// `bytes_of` is `Fn(&T)` with `T = Vec<u64>`, so a slice will not do.
#[allow(clippy::ptr_arg)]
fn vec_bytes(v: &Vec<u64>) -> usize {
    v.len() * std::mem::size_of::<u64>()
}

fn add_vecs(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    kernel::combine_elementwise(&mut a, &b, |x, y| x.wrapping_add(y));
    a
}

pub fn allreduce_word(comm: &Comm, value: u64) -> u64 {
    comm.allreduce(value, true, |_| 8, |a, b| a.wrapping_add(b))
}

pub fn iallreduce_word(comm: &Comm, value: u64) -> WordRequest {
    WordRequest(comm.iallreduce(value, true, |_| 8, |a, b| a.wrapping_add(b)))
}

/// Whole-state allreduce of a vector (recursive doubling or
/// reduce+broadcast, whichever the selector prices lower).
pub fn allreduce_words(comm: &Comm, value: Vec<u64>) -> Vec<u64> {
    comm.allreduce(value, true, vec_bytes, add_vecs)
}

pub fn iallreduce_words(comm: &Comm, value: Vec<u64>) -> WordsRequest {
    WordsRequest(comm.iallreduce(value, true, vec_bytes, add_vecs))
}

/// Allreduce of a vector the selector may also split into segments.
pub fn allreduce_words_splittable(comm: &Comm, value: Vec<u64>) -> Vec<u64> {
    comm.allreduce_splittable(
        value,
        true,
        split_vec_segments,
        unsplit_vec_segments,
        vec_bytes,
        add_vecs,
    )
}

pub fn scan_word(comm: &Comm, value: u64) -> u64 {
    comm.scan_inclusive(value, |_| 8, |a, b| a.wrapping_add(b))
}

pub fn exscan_word(comm: &Comm, value: u64) -> u64 {
    comm.scan_exclusive(value, || 0, |_| 8, |a, b| a.wrapping_add(b))
}

pub fn exscan_words_splittable(comm: &Comm, value: Vec<u64>) -> Vec<u64> {
    let len = value.len();
    comm.scan_exclusive_splittable(
        value,
        || vec![0; len],
        split_vec_segments,
        unsplit_vec_segments,
        vec_bytes,
        add_vecs,
    )
}

/// Broadcast from rank 0 of a vector the selector may pipeline.
pub fn bcast_words_splittable(comm: &Comm, value: Option<Vec<u64>>, len: usize) -> Vec<u64> {
    comm.bcast_splittable(
        0,
        value,
        len * std::mem::size_of::<u64>(),
        split_vec_segments,
        unsplit_vec_segments,
        vec_bytes,
    )
}

pub fn alltoallv_keys(comm: &Comm, outgoing: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    comm.alltoallv(outgoing)
}

pub struct WordRequest(Request<u64>);

impl WordRequest {
    pub fn wait(mut self) -> u64 {
        self.0.wait().expect("transport alive")
    }
}

pub struct WordsRequest(Request<Vec<u64>>);

pub fn wait_all_words(requests: Vec<WordsRequest>) -> Vec<Vec<u64>> {
    let mut inner: Vec<_> = requests.into_iter().map(|r| r.0).collect();
    gv_msgpass::wait_all(&mut inner).expect("transport alive")
}
