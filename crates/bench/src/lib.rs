//! # gv-bench — the paper's evaluation, regenerated
//!
//! Binaries (modeled-time harnesses; deterministic output):
//!
//! * `fig2_is_verify` — Figure 2: NAS IS verification-phase speedup,
//!   C+MPI vs scalar-optimized C+MPI vs C+RSMPI, per class and rank count.
//! * `fig3_mg_zran3` — Figure 3: NAS MG ZRAN3 speedup, F+MPI (forty
//!   reductions) vs F+RSMPI (one user-defined reduction).
//! * `mpi_call_stats` — experiment TXT-NPB: share of communication calls
//!   that are reductions/scans across the NAS kernels.
//! * `ablation_commutative` — experiment TXT-COMM: commutative vs
//!   non-commutative combining across branching factors.
//! * `ablation_aggregation` — experiment TXT-AGG: one aggregated
//!   reduction vs many separate ones.
//!
//! Criterion benches (wall-clock, single host): `core_reduce`,
//! `core_scan`, `ablation_translate`.
//!
//! See EXPERIMENTS.md for the recorded outputs and the comparison against
//! the paper's reported results.

pub mod table;

use gv_core::op::ReduceScanOp;

/// The accumulate phase over `data` through the derived kernel
/// [`gv_core::kernel::accum_runs`], with the `pre_accum`/`post_accum`
/// hooks around it as `accumulate_block` applies them around an operator's
/// own `accum_block` — for timing the derived kernel on operators that did
/// not opt into it (`kernel_microbench`, `core_reduce`).
pub fn accumulate_through_runs<Op: ReduceScanOp>(op: &Op, state: &mut Op::State, data: &[Op::In]) {
    if let (Some(first), Some(last)) = (data.first(), data.last()) {
        op.pre_accum(state, first);
        gv_core::kernel::accum_runs(op, state, data);
        op.post_accum(state, last);
    }
}
