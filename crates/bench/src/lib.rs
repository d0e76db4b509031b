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
//! * `schedule_audit` — experiment TXT-AUDIT: which collective schedule
//!   each end-to-end run and benchmark call selects.
//!
//! Host-clock microbenchmarks: `kernel_microbench` (the block kernels on
//! every ISA tier, the derived kernel, and experiment TXT-TRANSLATE's
//! accumulate-against-translate rows) and `pipeline_microbench` (what a
//! small message costs, layer by layer).
//!
//! See EXPERIMENTS.md for the recorded outputs and the comparison against
//! the paper's reported results.

pub mod table;
