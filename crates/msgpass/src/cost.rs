//! The virtual-clock communication cost model.
//!
//! This container has two CPUs, so rank threads cannot exhibit the
//! paper's parallel speedup; its Figures 2–3, however, plot speedup on up
//! to 736 processors. The substitution (documented in DESIGN.md) is a
//! classic α–β/LogP-style model evaluated *during* real execution:
//!
//! * every rank carries a virtual clock (seconds, starting at 0);
//! * local compute advances the clock by `gamma` per abstract operation
//!   ([`crate::comm::Comm::advance`]);
//! * sending costs the sender `alpha/2` of overhead, and a message of
//!   `b` bytes then occupies its link for `beta·b`: it goes on the wire
//!   once the link to its destination has carried the messages before it
//!   (one link per ordered pair of ranks, one message at a time);
//! * a message that went on the wire at `t` becomes *receivable* at
//!   `t + alpha/2 + beta·b`; receiving costs `alpha/2` of overhead and
//!   sets the receiver's clock to at least that (Lamport-style max).
//!
//! So a lone message costs `alpha + beta·b` end to end, and `S` segments
//! of an `n`-byte state sent back to back on one link arrive no earlier
//! than `alpha/2 + beta·n` after the first left: pipelining overlaps the
//! hops of a path, never the bytes on a link.
//!
//! The modeled elapsed time of a phase is the maximum clock advance over
//! all ranks, which captures exactly what the figures depend on: message
//! counts and sizes on the critical path, and the serial fraction of
//! compute.

/// Parameters of the α–β–γ cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (MPI short-message latency).
    pub alpha: f64,
    /// Per-byte transfer time in seconds (inverse bandwidth).
    pub beta: f64,
    /// Per-abstract-operation compute time in seconds.
    pub gamma: f64,
}

impl CostModel {
    /// A model loosely calibrated to the paper's testbed era (IBM P655,
    /// Federation-class interconnect): ~5 µs latency, ~1 GB/s bandwidth,
    /// ~1 ns per scalar operation.
    ///
    /// These constants model the *paper's network*, not this process:
    /// they deliberately do not track the in-process transport (whose
    /// real α is about a microsecond per ping-pong hop — the
    /// `msgpass.comm.pingpong_*` probes under `benchmark/` measure it):
    /// modeled figures must stay comparable across recordings, and the
    /// virtual clock is advanced by schedule shape alone, never by host
    /// wall time.
    pub const fn cluster_2006() -> Self {
        CostModel {
            alpha: 5.0e-6,
            beta: 1.0e-9,
            gamma: 1.0e-9,
        }
    }

    /// A zero-cost model: clocks never move. Useful in tests that only
    /// check values.
    pub const fn free() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0,
        }
    }

    /// Compute time of `ops` abstract operations.
    #[inline]
    pub fn compute(&self, ops: u64) -> f64 {
        self.gamma * ops as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::cluster_2006()
    }
}

/// The allreduce schedules the runtime runs.
///
/// Every blocking allreduce runs recursive doubling, which combines in
/// rank order and so suits any operator; a request runs the tree when its
/// operator is commutative (`select.rs`). Both carry the state whole. A
/// caller that must run the other one (an ablation, a test) names it to
/// `Comm::allreduce_by`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AllreduceAlgorithm {
    /// Binomial reduce to a root, then binomial broadcast, fused
    /// (`tree.rs`): `2⌈log₂p⌉(α + βn)`. What a commutative `iallreduce`
    /// runs, rooted at its call sequence, and the whole-state baseline
    /// the ablations force.
    ReduceBroadcast,
    /// Recursive doubling with a fold/unfold step for non-powers of two:
    /// `(⌊log₂p⌋ + 2·[p not a power of two])(α + βn)`. The schedule folds
    /// the p − 2^⌊log₂p⌋ extra ranks into the power-of-two core (one
    /// round), exchanges over the core (⌊log₂p⌋ rounds), and unfolds (one
    /// round). Latency-optimal; safe for non-commutative operators.
    RecursiveDoubling,
}

impl AllreduceAlgorithm {
    /// All algorithms, for iteration and display.
    pub const ALL: [AllreduceAlgorithm; 2] = [
        AllreduceAlgorithm::ReduceBroadcast,
        AllreduceAlgorithm::RecursiveDoubling,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgorithm::ReduceBroadcast => "reduce+bcast",
            AllreduceAlgorithm::RecursiveDoubling => "recursive-doubling",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!((m.alpha, m.beta), (0.0, 0.0));
        assert_eq!(m.compute(1 << 30), 0.0);
    }

    #[test]
    fn default_is_cluster_2006() {
        assert_eq!(CostModel::default(), CostModel::cluster_2006());
    }
}
