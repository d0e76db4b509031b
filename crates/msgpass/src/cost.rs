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

    /// Transit time of a `bytes`-byte message.
    #[inline]
    pub fn transit(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
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

/// Wire bytes of the *largest* segment when a `bytes`-byte splittable
/// state is divided into `parts` per-rank segments.
///
/// Splitters (`gv_core::split::split_vec_segments`) split on whole
/// elements, handing the first `n mod parts` segments one extra element —
/// the paper's harnesses all carry 8-byte scalars, so segment sizes are
/// modeled at 8-byte granularity. For non-power-of-two `parts` the extra
/// element is what makes the largest segment, not the mean `⌈n/p⌉`, the
/// critical-path price of segmented schedules.
pub fn max_segment_bytes(bytes: usize, parts: usize) -> usize {
    if parts <= 1 || bytes == 0 {
        return bytes;
    }
    const ELEM: usize = 8;
    let elems = bytes.div_ceil(ELEM);
    (elems.div_ceil(parts) * ELEM).min(bytes)
}

/// The most segments the chain scan ([`ScanAlgorithm::chain_segments`])
/// ever chooses, and so the longest burst of messages one segmented
/// collective puts on a lane.
pub(crate) const MAX_PIPELINE_SEGMENTS: usize = 64;

/// The allreduce schedules the runtime can choose between.
///
/// Selection is cost-driven: [`AllreduceAlgorithm::select`] evaluates the
/// α–β estimate of each *eligible* algorithm for the call's rank count and
/// wire size and picks the cheapest. Eligibility is a correctness matter,
/// not a cost one: the circulant reduce-scatter combines blocks in
/// power-of-two stride order, so it needs a commutative operator *and* a
/// splittable state; recursive doubling and the tree preserve rank order
/// and work for any operator. Every schedule but the circulant carries
/// the state whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AllreduceAlgorithm {
    /// Binomial reduce to rank 0, then binomial broadcast, fused
    /// (`tree.rs`): `2⌈log₂p⌉(α + βn)`. Never the α–β winner of a
    /// blocking call (recursive doubling needs at most as many hops at
    /// every p), so [`select`](Self::select) does not price it; it is
    /// what a commutative `iallreduce` runs, rooted at its call sequence,
    /// and the whole-state baseline the ablations force.
    ReduceBroadcast,
    /// Recursive doubling with a fold/unfold step for non-powers of two:
    /// `(⌊log₂p⌋ + 2·[p not a power of two])(α + βn)`. The schedule folds
    /// the p − 2^⌊log₂p⌋ extra ranks into the power-of-two core (one
    /// round), exchanges over the core (⌊log₂p⌋ rounds), and unfolds (one
    /// round) — so the non-power-of-two round count uses the *floor*, not
    /// the ceiling. Latency-optimal; safe for non-commutative operators.
    RecursiveDoubling,
    /// Circulant reduce-scatter then circulant allgather
    /// (Rabenseifner-style phases with Träff's non-power-of-two round
    /// structure): `2(⌈log₂p⌉·α + (p−1)·β·s_max)` where `s_max` is the
    /// largest per-rank segment ([`max_segment_bytes`]). Bandwidth-optimal
    /// for large states at *any* p; requires commutativity and a
    /// splittable state.
    ReduceScatterAllgather,
}

impl AllreduceAlgorithm {
    /// All algorithms, for iteration and display.
    pub const ALL: [AllreduceAlgorithm; 3] = [
        AllreduceAlgorithm::ReduceBroadcast,
        AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::ReduceScatterAllgather,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgorithm::ReduceBroadcast => "reduce+bcast",
            AllreduceAlgorithm::RecursiveDoubling => "recursive-doubling",
            AllreduceAlgorithm::ReduceScatterAllgather => "reduce-scatter+allgather",
        }
    }

    /// α–β estimate of one allreduce of a `bytes`-byte state over
    /// `ranks` ranks (critical-path transit time only; combine compute is
    /// identical across algorithms to first order and is left out).
    pub fn estimated_seconds(self, cost: &CostModel, ranks: usize, bytes: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let p = ranks as f64;
        let hop = cost.transit(bytes);
        match self {
            AllreduceAlgorithm::ReduceBroadcast => 2.0 * p.log2().ceil() * hop,
            AllreduceAlgorithm::RecursiveDoubling => {
                let extra = if ranks.is_power_of_two() { 0.0 } else { 2.0 };
                (p.log2().floor() + extra) * hop
            }
            AllreduceAlgorithm::ReduceScatterAllgather => {
                // Circulant phases: q = ⌈log₂p⌉ rounds each for any p, and
                // across a phase every rank ships each of its p−1 foreign
                // segments exactly once — q latencies plus (p−1) segments
                // of bandwidth. Segments split on whole elements, so for
                // non-power-of-two p the *largest* segment is the per-block
                // price (the old ring formula's mean ⌈n/p⌉ under-priced
                // the critical path off powers of two).
                let q = ranks.next_power_of_two().trailing_zeros() as f64;
                let seg = max_segment_bytes(bytes, ranks);
                2.0 * (q * cost.alpha + (p - 1.0) * seg as f64 * cost.beta)
            }
        }
    }

    /// The schedule one allreduce call runs: the cheapest eligible one,
    /// as `Comm::allreduce_by` takes it.
    ///
    /// `commutative` is the operator's flag; `splittable` says whether the
    /// caller can split the state into per-rank segments. Reduce-scatter +
    /// allgather is only eligible when both hold. Ties go to recursive
    /// doubling, the latency-optimal schedule, when the model cannot
    /// separate the two.
    pub fn select(
        cost: &CostModel,
        ranks: usize,
        bytes: usize,
        commutative: bool,
        splittable: bool,
    ) -> AllreduceAlgorithm {
        let rsag = AllreduceAlgorithm::ReduceScatterAllgather;
        let rd = AllreduceAlgorithm::RecursiveDoubling;
        let eligible = splittable && commutative && ranks >= 2;
        if eligible
            && rsag.estimated_seconds(cost, ranks, bytes) < rd.estimated_seconds(cost, ranks, bytes)
        {
            rsag
        } else {
            rd
        }
    }
}

/// The scan schedules the runtime can choose between.
///
/// All three schedules combine strictly in rank order, so — unlike
/// allreduce selection — commutativity never matters for eligibility.
/// Only *splittability* does: the pipelined chain ships per-segment
/// partials, which requires the `SplittableState` distributivity law
/// (segment-wise combine + reassembly equals whole-state combine).
///
/// The α–β estimate blends two terms. The first is the schedule's
/// critical path, `rounds · (α + βn)`, exactly like the allreduce
/// estimates. The second is the schedule's *aggregate* traffic — every
/// byte any rank sends or streams through `combine`, priced at β — which
/// is what separates work-efficient schedules from latency-optimal ones:
/// on the critical path alone Hillis–Steele (⌈log₂p⌉ rounds) beats the
/// binomial scan (2⌈log₂p⌉ rounds) at every size, yet it moves
/// Θ(p·log p) full states where the binomial moves Θ(p). Ranks share the
/// transport (here one host's memory system; on a cluster, NICs and
/// bisection), so for large states the aggregate volume, not the round
/// count, bounds the wall time — the quantity the
/// `ablation_scan_algorithm` harness measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ScanAlgorithm {
    /// Shifted recursive doubling (Hillis–Steele): `⌈log₂p⌉` rounds,
    /// `p·⌈log₂p⌉ − (2^⌈log₂p⌉ − 1)` messages. Latency-optimal; the
    /// small-state default.
    RecursiveDoubling,
    /// Work-efficient binomial up-sweep/down-sweep (Blelloch-style):
    /// `2⌈log₂p⌉` rounds but only `O(p)` messages and combines. Wins
    /// when states are big or `combine` is expensive.
    Binomial,
    /// Pipelined chain over state segments: segment `j` flows rank-to-rank
    /// one hop behind segment `j−1`, overlapping chain latency with
    /// bandwidth. Requires a splittable state.
    PipelinedChain,
}

impl ScanAlgorithm {
    /// All algorithms, for iteration and display.
    pub const ALL: [ScanAlgorithm; 3] = [
        ScanAlgorithm::RecursiveDoubling,
        ScanAlgorithm::Binomial,
        ScanAlgorithm::PipelinedChain,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ScanAlgorithm::RecursiveDoubling => "recursive-doubling",
            ScanAlgorithm::Binomial => "binomial",
            ScanAlgorithm::PipelinedChain => "pipelined-chain",
        }
    }

    /// α–β estimate of one scan of a `bytes`-byte state over `ranks`
    /// ranks: critical-path transit plus aggregate traffic (see the type
    /// docs for why the aggregate term is in the model).
    pub fn estimated_seconds(self, cost: &CostModel, ranks: usize, bytes: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let p = ranks as f64;
        let n = bytes as f64;
        let rounds = ranks.next_power_of_two().trailing_zeros() as f64;
        match self {
            ScanAlgorithm::RecursiveDoubling => {
                // Round d has p−d senders: Σ_{d=2^k<p}(p−d) messages; every
                // receive feeds one inclusive combine, and all but each
                // rank's first also feed one exclusive combine.
                let msgs = p * rounds - (ranks.next_power_of_two() as f64 - 1.0);
                let combines = 2.0 * msgs - (p - 1.0);
                rounds * cost.transit(bytes) + (msgs + combines) * n * cost.beta
            }
            ScanAlgorithm::Binomial => {
                // p−1 up-sweep and ≤ p−1 down-sweep messages; each message
                // feeds at most one combine plus one inclusive fix-up.
                let msgs = 2.0 * (p - 1.0);
                let combines = 3.0 * (p - 1.0);
                2.0 * rounds * cost.transit(bytes) + (msgs + combines) * n * cost.beta
            }
            ScanAlgorithm::PipelinedChain => {
                // p−1+S−1 pipeline stages of one n/S-byte segment each;
                // aggregate is (p−1)·n bytes sent + (p−1)·n combined.
                let s = Self::chain_segments(cost, ranks, bytes) as f64;
                let stages = p + s - 2.0;
                let hop = cost.alpha + cost.beta * n / s;
                stages * hop + 2.0 * (p - 1.0) * n * cost.beta
            }
        }
    }

    /// Deterministic segment count for the pipelined chain: the textbook
    /// optimum of its stage term `(p+S−2)(α + βn/S)`, `S* = √((p−2)·βn/α)`,
    /// clamped to `[1, MAX_PIPELINE_SEGMENTS]` and to segments of at least
    /// 512 bytes. A chain of one hop has nothing to overlap, so at `p ≤ 2`
    /// it never segments. Depends only on `(cost, p, bytes)`, so every rank
    /// computes the same schedule and the estimate prices the schedule
    /// actually run.
    pub fn chain_segments(cost: &CostModel, ranks: usize, bytes: usize) -> usize {
        if ranks <= 2 || bytes == 0 {
            return 1;
        }
        let ideal = ((ranks - 2) as f64 * cost.beta * bytes as f64 / cost.alpha).sqrt();
        let cap = MAX_PIPELINE_SEGMENTS.min((bytes / 512).max(1)) as f64;
        if ideal.is_nan() {
            // α = β = 0 (the free model): segmentation is cost-neutral.
            1
        } else {
            ideal.round().clamp(1.0, cap) as usize
        }
    }

    /// The plan one scan call runs: the cheapest eligible schedule and
    /// its segment count — [`chain_segments`](Self::chain_segments) for
    /// the pipelined chain, 1 otherwise — as `Comm::scan_both_by` takes
    /// it.
    ///
    /// `splittable` says whether the caller can split the state into
    /// segments satisfying the `SplittableState` laws; the pipelined
    /// chain is only eligible when it holds. There is no `commutative`
    /// parameter: every candidate combines in rank order, so operator
    /// commutativity never constrains the choice. Ties go to the earlier
    /// entry of the preference order (recursive doubling, then binomial),
    /// so the latency-optimal schedule wins when the model cannot
    /// separate them.
    pub fn select(
        cost: &CostModel,
        ranks: usize,
        bytes: usize,
        splittable: bool,
    ) -> (ScanAlgorithm, usize) {
        let candidates = [
            (ScanAlgorithm::RecursiveDoubling, true),
            (ScanAlgorithm::Binomial, true),
            (ScanAlgorithm::PipelinedChain, splittable && ranks >= 2),
        ];
        let mut best = (ScanAlgorithm::RecursiveDoubling, f64::INFINITY);
        for (algo, _) in candidates.into_iter().filter(|&(_, eligible)| eligible) {
            let estimate = algo.estimated_seconds(cost, ranks, bytes);
            if estimate < best.1 {
                best = (algo, estimate);
            }
        }
        match best.0 {
            ScanAlgorithm::PipelinedChain => (best.0, Self::chain_segments(cost, ranks, bytes)),
            algo => (algo, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transit_combines_latency_and_bandwidth() {
        let m = CostModel {
            alpha: 1e-6,
            beta: 1e-9,
            gamma: 0.0,
        };
        let t = m.transit(1000);
        assert!((t - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.transit(1 << 20), 0.0);
        assert_eq!(m.compute(1 << 30), 0.0);
    }

    #[test]
    fn default_is_cluster_2006() {
        assert_eq!(CostModel::default(), CostModel::cluster_2006());
    }

    #[test]
    fn single_rank_allreduce_is_free() {
        let m = CostModel::cluster_2006();
        for algo in AllreduceAlgorithm::ALL {
            assert_eq!(algo.estimated_seconds(&m, 1, 1 << 20), 0.0);
            assert_eq!(algo.estimated_seconds(&m, 0, 1 << 20), 0.0);
        }
    }

    #[test]
    fn recursive_doubling_wins_small_states() {
        let m = CostModel::cluster_2006();
        // 8 bytes at p=8: latency dominates; RS+AG pays 2·3 rounds of
        // latency vs RD's 3.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 8, true, true),
            AllreduceAlgorithm::RecursiveDoubling
        );
    }

    #[test]
    fn reduce_scatter_wins_large_splittable_states() {
        let m = CostModel::cluster_2006();
        // 64 KiB at p=8: bandwidth dominates; RS+AG ships n/p per hop.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 64 << 10, true, true),
            AllreduceAlgorithm::ReduceScatterAllgather
        );
        // Non-commutative or unsplittable, at any size: the circulant is
        // ineligible and every other schedule runs the state whole.
        for (commutative, splittable) in [(false, true), (true, false)] {
            for bytes in [64usize << 10, 1 << 20] {
                assert_eq!(
                    AllreduceAlgorithm::select(&m, 8, bytes, commutative, splittable),
                    AllreduceAlgorithm::RecursiveDoubling
                );
            }
        }
    }

    #[test]
    fn scan_selector_keeps_recursive_doubling_for_small_states() {
        let m = CostModel::cluster_2006();
        // Every scan the pinned harnesses issue is 8 bytes (IS offsets) or
        // a few bytes (string tests) — far below the ~2.5 KiB crossover —
        // and none uses the `_splittable` entry points, so recursive
        // doubling must stay the default at every rank count.
        for p in 2..=64usize {
            assert_eq!(
                ScanAlgorithm::select(&m, p, 8, false).0,
                ScanAlgorithm::RecursiveDoubling,
                "p={p}"
            );
        }
        // Splittable small states: same story once the chain's p−1 hops
        // exceed recursive doubling's ⌈log₂p⌉ rounds (at p ≤ 3 they are
        // equal and the chain legitimately wins on aggregate traffic).
        for p in 4..=64usize {
            assert_eq!(
                ScanAlgorithm::select(&m, p, 8, true).0,
                ScanAlgorithm::RecursiveDoubling,
                "p={p} splittable"
            );
        }
    }

    #[test]
    fn scan_selector_picks_binomial_for_large_unsplittable_states() {
        let m = CostModel::cluster_2006();
        // 64 KiB at p=8: aggregate traffic dominates; binomial moves
        // Θ(p) states where Hillis–Steele moves Θ(p·log p).
        assert_eq!(
            ScanAlgorithm::select(&m, 8, 64 << 10, false).0,
            ScanAlgorithm::Binomial
        );
        assert_eq!(
            ScanAlgorithm::select(&m, 16, 64 << 10, false).0,
            ScanAlgorithm::Binomial
        );
    }

    #[test]
    fn scan_selector_picks_pipelined_chain_for_large_splittable_states() {
        let m = CostModel::cluster_2006();
        // At the chain chooser's segment count (9 here).
        assert_eq!(
            ScanAlgorithm::select(&m, 8, 64 << 10, true),
            (ScanAlgorithm::PipelinedChain, 9)
        );
        // Unsplittable state: chain ineligible regardless of cost.
        assert_ne!(
            ScanAlgorithm::select(&m, 8, 64 << 10, false).0,
            ScanAlgorithm::PipelinedChain
        );
    }

    #[test]
    fn single_rank_scan_is_free() {
        let m = CostModel::cluster_2006();
        for algo in ScanAlgorithm::ALL {
            assert_eq!(algo.estimated_seconds(&m, 1, 1 << 20), 0.0);
            assert_eq!(algo.estimated_seconds(&m, 0, 1 << 20), 0.0);
        }
    }

    #[test]
    fn chain_segments_are_deterministic_and_clamped() {
        let m = CostModel::cluster_2006();
        // Tiny states: one segment (no point splitting below 512 B).
        assert_eq!(ScanAlgorithm::chain_segments(&m, 8, 8), 1);
        assert_eq!(ScanAlgorithm::chain_segments(&m, 1, 1 << 20), 1);
        assert_eq!(ScanAlgorithm::chain_segments(&m, 8, 0), 1);
        // 64 KiB at p=8, a chain of 7 hops: √(6·β·n/α) ≈ 8.9 → 9 segments.
        assert_eq!(ScanAlgorithm::chain_segments(&m, 8, 64 << 10), 9);
        // A chain of one hop has nothing to overlap.
        assert_eq!(ScanAlgorithm::chain_segments(&m, 2, 1 << 20), 1);
        // Huge states hit the 64-segment cap.
        assert_eq!(ScanAlgorithm::chain_segments(&m, 64, 64 << 20), 64);
        // The free model must not divide by zero (NaN → 1 segment).
        assert_eq!(
            ScanAlgorithm::chain_segments(&CostModel::free(), 8, 1 << 20),
            1
        );
    }

    #[test]
    fn max_segment_rounds_up_to_whole_elements() {
        // Even power-of-two split of 8-byte elements: exact.
        assert_eq!(max_segment_bytes(64 << 10, 8), 8 << 10);
        // 65536 B = 8192 elements over 6 ranks: ⌈8192/6⌉ = 1366 elements.
        assert_eq!(max_segment_bytes(64 << 10, 6), 1366 * 8);
        // 12 ranks: ⌈8192/12⌉ = 683 elements — vs. the mean ⌈65536/12⌉ =
        // 5462 B the old formula priced.
        assert_eq!(max_segment_bytes(64 << 10, 12), 683 * 8);
        // Degenerate cases: one part or empty state pass through.
        assert_eq!(max_segment_bytes(1 << 20, 1), 1 << 20);
        assert_eq!(max_segment_bytes(0, 8), 0);
        // A state smaller than one element per rank clamps to the state.
        assert_eq!(max_segment_bytes(8, 4), 8);
    }

    #[test]
    fn recursive_doubling_estimate_matches_real_round_count() {
        // With β = γ = 0 every hop costs exactly α, so the modeled time of
        // a run is (critical-path rounds)·α: the estimate must agree with
        // what the schedule actually executes, for any p.
        let m = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        for p in 2..=17usize {
            let expected_rounds = p.ilog2() as f64 + if p.is_power_of_two() { 0.0 } else { 2.0 };
            let est = AllreduceAlgorithm::RecursiveDoubling.estimated_seconds(&m, p, 8);
            assert!(
                (est - expected_rounds).abs() < 1e-9,
                "p={p}: estimate {est} rounds, schedule runs {expected_rounds}"
            );
            let outcome = crate::runtime::Runtime::new(p).cost_model(m).run(|comm| {
                let rd = AllreduceAlgorithm::RecursiveDoubling;
                let whole = crate::collectives::tree::whole();
                comm.allreduce_by(rd, comm.rank() as u64, whole, |_| 8, |a, b| a + b)
            });
            assert!(
                (outcome.modeled_seconds - expected_rounds).abs() < 1e-9,
                "p={p}: modeled {} rounds, estimate says {expected_rounds}",
                outcome.modeled_seconds
            );
        }
    }

    #[test]
    fn reduce_scatter_estimate_matches_circulant_round_count() {
        // α-only model: the circulant schedule runs ⌈log₂p⌉ rounds per
        // phase at any p, so the estimate must price 2⌈log₂p⌉ latencies.
        let m = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        for p in [2usize, 3, 5, 6, 8, 12, 13, 16] {
            let q = p.next_power_of_two().trailing_zeros() as f64;
            let est = AllreduceAlgorithm::ReduceScatterAllgather.estimated_seconds(&m, p, 1 << 10);
            assert!(
                (est - 2.0 * q).abs() < 1e-9,
                "p={p}: estimate {est}, circulant runs {} rounds",
                2.0 * q
            );
        }
    }

    #[test]
    fn reduce_broadcast_is_never_cheaper_than_recursive_doubling() {
        // Why `select` need not price reduce+bcast: at every p, size and
        // α/β ratio — α-only, β-only, the 2006 cluster, a host-like model
        // and the floors `measure_cost_model` clamps to — recursive
        // doubling is at most as dear, and it comes first in the order.
        let model = |alpha, beta| CostModel {
            alpha,
            beta,
            gamma: 0.0,
        };
        let models = [
            CostModel::cluster_2006(),
            CostModel::free(),
            model(1.0, 0.0),
            model(0.0, 1.0e-9),
            model(1.0e-5, 5.87e-10),
            model(1.0e-9, 1.0e-13),
            model(1.0e-9, 1.0e-9),
            model(1.0, 1.0e-13),
        ];
        for m in models {
            for p in 1..=64usize {
                for bytes in [0usize, 1, 64, 4 << 10, 1 << 20, 16 << 20] {
                    let rb = AllreduceAlgorithm::ReduceBroadcast.estimated_seconds(&m, p, bytes);
                    let rd = AllreduceAlgorithm::RecursiveDoubling.estimated_seconds(&m, p, bytes);
                    assert!(rd <= rb, "{m:?} p={p} bytes={bytes}: rd={rd} rb={rb}");
                }
            }
        }
    }

    #[test]
    fn two_ranks_never_segment_a_splittable_state() {
        // One hop has nothing to pipeline: at p = 2, from 8 B to 16 MiB,
        // commutative or not, a splittable state runs whole.
        let m = CostModel::cluster_2006();
        let mut bytes = 8usize;
        while bytes <= 16 << 20 {
            for commutative in [false, true] {
                assert_eq!(
                    AllreduceAlgorithm::select(&m, 2, bytes, commutative, true),
                    AllreduceAlgorithm::RecursiveDoubling,
                    "{bytes} B commutative={commutative}"
                );
            }
            assert_eq!(ScanAlgorithm::select(&m, 2, bytes, true).1, 1, "{bytes} B");
            bytes *= 2;
        }
    }
}
