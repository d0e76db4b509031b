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
//! * a message of `b` bytes sent at sender-time `t` becomes *receivable*
//!   at `t + alpha + beta·b`; receiving sets the receiver's clock to at
//!   least that (Lamport-style max).
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

/// The most segments [`pipeline_segments`] ever chooses, and so the
/// longest burst of messages one segmented collective puts on a lane —
/// which is what the lane's envelope freelist is sized from.
pub(crate) const MAX_PIPELINE_SEGMENTS: usize = 64;

/// Deterministic segment count for a pipelined schedule whose critical
/// path is `depth` hops: minimizes the stage term `(depth+S−1)(α + βn/S)`
/// at `S* = √(depth·βn/α)`, clamped to `[1, MAX_PIPELINE_SEGMENTS]` and to
/// segments of at least 512 bytes. Depends only on `(cost, depth, bytes)`,
/// so every rank computes the same schedule and the estimate prices the
/// schedule actually run. The chain scan (`depth = p−1`) and the segmented
/// binomial tree (effective `depth = 2`, see
/// [`BcastAlgorithm::tree_segments`]) share this chooser.
pub fn pipeline_segments(cost: &CostModel, depth: usize, bytes: usize) -> usize {
    if depth == 0 || bytes == 0 {
        return 1;
    }
    let ideal = (depth as f64 * cost.beta * bytes as f64 / cost.alpha).sqrt();
    let cap = MAX_PIPELINE_SEGMENTS.min((bytes / 512).max(1)) as f64;
    if ideal.is_nan() {
        // α = β = 0 (the free model): segmentation is cost-neutral.
        1
    } else {
        ideal.round().clamp(1.0, cap) as usize
    }
}

/// The allreduce schedules the runtime can choose between.
///
/// Selection is cost-driven: [`AllreduceAlgorithm::select`] evaluates the
/// α–β estimate of each *eligible* algorithm for the call's rank count and
/// wire size and picks the cheapest. Eligibility is a correctness matter,
/// not a cost one: the circulant reduce-scatter combines blocks in
/// power-of-two stride order, so it needs a commutative operator *and* a
/// splittable state; recursive doubling and the tree preserve rank order
/// and work for any operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AllreduceAlgorithm {
    /// Binomial reduce to rank 0, then binomial broadcast — the tree at
    /// `S = 1`: `2⌈log₂p⌉(α + βn)`. Never the α–β winner (recursive
    /// doubling needs at most as many hops at every p); it exists as the
    /// whole-state baseline the ablations measure against.
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
    /// Fused segment-pipelined binomial tree: each segment is reduced up
    /// the tree to rank 0 (children combined in increasing-mask order —
    /// rank-order safe) and relayed straight down the same tree the
    /// moment it completes, so the broadcast of segment `j` overlaps the
    /// reduce of segment `j+1`:
    /// `2⌈log₂p⌉(α + β·n/S) + (S−1)⌈log₂p⌉·α`. The first term is one
    /// segment's round trip; the drain spacing is rank 0's per-segment
    /// occupancy — up to `⌈log₂p⌉` receives on the way up plus as many
    /// child sends on the way down, at `α/2` apiece. Requires only a
    /// splittable state — the large-state schedule for non-commutative
    /// operators.
    PipelinedTree,
}

impl AllreduceAlgorithm {
    /// All algorithms, for iteration and display.
    pub const ALL: [AllreduceAlgorithm; 4] = [
        AllreduceAlgorithm::ReduceBroadcast,
        AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::ReduceScatterAllgather,
        AllreduceAlgorithm::PipelinedTree,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgorithm::ReduceBroadcast => "reduce+bcast",
            AllreduceAlgorithm::RecursiveDoubling => "recursive-doubling",
            AllreduceAlgorithm::ReduceScatterAllgather => "reduce-scatter+allgather",
            AllreduceAlgorithm::PipelinedTree => "pipelined-tree",
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
            AllreduceAlgorithm::ReduceBroadcast => {
                2.0 * p.log2().ceil() * hop
            }
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
            AllreduceAlgorithm::PipelinedTree => {
                // One segment's tree round trip, then a drain tail of rank
                // 0's per-segment occupancy: ⌈log₂p⌉ receives up plus
                // ⌈log₂p⌉ child sends down at α/2 each. Segment count is
                // the tree chooser's (the depth cancels from its optimum
                // exactly as for the rooted tree schedules).
                let s = BcastAlgorithm::tree_segments(cost, ranks, bytes);
                let seg = max_segment_bytes(bytes, s);
                let depth = p.log2().ceil();
                2.0 * depth * cost.transit(seg) + (s as f64 - 1.0) * depth * cost.alpha
            }
        }
    }

    /// Picks the cheapest eligible algorithm for one allreduce call.
    ///
    /// `commutative` is the operator's flag; `splittable` says whether the
    /// caller can split the state into per-rank segments. Reduce-scatter +
    /// allgather is only eligible when both hold. Ties go to the earlier
    /// entry of the preference order (recursive doubling first), so the
    /// latency-optimal schedule wins when the model cannot separate them.
    pub fn select(
        cost: &CostModel,
        ranks: usize,
        bytes: usize,
        commutative: bool,
        splittable: bool,
    ) -> AllreduceAlgorithm {
        let candidates = [
            AllreduceAlgorithm::RecursiveDoubling,
            AllreduceAlgorithm::ReduceScatterAllgather,
            AllreduceAlgorithm::PipelinedTree,
            AllreduceAlgorithm::ReduceBroadcast,
        ];
        let mut best = AllreduceAlgorithm::RecursiveDoubling;
        let mut best_cost = f64::INFINITY;
        for algo in candidates {
            let eligible = match algo {
                AllreduceAlgorithm::ReduceScatterAllgather => {
                    commutative && splittable && ranks >= 2
                }
                // Rank-order combines: splittability is the only gate.
                AllreduceAlgorithm::PipelinedTree => splittable && ranks >= 2,
                _ => true,
            };
            if !eligible {
                continue;
            }
            let estimate = algo.estimated_seconds(cost, ranks, bytes);
            if estimate < best_cost {
                best = algo;
                best_cost = estimate;
            }
        }
        best
    }
}

/// The two regimes of the segmented binomial tree, as selected and as
/// recorded in the stats: whole-state (`S = 1`) and segmented (`S > 1`).
/// Broadcast and rooted reduce both run this tree — the up-tree mirrors
/// the down-tree, so one estimate prices both.
///
/// The tree combines in rank order at every `S`, so there is no
/// commutativity question — only *splittability* gates `S > 1`, exactly
/// as for the chain scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum BcastAlgorithm {
    /// Whole-state binomial tree: `⌈log₂p⌉(α + βn)`. Latency-optimal;
    /// the small-state default.
    Binomial,
    /// Segment-pipelined binomial tree: segment `j` flows down the tree
    /// behind segment `j−1`, `⌈log₂p⌉(α + β·n/S) + (S−1)⌈log₂p⌉·α/2`.
    /// The first term is the first segment's descent; later segments are
    /// spaced by the root's fan-out occupancy — it re-sends each segment
    /// to all ⌈log₂p⌉ children at `α/2` apiece before starting the next,
    /// while the `β` terms of in-flight segments overlap on the wire.
    /// Requires a splittable state.
    Pipelined,
}

impl BcastAlgorithm {
    /// All algorithms, for iteration and display.
    pub const ALL: [BcastAlgorithm; 2] = [BcastAlgorithm::Binomial, BcastAlgorithm::Pipelined];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BcastAlgorithm::Binomial => "binomial",
            BcastAlgorithm::Pipelined => "pipelined-binomial",
        }
    }

    /// Segment count the pipelined tree uses for a `bytes`-byte state
    /// over `ranks` ranks. Both the bandwidth term (`depth·β·n/S`) and
    /// the pipeline tail (`(S−1)·depth·α/2`) scale with the tree depth,
    /// so the depth cancels out of the optimum: `S* = √(2βn/α)`, i.e.
    /// [`pipeline_segments`] with an effective depth of 2 (β·n balanced
    /// against α/2), at every rank count.
    pub fn tree_segments(cost: &CostModel, ranks: usize, bytes: usize) -> usize {
        if ranks <= 1 {
            return 1;
        }
        pipeline_segments(cost, 2, bytes)
    }

    /// α–β estimate of one broadcast of a `bytes`-byte state over
    /// `ranks` ranks (critical-path transit time only).
    pub fn estimated_seconds(self, cost: &CostModel, ranks: usize, bytes: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let depth = ranks.next_power_of_two().trailing_zeros() as f64;
        match self {
            BcastAlgorithm::Binomial => depth * cost.transit(bytes),
            BcastAlgorithm::Pipelined => {
                // First segment descends the tree; later segments are
                // spaced by the root's fan-out (⌈log₂p⌉ child sends at
                // α/2 each per segment), β overlapped on the wire.
                let s = Self::tree_segments(cost, ranks, bytes);
                let seg = max_segment_bytes(bytes, s);
                depth * cost.transit(seg) + (s as f64 - 1.0) * depth * cost.alpha / 2.0
            }
        }
    }

    /// Segment count the tree runs with: 1 unless the state is
    /// splittable and the priced `S > 1` estimate is strictly lower. At
    /// small states the chooser itself returns `S = 1` and the two
    /// estimates coincide, so the whole-state tree keeps running.
    pub fn select_segments(cost: &CostModel, ranks: usize, bytes: usize, splittable: bool) -> usize {
        let s = Self::tree_segments(cost, ranks, bytes);
        let segmented_wins = splittable
            && s > 1
            && BcastAlgorithm::Pipelined.estimated_seconds(cost, ranks, bytes)
                < BcastAlgorithm::Binomial.estimated_seconds(cost, ranks, bytes);
        if segmented_wins {
            s
        } else {
            1
        }
    }

    /// [`select_segments`](Self::select_segments), as the regime it
    /// lands in.
    pub fn select(cost: &CostModel, ranks: usize, bytes: usize, splittable: bool) -> BcastAlgorithm {
        if Self::select_segments(cost, ranks, bytes, splittable) > 1 {
            BcastAlgorithm::Pipelined
        } else {
            BcastAlgorithm::Binomial
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

    /// Deterministic segment count for the pipelined chain: minimizes the
    /// stage term `(p+S−2)(α + βn/S)` at `S* = √((p−1)·βn/α)` — the
    /// shared [`pipeline_segments`] chooser at chain depth `p−1`.
    pub fn chain_segments(cost: &CostModel, ranks: usize, bytes: usize) -> usize {
        if ranks <= 1 {
            return 1;
        }
        pipeline_segments(cost, ranks - 1, bytes)
    }

    /// Picks the cheapest eligible scan schedule for one call.
    ///
    /// `splittable` says whether the caller can split the state into
    /// segments satisfying the `SplittableState` laws; the pipelined
    /// chain is only eligible when it holds. There is no `commutative`
    /// parameter: every candidate combines in rank order, so operator
    /// commutativity never constrains the choice. Ties go to the earlier
    /// entry of the preference order (recursive doubling, then binomial),
    /// so the latency-optimal schedule wins when the model cannot
    /// separate them.
    pub fn select(cost: &CostModel, ranks: usize, bytes: usize, splittable: bool) -> ScanAlgorithm {
        let candidates = [
            ScanAlgorithm::RecursiveDoubling,
            ScanAlgorithm::Binomial,
            ScanAlgorithm::PipelinedChain,
        ];
        let mut best = ScanAlgorithm::RecursiveDoubling;
        let mut best_cost = f64::INFINITY;
        for algo in candidates {
            if algo == ScanAlgorithm::PipelinedChain && !(splittable && ranks >= 2) {
                continue;
            }
            let estimate = algo.estimated_seconds(cost, ranks, bytes);
            if estimate < best_cost {
                best = algo;
                best_cost = estimate;
            }
        }
        best
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
        // Same size but non-commutative: the circulant is ineligible and
        // the rank-order segmented tree picks up the win instead.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 64 << 10, false, true),
            AllreduceAlgorithm::PipelinedTree
        );
        // Unsplittable: neither segmented schedule is eligible.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 64 << 10, true, false),
            AllreduceAlgorithm::RecursiveDoubling
        );
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
                ScanAlgorithm::select(&m, p, 8, false),
                ScanAlgorithm::RecursiveDoubling,
                "p={p}"
            );
        }
        // Splittable small states: same story once the chain's p−1 hops
        // exceed recursive doubling's ⌈log₂p⌉ rounds (at p ≤ 3 they are
        // equal and the chain legitimately wins on aggregate traffic).
        for p in 4..=64usize {
            assert_eq!(
                ScanAlgorithm::select(&m, p, 8, true),
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
            ScanAlgorithm::select(&m, 8, 64 << 10, false),
            ScanAlgorithm::Binomial
        );
        assert_eq!(
            ScanAlgorithm::select(&m, 16, 64 << 10, false),
            ScanAlgorithm::Binomial
        );
    }

    #[test]
    fn scan_selector_picks_pipelined_chain_for_large_splittable_states() {
        let m = CostModel::cluster_2006();
        assert_eq!(
            ScanAlgorithm::select(&m, 8, 64 << 10, true),
            ScanAlgorithm::PipelinedChain
        );
        // Unsplittable state: chain ineligible regardless of cost.
        assert_ne!(
            ScanAlgorithm::select(&m, 8, 64 << 10, false),
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
        // 64 KiB at p=8: √(7·β·n/α) ≈ 9.6 → 10 segments.
        assert_eq!(ScanAlgorithm::chain_segments(&m, 8, 64 << 10), 10);
        // Huge states hit the 64-segment cap.
        assert_eq!(ScanAlgorithm::chain_segments(&m, 64, 64 << 20), 64);
        // The free model must not divide by zero (NaN → 1 segment).
        assert_eq!(ScanAlgorithm::chain_segments(&CostModel::free(), 8, 1 << 20), 1);
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
            let expected_rounds = p.ilog2() as f64
                + if p.is_power_of_two() { 0.0 } else { 2.0 };
            let est = AllreduceAlgorithm::RecursiveDoubling.estimated_seconds(&m, p, 8);
            assert!(
                (est - expected_rounds).abs() < 1e-9,
                "p={p}: estimate {est} rounds, schedule runs {expected_rounds}"
            );
            let outcome = crate::runtime::Runtime::new(p).cost_model(m).run(|comm| {
                let plan = (AllreduceAlgorithm::RecursiveDoubling, 1);
                let whole = crate::collectives::tree::whole();
                comm.allreduce_by(plan, comm.rank() as u64, whole, |_| 8, |a, b| a + b)
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
        let m = CostModel::cluster_2006();
        for p in 2..64usize {
            for bytes in [1usize, 64, 4 << 10, 1 << 20] {
                let rb = AllreduceAlgorithm::ReduceBroadcast.estimated_seconds(&m, p, bytes);
                let rd = AllreduceAlgorithm::RecursiveDoubling.estimated_seconds(&m, p, bytes);
                assert!(rd <= rb, "p={p} bytes={bytes}: rd={rd} rb={rb}");
            }
        }
    }

    #[test]
    fn segmented_tree_serves_large_non_commutative_splittable_states() {
        let m = CostModel::cluster_2006();
        // 256 KiB at p=8, non-commutative: RS+AG is ineligible, and the
        // tree's pipelining beats recursive doubling's full-state rounds.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 256 << 10, false, true),
            AllreduceAlgorithm::PipelinedTree
        );
        // At p=2 the tree is a two-hop pipeline and still beats
        // recursive doubling's single full-state exchange.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 2, 64 << 10, false, true),
            AllreduceAlgorithm::PipelinedTree
        );
        // Commutative at 64 KiB: RS+AG still wins — the segmented tree
        // must not displace the existing large-state pick.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 64 << 10, true, true),
            AllreduceAlgorithm::ReduceScatterAllgather
        );
        // Unsplittable: the segmented tree is ineligible at any size.
        assert_eq!(
            AllreduceAlgorithm::select(&m, 8, 1 << 20, false, false),
            AllreduceAlgorithm::RecursiveDoubling
        );
    }

    #[test]
    fn bcast_selector_keeps_binomial_for_small_states() {
        let m = CostModel::cluster_2006();
        // Small states: the segment chooser returns S = 1, the two
        // estimates coincide, and the tie must go to the whole-state
        // binomial so existing runs stay bit-for-bit identical.
        for p in 2..=64usize {
            assert_eq!(
                BcastAlgorithm::select(&m, p, 8, true),
                BcastAlgorithm::Binomial,
                "p={p}"
            );
            assert_eq!(
                BcastAlgorithm::select(&m, p, 8, false),
                BcastAlgorithm::Binomial,
                "p={p} unsplittable"
            );
        }
    }

    #[test]
    fn bcast_selector_pipelines_large_splittable_states() {
        let m = CostModel::cluster_2006();
        assert_eq!(
            BcastAlgorithm::select(&m, 8, 64 << 10, true),
            BcastAlgorithm::Pipelined
        );
        assert_eq!(
            BcastAlgorithm::select(&m, 8, 256 << 10, true),
            BcastAlgorithm::Pipelined
        );
        // Unsplittable states never route to the pipelined tree.
        assert_eq!(
            BcastAlgorithm::select(&m, 8, 1 << 20, false),
            BcastAlgorithm::Binomial
        );
    }

    #[test]
    fn tree_segments_are_deterministic_and_clamped() {
        let m = CostModel::cluster_2006();
        assert_eq!(BcastAlgorithm::tree_segments(&m, 1, 1 << 20), 1);
        assert_eq!(BcastAlgorithm::tree_segments(&m, 8, 8), 1);
        // 64 KiB: √(2·β·n/α) ≈ 5.1 → 5 segments, at *every* rank count
        // (the tree depth cancels out of the optimum).
        assert_eq!(BcastAlgorithm::tree_segments(&m, 8, 64 << 10), 5);
        assert_eq!(BcastAlgorithm::tree_segments(&m, 16, 64 << 10), 5);
        assert_eq!(BcastAlgorithm::tree_segments(&m, 64, 64 << 20), 64);
        assert_eq!(
            BcastAlgorithm::tree_segments(&CostModel::free(), 8, 1 << 20),
            1
        );
    }

    #[test]
    fn select_segments_is_one_unless_the_segmented_estimate_is_strictly_lower() {
        let m = CostModel::cluster_2006();
        for p in [1usize, 2, 5, 8, 16] {
            for bytes in [8usize, 4 << 10, 64 << 10, 1 << 20] {
                assert_eq!(BcastAlgorithm::select_segments(&m, p, bytes, false), 1);
                let s = BcastAlgorithm::select_segments(&m, p, bytes, true);
                let whole = BcastAlgorithm::Binomial.estimated_seconds(&m, p, bytes);
                let segmented = BcastAlgorithm::Pipelined.estimated_seconds(&m, p, bytes);
                if s > 1 {
                    assert_eq!(s, BcastAlgorithm::tree_segments(&m, p, bytes));
                    assert!(segmented < whole, "p={p} bytes={bytes}");
                } else {
                    assert!(segmented >= whole, "p={p} bytes={bytes}");
                }
            }
        }
    }

    #[test]
    fn single_rank_tree_is_free() {
        let m = CostModel::cluster_2006();
        for algo in BcastAlgorithm::ALL {
            assert_eq!(algo.estimated_seconds(&m, 1, 1 << 20), 0.0);
        }
    }
}
