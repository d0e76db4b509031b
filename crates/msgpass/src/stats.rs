//! Traffic and call statistics: counted per rank, reported as one sum.
//!
//! These counters back two of the reproduced results: the `mpi_call_stats`
//! harness (experiment TXT-NPB: what fraction of communication calls are
//! reductions) and the message/byte accounting behind the Figure 2/3
//! discussion ("the reduction requires larger messages … the MPI version
//! requires an initial message to be passed between neighboring
//! processors").

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cost::AllreduceAlgorithm;

/// Kinds of communication operations the runtime counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CallKind {
    /// Point-to-point send (counted on the sender).
    Send,
    /// Barrier collective.
    Barrier,
    /// Broadcast collective.
    Bcast,
    /// Allgather collective.
    Allgather,
    /// Reduce-to-root collective.
    Reduce,
    /// Allreduce collective.
    Allreduce,
    /// Inclusive scan collective.
    Scan,
    /// Exclusive scan collective.
    Exscan,
    /// Personalized all-to-all exchange.
    Alltoallv,
}

impl CallKind {
    /// All kinds, for iteration and display.
    pub const ALL: [CallKind; 9] = [
        CallKind::Send,
        CallKind::Barrier,
        CallKind::Bcast,
        CallKind::Allgather,
        CallKind::Reduce,
        CallKind::Allreduce,
        CallKind::Scan,
        CallKind::Exscan,
        CallKind::Alltoallv,
    ];

    /// Whether this kind is a reduction or scan in the sense of the
    /// paper's "nearly 9% of the MPI calls are reductions" statistic.
    pub fn is_reduction_or_scan(self) -> bool {
        matches!(
            self,
            CallKind::Reduce | CallKind::Allreduce | CallKind::Scan | CallKind::Exscan
        )
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Send => "send",
            CallKind::Barrier => "barrier",
            CallKind::Bcast => "bcast",
            CallKind::Allgather => "allgather",
            CallKind::Reduce => "reduce",
            CallKind::Allreduce => "allreduce",
            CallKind::Scan => "scan",
            CallKind::Exscan => "exscan",
            CallKind::Alltoallv => "alltoallv",
        }
    }
}

const KINDS: usize = CallKind::ALL.len();
const ALGOS: usize = AllreduceAlgorithm::ALL.len();

/// One monotone counter with a single writer.
///
/// The owning rank adds with a relaxed load and a relaxed store — no
/// `lock`-prefixed read-modify-write, since nobody else ever stores to
/// it; any thread may read it. A reader sees some value the writer
/// stored, and never a smaller one than it saw before.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    #[inline]
    fn add(&self, n: u64) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The counters of a runtime: one [`RankStats`] block per rank, summed by
/// [`snapshot`](Self::snapshot).
///
/// A collective call bumps eight or so counters on each rank. Kept in one
/// struct shared by every rank, those were atomic read-modify-writes on
/// three or four cache lines that all cores wrote at once, and each one
/// stalled on fetching its line back from the peer. A rank now writes
/// only its own block.
#[derive(Debug)]
pub struct Stats {
    ranks: Box<[RankStats]>,
}

/// One rank's counters, in a block no other rank's counters share a
/// cache line (or an adjacent-line pair) with. Written only by the thread
/// of the rank that owns it, through `Comm::counters`.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct RankStats {
    calls: [Counter; KINDS],
    allreduce_algorithms: [Counter; ALGOS],
    messages: Counter,
    bytes: Counter,
    /// Collective schedule runs started (blocking drives and `i*`
    /// registrations both count — a blocking collective is a request that
    /// completes inline). Schedule-level and deterministic, unlike the
    /// transport counters below.
    requests_started: Counter,
    /// Schedule runs that delivered a result. `started − completed` is
    /// the in-flight count: requests cancelled by a drop-without-wait or
    /// killed by a transport shutdown never complete.
    requests_completed: Counter,
    /// Transport-path counters (ring/stash, overflow, parks). These
    /// observe *how* packets moved, never *how many* — `messages`/`bytes`
    /// stay the schedule-level ground truth the figures are checked
    /// against.
    pub(crate) transport: TransportStats,
}

/// Per-path transport counters. Separated from the schedule-level
/// counters so the microbench can prove the lane rework changed delivery
/// mechanics without touching message/byte accounting.
#[derive(Debug, Default)]
pub(crate) struct TransportStats {
    overflow_sends: Counter,
    ring_recvs: Counter,
    stash_recvs: Counter,
    restashes: Counter,
    parks: Counter,
}

impl TransportStats {
    pub(crate) fn record_overflow_send(&self) {
        self.overflow_sends.add(1);
    }

    pub(crate) fn record_ring_recv(&self) {
        self.ring_recvs.add(1);
    }

    pub(crate) fn record_stash_recv(&self) {
        self.stash_recvs.add(1);
    }

    pub(crate) fn record_restash(&self) {
        self.restashes.add(1);
    }

    pub(crate) fn record_park(&self) {
        self.parks.add(1);
    }

    /// Receives matched so far, on either path: the rank's progress
    /// signal, which its wait loop and the stall watchdog both read.
    pub(crate) fn total_recvs(&self) -> u64 {
        self.ring_recvs.get() + self.stash_recvs.get()
    }

    /// Adds this rank's transport counters into `total`.
    fn add_into(&self, total: &mut TransportSnapshot) {
        total.overflow_sends += self.overflow_sends.get();
        total.ring_recvs += self.ring_recvs.get();
        total.stash_recvs += self.stash_recvs.get();
        total.restashes += self.restashes.get();
        total.parks += self.parks.get();
    }
}

/// A point-in-time copy of the intra-rank block-kernel dispatch counters
/// (`gv_core::kernel`): how many accumulate/scan/combine blocks went
/// through a vectorized kernel vs the per-element scalar loop.
///
/// Like the transport counters, these are *observed* mechanics, not
/// modeled semantics — they are excluded from every determinism pin
/// (recordings compare calls/messages/bytes, never dispatch counts).
/// Unlike every other counter here, the underlying atomics are
/// **process-global** (the kernels run beneath all engines, not just this
/// runtime), so absolute values accumulate across runtimes; use
/// [`KernelSnapshot::since`] for per-section deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// Blocks dispatched to a vectorized block kernel.
    pub kernel_blocks: u64,
    /// Blocks that ran the per-element scalar fallback.
    pub scalar_blocks: u64,
}

impl KernelSnapshot {
    /// Total dispatched blocks.
    pub fn total_blocks(&self) -> u64 {
        self.kernel_blocks + self.scalar_blocks
    }

    /// Difference against an earlier snapshot, saturating at zero.
    pub fn since(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            kernel_blocks: self.kernel_blocks.saturating_sub(earlier.kernel_blocks),
            scalar_blocks: self.scalar_blocks.saturating_sub(earlier.scalar_blocks),
        }
    }
}

/// A point-in-time copy of the transport-path counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportSnapshot {
    /// Every send (equals `messages`); retained for the frozen benchmark
    /// adapter, leaves with ROADMAP item 1 (a).
    pub eager_sends: u64,
    /// Always 0; retained for the frozen benchmark adapter, leaves with
    /// ROADMAP item 1 (a).
    pub queued_sends: u64,
    /// Sends that found their ring full and spilled to the lane's
    /// overflow queue.
    pub overflow_sends: u64,
    /// Receives satisfied straight off a lane's ring (fast path).
    pub ring_recvs: u64,
    /// Receives satisfied from a pending stash (slow path).
    pub stash_recvs: u64,
    /// Arrivals that mismatched the posted receive and were stashed.
    pub restashes: u64,
    /// Times a receiver gave up spinning and parked.
    pub parks: u64,
    /// Always 0; retained for the frozen benchmark adapter, leaves with
    /// ROADMAP item 1 (a).
    pub pool_hits: u64,
    /// Always 0; retained for the frozen benchmark adapter, leaves with
    /// ROADMAP item 1 (a).
    pub pool_misses: u64,
}

impl TransportSnapshot {
    /// Total matched receives across paths.
    pub fn total_recvs(&self) -> u64 {
        self.ring_recvs + self.stash_recvs
    }

    /// Difference against an earlier snapshot, saturating at zero.
    pub fn since(&self, earlier: &TransportSnapshot) -> TransportSnapshot {
        TransportSnapshot {
            eager_sends: self.eager_sends.saturating_sub(earlier.eager_sends),
            overflow_sends: self.overflow_sends.saturating_sub(earlier.overflow_sends),
            ring_recvs: self.ring_recvs.saturating_sub(earlier.ring_recvs),
            stash_recvs: self.stash_recvs.saturating_sub(earlier.stash_recvs),
            restashes: self.restashes.saturating_sub(earlier.restashes),
            parks: self.parks.saturating_sub(earlier.parks),
            ..TransportSnapshot::default()
        }
    }
}

impl RankStats {
    /// Records one call of `kind` (collectives are counted once per rank
    /// per call, like an MPI trace would).
    pub(crate) fn record_call(&self, kind: CallKind) {
        self.calls[kind as usize].add(1);
    }

    /// Records which schedule one allreduce call used (once per rank per
    /// call, alongside its [`CallKind::Allreduce`] record).
    pub(crate) fn record_allreduce_algorithm(&self, algo: AllreduceAlgorithm) {
        self.allreduce_algorithms[algo as usize].add(1);
    }

    /// Records one wire message of `bytes` bytes.
    pub(crate) fn record_message(&self, bytes: usize) {
        self.messages.add(1);
        self.bytes.add(bytes as u64);
    }

    /// Records one collective schedule run starting (a blocking drive or
    /// an `i*` registration).
    pub(crate) fn record_request_started(&self) {
        self.requests_started.add(1);
    }

    /// Records one schedule run delivering its result.
    pub(crate) fn record_request_completed(&self) {
        self.requests_completed.add(1);
    }
}

impl Stats {
    /// Zeroed counters for `ranks` ranks.
    pub(crate) fn new(ranks: usize) -> Self {
        Stats {
            ranks: (0..ranks).map(|_| RankStats::default()).collect(),
        }
    }

    /// The block only world rank `rank`'s thread may record into.
    pub(crate) fn rank(&self, rank: usize) -> &RankStats {
        &self.ranks[rank]
    }

    /// The counters summed over all ranks.
    ///
    /// Taken after a run, or while every rank is known to be outside the
    /// library (behind a barrier of the caller's own), the sums are
    /// exact. Taken while ranks are running, every counter is still
    /// monotone from one snapshot to the next, but the snapshot is not
    /// one instant: a message's `messages` increment may be in and its
    /// `bytes` increment not yet, and one rank's half of a collective may
    /// be counted without its peer's.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for rank in self.ranks.iter() {
            for (sum, counter) in total.calls.iter_mut().zip(&rank.calls) {
                *sum += counter.get();
            }
            for (sum, counter) in total
                .allreduce_algorithms
                .iter_mut()
                .zip(&rank.allreduce_algorithms)
            {
                *sum += counter.get();
            }
            total.messages += rank.messages.get();
            total.bytes += rank.bytes.get();
            total.requests_started += rank.requests_started.get();
            total.requests_completed += rank.requests_completed.get();
            rank.transport.add_into(&mut total.transport);
        }
        total.transport.eager_sends = total.messages;
        let (kernel_blocks, scalar_blocks) = gv_core::kernel::dispatch_counts();
        total.kernel = KernelSnapshot {
            kernel_blocks,
            scalar_blocks,
        };
        total
    }
}

/// A point-in-time copy of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    calls: [u64; KINDS],
    allreduce_algorithms: [u64; ALGOS],
    /// Total wire messages.
    pub messages: u64,
    /// Total wire bytes.
    pub bytes: u64,
    /// Collective schedule runs started (blocking + non-blocking).
    pub requests_started: u64,
    /// Schedule runs that delivered a result; `requests_started −
    /// requests_completed` were still in flight (or cancelled/shut down).
    pub requests_completed: u64,
    /// Transport-path counters at the same instant.
    pub transport: TransportSnapshot,
    /// Block-kernel dispatch counters at the same instant (process-global;
    /// see [`KernelSnapshot`]).
    pub kernel: KernelSnapshot,
}

impl StatsSnapshot {
    /// Number of calls of `kind`.
    pub fn calls(&self, kind: CallKind) -> u64 {
        self.calls[kind as usize]
    }

    /// Number of allreduce calls that used `algo`.
    pub fn allreduce_algorithm_calls(&self, algo: AllreduceAlgorithm) -> u64 {
        self.allreduce_algorithms[algo as usize]
    }

    /// Total calls across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total communication calls excluding raw sends (i.e. collectives),
    /// the denominator for the TXT-NPB statistic.
    pub fn collective_calls(&self) -> u64 {
        self.total_calls() - self.calls(CallKind::Send)
    }

    /// Calls that are reductions or scans.
    pub fn reduction_calls(&self) -> u64 {
        CallKind::ALL
            .iter()
            .filter(|k| k.is_reduction_or_scan())
            .map(|&k| self.calls(k))
            .sum()
    }

    /// Difference against an earlier snapshot. Saturates at zero per
    /// counter, so passing snapshots in the wrong order yields zeros
    /// rather than a debug-build panic.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut calls = [0u64; KINDS];
        for (slot, (now, then)) in calls.iter_mut().zip(self.calls.iter().zip(&earlier.calls)) {
            *slot = now.saturating_sub(*then);
        }
        let mut allreduce_algorithms = [0u64; ALGOS];
        for (slot, (now, then)) in allreduce_algorithms.iter_mut().zip(
            self.allreduce_algorithms
                .iter()
                .zip(&earlier.allreduce_algorithms),
        ) {
            *slot = now.saturating_sub(*then);
        }
        StatsSnapshot {
            calls,
            allreduce_algorithms,
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            requests_started: self
                .requests_started
                .saturating_sub(earlier.requests_started),
            requests_completed: self
                .requests_completed
                .saturating_sub(earlier.requests_completed),
            transport: self.transport.since(&earlier.transport),
            kernel: self.kernel.since(&earlier.kernel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let stats = Stats::new(1);
        let rank = stats.rank(0);
        rank.record_call(CallKind::Allreduce);
        rank.record_call(CallKind::Allreduce);
        rank.record_call(CallKind::Bcast);
        rank.record_message(64);
        rank.record_message(100);
        let snap = stats.snapshot();
        assert_eq!(snap.calls(CallKind::Allreduce), 2);
        assert_eq!(snap.calls(CallKind::Bcast), 1);
        assert_eq!(snap.total_calls(), 3);
        assert_eq!(snap.reduction_calls(), 2);
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.bytes, 164);
    }

    #[test]
    fn since_subtracts() {
        let stats = Stats::new(1);
        let rank = stats.rank(0);
        rank.record_call(CallKind::Reduce);
        let before = stats.snapshot();
        rank.record_call(CallKind::Reduce);
        rank.record_message(8);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.calls(CallKind::Reduce), 1);
        assert_eq!(delta.messages, 1);
        assert_eq!(delta.bytes, 8);
    }

    #[test]
    fn since_in_wrong_order_saturates_instead_of_panicking() {
        let stats = Stats::new(1);
        let rank = stats.rank(0);
        rank.record_call(CallKind::Allreduce);
        rank.record_allreduce_algorithm(AllreduceAlgorithm::RecursiveDoubling);
        rank.record_message(16);
        let later = stats.snapshot();
        rank.record_call(CallKind::Allreduce);
        rank.record_message(16);
        let latest = stats.snapshot();
        // Arguments swapped: every counter clamps to zero.
        let wrong = later.since(&latest);
        assert_eq!(wrong.calls(CallKind::Allreduce), 0);
        assert_eq!(wrong.messages, 0);
        assert_eq!(wrong.bytes, 0);
        // The right order still subtracts exactly.
        let right = latest.since(&later);
        assert_eq!(right.calls(CallKind::Allreduce), 1);
        assert_eq!(right.messages, 1);
        assert_eq!(right.bytes, 16);
    }

    #[test]
    fn allreduce_algorithm_counters_track_separately() {
        let stats = Stats::new(1);
        let rank = stats.rank(0);
        rank.record_allreduce_algorithm(AllreduceAlgorithm::ReduceBroadcast);
        rank.record_allreduce_algorithm(AllreduceAlgorithm::ReduceBroadcast);
        let before = stats.snapshot();
        rank.record_allreduce_algorithm(AllreduceAlgorithm::RecursiveDoubling);
        let snap = stats.snapshot();
        let calls = |s: &StatsSnapshot, algo| s.allreduce_algorithm_calls(algo);
        assert_eq!(calls(&snap, AllreduceAlgorithm::ReduceBroadcast), 2);
        assert_eq!(calls(&snap, AllreduceAlgorithm::RecursiveDoubling), 1);
        let delta = snap.since(&before);
        assert_eq!(calls(&delta, AllreduceAlgorithm::ReduceBroadcast), 0);
        assert_eq!(calls(&delta, AllreduceAlgorithm::RecursiveDoubling), 1);
    }

    #[test]
    fn transport_counters_snapshot_and_subtract() {
        let stats = Stats::new(1);
        let rank = stats.rank(0);
        rank.record_message(8);
        rank.record_message(8);
        rank.transport.record_ring_recv();
        let before = stats.snapshot();
        rank.record_message(8);
        rank.transport.record_stash_recv();
        rank.transport.record_restash();
        rank.transport.record_park();
        rank.transport.record_overflow_send();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.transport.eager_sends, 1);
        assert_eq!(delta.transport.queued_sends, 0);
        assert_eq!(delta.transport.stash_recvs, 1);
        assert_eq!(delta.transport.restashes, 1);
        assert_eq!(delta.transport.parks, 1);
        assert_eq!(delta.transport.overflow_sends, 1);
        let full = stats.snapshot().transport;
        assert_eq!(full.eager_sends, 3);
        assert_eq!(full.queued_sends + full.pool_hits + full.pool_misses, 0);
        assert_eq!(full.ring_recvs, 1);
    }

    #[test]
    fn kernel_dispatch_counters_snapshot_and_subtract() {
        let stats = Stats::new(1);
        let before = stats.snapshot();
        gv_core::kernel::note_kernel_block();
        gv_core::kernel::note_kernel_block();
        gv_core::kernel::note_scalar_block();
        let delta = stats.snapshot().since(&before);
        // The counters are process-global and other tests run concurrently,
        // so assert lower bounds only.
        assert!(delta.kernel.kernel_blocks >= 2);
        assert!(delta.kernel.scalar_blocks >= 1);
        assert!(delta.kernel.total_blocks() >= 3);
    }

    #[test]
    fn a_snapshot_sums_the_ranks_blocks() {
        let stats = Stats::new(3);
        for r in 0..3 {
            let rank = stats.rank(r);
            for _ in 0..=r {
                rank.record_call(CallKind::Scan);
                rank.record_allreduce_algorithm(AllreduceAlgorithm::ReduceBroadcast);
                rank.record_message(10 * (r + 1));
                rank.record_request_started();
            }
            rank.record_request_completed();
            rank.transport.record_park();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.calls(CallKind::Scan), 6);
        let tree = AllreduceAlgorithm::ReduceBroadcast;
        assert_eq!(snap.allreduce_algorithm_calls(tree), 6);
        assert_eq!(snap.messages, 6);
        assert_eq!(snap.bytes, 10 + 2 * 20 + 3 * 30);
        assert_eq!(snap.requests_started, 6);
        assert_eq!(snap.requests_completed, 3);
        assert_eq!(snap.transport.eager_sends, 6);
        assert_eq!(snap.transport.parks, 3);
    }

    #[test]
    fn each_ranks_block_has_cache_lines_of_its_own() {
        assert!(std::mem::align_of::<RankStats>() >= 128);
        assert_eq!(std::mem::size_of::<RankStats>() % 128, 0);
        let stats = Stats::new(4);
        for r in 0..4 {
            assert_eq!(stats.rank(r) as *const RankStats as usize % 128, 0);
        }
    }

    #[test]
    fn reduction_classification() {
        assert!(CallKind::Scan.is_reduction_or_scan());
        assert!(CallKind::Exscan.is_reduction_or_scan());
        assert!(!CallKind::Bcast.is_reduction_or_scan());
        assert!(!CallKind::Send.is_reduction_or_scan());
    }
}
