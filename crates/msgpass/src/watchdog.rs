//! The stall watchdog: per-rank progress epochs, a blocked-on registry,
//! and structured [`StallReport`]s instead of silent hangs.
//!
//! Every rank owns a [`RankMonitor`]. The rank's wait loop feeds it: a
//! successful message match bumps the rank's *progress epoch*, a matching
//! pass that finds nothing leaves its triple as the *last miss*, and a
//! park — which only follows a whole round of misses — publishes the last
//! miss as what the rank is blocked on (communicator, source, tag — and,
//! for reserved tags, which collective protocol that is): the posted
//! triple of a plain receive, the last schedule polled when requests are
//! in flight. The monitor thread
//! `Runtime::run` spawns when a watchdog window is configured reads the
//! shared [`ProgressBoard`]: if every unfinished rank sits blocked with
//! no epoch movement anywhere for the whole window, the run can never
//! progress again — the watchdog captures a per-rank [`StallReport`],
//! raises the abort flag, and unparks everyone, so the run unwinds with
//! the report instead of hanging forever.
//!
//! When no watchdog is configured the board is *disabled*: every note is
//! gated on one `bool` load and the wait loop's fast path stays intact.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gv_executor::lane::Parker;

use crate::collectives::describe_tag;
use crate::mailbox::{ShutdownError, ShutdownKind, Source};
use crate::message::Tag;

/// Sentinel for "no rank has failed" in the shared culprit cell.
const NO_CULPRIT: usize = usize::MAX;

/// What a rank thread is doing, as the watchdog sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// Computing, or between waits.
    Running,
    /// Parked (or backing off) in a wait loop.
    Blocked,
    /// The rank's closure returned (or unwound).
    Done,
}

impl RankState {
    fn from_u8(raw: u8) -> RankState {
        match raw {
            1 => RankState::Blocked,
            2 => RankState::Done,
            _ => RankState::Running,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            RankState::Running => 0,
            RankState::Blocked => 1,
            RankState::Done => 2,
        }
    }
}

/// The matching triple a blocked rank is waiting on, plus which protocol
/// (point-to-point or a named collective schedule) the tag belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedOn {
    /// Communicator the receive is posted on.
    pub comm: u64,
    /// Awaited source rank (`None` for `MPI_ANY_SOURCE`-style receives).
    pub src: Option<usize>,
    /// Posted tag.
    pub tag: Tag,
    /// `"p2p"` or the collective protocol the reserved tag encodes.
    pub op: &'static str,
}

impl BlockedOn {
    fn new(comm: u64, src: Source, tag: Tag) -> Self {
        BlockedOn {
            comm,
            src: match src {
                Source::Rank(r) => Some(r),
                Source::Any => None,
            },
            tag,
            op: describe_tag(tag),
        }
    }
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recv(comm={}, src=", self.comm)?;
        match self.src {
            Some(r) => write!(f, "rank {r}")?,
            None => f.write_str("any")?,
        }
        write!(f, ", tag={:#x}) in {}", self.tag, self.op)
    }
}

/// One rank's row of a [`StallReport`].
#[derive(Debug, Clone)]
pub struct RankStall {
    /// World rank.
    pub rank: usize,
    /// What the rank was doing when the report was captured.
    pub state: RankState,
    /// The rank's progress epoch (matches observed so far).
    pub epoch: u64,
    /// The last wait the rank recorded, if any.
    pub blocked_on: Option<BlockedOn>,
}

/// A structured capture of a global stall: what every rank was blocked
/// on when the watchdog found no progress for a full window.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// How long the watchdog saw zero progress before firing.
    pub waited: Duration,
    /// Per-rank rows, in rank order.
    pub ranks: Vec<RankStall>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall: no rank made progress for {:?} across {} ranks",
            self.waited,
            self.ranks.len()
        )?;
        for r in &self.ranks {
            write!(f, "  rank {}: ", r.rank)?;
            match (r.state, &r.blocked_on) {
                (RankState::Done, _) => write!(f, "done")?,
                (state, Some(on)) => write!(f, "{state:?}, last wait {on}")?,
                (state, None) => write!(f, "{state:?}")?,
            }
            writeln!(f, " [epoch {}]", r.epoch)?;
        }
        Ok(())
    }
}

/// The cross-rank progress state the watchdog reads: one row per rank.
/// Disabled boards (no watchdog) gate every write down to a single `bool`
/// check.
pub(crate) struct ProgressBoard {
    enabled: bool,
    rows: Box<[BoardRow]>,
}

/// One rank's epoch counter, state byte and blocked-on slot, in a block
/// of their own: a rank writes its row on every match, so rows packed
/// side by side would have every core invalidating its neighbours' lines
/// (false sharing) once per receive. Only the owning rank's thread writes
/// a row; the watchdog thread reads them a few times per window.
#[repr(align(128))]
struct BoardRow {
    epoch: AtomicU64,
    state: AtomicU8,
    blocked: Mutex<Option<BlockedOn>>,
}

impl ProgressBoard {
    pub(crate) fn new(ranks: usize, enabled: bool) -> Self {
        ProgressBoard {
            enabled,
            rows: (0..ranks)
                .map(|_| BoardRow {
                    epoch: AtomicU64::new(0),
                    state: AtomicU8::new(RankState::Running.as_u8()),
                    blocked: Mutex::new(None),
                })
                .collect(),
        }
    }

    fn load_epochs(&self, into: &mut Vec<u64>) {
        into.clear();
        into.extend(self.rows.iter().map(|row| row.epoch.load(Ordering::Relaxed)));
    }

    /// Whether the board records anything (a watchdog is configured).
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Captures the full per-rank picture for a report.
    pub(crate) fn capture(&self, waited: Duration) -> StallReport {
        let ranks = self
            .rows
            .iter()
            .enumerate()
            .map(|(rank, row)| RankStall {
                rank,
                state: RankState::from_u8(row.state.load(Ordering::Relaxed)),
                epoch: row.epoch.load(Ordering::Relaxed),
                blocked_on: *row.blocked.lock().unwrap_or_else(|e| e.into_inner()),
            })
            .collect();
        StallReport { waited, ranks }
    }
}

/// One rank's handle onto the shared failure machinery: the abort flag,
/// the first-failure culprit cell, the progress board, and the rank's
/// configured park timeout. Owned by the rank core (not `Sync` — the
/// last-miss cell is thread-local by construction).
pub(crate) struct RankMonitor {
    rank: usize,
    aborted: Arc<AtomicBool>,
    culprit: Arc<AtomicUsize>,
    board: Arc<ProgressBoard>,
    /// Copy of `board.enabled`, so the per-match fast path branches on a
    /// local field instead of chasing the `Arc`.
    enabled: bool,
    park_timeout: Duration,
    /// The last `(comm, src, tag)` a matching pass missed on — what the
    /// park that follows it is waiting for.
    last_miss: Cell<Option<(u64, Source, Tag)>>,
}

impl RankMonitor {
    pub(crate) fn new(
        rank: usize,
        aborted: Arc<AtomicBool>,
        culprit: Arc<AtomicUsize>,
        board: Arc<ProgressBoard>,
        park_timeout: Duration,
    ) -> Self {
        RankMonitor {
            rank,
            aborted,
            culprit,
            enabled: board.enabled,
            board,
            park_timeout,
            last_miss: Cell::new(None),
        }
    }

    /// A detached monitor for transport-level unit tests: rank 0 on a
    /// disabled single-rank board, default park timeout.
    #[cfg(test)]
    pub(crate) fn detached(aborted: Arc<AtomicBool>) -> Self {
        RankMonitor::new(
            0,
            aborted,
            Arc::new(AtomicUsize::new(NO_CULPRIT)),
            Arc::new(ProgressBoard::new(1, false)),
            Duration::from_millis(50),
        )
    }

    #[inline]
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Upper bound for one park (configurable; see `Runtime::park_timeout`).
    #[inline]
    pub(crate) fn park_timeout(&self) -> Duration {
        self.park_timeout
    }

    /// This rank's row of the board.
    #[inline]
    fn row(&self) -> &BoardRow {
        &self.board.rows[self.rank]
    }

    /// A message matched: progress. Bumps the epoch and marks Running.
    #[inline]
    pub(crate) fn note_match(&self) {
        if self.enabled {
            let row = self.row();
            // Single writer (this rank's thread), so a plain load and
            // store: no `lock`-prefixed add on the per-receive path.
            row.epoch
                .store(row.epoch.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            row.state.store(RankState::Running.as_u8(), Ordering::Relaxed);
        }
    }

    /// A matching pass found nothing for this triple; remembered so the
    /// park that follows can report what the rank awaits.
    #[inline]
    pub(crate) fn note_miss(&self, comm: u64, src: Source, tag: Tag) {
        if self.enabled {
            self.last_miss.set(Some((comm, src, tag)));
        }
    }

    /// The rank is about to park with nothing receivable: the last miss
    /// names what it is blocked on.
    pub(crate) fn note_parked(&self) {
        if self.enabled {
            let row = self.row();
            *row.blocked.lock().unwrap_or_else(|e| e.into_inner()) = self
                .last_miss
                .get()
                .map(|(comm, src, tag)| BlockedOn::new(comm, src, tag));
            row.state.store(RankState::Blocked.as_u8(), Ordering::Relaxed);
        }
    }

    /// The rank left the wait loop.
    #[inline]
    pub(crate) fn note_unblocked(&self) {
        if self.enabled {
            self.row().state.store(RankState::Running.as_u8(), Ordering::Relaxed);
        }
    }

    /// The rank's closure finished (normally or by unwinding).
    pub(crate) fn note_done(&self) {
        if self.enabled {
            self.row().state.store(RankState::Done.as_u8(), Ordering::Relaxed);
        }
    }

    /// Builds the enriched shutdown error for a receive this rank can
    /// never complete.
    pub(crate) fn shutdown_error(
        &self,
        comm: u64,
        src: Source,
        tag: Tag,
        kind: ShutdownKind,
    ) -> ShutdownError {
        let culprit = self.culprit.load(Ordering::Relaxed);
        ShutdownError {
            comm,
            src,
            tag,
            kind,
            rank: self.rank,
            culprit: (culprit != NO_CULPRIT).then_some(culprit),
        }
    }
}

/// Shared slots the runtime threads a run's failure story through.
pub(crate) struct FailureCells {
    pub(crate) aborted: Arc<AtomicBool>,
    /// First failed rank (`NO_CULPRIT` until a failure is recorded).
    pub(crate) culprit: Arc<AtomicUsize>,
}

impl FailureCells {
    pub(crate) fn new() -> Self {
        FailureCells {
            aborted: Arc::new(AtomicBool::new(false)),
            culprit: Arc::new(AtomicUsize::new(NO_CULPRIT)),
        }
    }

    /// Records `rank` as the run's root failure if none is recorded yet;
    /// returns true when this call won the race (i.e. `rank` *is* the
    /// culprit and should attach its diagnostics).
    pub(crate) fn record_culprit(&self, rank: usize) -> bool {
        self.culprit
            .compare_exchange(NO_CULPRIT, rank, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// The monitor loop `Runtime::run` spawns when a watchdog window is set.
///
/// Fires — captures a report into `report`, raises `aborted`, unparks
/// every rank — only when, for a full `window`, (a) at least one rank is
/// `Blocked`, (b) every rank is `Blocked` or `Done`, and (c) no rank's
/// epoch moved. Any observed state or epoch change restarts the window,
/// so a slow-but-progressing run is never killed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn watch(
    board: &ProgressBoard,
    window: Duration,
    aborted: &AtomicBool,
    rank_parkers: &[Arc<Parker>],
    stop: &AtomicBool,
    own_parker: &Parker,
    report: &Mutex<Option<StallReport>>,
) {
    let tick = (window / 8).clamp(Duration::from_millis(1), Duration::from_millis(20));
    let mut last_epochs: Vec<u64> = Vec::new();
    let mut epochs: Vec<u64> = Vec::new();
    board.load_epochs(&mut last_epochs);
    let mut quiet_since = Instant::now();
    loop {
        let ticket = own_parker.ticket();
        if stop.load(Ordering::Relaxed) || aborted.load(Ordering::Relaxed) {
            return;
        }
        own_parker.park_timeout(ticket, tick);
        if stop.load(Ordering::Relaxed) || aborted.load(Ordering::Relaxed) {
            return;
        }
        board.load_epochs(&mut epochs);
        let states: Vec<RankState> = board
            .rows
            .iter()
            .map(|row| RankState::from_u8(row.state.load(Ordering::Relaxed)))
            .collect();
        let all_parked = states.iter().all(|&s| s != RankState::Running)
            && states.contains(&RankState::Blocked);
        if epochs != last_epochs || !all_parked {
            std::mem::swap(&mut last_epochs, &mut epochs);
            quiet_since = Instant::now();
            continue;
        }
        let waited = quiet_since.elapsed();
        if waited >= window {
            *report.lock().unwrap_or_else(|e| e.into_inner()) = Some(board.capture(waited));
            aborted.store(true, Ordering::Relaxed);
            for parker in rank_parkers {
                parker.unpark();
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_ranks_board_row_has_cache_lines_of_its_own() {
        assert!(std::mem::align_of::<BoardRow>() >= 128);
        let board = ProgressBoard::new(3, true);
        for row in board.rows.iter() {
            assert_eq!(row as *const BoardRow as usize % 128, 0);
        }
    }

    #[test]
    fn a_match_bumps_only_the_matching_ranks_epoch() {
        let board = Arc::new(ProgressBoard::new(2, true));
        let monitor = RankMonitor::new(
            1,
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicUsize::new(NO_CULPRIT)),
            Arc::clone(&board),
            Duration::from_millis(50),
        );
        monitor.note_parked();
        for _ in 0..3 {
            monitor.note_match();
        }
        let report = board.capture(Duration::ZERO);
        assert_eq!((report.ranks[0].epoch, report.ranks[1].epoch), (0, 3));
        assert_eq!(report.ranks[1].state, RankState::Running);
    }
}
