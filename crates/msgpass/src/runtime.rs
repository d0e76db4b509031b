//! The runtime: spawns one thread per rank and runs an SPMD closure.
//!
//! # Failure semantics
//!
//! The runtime guarantees *hang-freedom*: every run terminates — with
//! results, a propagated panic, or a typed [`RunError`] — never by
//! deadlocking silently. Three mechanisms compose into that guarantee:
//!
//! 1. **The abort protocol.** A panicking rank raises the shared abort
//!    flag and unparks every peer; blocked receives then unwind with a
//!    typed [`ShutdownError`](crate::ShutdownError) instead of waiting
//!    forever. Every park also carries a timeout (configurable via
//!    [`park_timeout`](Runtime::park_timeout)) as a backstop against a
//!    lost wakeup.
//! 2. **The stall watchdog.** With a [`watchdog`](Runtime::watchdog)
//!    window configured (or `GV_WATCHDOG_MS` set), a monitor thread
//!    observes per-rank progress epochs; a run in which every unfinished
//!    rank sits blocked with zero progress for a full window is aborted
//!    with a structured [`StallReport`] naming what each rank was
//!    blocked on.
//! 3. **Chaos injection.** A seed-replayable
//!    [`FaultPlan`](crate::FaultPlan) makes the failure paths testable
//!    on purpose: message delays, bounded stalls, rank kills, and spawn
//!    failures, all deterministic per seed and zero-cost when absent.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gv_executor::lane::Parker;

use crate::comm::{Comm, SplitRegistry};
use crate::cost::CostModel;
use crate::fault::{FaultCounters, FaultPlan, FaultSummary, InjectedKill};
use crate::mailbox::{build_lane_transport, ShutdownError};
use crate::stats::{Stats, StatsSnapshot};
use crate::watchdog::{FailureCells, ProgressBoard, RankMonitor, StallReport};

/// Default upper bound on one parked wait (see [`Runtime::park_timeout`]).
pub const DEFAULT_PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// Configures and launches an SPMD run.
///
/// ```
/// use gv_msgpass::Runtime;
///
/// let outcome = Runtime::new(4).run(|comm| {
///     comm.allreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b)
/// });
/// assert_eq!(outcome.results, vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Runtime {
    ranks: usize,
    cost: CostModel,
    park_timeout: Duration,
    watchdog: Option<Duration>,
    fault: FaultPlan,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Maximum final virtual clock over all ranks — the modeled elapsed
    /// time of the whole run under the cost model (see `cost` module docs
    /// and the substitution table in DESIGN.md).
    pub modeled_seconds: f64,
    /// Per-rank final virtual clocks.
    pub rank_clocks: Vec<f64>,
    /// Communication statistics accumulated across all ranks.
    pub stats: StatsSnapshot,
    /// Real wall-clock duration of the run (all ranks share this host's
    /// CPUs, so this is *not* the parallel time — that is
    /// [`modeled_seconds`](Self::modeled_seconds)).
    pub wall: Duration,
    /// What the fault plan actually injected (all zeros without a plan —
    /// the recordings guard pins that a disabled plan changes nothing).
    pub faults: FaultSummary,
}

/// Diagnostics for the rank whose failure aborted a run.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The first rank recorded as failed (the run's root cause; later
    /// ranks unwind with secondary [`ShutdownError`]s).
    pub rank: usize,
    /// The failing rank's panic message (or a typed error's display).
    pub message: String,
    /// Set when the failure was a chaos-injected kill — soak suites use
    /// this to tell planned deaths from real bugs.
    pub injected: Option<InjectedKill>,
    /// What every rank was doing when the failure was recorded (only
    /// captured while a watchdog window is configured, since only then is
    /// the progress board populated).
    pub context: Option<StallReport>,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.message)?;
        if self.injected.is_some() {
            write!(f, " [chaos-injected]")?;
        }
        if let Some(context) = &self.context {
            write!(f, "\n{context}")?;
        }
        Ok(())
    }
}

/// Why [`Runtime::try_run`] could not deliver a [`RunOutcome`].
#[derive(Debug)]
pub enum RunError {
    /// The stall watchdog found global no-progress for its whole window
    /// and aborted the run; the report names what every rank was blocked
    /// on.
    Stalled(StallReport),
    /// A rank panicked (or was killed by an injected fault); every other
    /// rank was aborted.
    Failed(FailureReport),
    /// A rank's OS thread could not be spawned; already-spawned ranks
    /// were aborted and joined (no partial run leaks threads).
    Spawn {
        /// The rank whose thread failed to spawn.
        rank: usize,
        /// The spawn error's message.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled(report) => write!(f, "run aborted by stall watchdog: {report}"),
            RunError::Failed(report) => write!(f, "run failed: {report}"),
            RunError::Spawn { rank, message } => {
                write!(f, "failed to spawn thread for rank {rank}: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A run that could not complete: the typed error plus, for panics, the
/// original payload so `run` can re-raise it unchanged.
type RunFailure = (RunError, Option<Box<dyn Any + Send>>);

/// Best-effort human rendering of a panic payload.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(err) = payload.downcast_ref::<ShutdownError>() {
        err.to_string()
    } else if let Some(kill) = payload.downcast_ref::<InjectedKill>() {
        kill.to_string()
    } else {
        "rank panicked with a non-string payload".to_string()
    }
}

/// The stall-watchdog window a read of `GV_WATCHDOG_MS` asks for: `None`
/// when the variable is unset or `0`. Anything but a whole number of
/// milliseconds panics, naming the variable and its value.
fn watchdog_window(var: Result<String, std::env::VarError>) -> Option<Duration> {
    let value = match var {
        Err(std::env::VarError::NotPresent) => return None,
        other => other.unwrap_or_else(|e| e.to_string()),
    };
    let ms: u64 = value.trim().parse().unwrap_or_else(|_| {
        panic!(
            "GV_WATCHDOG_MS={value:?} is not a whole number of milliseconds \
             (unset it or set it to 0 to turn the stall watchdog off)"
        )
    });
    (ms > 0).then(|| Duration::from_millis(ms))
}

impl Runtime {
    /// A runtime with `ranks` ranks and the default cost model.
    ///
    /// If the `GV_WATCHDOG_MS` environment variable is set to a positive
    /// integer, a stall watchdog with that window (in milliseconds) is
    /// enabled by default — CI sets it so no hang regression can stall a
    /// test run forever; unset or `0` leaves it off.
    /// [`watchdog`](Self::watchdog) / [`no_watchdog`](Self::no_watchdog)
    /// override it per runtime.
    ///
    /// # Panics
    /// Panics if `ranks` is zero, or if `GV_WATCHDOG_MS` is set to
    /// anything but a whole number of milliseconds (a value such as `30s`
    /// must not turn the watchdog off unnoticed).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1, "a runtime needs at least one rank");
        let watchdog = watchdog_window(std::env::var("GV_WATCHDOG_MS"));
        Runtime {
            ranks,
            cost: CostModel::default(),
            park_timeout: DEFAULT_PARK_TIMEOUT,
            watchdog,
            fault: FaultPlan::default(),
        }
    }

    /// Replaces the cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Upper bound on one parked wait in a rank's receive loops
    /// (default [`DEFAULT_PARK_TIMEOUT`], 50 ms).
    ///
    /// The timeout is a *backstop*, not the wakeup mechanism: producers,
    /// lane closures, aborts, and the watchdog all unpark receivers
    /// explicitly, so raising this does not slow the normal paths — it
    /// only stretches how long a genuinely lost wakeup could linger. An
    /// active fault plan with delivery delays clamps it to 1 ms so
    /// embargo expiries are noticed promptly.
    pub fn park_timeout(mut self, timeout: Duration) -> Self {
        self.park_timeout = timeout;
        self
    }

    /// Enables the stall watchdog: if every unfinished rank sits blocked
    /// with zero progress for a full `window`, the run is aborted with a
    /// structured [`StallReport`] instead of hanging.
    ///
    /// Pick a window comfortably above the run's longest legitimate
    /// quiet period — at minimum the fault plan's
    /// [`max_disruption`](FaultPlan::max_disruption) (injected stalls
    /// park *other* ranks while the stalled rank sleeps, which looks
    /// exactly like a hang until it resumes; a stalled rank's sleep keeps
    /// its state `Running`, so only a genuinely global stop fires).
    pub fn watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Disables the stall watchdog (overriding `GV_WATCHDOG_MS`).
    pub fn no_watchdog(mut self) -> Self {
        self.watchdog = None;
        self
    }

    /// Installs a deterministic chaos [`FaultPlan`] for the run. An empty
    /// plan (the default) is treated exactly like no plan: no hooks run
    /// and recorded figures stay bit-identical.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// The configured rank count.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs `f` once per rank (as an OS thread) and collects the results
    /// in rank order.
    ///
    /// If any rank panics, every other rank is aborted (blocked receives
    /// turn into panics) and the root-cause rank's panic is propagated to
    /// the caller. A watchdog-detected stall or a failed thread spawn
    /// panics with the typed [`RunError`] as payload; use
    /// [`try_run`](Self::try_run) to receive those as values instead.
    pub fn run<R, F>(&self, f: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        match self.run_inner(&f) {
            Ok(outcome) => outcome,
            Err((_, Some(payload))) => std::panic::resume_unwind(payload),
            Err((error, None)) => std::panic::panic_any(error),
        }
    }

    /// Like [`run`](Self::run), but failures come back as a typed
    /// [`RunError`] instead of unwinding the caller: injected kills and
    /// rank panics as [`RunError::Failed`] (with the root-cause rank and
    /// message), watchdog aborts as [`RunError::Stalled`], and spawn
    /// failures as [`RunError::Spawn`].
    pub fn try_run<R, F>(&self, f: F) -> Result<RunOutcome<R>, RunError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        self.run_inner(&f).map_err(|(error, _)| error)
    }

    fn run_inner<R, F>(&self, f: &F) -> Result<RunOutcome<R>, RunFailure>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        let p = self.ranks;
        let (mailboxes, senders, parkers) = build_lane_transport(p);
        // Parked receivers are woken explicitly on abort (the park
        // timeout remains as a backstop, not the mechanism).
        let parkers = Arc::new(parkers);
        let stats = Arc::new(Stats::new(p));
        let registry = Arc::new(SplitRegistry::new());
        let cells = FailureCells::new();
        let board = Arc::new(ProgressBoard::new(p, self.watchdog.is_some()));
        // An empty plan injects nothing; skip its hooks entirely so the
        // disabled case is indistinguishable from "no plan".
        let plan = (!self.fault.is_empty()).then_some(&self.fault);
        let counters = Arc::new(FaultCounters::default());
        // Delivery delays are receiver-side embargoes with no producer
        // wakeup at expiry; a short park bound turns expiry into a prompt
        // re-poll instead of a full park timeout of added latency.
        let rank_park_timeout = match plan {
            Some(plan) if plan.has_delays() => self.park_timeout.min(Duration::from_millis(1)),
            _ => self.park_timeout,
        };
        let started = Instant::now();

        let mut slots: Vec<Option<(R, f64)>> = Vec::with_capacity(p);
        slots.resize_with(p, || None);
        let mut payloads: Vec<Option<Box<dyn Any + Send>>> = Vec::with_capacity(p);
        payloads.resize_with(p, || None);
        let mut spawn_error: Option<(usize, String)> = None;
        let failure: Mutex<Option<FailureReport>> = Mutex::new(None);
        let stall: Mutex<Option<StallReport>> = Mutex::new(None);
        let watchdog_stop = AtomicBool::new(false);
        let watchdog_parker = Parker::new();

        std::thread::scope(|scope| {
            let watchdog_handle = self.watchdog.map(|window| {
                let board = Arc::clone(&board);
                let aborted = Arc::clone(&cells.aborted);
                let parkers = Arc::clone(&parkers);
                let (stop, own_parker, report) = (&watchdog_stop, &watchdog_parker, &stall);
                std::thread::Builder::new()
                    .name("gv-watchdog".to_string())
                    .spawn_scoped(scope, move || {
                        crate::watchdog::watch(
                            &board, window, &aborted, &parkers, stop, own_parker, report,
                        );
                    })
                    .expect("failed to spawn watchdog thread")
            });

            let mut handles = Vec::with_capacity(p);
            for (rank, ((mailbox, senders), slot)) in mailboxes
                .into_iter()
                .zip(senders)
                .zip(slots.iter_mut())
                .enumerate()
            {
                let stats = Arc::clone(&stats);
                let registry = Arc::clone(&registry);
                let aborted = Arc::clone(&cells.aborted);
                let culprit = Arc::clone(&cells.culprit);
                let board = Arc::clone(&board);
                let parkers = Arc::clone(&parkers);
                let counters = Arc::clone(&counters);
                let (cells, failure) = (&cells, &failure);
                let f = &f;
                if plan.is_some_and(|plan| plan.spawn_fails(rank)) {
                    spawn_error = Some((rank, "injected spawn failure".to_string()));
                    break;
                }
                let spawned = std::thread::Builder::new()
                    .name(format!("gv-rank-{rank}"))
                    .spawn_scoped(scope, move || {
                        let monitor = RankMonitor::new(
                            rank,
                            aborted,
                            culprit,
                            Arc::clone(&board),
                            rank_park_timeout,
                        );
                        let faults = plan.map(|plan| plan.for_rank(rank, counters));
                        let comm = Comm::new_world(crate::comm::WorldInit {
                            rank,
                            peers: senders,
                            mailbox,
                            cost: self.cost,
                            stats,
                            registry,
                            monitor,
                            faults,
                        });
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                        // Cancel leftover (detached) schedules and break the
                        // `Comm → Engine → Comm` cycle their boxed state
                        // holds, on both the clean and the panic path.
                        comm.shutdown_engine();
                        match outcome {
                            Ok(value) => {
                                *slot = Some((value, comm.now()));
                                comm.monitor().note_done();
                                Ok(())
                            }
                            Err(payload) => {
                                // First failure wins the culprit cell and
                                // records the run's root-cause report —
                                // with the board captured *before* the
                                // abort below scatters everyone's state.
                                if cells.record_culprit(rank) {
                                    let context =
                                        board.is_enabled().then(|| board.capture(Duration::ZERO));
                                    *failure.lock().unwrap_or_else(|e| e.into_inner()) =
                                        Some(FailureReport {
                                            rank,
                                            message: payload_message(payload.as_ref()),
                                            injected: payload
                                                .downcast_ref::<InjectedKill>()
                                                .copied(),
                                            context,
                                        });
                                }
                                // Wake peers blocked on us so the whole run
                                // unwinds instead of deadlocking: raise the
                                // flag first, then unpark everyone so a
                                // parked receiver re-checks it immediately.
                                cells.aborted.store(true, Ordering::Relaxed);
                                for parker in parkers.iter() {
                                    parker.unpark();
                                }
                                comm.monitor().note_done();
                                Err(payload)
                            }
                        }
                    });
                match spawned {
                    Ok(handle) => handles.push(handle),
                    Err(err) => {
                        spawn_error = Some((rank, err.to_string()));
                        break;
                    }
                }
            }
            if spawn_error.is_some() {
                // Unspawned ranks' mailboxes and senders dropped with the
                // iterator above, closing their lanes; raising the abort
                // flag and unparking turns every already-spawned rank's
                // blocked receive into a clean typed unwind.
                cells.aborted.store(true, Ordering::Relaxed);
                for parker in parkers.iter() {
                    parker.unpark();
                }
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(payload)) | Err(payload) => payloads[rank] = Some(payload),
                }
            }
            watchdog_stop.store(true, Ordering::Relaxed);
            watchdog_parker.unpark();
            if let Some(handle) = watchdog_handle {
                let _ = handle.join();
            }
        });

        if let Some((rank, message)) = spawn_error {
            // Rank payloads here are secondary ShutdownErrors caused by
            // the abort; the spawn failure is the root cause.
            return Err((RunError::Spawn { rank, message }, None));
        }
        if let Some(report) = stall.into_inner().unwrap_or_else(|e| e.into_inner()) {
            // The watchdog only fires on global no-progress; rank panics
            // after it fired are consequences of its abort.
            return Err((RunError::Stalled(report), None));
        }
        if let Some(report) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
            let payload = payloads[report.rank].take();
            return Err((RunError::Failed(report), payload));
        }
        if let Some((rank, payload)) = payloads
            .iter_mut()
            .enumerate()
            .find_map(|(r, p)| p.take().map(|p| (r, p)))
        {
            // Backstop: a panic escaped without a recorded report (should
            // be unreachable — the handler always records the first).
            let report = FailureReport {
                rank,
                message: payload_message(payload.as_ref()),
                injected: payload.downcast_ref::<InjectedKill>().copied(),
                context: None,
            };
            return Err((RunError::Failed(report), Some(payload)));
        }

        let wall = started.elapsed();
        let mut results = Vec::with_capacity(p);
        let mut rank_clocks = Vec::with_capacity(p);
        for slot in slots {
            let (value, clock) = slot.expect("rank finished without a result");
            results.push(value);
            rank_clocks.push(clock);
        }
        let modeled_seconds = rank_clocks.iter().cloned().fold(0.0, f64::max);
        Ok(RunOutcome {
            results,
            modeled_seconds,
            rank_clocks,
            stats: stats.snapshot(),
            wall,
            faults: counters.summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;

    #[test]
    fn results_come_back_in_rank_order() {
        let outcome = Runtime::new(6).run(|comm| comm.rank() * comm.size());
        assert_eq!(outcome.results, vec![0, 6, 12, 18, 24, 30]);
    }

    #[test]
    fn single_rank_run() {
        let outcome = Runtime::new(1).run(|comm| {
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allgather(5u8)
        });
        assert_eq!(outcome.results, vec![vec![5u8]]);
    }

    #[test]
    fn point_to_point_ring() {
        let outcome = Runtime::new(4).run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, comm.rank() as u32);
            comm.recv::<u32>(prev, 1)
        });
        assert_eq!(outcome.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn collectives_agree_with_their_oracles_and_message_counts() {
        let outcome = Runtime::new(5).run(|comm| {
            let sum = comm.allreduce(comm.rank() as u64 + 1, true, |_| 8, |a, b| a + b);
            let prefix = comm.scan_inclusive(comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
            (sum, prefix)
        });
        assert_eq!(
            outcome.results,
            vec![(15, 1), (15, 3), (15, 6), (15, 10), (15, 15)]
        );
        // Schedule-level accounting: recursive doubling at p=5 folds one
        // pair (2 messages) around 2 rounds × 4 survivors; the shifted
        // scan sends p−d messages in each of its rounds d = 1, 2, 4.
        assert_eq!(outcome.stats.messages, (2 + 8) + (4 + 3 + 1));
        assert_eq!(outcome.stats.bytes, 8 * 18);
    }

    #[test]
    fn modeled_time_reflects_critical_path() {
        let outcome = Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.advance(1000); // 1 µs of compute at default γ
                comm.send(1, 9, 42u8);
            } else {
                let v: u8 = comm.recv(0, 9);
                assert_eq!(v, 42);
            }
        });
        // Rank 1's clock ≥ rank 0's compute + one message latency.
        assert!(outcome.modeled_seconds >= 1.0e-6 + 5.0e-6);
        assert!(outcome.modeled_seconds < 1.0e-4);
    }

    #[test]
    fn rank_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            Runtime::new(3).run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                // Other ranks block on a message that will never come.
                let _: u8 = comm.recv(1, 5);
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_run_reports_the_root_cause_rank() {
        let err = Runtime::new(3)
            .try_run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                let _: u8 = comm.recv(1, 5);
            })
            .unwrap_err();
        match err {
            RunError::Failed(report) => {
                assert_eq!(report.rank, 1);
                assert!(report.message.contains("exploded"), "{}", report.message);
                assert!(report.injected.is_none());
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn try_run_succeeds_like_run() {
        let outcome = Runtime::new(3)
            .try_run(|comm| comm.allreduce(1u64, true, |_| 8, |a, b| a + b))
            .expect("clean run");
        assert_eq!(outcome.results, vec![3, 3, 3]);
        assert!(outcome.faults.is_quiet());
    }

    #[test]
    fn injected_spawn_failure_cleans_up_spawned_ranks() {
        let started = Instant::now();
        let err = Runtime::new(4)
            .fault_plan(FaultPlan::new(5).fail_spawn(2))
            .try_run(|comm| {
                // Ranks 0 and 1 spawn first and block on a barrier the
                // missing ranks can never join.
                comm.barrier();
            })
            .unwrap_err();
        match err {
            RunError::Spawn { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected Spawn, got {other:?}"),
        }
        // Clean abort, not a hang until some timeout.
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn injected_kill_surfaces_typed() {
        let err = Runtime::new(3)
            .fault_plan(FaultPlan::new(9).kill(2, FaultOp::Collective, 2))
            .try_run(|comm| {
                let a = comm.allreduce(1u64, true, |_| 8, |a, b| a + b);
                let b = comm.allreduce(2u64, true, |_| 8, |a, b| a + b);
                a + b
            })
            .unwrap_err();
        match err {
            RunError::Failed(report) => {
                assert_eq!(report.rank, 2);
                let kill = report.injected.expect("typed injected kill");
                assert_eq!(
                    kill,
                    InjectedKill {
                        rank: 2,
                        op: FaultOp::Collective,
                        nth: 2
                    }
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn empty_fault_plan_is_inert() {
        let run = |plan: Option<FaultPlan>| {
            let mut rt = Runtime::new(4);
            if let Some(plan) = plan {
                rt = rt.fault_plan(plan);
            }
            rt.run(|comm| comm.scan_inclusive(comm.rank() as u64, |_| 8, |a, b| a + b))
        };
        let bare = run(None);
        let planned = run(Some(FaultPlan::default()));
        assert_eq!(bare.results, planned.results);
        assert_eq!(bare.stats.messages, planned.stats.messages);
        assert_eq!(bare.stats.bytes, planned.stats.bytes);
        assert!(planned.faults.is_quiet());
        assert_eq!(planned.stats.transport.embargo_defers, 0);
    }

    #[test]
    fn delayed_sends_keep_results_correct_and_are_counted() {
        let plan = FaultPlan::new(1234).delay_sends(1000, Duration::from_millis(3));
        let outcome = Runtime::new(4)
            .fault_plan(plan)
            .watchdog(Duration::from_secs(20))
            .run(|comm| comm.allreduce(comm.rank() as u64 + 1, true, |_| 8, |a, b| a + b));
        assert_eq!(outcome.results, vec![10, 10, 10, 10]);
        assert!(
            outcome.faults.delayed_sends > 0,
            "a 100% delay rate over an allreduce must fire: {:?}",
            outcome.faults
        );
    }

    #[test]
    fn watchdog_reports_a_genuine_stall() {
        // Rank 0 waits for a message nobody sends — a real deadlock. The
        // watchdog must abort the run with a populated report instead of
        // letting the test hang.
        let err = Runtime::new(3)
            .watchdog(Duration::from_millis(150))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    let _: u8 = comm.recv(1, 77);
                }
                // Ranks 1 and 2 exit immediately; with rank 0 parked
                // on rank 1's lane... actually their exit closes
                // lanes, so block them on a receive too to force a
                // true three-way stall.
                if comm.rank() != 0 {
                    let _: u8 = comm.recv(0, 78);
                }
            })
            .unwrap_err();
        match err {
            RunError::Stalled(report) => {
                assert_eq!(report.ranks.len(), 3);
                assert!(report.waited >= Duration::from_millis(150));
                let r0 = &report.ranks[0];
                let on = r0.blocked_on.expect("rank 0 recorded its wait");
                assert_eq!(on.src, Some(1));
                assert_eq!(on.tag, 77);
                assert_eq!(on.op, "p2p");
                let rendered = report.to_string();
                assert!(rendered.contains("rank 0"), "{rendered}");
                assert!(rendered.contains("tag=0x4d"), "{rendered}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_a_slow_but_progressing_run() {
        // Steady trickle of progress, each step longer than the window's
        // tick but with matches in between: the watchdog must stay quiet.
        let outcome = Runtime::new(2)
            .watchdog(Duration::from_millis(120))
            .try_run(|comm| {
                for i in 0..6u32 {
                    if comm.rank() == 0 {
                        std::thread::sleep(Duration::from_millis(30));
                        comm.send(1, 1, i);
                    } else {
                        let got: u32 = comm.recv(0, 1);
                        assert_eq!(got, i);
                    }
                }
                comm.barrier();
            });
        assert!(outcome.is_ok(), "watchdog misfired: {:?}", outcome.err());
    }

    #[test]
    fn watchdog_env_var_is_off_when_unset_or_zero_and_a_window_otherwise() {
        use std::env::VarError;
        assert_eq!(watchdog_window(Err(VarError::NotPresent)), None);
        assert_eq!(watchdog_window(Ok("0".to_string())), None);
        assert_eq!(
            watchdog_window(Ok(" 30000\n".to_string())),
            Some(Duration::from_secs(30))
        );
    }

    #[test]
    #[should_panic(expected = "GV_WATCHDOG_MS=\"30s\" is not a whole number of milliseconds")]
    fn watchdog_env_var_with_a_unit_is_an_error_not_off() {
        watchdog_window(Ok("30s".to_string()));
    }

    #[test]
    #[should_panic(expected = "GV_WATCHDOG_MS=\"3e4\"")]
    fn watchdog_env_var_in_exponent_form_is_an_error_not_off() {
        watchdog_window(Ok("3e4".to_string()));
    }

    #[test]
    fn split_builds_disjoint_communicators() {
        let outcome = Runtime::new(6).run(|comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64);
            let total = sub.allreduce(comm.rank() as u64, true, |_| 8, |a, b| a + b);
            (sub.rank(), sub.size(), total)
        });
        // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
        assert_eq!(outcome.results[0], (0, 3, 6));
        assert_eq!(outcome.results[1], (0, 3, 9));
        assert_eq!(outcome.results[4], (2, 3, 6));
        assert_eq!(outcome.results[5], (2, 3, 9));
    }

    #[test]
    fn split_routes_through_world_lanes() {
        // After a split, comm-relative ranks differ from world ranks; the
        // member map must still route sends to the right lanes.
        let outcome = Runtime::new(4).run(|comm| {
            let color = (comm.rank() / 2) as i64;
            let sub = comm.split(color, comm.rank() as i64);
            let peer = 1 - sub.rank();
            sub.send(peer, 3, comm.rank() as u32);
            let got: u32 = sub.recv(peer, 3);
            got as usize
        });
        // World pairs (0,1) and (2,3) swap their world ranks.
        assert_eq!(outcome.results, vec![1, 0, 3, 2]);
    }

    #[test]
    fn dup_isolates_traffic() {
        let outcome = Runtime::new(2).run(|comm| {
            let dup = comm.dup();
            // Same (src, tag) on both communicators; matching must respect
            // the communicator id.
            if comm.rank() == 0 {
                comm.send(1, 7, 100u32);
                dup.send(1, 7, 200u32);
                0
            } else {
                let on_dup: u32 = dup.recv(0, 7);
                let on_world: u32 = comm.recv(0, 7);
                assert_eq!(on_dup, 200);
                assert_eq!(on_world, 100);
                1
            }
        });
        assert_eq!(outcome.results, vec![0, 1]);
    }
}
