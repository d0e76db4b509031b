//! What a child process of the runner does: one mode of one workload.
//!
//! * `wall` / `serial` — rounds of timed reps at p = P_WALL / p = 1,
//!   tracing off. These alone feed the end-to-end metrics.
//! * `traced` — the same rounds at p = P_WALL with whole-call and
//!   spans-on reps interleaved, so tracing overhead is measured inside
//!   one process.
//! * `modeled` — one rep at p = 16 (and p = 1) on the α–β–γ virtual
//!   clock, repeated to guard determinism. Threads exceed cores there, so
//!   only the virtual clock and exact counts are read, never wall time.
//!
//! A rep is a fixed amount of work between two barriers. The loop is
//! closed: each rank issues its next call when the previous one returns.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::api::{self, Comm, Counters};
use crate::json::Json;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::{Check, Workload};

/// Ranks of the modeled mode (the paper's plots reach 16 and beyond; 16
/// is what this host can thread in reasonable time).
pub const P_MODELED: usize = 16;

/// A round times at least this many reps however long they take.
const MIN_REPS: usize = 3;

/// Name of the span a traced rep runs in.
const REP: &str = "rep";

#[derive(Default)]
struct RankReport {
    setup_s: f64,
    whole_s: Vec<f64>,
    parts_s: Vec<f64>,
    /// One per rep attempted, in order.
    checks: Vec<Check>,
    /// Traced reps whose parts form did not return the whole call's output.
    differing: u64,
    self_ns: BTreeMap<&'static str, u64>,
    /// Spans of the first traced rep, kept for the trace file.
    kept: Vec<Span>,
    counters: Counters,
}

/// What one round (one fresh runtime) measured.
#[derive(Default)]
pub struct Round {
    /// One per round pooled in (none for a round that failed).
    pub setups_s: Vec<f64>,
    pub whole_s: Vec<f64>,
    pub parts_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Self time by span name, summed over ranks and traced reps.
    pub self_ns: BTreeMap<&'static str, u64>,
    pub kept: Vec<Span>,
    /// Counter deltas over the timed loop (all reps of both kinds).
    pub counters: Counters,
}

impl Round {
    /// Pools another round of the same process into this one.
    fn absorb(&mut self, other: Round) {
        self.setups_s.extend(other.setups_s);
        self.whole_s.extend(other.whole_s);
        self.parts_s.extend(other.parts_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.counters = self.counters.plus(&other.counters);
        for (name, ns) in other.self_ns {
            *self.self_ns.entry(name).or_insert(0) += ns;
        }
        if self.kept.is_empty() {
            self.kept = other.kept;
        }
    }
}

/// One round: fresh runtime → program-side set-up → one untimed warm-up
/// rep → timed reps for about `timed_seconds` (`None`: set-up only).
/// `setup_s` is the time from entering the runtime to the first timed rep.
pub fn run_round<W: Workload>(w: &W, p: usize, timed_seconds: Option<f64>, traced: bool) -> Round {
    let stop = AtomicBool::new(timed_seconds.is_none());
    let entered = Instant::now();
    let run = api::run_ranks(p, |comm| {
        let lead = api::rank(comm) == 0;
        let mut report = RankReport::default();
        let mut input = w.setup(comm);
        if traced {
            // One recorder per round, so reps record into warm memory;
            // it is switched on only around the traced reps.
            trace::install(api::rank(comm));
        }
        let timed_rep = |input: &mut W::Input, parts: bool| {
            api::barrier(comm);
            let start = Instant::now();
            let out = if parts {
                trace::record(|| trace::span(REP, || w.rep_parts(comm, input)))
            } else {
                w.rep(comm, input)
            };
            api::barrier(comm);
            (out, start.elapsed().as_secs_f64())
        };

        let (out, _) = timed_rep(&mut input, false);
        report.setup_s = entered.elapsed().as_secs_f64();
        report.checks.push(w.check(comm, &input, &out));
        drop(out);

        let loop_start = Instant::now();
        let before = lead.then(|| api::counters(comm));
        loop {
            // Rank 0 decides; the barrier publishes its decision.
            api::barrier(comm);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Each output is dropped before the next rep starts, so both
            // kinds of rep meet the allocator in the same state.
            let (whole, dt) = timed_rep(&mut input, false);
            report.whole_s.push(dt);
            let whole_check = w.check(comm, &input, &whole);
            report.checks.push(whole_check);
            drop(whole);
            if traced {
                let (parts, dt) = timed_rep(&mut input, true);
                report.parts_s.push(dt);
                let parts_check = w.check(comm, &input, &parts);
                report.checks.push(parts_check);
                drop(parts);
                report.differing += u64::from(parts_check != whole_check);
                trace::drain(|spans| {
                    for (name, ns) in trace::self_time_by_name(spans) {
                        *report.self_ns.entry(name).or_insert(0) += ns;
                    }
                    if report.kept.is_empty() {
                        report.kept = spans.to_vec();
                    }
                });
            }
            let reps = report.whole_s.len();
            if lead
                && reps >= MIN_REPS
                && loop_start.elapsed().as_secs_f64() >= timed_seconds.unwrap_or(0.0)
            {
                stop.store(true, Ordering::SeqCst);
            }
        }
        if let Some(before) = before {
            report.counters = api::counters(comm).since(&before);
        }
        trace::uninstall();
        report
    });

    let mut round = Round::default();
    let mut ranks = match run {
        Ok(run) => run.results,
        Err(message) => {
            // The rep in flight is lost; so are this round's samples.
            eprintln!("[{}] round failed: {message}", W::NAME);
            round.attempted = 1;
            round.failed = 1;
            return round;
        }
    };
    let reps = ranks[0].checks.len();
    round.attempted = reps as u64;
    for i in 0..reps {
        let digest = ranks
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(r.checks[i].digest));
        if !ranks.iter().all(|r| r.checks[i].ok) || digest != w.oracle_digest() {
            eprintln!(
                "[{}] rep {i} failed verification against the oracle",
                W::NAME
            );
            round.failed += 1;
        }
    }
    let differing = ranks.iter().map(|r| r.differing).max().unwrap_or(0);
    if differing > 0 {
        eprintln!(
            "[{}] {differing} traced rep outputs differ from the whole call's",
            W::NAME
        );
        round.failed += differing;
    }
    // Rank 0's clocks: its reps end when the closing barrier lets it go.
    let lead = &mut ranks[0];
    round.setups_s = vec![lead.setup_s];
    round.whole_s = std::mem::take(&mut lead.whole_s);
    round.parts_s = std::mem::take(&mut lead.parts_s);
    round.counters = lead.counters;
    for mut rank in ranks {
        for (name, ns) in std::mem::take(&mut rank.self_ns) {
            *round.self_ns.entry(name).or_insert(0) += ns;
        }
        round.kept.append(&mut rank.kept);
    }
    round
}

/// One rep on the virtual clock.
struct Modeled {
    /// Max over ranks of the rep's modeled duration.
    rep_s: f64,
    /// Exact counter deltas of the rep (with its closing barrier).
    counters: Counters,
    /// Max over ranks of each side of [`Workload::modeled_pair`].
    pair: Option<(f64, f64)>,
    ok: bool,
}

fn run_modeled<W: Workload>(w: &W, p: usize, with_pair: bool) -> Result<Modeled, String> {
    // The program's own barrier sends messages, so counters read right
    // after it are racy by a few sends. A second, message-free barrier of
    // the benchmark's own brackets each counter read: every rank has left
    // the program's barrier, none has started the next call.
    let gate = std::sync::Barrier::new(p);
    let exact_counters = |comm: &Comm| {
        gate.wait();
        let counters = api::counters(comm);
        gate.wait();
        counters
    };
    let run = api::run_ranks(p, |comm| {
        let mut input = w.setup(comm);
        api::barrier(comm);
        let before = exact_counters(comm);
        let start = api::modeled_now(comm);
        let out = w.rep(comm, &mut input);
        api::barrier(comm);
        let rep_s = api::modeled_now(comm) - start;
        let counters = exact_counters(comm).since(&before);
        let check = w.check(comm, &input, &out);
        let pair = if with_pair {
            w.modeled_pair(comm, &mut input, &out)
        } else {
            None
        };
        (rep_s, counters, check, pair)
    })?;
    let ranks = run.results;
    let digest = ranks
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(r.2.digest));
    let pairs: Vec<(f64, f64)> = ranks.iter().filter_map(|r| r.3).collect();
    Ok(Modeled {
        rep_s: ranks.iter().map(|r| r.0).fold(0.0, f64::max),
        counters: ranks[0].1,
        pair: (!pairs.is_empty()).then(|| {
            pairs.iter().fold((0.0, 0.0), |(a, b): (f64, f64), (x, y)| {
                (a.max(*x), b.max(*y))
            })
        }),
        ok: ranks.iter().all(|r| r.2.ok) && digest == w.oracle_digest(),
    })
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set-up-only round is repeated at least this often per process.
const MIN_SETUP_ROUNDS: usize = 3;
const MAX_SETUP_ROUNDS: usize = 40;

/// `wall` and `serial`: `rounds` untraced rounds at `p` ranks, then
/// set-up-only rounds (runtime, inputs, warm-up rep, no timed rep) for
/// about `setup_seconds`, so `setup_s` is read from several set-ups.
pub fn child_wall<W: Workload>(
    seed: u64,
    p: usize,
    rounds: usize,
    round_seconds: f64,
    setup_seconds: f64,
) -> Json {
    let w = W::new(seed);
    let mut total = Round::default();
    for _ in 0..rounds {
        total.absorb(run_round(&w, p, Some(round_seconds), false));
    }
    let start = Instant::now();
    for i in 0..MAX_SETUP_ROUNDS {
        if setup_seconds <= 0.0
            || (i >= MIN_SETUP_ROUNDS && start.elapsed().as_secs_f64() >= setup_seconds)
        {
            break;
        }
        total.absorb(run_round(&w, p, None, false));
    }
    Json::obj([
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("wall_s", nums(&total.whole_s)),
        ("setup_s", nums(&total.setups_s)),
        (
            "metrics",
            Json::obj([("peak_rss_mib", Json::Num(peak_rss_mib()))]),
        ),
    ])
}

/// `traced`: rounds at `p` ranks with whole-call and spanned reps
/// interleaved; writes the kept spans to `trace_path`.
pub fn child_traced<W: Workload>(
    seed: u64,
    p: usize,
    rounds: usize,
    round_seconds: f64,
    trace_path: &str,
) -> Json {
    let w = W::new(seed);
    let mut total = Round::default();
    for _ in 0..rounds {
        total.absorb(run_round(&w, p, Some(round_seconds), true));
    }

    let spans = Json::Arr(total.kept.iter().map(Span::to_json).collect());
    let doc = Json::obj([
        ("workload", Json::str(W::NAME)),
        ("ranks", Json::Num(p as f64)),
        ("spans", spans),
    ]);
    if let Err(e) = std::fs::write(trace_path, doc.to_line()) {
        eprintln!("[{}] could not write {trace_path}: {e}", W::NAME);
    }

    // Seconds per rep per rank, by the layer the self time belongs to.
    let per_rep_rank = (total.parts_s.len() * p).max(1) as f64 * 1e9;
    let self_s = |name: &str| total.self_ns.get(name).copied().unwrap_or(0) as f64 / per_rep_rank;
    let rep_self_s = self_s(REP);
    let parts_sum_s: f64 = total
        .self_ns
        .iter()
        .filter(|(n, _)| **n != REP)
        .map(|(_, ns)| *ns as f64)
        .sum::<f64>()
        / per_rep_rank;
    let whole_median = median(&total.whole_s);
    let per_rep = |index: usize| {
        let reps = (total.whole_s.len() + total.parts_s.len()).max(1) as f64;
        Json::Num(total.counters.0[index] as f64 / reps)
    };
    let mut metrics = vec![
        ("core.op.accumulate_s", Json::Num(self_s(api::ACCUMULATE))),
        ("core.op.rescan_s", Json::Num(self_s(api::RESCAN))),
        (
            "msgpass.collectives.combine_s",
            Json::Num(self_s(api::COMBINE) + self_s(api::REQUEST_START)),
        ),
        ("nas.is.sort_s", Json::Num(self_s(api::IS_SORT))),
        ("nas.is.key_ranks_s", Json::Num(self_s(api::IS_KEY_RANKS))),
        ("nas.is.verify_s", Json::Num(self_s(api::IS_VERIFY))),
        ("nas.mg.fill_s", Json::Num(self_s(api::MG_FILL))),
        ("nas.mg.extrema_s", Json::Num(self_s(api::MG_EXTREMA))),
        ("nas.mg.charges_s", Json::Num(self_s(api::MG_CHARGES))),
        ("nas.cg.dot_s", Json::Num(self_s(api::CG_DOT))),
        ("nas.cg.matvec_s", Json::Num(self_s(api::CG_MATVEC))),
        ("nas.cg.axpy_s", Json::Num(self_s(api::CG_AXPY))),
        ("core.kernel.blocks_kernel", per_rep(api::KERNEL_BLOCKS)),
        ("core.kernel.blocks_scalar", per_rep(api::SCALAR_BLOCKS)),
        ("msgpass.comm.eager_sends", per_rep(api::EAGER_SENDS)),
        ("msgpass.comm.queued_sends", per_rep(api::QUEUED_SENDS)),
        ("msgpass.comm.parks", per_rep(api::PARKS)),
        ("msgpass.comm.stash_recvs", per_rep(api::STASH_RECVS)),
        ("msgpass.comm.pool_hits", per_rep(api::POOL_HITS)),
        ("msgpass.comm.pool_misses", per_rep(api::POOL_MISSES)),
        ("bench.traced_wall_s", Json::Num(median(&total.parts_s))),
        (
            "bench.trace_overhead",
            Json::Num(median(&total.parts_s) / whole_median),
        ),
        (
            "bench.trace_coverage",
            Json::Num(parts_sum_s / (parts_sum_s + rep_self_s)),
        ),
    ];
    let overhead = if W::RSMPI_PARTS {
        whole_median - parts_sum_s
    } else {
        0.0
    };
    metrics.push(("rsmpi.overhead_s", Json::Num(overhead)));
    Json::obj([
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("wall_s", nums(&total.whole_s)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// How many p = 16 runs the modeled mode makes. Blocking workloads are
/// bit-deterministic on the virtual clock, so two runs are a guard, not a
/// sample; with requests in flight the clock jitters, so the median of
/// more runs is reported, with their spread.
const GUARD_RUNS: usize = 2;
const JITTER_RUNS: usize = 15;

/// `modeled`: the virtual clock and the exact counts at p = 16, and the
/// virtual clock at p = 1.
pub fn child_modeled<W: Workload>(seed: u64) -> Json {
    let w = W::new(seed);
    let deterministic = !W::REQUESTS_IN_FLIGHT;
    let runs = if deterministic {
        GUARD_RUNS
    } else {
        JITTER_RUNS
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ok_runs: Vec<Modeled> = Vec::new();
    let mut record = |result: Result<Modeled, String>, kept: &mut Vec<Modeled>| {
        attempted += 1;
        match result {
            Ok(m) if m.ok => kept.push(m),
            Ok(_) => {
                eprintln!(
                    "[{}] modeled rep failed verification against the oracle",
                    W::NAME
                );
                failed += 1;
            }
            Err(message) => {
                eprintln!("[{}] modeled run failed: {message}", W::NAME);
                failed += 1;
            }
        }
    };
    for i in 0..runs {
        record(run_modeled(&w, P_MODELED, i == 0), &mut ok_runs);
    }
    let mut serial = Vec::new();
    record(run_modeled(&w, 1, false), &mut serial);

    let clocks: Vec<f64> = ok_runs.iter().map(|m| m.rep_s).collect();
    let exact = |m: &Modeled| {
        [
            api::MSGS,
            api::BYTES,
            api::COLLECTIVE_CALLS,
            api::REQUESTS_STARTED,
        ]
        .map(|i| m.counters.0[i])
    };
    if let Some(first) = ok_runs.first() {
        let counts_differ = ok_runs.iter().any(|m| exact(m) != exact(first));
        let clocks_differ = clocks.iter().any(|c| c.to_bits() != clocks[0].to_bits());
        if counts_differ || (deterministic && clocks_differ) {
            eprintln!(
                "[{}] DETERMINISM GUARD: {} identical modeled runs disagree (clocks {clocks:?}, counts {:?})",
                W::NAME,
                ok_runs.len(),
                ok_runs.iter().map(exact).collect::<Vec<_>>()
            );
            failed += 1;
        }
    }
    let modeled_s = median(&clocks);
    let spread = if modeled_s > 0.0 {
        (clocks.iter().copied().fold(0.0, f64::max)
            - clocks.iter().copied().fold(f64::INFINITY, f64::min))
            / modeled_s
    } else {
        0.0
    };
    let serial_s = serial.first().map_or(0.0, |m| m.rep_s);
    let count =
        |index: usize| Json::Num(ok_runs.first().map_or(0.0, |m| m.counters.0[index] as f64));
    let mut metrics = vec![
        ("modeled_s", Json::Num(modeled_s)),
        ("modeled_serial_s", Json::Num(serial_s)),
        (
            "nas.modeled_speedup_p16",
            Json::Num(if modeled_s > 0.0 {
                serial_s / modeled_s
            } else {
                0.0
            }),
        ),
        ("msgpass.comm.msgs", count(api::MSGS)),
        ("msgpass.comm.bytes", count(api::BYTES)),
        ("msgpass.collectives.calls", count(api::COLLECTIVE_CALLS)),
        ("msgpass.request.started", count(api::REQUESTS_STARTED)),
        ("msgpass.request.modeled_spread", Json::Num(spread)),
    ];
    if let (Some(name), Some((mpi, rsmpi))) =
        (W::RATIO_METRIC, ok_runs.first().and_then(|m| m.pair))
    {
        metrics.push((name, Json::Num(mpi / rsmpi)));
    }
    Json::obj([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}
