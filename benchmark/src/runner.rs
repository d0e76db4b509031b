//! The parent side: runs each mode of a workload in a child process of
//! its own, one at a time, and folds their reports into the metrics.
//!
//! A stall, a panic or a failed verification inside a child is counted as
//! a failed op by the child; a child that dies or overruns its deadline is
//! counted as one here. Neither is ever a crash of the runner.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::catalog::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::json::Json;
use crate::stats::{high_percentile, iqr_frac, low_decile, median};

/// Wall ranks: every core up to four, so ranks never share a core.
pub fn p_wall() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Where run artefacts go (`run.sh` points this at `benchmark/out`).
pub fn out_dir() -> String {
    std::env::var("GV_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string())
}

/// How the measuring time of one run is spent. Rounds are fresh
/// runtimes; the timed modes also use fresh processes, because on this
/// host a process can sit in a slow phase for its whole life (README,
/// "Noise").
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Seconds of measuring (`--seconds`).
    pub seconds: f64,
    /// Processes per timed mode: a process can keep one speed for its whole
    /// life, so a run samples four of them.
    processes: usize,
    rounds_per_process: usize,
    /// Whether `setup_s` gets set-up-only rounds of its own.
    setup_rounds: bool,
}

impl Plan {
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            processes: 4,
            rounds_per_process: 2,
            setup_rounds: true,
        }
    }

    /// The least that still reports every metric (`--quick`).
    pub fn quick(seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 1.0,
            processes: 1,
            rounds_per_process: 1,
            setup_rounds: false,
        }
    }

    fn rounds_args(&self, p: usize, share: f64, processes: usize) -> Vec<(&'static str, String)> {
        let round_seconds = self.seconds * share / (processes * self.rounds_per_process) as f64;
        vec![
            ("--p", p.to_string()),
            ("--rounds", self.rounds_per_process.to_string()),
            ("--round-seconds", round_seconds.to_string()),
        ]
    }
}

const WALL_SHARE: f64 = 0.55;
const SERIAL_SHARE: f64 = 0.35;
/// Spent on set-up-only rounds, so `setup_s` is read from many set-ups.
const SETUP_SHARE: f64 = 0.1;
/// Share of a traced run spent in the traced rounds (the rest goes to the
/// modeled run and the probes, whose work is fixed).
const TRACED_SHARE: f64 = 0.4;

/// glibc's allocator moves its mmap and trim thresholds at run time, from
/// the sizes a process happens to free first. With 1 MiB operator states
/// that decides, per process, whether every state buffer is a fresh
/// mmap (page faults on each use) or recycled heap: `large_state` reads
/// 2.2, 3.8 or 7–11 ms per rep from one process to the next. Pinning both
/// thresholds in every child keeps buffers on the heap, so the program is
/// measured and not the allocator's guess (README, "Noise").
const ALLOCATOR_PINS: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
];

/// A child that has not finished by then is killed and counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

/// The four numbers every report carries, and what was measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The line the perf driver reads.
    pub fn to_json(&self, unit_of: impl Fn(&str) -> &'static str) -> Json {
        let metrics = self.metrics.iter().map(|(name, value)| {
            (
                *name,
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs this executable as a child with `args` and parses the JSON report
/// on the last line of its standard output.
fn spawn_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .envs(ALLOCATOR_PINS)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_DEADLINE => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                // Kill, then reap: no process of ours outlives the run.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "child {args:?} overran {CHILD_DEADLINE:?} and was killed"
                ));
            }
            Err(e) => return Err(format!("cannot wait for child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("cannot read child output: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    Json::parse(last)
}

/// Folds child reports together.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn spawn_child_of(
    mode: &str,
    workload: &str,
    seed: u64,
    extra: &[(&str, String)],
) -> Result<Json, String> {
    let mut args: Vec<String> = [
        "--child",
        mode,
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ]
    .map(String::from)
    .to_vec();
    for (flag, value) in extra {
        args.push(flag.to_string());
        args.push(value.clone());
    }
    spawn_child(&args).map_err(|message| format!("[{workload}] {mode}: {message}"))
}

impl Tally {
    /// Adds a child's own counts; a child lost whole counts as one failed op.
    fn count(&mut self, report: Option<Json>) -> Option<Json> {
        match &report {
            Some(report) => {
                self.attempted += report
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64;
                self.failed += report.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            }
            None => {
                self.attempted += 1;
                self.failed += 1;
            }
        }
        report
    }

    /// Runs one child and counts it.
    fn child(
        &mut self,
        mode: &str,
        workload: &str,
        seed: u64,
        extra: &[(&str, String)],
    ) -> Option<Json> {
        let report = spawn_child_of(mode, workload, seed, extra)
            .map_err(|message| eprintln!("child lost: {message}"));
        self.count(report.ok())
    }
}

fn samples(report: &Json, key: &str) -> Vec<f64> {
    report
        .get(key)
        .and_then(Json::as_arr)
        .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect())
}

/// `--trace 0`: the end-to-end metrics, from untraced modes only.
pub fn run_end_to_end(workload: &str, plan: &Plan) -> RunResult {
    let mut tally = Tally::default();
    let setup_seconds = if plan.setup_rounds {
        plan.seconds * SETUP_SHARE / plan.processes as f64
    } else {
        0.0
    };
    let mut wall_args = plan.rounds_args(p_wall(), WALL_SHARE, plan.processes);
    wall_args.push(("--setup-seconds", setup_seconds.to_string()));
    let mut serial_args = plan.rounds_args(1, SERIAL_SHARE, plan.processes);
    serial_args.push(("--setup-seconds", "0".to_string()));
    let (mut wall, mut setup, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    // wall, serial, wall, serial, …: interleaved, so a slow phase of the
    // host spreads over both modes instead of taking one of them whole.
    for process in 0..plan.processes {
        // Each process starts its ranks one core further on (`pin.rs`).
        let first_core = ("--first-core", process.to_string());
        wall_args.push(first_core.clone());
        serial_args.push(first_core);
        if let Some(report) = tally.child("wall", workload, plan.seed, &wall_args) {
            wall.extend(samples(&report, "wall_s"));
            setup.extend(samples(&report, "setup_s"));
        }
        if let Some(report) = tally.child("serial", workload, plan.seed, &serial_args) {
            serial.extend(samples(&report, "wall_s"));
        }
        wall_args.pop();
        serial_args.pop();
    }
    // The low decile of each pooled sample, not its median: see `low_decile`.
    let values = [low_decile(&wall), low_decile(&serial), low_decile(&setup)];
    // An end-to-end metric is never 0: a 0 here means a mode produced no
    // sample, which the failure count must show.
    if values.iter().any(|v| *v <= 0.0) && tally.failed == 0 {
        tally.failed = 1;
    }
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
    }
}

/// The layer probes, which do not depend on the workload.
pub fn run_probes(plan: &Plan) -> Option<Json> {
    let scale = plan.seconds / f64::from(RUN_SECONDS);
    let args = [
        ("--p", p_wall().to_string()),
        ("--scale", scale.to_string()),
    ];
    // Probes take no workload; the flag is there because every child has it.
    match spawn_child_of("probes", catalog::WORKLOADS[0].name, plan.seed, &args) {
        Ok(report) => Some(report),
        Err(message) => {
            eprintln!("probes child lost: {message}");
            None
        }
    }
}

/// `--trace 1`: the per-layer metrics — a traced run of the workload, its
/// modeled run, and the layer probes (`probes`, or a fresh run of them).
pub fn run_per_layer(workload: &str, plan: &Plan, probes: Option<&Json>) -> RunResult {
    let mut tally = Tally::default();
    let trace_path = format!("{}/trace_{workload}.json", out_dir());
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("cannot create {}: {e}", out_dir());
    }
    let mut traced_args = plan.rounds_args(p_wall(), TRACED_SHARE, 1);
    traced_args.push(("--trace-path", trace_path));
    // Peak memory is read from a short untraced process of its own: one
    // round of the minimum number of reps, no span buffers.
    let memory_args = [
        ("--p", p_wall().to_string()),
        ("--rounds", "1".into()),
        ("--round-seconds", "0".into()),
        ("--setup-seconds", "0".into()),
    ];
    let probes = probes.cloned().or_else(|| run_probes(plan));
    let reports = [
        tally.child("traced", workload, plan.seed, &traced_args),
        tally.child("wall", workload, plan.seed, &memory_args),
        tally.child("modeled", workload, plan.seed, &[]),
        tally.count(probes),
    ];

    let wall = reports[0]
        .as_ref()
        .map_or_else(Vec::new, |r| samples(r, "wall_s"));
    let mut found: Vec<(String, f64)> = vec![
        ("bench.samples".into(), wall.len() as f64),
        ("bench.wall_iqr_frac".into(), iqr_frac(&wall)),
        // With too few samples for a tail percentile the median stands in.
        (
            "bench.wall_hi_s".into(),
            high_percentile(&wall).map_or(median(&wall), |(v, _)| v),
        ),
    ];
    for report in reports.iter().flatten() {
        for (name, value) in report.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            found.push((name.clone(), value.as_f64().unwrap_or(f64::NAN)));
        }
    }
    // A metric that does not apply to this workload reads 0; only a lost
    // child leaves metrics missing, and that is already a failed op.
    let mut metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                found
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(0.0, |(_, v)| *v),
            )
        })
        .collect();
    for (name, _) in found
        .iter()
        .filter(|(n, _)| !PER_LAYER.iter().any(|m| m.name == n))
    {
        eprintln!("[{workload}] a child reported {name}, which the catalogue does not list");
        tally.failed += 1;
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    metrics
        .iter_mut()
        .find(|(n, _)| *n == "bench.failed_frac")
        .expect("in catalogue")
        .1 = failed_frac;
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn first_line(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken: recorded with every result file, since
/// every wall number depends on it.
pub fn environment(seed: u64, isa_tier: &str) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("l3_cache", Json::str(l3)),
        ("p_wall", Json::Num(p_wall() as f64)),
        ("p_modeled", Json::Num(crate::modes::P_MODELED as f64)),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("isa_tier", Json::str(isa_tier)),
    ])
}

/// One full set: every workload, both trace modes.
pub struct Set {
    /// `(workload, end-to-end run, per-layer run)`.
    pub runs: Vec<(&'static str, RunResult, RunResult)>,
}

pub fn run_set(plan: &Plan) -> Set {
    // One probe run serves the whole set: the probes are the same for
    // every workload.
    let probes = run_probes(plan);
    let runs = catalog::WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("── {} ──", w.name);
            (
                w.name,
                run_end_to_end(w.name, plan),
                run_per_layer(w.name, plan, probes.as_ref()),
            )
        })
        .collect();
    Set { runs }
}

impl Set {
    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|(_, a, b)| a.failed + b.failed).sum()
    }

    /// Every metric by name, with its unit, per workload.
    pub fn print(&self) {
        for (workload, end_to_end, per_layer) in &self.runs {
            println!("\n{workload}");
            for (name, value) in &end_to_end.metrics {
                println!("  {name:<52} {value:>22} {}", end_to_end_unit(name));
            }
            let attempted = end_to_end.attempted + per_layer.attempted;
            let failed = end_to_end.failed + per_layer.failed;
            println!(
                "  {:<52} {:>22} frac  ({failed} of {attempted} ops)",
                "failed_frac",
                failed as f64 / attempted.max(1) as f64
            );
            for (name, value) in &per_layer.metrics {
                println!("  {name:<52} {value:>22} {}", per_layer_unit(name));
            }
        }
    }

    pub fn to_json(&self, env: Json, plan: &Plan) -> Json {
        let runs = self.runs.iter().map(|(workload, end_to_end, per_layer)| {
            (
                *workload,
                Json::obj([
                    ("end_to_end", end_to_end.to_json(end_to_end_unit)),
                    ("per_layer", per_layer.to_json(per_layer_unit)),
                ]),
            )
        });
        Json::obj([
            ("env", env),
            ("run_seconds", Json::Num(plan.seconds)),
            ("workloads", Json::obj(runs)),
        ])
    }
}
