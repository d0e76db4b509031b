//! Guards for the recorded figure outputs in `results/`: the harnesses
//! must reproduce them bit-for-bit under the default cost-driven
//! selectors. This is what makes schedule additions (new allreduce or
//! scan algorithms) safe — if a selector default ever moves a pinned
//! call site off its recorded schedule, the modeled times or call counts
//! change and these tests fail.
//!
//! The full FIG2 sweep is expensive unoptimized, so its guard replays
//! only the class A/32 section and checks those rows verbatim against
//! the recording; so do the allreduce and scan ablations, at the rank
//! counts that run quickly (the scan ablation only for its modeled
//! TXT-PREFIX table: the schedule sweep after it is wall time). The
//! selector-tuning rows are checked but for their last, host-measured
//! column. FIG3, the call-stats table and the schedule audit are cheap
//! enough to compare whole.
//!
//! And a guard on what the segmented chain may claim at all: on a link
//! that carries one message at a time, segmenting a state overlaps the
//! hops of a path, never the bytes on a link, so the chain cannot be
//! faster than its whole-state run by more than the hops that run pays
//! per byte.

use std::path::{Path, PathBuf};
use std::process::Command;

use gv_core::split::{split_vec_segments, unsplit_vec_segments};
use gv_msgpass::{AllreduceAlgorithm, CostModel, FaultPlan, Runtime, ScanAlgorithm};

fn recorded(name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("GV_BENCH_QUICK")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Checks that every data row of `got` (rows start with a right-aligned
/// rank count) appears verbatim in the recording `name`, and returns how
/// many rows it checked.
fn rows_in_recording(got: &str, name: &str) -> usize {
    rows_in_recording_by(got, name, |row| row)
}

/// [`rows_in_recording`], comparing only the part `key` keeps of a row.
fn rows_in_recording_by(got: &str, name: &str, key: fn(&str) -> &str) -> usize {
    let recording = recorded(name);
    let mut checked = 0;
    for line in got.lines() {
        if line.trim_start().starts_with(|c: char| c.is_ascii_digit()) {
            assert!(
                recording.lines().any(|l| key(l) == key(line)),
                "row not in results/{name}:\n{line}"
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn mpi_call_stats_recording_is_bit_identical() {
    let got = run(env!("CARGO_BIN_EXE_mpi_call_stats"), &[]);
    assert_eq!(
        got,
        recorded("mpi_call_stats.txt"),
        "mpi_call_stats output drifted from results/mpi_call_stats.txt — \
         a selector default moved a pinned call site"
    );
}

#[test]
fn fig3_recording_is_bit_identical() {
    let got = run(env!("CARGO_BIN_EXE_fig3_mg_zran3"), &[]);
    assert_eq!(
        got,
        recorded("fig3_mg_zran3.txt"),
        "fig3_mg_zran3 output drifted from results/fig3_mg_zran3.txt"
    );
}

#[test]
fn schedule_audit_recording_is_bit_identical() {
    let got = run(env!("CARGO_BIN_EXE_schedule_audit"), &[]);
    assert_eq!(
        got,
        recorded("schedule_audit.txt"),
        "schedule_audit output drifted from results/schedule_audit.txt — \
         an end-to-end run or a benchmark call changed schedule"
    );
}

#[test]
fn ablation_aggregation_recording_is_bit_identical() {
    let got = run(env!("CARGO_BIN_EXE_ablation_aggregation"), &[]);
    assert_eq!(
        got,
        recorded("ablation_aggregation.txt"),
        "ablation_aggregation output drifted from results/ablation_aggregation.txt — \
         an aggregated allreduce's messages or modeled clock moved"
    );
}

#[test]
fn disabled_fault_machinery_leaves_runs_bit_identical() {
    // The chaos/watchdog machinery must be provably inert when disabled:
    // a run configured with an *empty* fault plan and a (never-firing)
    // watchdog produces exactly the modeled clocks, message counts, and
    // byte totals of the plain default run. This is the guard that lets
    // the recorded figures stay pinned while the fault subsystem exists —
    // injection is opt-in, never ambient.
    let workload = |comm: &gv_msgpass::Comm| {
        let wire = |v: &Vec<u64>| v.len() * 8;
        let add = |mut a: Vec<u64>, b: Vec<u64>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        };
        for elems in [1usize, 8 << 10] {
            let state = vec![comm.rank() as u64 + 1; elems];
            comm.allreduce_splittable(
                state.clone(),
                true,
                split_vec_segments,
                unsplit_vec_segments,
                wire,
                add,
            );
            let plan = ScanAlgorithm::select(&comm.cost_model(), comm.size(), wire(&state), true);
            let segmentation = (split_vec_segments, unsplit_vec_segments);
            comm.scan_both_by(plan, state, segmentation, wire, add);
        }
        comm.now()
    };
    let plain = Runtime::new(6)
        .no_watchdog()
        .run(move |comm| workload(comm));
    let guarded = Runtime::new(6)
        .fault_plan(FaultPlan::default())
        .watchdog(std::time::Duration::from_secs(60))
        .run(move |comm| workload(comm));

    assert_eq!(plain.results, guarded.results, "modeled clocks drifted");
    assert_eq!(plain.stats.messages, guarded.stats.messages);
    assert_eq!(plain.stats.bytes, guarded.stats.bytes);
    assert!(
        guarded.faults.is_quiet(),
        "an empty plan injected something"
    );
}

#[test]
fn the_selector_keeps_the_recorded_call_sites() {
    // At the small states the FIG2/FIG3/call-stats workloads use the
    // selector must keep choosing the recorded schedules (only large
    // commutative splittable states go to the reduce-scatter).
    let cost = CostModel::cluster_2006();
    for (bytes, commutative, want) in [
        (8usize, true, AllreduceAlgorithm::RecursiveDoubling),
        (64 << 10, true, AllreduceAlgorithm::ReduceScatterAllgather),
        (8 << 10, false, AllreduceAlgorithm::RecursiveDoubling),
    ] {
        assert_eq!(
            AllreduceAlgorithm::select(&cost, 6, bytes, commutative, true),
            want,
            "selector moved a recorded call site at {bytes} B"
        );
    }
}

#[test]
fn fig2_class_a_rows_match_the_recording() {
    let got = run(env!("CARGO_BIN_EXE_fig2_is_verify"), &["--classes", "A/32"]);
    let checked = rows_in_recording(&got, "fig2_is_verify.txt");
    assert!(
        checked >= 7,
        "expected a full procs sweep, saw {checked} rows"
    );
}

#[test]
fn allreduce_ablation_rows_match_the_recording() {
    // Every schedule forced through `allreduce_by`, four sizes per p.
    let got = run(
        env!("CARGO_BIN_EXE_ablation_allreduce_algorithm"),
        &["--procs", "2,4,8,16"],
    );
    let checked = rows_in_recording(&got, "ablation_allreduce_algorithm.txt");
    assert_eq!(checked, 4 * 4, "expected four sizes at four rank counts");
}

#[test]
fn scan_ablation_prefix_rows_match_the_recording() {
    // The linear chain is the chain forced through `scan_both_by` at one
    // segment; the table after TXT-PREFIX is wall time and not compared.
    let got = run(
        env!("CARGO_BIN_EXE_ablation_scan_algorithm"),
        &["--procs", "2,4,8,16", "--sizes", "8"],
    );
    let (prefix, _) = got
        .split_once("Scan schedule ablation")
        .expect("the wall-time table follows TXT-PREFIX");
    let checked = rows_in_recording(prefix, "ablation_scan_algorithm.txt");
    assert_eq!(checked, 4, "expected one TXT-PREFIX row per rank count");
}

#[test]
fn selector_tuning_rows_match_the_recording_but_for_the_measured_column() {
    // The last column is `select` on a model measured on the host clock,
    // so it is the one column a replay may differ in; every modeled time,
    // the fixed pick and the verdict are the recording's.
    let name = "ablation_selector_tuning.txt";
    let got = run(env!("CARGO_BIN_EXE_ablation_selector_tuning"), &[]);
    let checked = rows_in_recording_by(&got, name, |row| {
        row.rsplit_once(" | ").map_or(row, |(modeled, _)| modeled)
    });
    assert_eq!(checked, 5 * 4, "expected four sizes at five rank counts");
    let verdict = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("VERDICT"))
            .map(str::to_owned)
    };
    let recorded_verdict = verdict(&recorded(name));
    assert!(
        recorded_verdict.is_some(),
        "no VERDICT line in results/{name}"
    );
    assert_eq!(verdict(&got), recorded_verdict);
}

#[test]
fn the_chain_pipeline_never_beats_the_hops_its_whole_state_run_pays() {
    // The segmented chain is not in a modeled recording, so it is run
    // here: at the chooser's S against S = 1, which pays p − 1 hops per
    // byte.
    let cost = CostModel::cluster_2006();
    let wire = |v: &Vec<u64>| v.len() * 8;
    let add = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    for p in [2usize, 4, 8] {
        for bytes in [64usize << 10, 256 << 10] {
            let scan = |segments: usize| {
                Runtime::new(p)
                    .run(move |comm| {
                        let plan = (ScanAlgorithm::PipelinedChain, segments);
                        let state = vec![1u64; bytes / 8];
                        let segmentation = (split_vec_segments, unsplit_vec_segments);
                        comm.scan_both_by(plan, state, segmentation, wire, add);
                    })
                    .modeled_seconds
            };
            let s = ScanAlgorithm::chain_segments(&cost, p, bytes);
            let (whole, segmented) = (scan(1), scan(s));
            assert!(
                whole <= (p - 1) as f64 * segmented * (1.0 + 1e-12),
                "p={p} {bytes} B: the chain at S={s} is {:.2}× its S = 1 run",
                whole / segmented
            );
        }
    }
}
