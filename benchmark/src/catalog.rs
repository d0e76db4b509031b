//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is this table rendered by
//! `--emit-contract`; a unit test pins the two against each other.

use crate::json::Json;
use crate::stats::Better;
use Better::{Higher, Lower};

/// Seconds one driver run measures for (`run_seconds` in the contract).
pub const RUN_SECONDS: u32 = 15;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "is_sort",
        why: "NAS IS class A sort+rank+verify (paper 4.1): bandwidth-heavy alltoallv of keys plus the Sorted reduction",
    },
    WorkloadInfo {
        name: "mg_zran3",
        why: "NAS MG ZRAN3 at 128^3 (paper Fig. 3): one streamed TopBottomK reduction, the per-element path that bypasses the block kernels",
    },
    WorkloadInfo {
        name: "cg_solve",
        why: "32 CG solves at n=1024: 129 eight-byte allreduces and 64 halo exchanges per solve, so per-call latency dominates",
    },
    WorkloadInfo {
        name: "local_heavy",
        why: "six builtin/user reductions and scans over 8 Mi elements with one tiny collective each: kernels and engines do the work, transport is bypassed",
    },
    WorkloadInfo {
        name: "large_state",
        why: "1 MiB Counts/BucketRank states through blocking splittable reductions and scans: segment schedules, split/unsplit, packet pool",
    },
    WorkloadInfo {
        name: "overlap",
        why: "50 x 8 concurrent 64 KiB ireduce_all: the large_state schedules driven through Request and the progress engine instead of blocking calls",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_serial_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric a `--trace 1` run prints, for every workload
/// (a metric that does not apply to a workload reads 0 there).
pub const PER_LAYER: [PerLayer; 83] = [
    // End to end, but not boundable under the driver's contract (README,
    // "What moved out of the end-to-end list"): the modeled clock repeats
    // exactly, and peak memory of `is_sort` wanders by ±12 %.
    pl("modeled_s", "model_s", Lower),
    pl("modeled_serial_s", "model_s", Lower),
    pl("peak_rss_mib", "MiB", Lower),
    // core.kernel
    pl("core.kernel.fold_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.kernel.fold_min_f64.elem_per_s", "1/s", Higher),
    pl("core.kernel.scan_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.kernel.scan_min_f64.elem_per_s", "1/s", Higher),
    pl(
        "core.kernel.combine_elementwise_u64.elem_per_s",
        "1/s",
        Higher,
    ),
    pl("core.kernel.count_into.elem_per_s", "1/s", Higher),
    pl("core.kernel.blocks_kernel", "count", Higher),
    pl("core.kernel.blocks_scalar", "count", Lower),
    // core.seq / core.par / core.op
    pl("core.seq.reduce_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.seq.scan_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.seq.reduce_meanvar.elem_per_s", "1/s", Higher),
    pl("core.seq.reduce_iter_topbottomk.elem_per_s", "1/s", Higher),
    pl("core.par.reduce_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.par.scan_sum_i64.elem_per_s", "1/s", Higher),
    pl("core.op.accumulate_s", "s", Lower),
    pl("core.op.rescan_s", "s", Lower),
    // executor
    pl("executor.lane.pingpong_ns", "ns", Lower),
    pl("executor.lane.stream_msgs_per_s", "1/s", Higher),
    pl("executor.pool.scope_ns", "ns", Lower),
    // msgpass.runtime
    pl("msgpass.runtime.spawn_us", "us", Lower),
    // msgpass.comm
    pl("msgpass.comm.pingpong_8B_us", "us", Lower),
    pl("msgpass.comm.pingpong_64KiB_us", "us", Lower),
    pl("msgpass.comm.alpha_us", "us", Lower),
    pl("msgpass.comm.beta_ns_per_byte", "ns/B", Lower),
    pl("msgpass.comm.msgs", "count", Lower),
    pl("msgpass.comm.bytes", "B", Lower),
    pl("msgpass.comm.eager_sends", "count", Lower),
    pl("msgpass.comm.queued_sends", "count", Lower),
    pl("msgpass.comm.parks", "count", Lower),
    pl("msgpass.comm.stash_recvs", "count", Lower),
    pl("msgpass.comm.pool_hits", "count", Higher),
    pl("msgpass.comm.pool_misses", "count", Lower),
    // msgpass.request
    pl("msgpass.request.blocking_8B_us", "us", Lower),
    pl("msgpass.request.nonblocking_8B_us", "us", Lower),
    pl("msgpass.request.blocking_64KiB_us", "us", Lower),
    pl("msgpass.request.nonblocking_64KiB_us", "us", Lower),
    pl("msgpass.request.overlap_speedup_wall", "x", Higher),
    pl("msgpass.request.overlap_speedup_modeled", "x", Higher),
    pl("msgpass.request.modeled_spread", "frac", Lower),
    pl("msgpass.request.started", "count", Lower),
    // msgpass.collectives
    pl("msgpass.collectives.allreduce_8B_us", "us", Lower),
    pl(
        "msgpass.collectives.allreduce_8B_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.allreduce_64KiB_us", "us", Lower),
    pl(
        "msgpass.collectives.allreduce_64KiB_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.allreduce_1MiB_us", "us", Lower),
    pl(
        "msgpass.collectives.allreduce_1MiB_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.scan_8B_us", "us", Lower),
    pl("msgpass.collectives.scan_8B_modeled_us", "model_us", Lower),
    pl("msgpass.collectives.scan_1MiB_us", "us", Lower),
    pl(
        "msgpass.collectives.scan_1MiB_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.bcast_1MiB_us", "us", Lower),
    pl(
        "msgpass.collectives.bcast_1MiB_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.alltoallv_is_us", "us", Lower),
    pl(
        "msgpass.collectives.alltoallv_is_modeled_us",
        "model_us",
        Lower,
    ),
    pl("msgpass.collectives.barrier_us", "us", Lower),
    pl("msgpass.collectives.barrier_modeled_us", "model_us", Lower),
    pl("msgpass.collectives.calls", "count", Lower),
    pl("msgpass.collectives.combine_s", "s", Lower),
    // rsmpi
    pl("rsmpi.reduce_all_overhead_ns", "ns", Lower),
    pl("rsmpi.scan_overhead_ns", "ns", Lower),
    pl("rsmpi.overhead_s", "s", Lower),
    // nas
    pl("nas.is.sort_s", "s", Lower),
    pl("nas.is.key_ranks_s", "s", Lower),
    pl("nas.is.verify_s", "s", Lower),
    pl("nas.mg.fill_s", "s", Lower),
    pl("nas.mg.extrema_s", "s", Lower),
    pl("nas.mg.charges_s", "s", Lower),
    pl("nas.cg.dot_s", "s", Lower),
    pl("nas.cg.matvec_s", "s", Lower),
    pl("nas.cg.axpy_s", "s", Lower),
    pl("nas.modeled_speedup_p16", "x", Higher),
    pl("nas.is.mpi_over_rsmpi_modeled", "x", Higher),
    pl("nas.mg.mpi_over_rsmpi_modeled", "x", Higher),
    // bench: the measurement itself
    pl("bench.wall_hi_s", "s", Lower),
    pl("bench.samples", "count", Higher),
    pl("bench.wall_iqr_frac", "frac", Lower),
    pl("bench.trace_overhead", "x", Lower),
    pl("bench.trace_coverage", "frac", Higher),
    pl("bench.traced_wall_s", "s", Lower),
    pl("bench.failed_frac", "frac", Lower),
];

/// The contract's rule for names: starts with a letter or digit, then at
/// most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's rule for units: 1 to 16 letters, digits, `_ / % . -`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

pub fn workload_known(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn contract() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validator_follows_the_contract() {
        for good in [
            "wall_s",
            "msgpass.comm.pingpong_64KiB_us",
            "a",
            "9lives",
            "x-y.z_0",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/inside",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["s", "1/s", "ns/B", "MiB", "model_us", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "a b", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(contract().to_pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is generated (`run.sh --emit-contract`), never
    /// edited: if this fails, regenerate it.
    #[test]
    fn committed_contract_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), contract());
    }
}
