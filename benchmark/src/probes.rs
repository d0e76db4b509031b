//! Layer probes: one number per tier a call passes through, each timed
//! from outside through `api.rs`. They do not depend on the workload; a
//! traced run re-measures them so every result file carries the layer
//! numbers of the same minutes on the same host.
//!
//! Wall probes run single-process at p ≤ P_WALL. `_modeled_us` probes run
//! at p = 16 and read only the virtual clock.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{self, Comm, ScanKind};
use crate::json::Json;
use crate::modes::P_MODELED;
use crate::stats::median;

/// Elements of the kernel and engine probes (32 MiB of 8-byte values).
const ELEMENTS: usize = 1 << 22;

/// Independent allreduces of the overlap probe (the NB-OVERLAP cell).
const OVERLAP_K: usize = 8;
const KIB64_WORDS: usize = 8192;
const MIB1_WORDS: usize = 131_072;

/// Median seconds per call of `f`: at least 5 calls, then until `budget_s`.
fn per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median seconds per call of `f` over exactly `calls` calls — for SPMD
/// probes, where every rank must make the same number of calls.
fn per_call_fixed(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

type Metrics = Vec<(String, f64)>;

/// Uses `value` as far as the optimizer can tell, then drops it.
fn sink<T>(value: T) {
    black_box(value);
}

fn kernels_and_engines(budget_s: f64, p_wall: usize, out: &mut Metrics) {
    let mut rng = api::TestRng::new(0x6b65_726e);
    let ints: Vec<i64> = (0..ELEMENTS)
        .map(|_| rng.i64_in(-(1 << 30)..1 << 30))
        .collect();
    let floats: Vec<f64> = (0..ELEMENTS).map(|_| rng.f64_in(-1.0..1.0)).collect();
    let words: Vec<u64> = ints.iter().map(|v| *v as u64).collect();
    let buckets: Vec<usize> = (0..ELEMENTS)
        .map(|_| rng.usize_in(0..KIB64_WORDS))
        .collect();
    let mut rate = |name: &str, seconds_per_pass: f64| {
        out.push((
            format!("{name}.elem_per_s"),
            ELEMENTS as f64 / seconds_per_pass,
        ));
    };
    rate(
        "core.kernel.fold_sum_i64",
        per_call(budget_s, || {
            black_box(api::kernel_fold_sum_i64(black_box(&ints)));
        }),
    );
    rate(
        "core.kernel.fold_min_f64",
        per_call(budget_s, || {
            black_box(api::kernel_fold_min_f64(black_box(&floats)));
        }),
    );
    let mut int_out = Vec::with_capacity(ELEMENTS);
    rate(
        "core.kernel.scan_sum_i64",
        per_call(budget_s, || {
            api::kernel_scan_sum_i64(black_box(&ints), &mut int_out);
            black_box(&int_out);
        }),
    );
    let mut float_out = Vec::with_capacity(ELEMENTS);
    rate(
        "core.kernel.scan_min_f64",
        per_call(budget_s, || {
            api::kernel_scan_min_f64(black_box(&floats), &mut float_out);
            black_box(&float_out);
        }),
    );
    let mut acc = vec![0u64; ELEMENTS];
    rate(
        "core.kernel.combine_elementwise_u64",
        per_call(budget_s, || {
            api::kernel_combine_elementwise_u64(&mut acc, black_box(&words));
            black_box(&acc);
        }),
    );
    let mut counts = vec![0u64; KIB64_WORDS];
    rate(
        "core.kernel.count_into",
        per_call(budget_s, || {
            api::kernel_count_into(&mut counts, black_box(&buckets));
            black_box(&counts);
        }),
    );

    rate(
        "core.seq.reduce_sum_i64",
        per_call(budget_s, || {
            black_box(api::seq_reduce(&api::sum::<i64>(), black_box(&ints)));
        }),
    );
    rate(
        "core.seq.scan_sum_i64",
        per_call(budget_s, || {
            black_box(api::seq_scan(
                &api::sum::<i64>(),
                black_box(&ints),
                ScanKind::Inclusive,
            ));
        }),
    );
    rate(
        "core.seq.reduce_meanvar",
        per_call(budget_s, || {
            black_box(api::seq_reduce(&api::MeanVar, black_box(&floats)));
        }),
    );
    rate(
        "core.seq.reduce_iter_topbottomk",
        per_call(budget_s, || {
            black_box(api::seq_reduce_iter_topbottomk(black_box(&floats)));
        }),
    );
    let pool = api::Pool::new(p_wall);
    rate(
        "core.par.reduce_sum_i64",
        per_call(budget_s, || {
            black_box(api::par_reduce(
                &pool,
                p_wall,
                &api::sum::<i64>(),
                black_box(&ints),
            ));
        }),
    );
    rate(
        "core.par.scan_sum_i64",
        per_call(budget_s, || {
            black_box(api::par_scan(
                &pool,
                p_wall,
                &api::sum::<i64>(),
                black_box(&ints),
                ScanKind::Inclusive,
            ));
        }),
    );
    out.push((
        "executor.pool.scope_ns".into(),
        1e9 * per_call(budget_s, || api::pool_scope_noop(&pool)),
    ));
}

fn executor_lanes(scale: f64, out: &mut Metrics) {
    let round_trips = (20_000.0 * scale).max(1000.0) as u64;
    let per_trip: Vec<f64> = (0..3)
        .map(|_| api::lane_pingpong(round_trips) / round_trips as f64)
        .collect();
    out.push(("executor.lane.pingpong_ns".into(), 1e9 * median(&per_trip)));
    let messages = (20_000.0 * scale).max(2000.0) as u64;
    let rates: Vec<f64> = (0..3)
        .map(|_| messages as f64 / api::lane_stream(messages))
        .collect();
    out.push(("executor.lane.stream_msgs_per_s".into(), median(&rates)));
}

/// Ping-pong between ranks 0 and 1: `(8 B round trip, 64 KiB round trip)`
/// in seconds. The echo side touches every word, so the payload really
/// crosses between the two cores instead of only its pointer.
fn comm_pingpong(scale: f64) -> Result<(f64, f64), String> {
    let small_calls = (2000.0 * scale).max(100.0) as usize;
    let large_calls = (200.0 * scale).max(20.0) as usize;
    let run = api::run_ranks(2, |comm| {
        let lead = api::rank(comm) == 0;
        let small = per_call_fixed(small_calls, || {
            if lead {
                api::send_word(comm, 1, 1);
                api::recv_word(comm, 1);
            } else {
                let v = api::recv_word(comm, 0);
                api::send_word(comm, 0, v + 1);
            }
        });
        let mut payload = vec![1u64; KIB64_WORDS];
        let large = per_call_fixed(large_calls, || {
            if lead {
                api::send_words(comm, 1, std::mem::take(&mut payload));
                payload = api::recv_words(comm, 1);
            } else {
                let mut words = api::recv_words(comm, 0);
                words.iter_mut().for_each(|w| *w += 1);
                api::send_words(comm, 0, words);
            }
        });
        (small, large)
    })?;
    Ok(run.results[0])
}

fn word_payload(words: usize) -> Vec<u64> {
    vec![1; words]
}

/// The eight collectives of the catalogue, in catalogue order.
const COLLECTIVES: [&str; 8] = [
    "allreduce_8B",
    "allreduce_64KiB",
    "allreduce_1MiB",
    "scan_8B",
    "scan_1MiB",
    "bcast_1MiB",
    "alltoallv_is",
    "barrier",
];

/// Makes one call of collective `index`, timing only the call itself with
/// `clock` (inputs are built before the clock starts).
fn collective_call(comm: &Comm, index: usize, clock: &dyn Fn(&Comm) -> f64) -> f64 {
    let timed = |call: &mut dyn FnMut()| {
        let start = clock(comm);
        call();
        clock(comm) - start
    };
    match index {
        0 => timed(&mut || sink(api::allreduce_word(comm, 1))),
        1 => {
            let mut v = Some(word_payload(KIB64_WORDS));
            timed(&mut || sink(api::allreduce_words(comm, v.take().expect("one call"))))
        }
        2 => {
            let mut v = Some(word_payload(MIB1_WORDS));
            timed(&mut || {
                sink(api::allreduce_words_splittable(
                    comm,
                    v.take().expect("one call"),
                ))
            })
        }
        3 => timed(&mut || sink(api::scan_word(comm, 1))),
        4 => {
            let mut v = Some(word_payload(MIB1_WORDS));
            timed(&mut || {
                sink(api::exscan_words_splittable(
                    comm,
                    v.take().expect("one call"),
                ))
            })
        }
        5 => {
            let mut v = (api::rank(comm) == 0).then(|| word_payload(MIB1_WORDS));
            timed(&mut || sink(api::bcast_words_splittable(comm, v.take(), MIB1_WORDS)))
        }
        6 => {
            // IS class A's exchange: 2²³ keys spread evenly over p × p pairs.
            let p = api::size(comm);
            let per_pair = api::is_total_keys() / (p * p);
            let mut outgoing = Some(vec![vec![7u32; per_pair]; p]);
            timed(&mut || {
                sink(api::alltoallv_keys(
                    comm,
                    outgoing.take().expect("one call"),
                ))
            })
        }
        7 => timed(&mut || api::barrier(comm)),
        _ => unreachable!("collective index"),
    }
}

/// Calls per collective of the wall probe at scale 1.
const COLLECTIVE_CALLS: [f64; 8] = [2000.0, 200.0, 12.0, 2000.0, 12.0, 12.0, 4.0, 2000.0];

/// Everything measured inside one p = P_WALL runtime, on rank 0's clock.
fn comm_probes(scale: f64, p_wall: usize, out: &mut Metrics) -> Result<(), String> {
    let epoch = Instant::now();
    let wall = |_: &Comm| epoch.elapsed().as_secs_f64();
    let calls = |base: f64| (base * scale).max(3.0) as usize;
    let run = api::run_ranks(p_wall, |comm| {
        let mut metrics: Metrics = Vec::new();
        for (index, name) in COLLECTIVES.iter().enumerate() {
            let samples: Vec<f64> = (0..=calls(COLLECTIVE_CALLS[index]))
                .map(|_| collective_call(comm, index, &wall))
                .skip(1)
                .collect();
            metrics.push((
                format!("msgpass.collectives.{name}_us"),
                1e6 * median(&samples),
            ));
        }

        // The same schedule driven blocking and through a Request.
        let small = calls(2000.0);
        let large = calls(200.0);
        let blocking_8 = per_call_fixed(small, || sink(api::allreduce_word(comm, 1)));
        let nonblocking_8 = per_call_fixed(small, || sink(api::iallreduce_word(comm, 1).wait()));
        let blocking_64k = per_call_fixed(large, || {
            sink(api::allreduce_words(comm, word_payload(KIB64_WORDS)))
        });
        let nonblocking_64k = per_call_fixed(large, || {
            sink(api::wait_all_words(vec![api::iallreduce_words(
                comm,
                word_payload(KIB64_WORDS),
            )]))
        });
        metrics.push(("msgpass.request.blocking_8B_us".into(), 1e6 * blocking_8));
        metrics.push((
            "msgpass.request.nonblocking_8B_us".into(),
            1e6 * nonblocking_8,
        ));
        metrics.push((
            "msgpass.request.blocking_64KiB_us".into(),
            1e6 * blocking_64k,
        ));
        metrics.push((
            "msgpass.request.nonblocking_64KiB_us".into(),
            1e6 * nonblocking_64k,
        ));

        let batches = calls(40.0);
        let sequential = per_call_fixed(batches, || overlap_batch(comm, false));
        let overlapped = per_call_fixed(batches, || overlap_batch(comm, true));
        metrics.push((
            "msgpass.request.overlap_speedup_wall".into(),
            sequential / overlapped,
        ));

        // An 8-element global-view call against the raw collective it makes.
        let eight = [1i64, 2, 3, 4, 5, 6, 7, 8];
        let reduce_all = per_call_fixed(small, || {
            sink(api::reduce_all(comm, &api::sum::<i64>(), &eight))
        });
        let raw_allreduce = per_call_fixed(small, || sink(api::allreduce_word(comm, 1)));
        let scan = per_call_fixed(small, || {
            sink(api::scan(
                comm,
                &api::sum::<i64>(),
                &eight,
                ScanKind::Inclusive,
            ))
        });
        let raw_exscan = per_call_fixed(small, || sink(api::exscan_word(comm, 1)));
        metrics.push((
            "rsmpi.reduce_all_overhead_ns".into(),
            1e9 * (reduce_all - raw_allreduce),
        ));
        metrics.push(("rsmpi.scan_overhead_ns".into(), 1e9 * (scan - raw_exscan)));
        metrics
    })?;
    out.extend(run.results.into_iter().next().expect("rank 0"));
    Ok(())
}

/// `OVERLAP_K` independent 64 KiB allreduces: blocking one after another,
/// or all in flight and then one batched wait.
fn overlap_batch(comm: &Comm, overlapped: bool) {
    if overlapped {
        let requests = (0..OVERLAP_K)
            .map(|_| api::iallreduce_words(comm, word_payload(KIB64_WORDS)))
            .collect();
        sink(api::wait_all_words(requests));
    } else {
        for _ in 0..OVERLAP_K {
            sink(api::allreduce_words(comm, word_payload(KIB64_WORDS)));
        }
    }
}

/// The collectives and the overlap cell at p = 16 on the virtual clock.
fn modeled_probes(out: &mut Metrics) -> Result<(), String> {
    let run = api::run_ranks(P_MODELED, |comm| {
        let mut costs: Vec<f64> = (0..COLLECTIVES.len())
            .map(|index| {
                api::barrier(comm);
                collective_call(comm, index, &api::modeled_now)
            })
            .collect();
        for overlapped in [false, true] {
            api::barrier(comm);
            let start = api::modeled_now(comm);
            overlap_batch(comm, overlapped);
            api::barrier(comm);
            costs.push(api::modeled_now(comm) - start);
        }
        costs
    })?;
    // The modeled parallel time of a phase is the max over ranks.
    let max = |i: usize| run.results.iter().map(|costs| costs[i]).fold(0.0, f64::max);
    for (index, name) in COLLECTIVES.iter().enumerate() {
        out.push((
            format!("msgpass.collectives.{name}_modeled_us"),
            1e6 * max(index),
        ));
    }
    let (sequential, overlapped) = (max(COLLECTIVES.len()), max(COLLECTIVES.len() + 1));
    out.push((
        "msgpass.request.overlap_speedup_modeled".into(),
        sequential / overlapped,
    ));
    Ok(())
}

/// Runs every probe. `scale` is the run length as a share of the
/// contract's `run_seconds`; call counts and budgets shrink with it.
pub fn child_probes(scale: f64, p_wall: usize) -> Json {
    let budget_s = 0.06 * scale;
    let mut metrics: Metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut record = |section: &str, result: Result<(), String>| {
        attempted += 1;
        if let Err(message) = result {
            eprintln!("[probes] {section} failed: {message}");
            failed += 1;
        }
    };

    kernels_and_engines(budget_s, p_wall, &mut metrics);
    executor_lanes(scale, &mut metrics);

    let spawns: Vec<f64> = (0..(20.0 * scale).max(5.0) as usize)
        .filter_map(|_| {
            let t = Instant::now();
            api::run_ranks(p_wall, |_| ())
                .ok()
                .map(|_| t.elapsed().as_secs_f64())
        })
        .collect();
    metrics.push(("msgpass.runtime.spawn_us".into(), 1e6 * median(&spawns)));

    let pingpong = comm_pingpong(scale).map(|(small, large)| {
        // Two-point fit of one-way time = α + β·bytes.
        let (one_way_small, one_way_large) = (small / 2.0, large / 2.0);
        let beta = (one_way_large - one_way_small) / (8.0 * (KIB64_WORDS - 1) as f64);
        metrics.push(("msgpass.comm.pingpong_8B_us".into(), 1e6 * small));
        metrics.push(("msgpass.comm.pingpong_64KiB_us".into(), 1e6 * large));
        metrics.push((
            "msgpass.comm.alpha_us".into(),
            1e6 * (one_way_small - 8.0 * beta),
        ));
        metrics.push(("msgpass.comm.beta_ns_per_byte".into(), 1e9 * beta));
    });
    record("ping-pong", pingpong);
    record("comm probes", comm_probes(scale, p_wall, &mut metrics));
    record("modeled probes", modeled_probes(&mut metrics));

    Json::obj([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ])
}
