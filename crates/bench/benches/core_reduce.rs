//! BENCH-CORE (reductions): wall-clock throughput of the built-in and
//! user-defined operators through the sequential and shared-memory
//! engines, and — `reduce/accum_kernels` — of the accumulate phase alone
//! per operator: the forced per-element loop, the operator's own
//! `accum_block` dispatch, and the derived `kernel::accum_runs`, for the
//! operators that opted into it and the ones that measured below the bar
//! (`kernel_microbench` records the same pairs as a table).

use gv_testkit::bench::{black_box, Bench, BenchmarkId, Throughput};
use gv_testkit::{bench_group, bench_main};

use gv_core::op::{accumulate_block, accumulate_block_scalar, ReduceScanOp};
use gv_core::ops::builtin::sum;
use gv_core::ops::kadane::MaxSubarray;
use gv_core::ops::mink::MinK;
use gv_core::ops::minloc::MinI;
use gv_core::ops::minmax::MinMax;
use gv_core::ops::runs::LongestRun;
use gv_core::ops::sorted::Sorted;
use gv_core::ops::stats::MeanVar;
use gv_core::ops::topk::TopBottomK;
use gv_core::{par, seq};
use gv_executor::Pool;

fn data_i64(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 2654435761) % 1_000_003).collect()
}

fn bench_builtin_sum(c: &mut Bench) {
    let mut group = c.benchmark_group("reduce/sum_i64");
    for &n in &[1_000usize, 100_000] {
        let data = data_i64(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("seq", n), &data, |b, d| {
            b.iter(|| seq::reduce(&sum::<i64>(), black_box(d)))
        });
        let pool = Pool::with_default_parallelism();
        group.bench_with_input(BenchmarkId::new("par_8chunks", n), &data, |b, d| {
            b.iter(|| par::reduce(&pool, 8, &sum::<i64>(), black_box(d)))
        });
    }
    group.finish();
}

fn bench_user_ops(c: &mut Bench) {
    let mut group = c.benchmark_group("reduce/user_ops");
    let n = 100_000usize;
    let data = data_i64(n);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("mink_k10", |b| {
        b.iter(|| seq::reduce(&MinK::<i64>::new(10), black_box(&data)))
    });
    group.bench_function("sorted", |b| {
        b.iter(|| seq::reduce(&Sorted::<i64>::new(), black_box(&data)))
    });
    let floats: Vec<f64> = data.iter().map(|&x| x as f64 / 7.0).collect();
    group.bench_function("meanvar", |b| {
        b.iter(|| seq::reduce(&MeanVar, black_box(&floats)))
    });
    let pairs: Vec<(f64, u64)> = floats.iter().copied().zip(0u64..).collect();
    group.bench_function("top_bottom_k10", |b| {
        b.iter(|| seq::reduce(&TopBottomK::<f64, u64>::new(10), black_box(&pairs)))
    });
    group.finish();
}

/// Three rows for one operator's accumulate phase over `data`: `scalar`
/// (forced per-element loop), `dispatch` (whatever its `accum_block` does)
/// and `runs` (the derived kernel, whether or not the operator opted in).
fn accum_rows<Op: ReduceScanOp>(
    group: &mut gv_testkit::bench::Group<'_>,
    name: &str,
    op: &Op,
    data: &[Op::In],
) {
    group.bench_function(format!("{name}/scalar"), |b| {
        b.iter(|| {
            let mut s = op.ident();
            accumulate_block_scalar(op, &mut s, black_box(data));
            s
        })
    });
    group.bench_function(format!("{name}/dispatch"), |b| {
        b.iter(|| {
            let mut s = op.ident();
            accumulate_block(op, &mut s, black_box(data));
            s
        })
    });
    group.bench_function(format!("{name}/runs"), |b| {
        b.iter(|| {
            let mut s = op.ident();
            gv_bench::accumulate_through_runs(op, &mut s, black_box(data));
            s
        })
    });
}

fn bench_accum_kernels(c: &mut Bench) {
    let mut group = c.benchmark_group("reduce/accum_kernels");
    let n = 100_000usize;
    let ints = data_i64(n);
    let floats: Vec<f64> = ints.iter().map(|&x| x as f64 / 7.0).collect();
    let pairs: Vec<(i64, u64)> = ints.iter().copied().zip(0u64..).collect();
    group.throughput(Throughput::Elements(n as u64));
    // Hand kernels.
    accum_rows(&mut group, "meanvar", &MeanVar, &floats);
    accum_rows(&mut group, "mink_k10", &MinK::<i64>::new(10), &ints);
    // Opted into `accum_runs`.
    accum_rows(&mut group, "minmax_f64", &MinMax::<f64>::new(), &floats);
    accum_rows(&mut group, "minmax_i64", &MinMax::<i64>::new(), &ints);
    // Tried and rejected: `dispatch` is their scalar loop.
    accum_rows(&mut group, "mini_i64", &MinI::<i64, u64>::new(), &pairs);
    accum_rows(&mut group, "max_subarray", &MaxSubarray, &ints);
    accum_rows(&mut group, "longest_run", &LongestRun::<i64>::new(), &ints);
    accum_rows(&mut group, "sorted", &Sorted::<i64>::new(), &ints);
    group.finish();
}

fn bench_mink_k_sweep(c: &mut Bench) {
    // The combine cost grows with k while accumulate stays ~O(1) amortized
    // — the asymmetry §3 calls out.
    let mut group = c.benchmark_group("reduce/mink_k_sweep");
    let data = data_i64(50_000);
    for &k in &[1usize, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| seq::reduce(&MinK::<i64>::new(k), black_box(&data)))
        });
    }
    group.finish();
}

fn configured() -> Bench {
    Bench::new().sample_size(10)
}

bench_group! {
    name = benches;
    config = configured();
    targets = bench_builtin_sum, bench_user_ops, bench_accum_kernels, bench_mink_k_sweep
}
bench_main!(benches);
