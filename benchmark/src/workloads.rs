//! The six workloads. Each builds a sequential oracle once per process
//! (NAS inputs are fixed by the NPB stream, synthetic inputs come from
//! `--seed`), and every rep's output is checked against it.
//!
//! Problem sizes are global and fixed, so `serial` (p = 1), `wall`
//! (p = P_WALL) and `modeled` (p = 16) solve the same problem and their
//! exact results can be compared through one p-invariant digest.

use crate::api::{self, Comm, ScanKind};

/// What one rank found when it checked one rep's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Everything this rank can judge on its own was right.
    pub ok: bool,
    /// This rank's share of the rep's exact results, hashed with their
    /// global positions. The wrapping sum over ranks must equal
    /// [`Workload::oracle_digest`] whatever p is — which also proves the
    /// ranks' blocks tile the global result exactly once.
    pub digest: u64,
    /// Hash of this rank's floating-point results, bit for bit. They regroup
    /// with p, so they stay out of `digest`; at a fixed p the whole-call
    /// and the parts form of a rep must still agree on every bit.
    pub float_bits: u64,
}

pub trait Workload: Sync {
    const NAME: &'static str;
    /// Per-rank state built by program-side set-up (counted in `setup_s`).
    type Input;
    type Output;

    /// Generates the inputs from `seed` and builds the sequential oracle.
    fn new(seed: u64) -> Self;
    fn oracle_digest(&self) -> u64;
    fn setup(&self, comm: &Comm) -> Self::Input;
    /// One rep through the program's whole calls.
    fn rep(&self, comm: &Comm, input: &mut Self::Input) -> Self::Output;
    /// The same rep through the public parts of those calls, in spans.
    fn rep_parts(&self, comm: &Comm, input: &mut Self::Input) -> Self::Output;
    fn check(&self, comm: &Comm, input: &Self::Input, out: &Self::Output) -> Check;

    /// Whether `rep_parts` spans the three parts of each `gv_rsmpi` call,
    /// so that "whole call minus its parts" is defined.
    const RSMPI_PARTS: bool = false;
    /// Whether a rep keeps several requests in flight. The progress
    /// engine's poll order then follows physical arrival, and the modeled
    /// clock is no longer bit-deterministic (README, "Determinism").
    const REQUESTS_IN_FLIGHT: bool = false;

    /// Per-layer metric fed by [`Self::modeled_pair`], if any.
    const RATIO_METRIC: Option<&'static str> = None;
    /// Modeled-clock cost on this rank of the reference MPI-style phase and
    /// of its RSMPI form (the paper's figures plot their ratio).
    fn modeled_pair(
        &self,
        _comm: &Comm,
        _input: &mut Self::Input,
        _out: &Self::Output,
    ) -> Option<(f64, f64)> {
        None
    }
}

/// splitmix64's finalizer over two words: a position-salted hash whose
/// wrapping sum is order-free, so ranks can hash their blocks separately.
fn mix(value: u64, position: u64) -> u64 {
    let mut z =
        value.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ position.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of `values` sitting at global positions `offset..`, under a
/// per-result `salt` that keeps one workload's results apart.
fn digest_at<T: Copy>(salt: u64, offset: u64, values: &[T], bits: impl Fn(T) -> u64) -> u64 {
    values.iter().zip(offset..).fold(0u64, |acc, (v, pos)| {
        acc.wrapping_add(mix(bits(*v), (salt << 56) | pos))
    })
}

/// Digest of a result every rank holds a copy of: rank 0 contributes it.
fn replicated(comm: &Comm, digest: u64) -> u64 {
    if api::rank(comm) == 0 {
        digest
    } else {
        0
    }
}

fn my_block<'a, T>(comm: &Comm, global: &'a [T]) -> &'a [T] {
    &global[api::block_range(global.len(), api::rank(comm), api::size(comm))]
}

fn my_offset(comm: &Comm, global_len: usize) -> u64 {
    api::block_range(global_len, api::rank(comm), api::size(comm)).start as u64
}

// ───────────────────────────── is_sort ─────────────────────────────

/// NAS IS class A: 2²³ keys in 0..2¹⁹. One rep = distributed sort + key
/// ranks + the `Sorted` verification reduction.
pub struct IsSort {
    /// `starts[k]` = number of keys smaller than `k`: the globally sorted
    /// sequence, run-length encoded (a sequential counting sort).
    starts: Vec<u64>,
    digest: u64,
}

impl Workload for IsSort {
    const NAME: &'static str = "is_sort";
    type Input = api::IsKeys;
    type Output = api::IsOutput;

    fn new(_seed: u64) -> Self {
        let buckets = api::is_max_key() as usize;
        let mut starts = vec![0u64; buckets + 1];
        for key in api::is_keys_serial() {
            starts[key as usize + 1] += 1;
        }
        for k in 0..buckets {
            starts[k + 1] += starts[k];
        }
        assert_eq!(starts[buckets], api::is_total_keys() as u64);
        let digest = (0..buckets).fold(0u64, |acc, k| {
            (starts[k]..starts[k + 1]).fold(acc, |acc, pos| acc.wrapping_add(mix(k as u64, pos)))
        });
        IsSort { starts, digest }
    }

    fn oracle_digest(&self) -> u64 {
        self.digest
    }

    fn setup(&self, comm: &Comm) -> Self::Input {
        api::is_keys(comm)
    }

    fn rep(&self, comm: &Comm, keys: &mut Self::Input) -> Self::Output {
        api::is_rep(comm, keys)
    }

    // The IS phases are spanned inside `is_rep`; there is no finer public
    // decomposition of the sort.
    fn rep_parts(&self, comm: &Comm, keys: &mut Self::Input) -> Self::Output {
        api::is_rep(comm, keys)
    }

    fn check(&self, _comm: &Comm, _keys: &Self::Input, out: &Self::Output) -> Check {
        let total = *self.starts.last().expect("non-empty");
        let first = out.global_offset;
        let mut ok = out.verified
            && first + out.keys.len() as u64 <= total
            && out.ranks.len() == out.keys.len()
            && out
                .ranks
                .iter()
                .zip(first..)
                .all(|(rank, pos)| *rank == pos);
        if ok {
            // Walk the oracle's run-length form alongside the block.
            let mut k = self
                .starts
                .partition_point(|&s| s <= first)
                .saturating_sub(1);
            for (key, pos) in out.keys.iter().zip(first..) {
                while self.starts[k + 1] <= pos {
                    k += 1;
                }
                ok &= *key as usize == k;
            }
        }
        Check {
            ok,
            digest: digest_at(0, first, &out.keys, u64::from),
            float_bits: 0,
        }
    }

    const RATIO_METRIC: Option<&'static str> = Some("nas.is.mpi_over_rsmpi_modeled");

    fn modeled_pair(
        &self,
        comm: &Comm,
        _keys: &mut Self::Input,
        out: &Self::Output,
    ) -> Option<(f64, f64)> {
        Some(api::is_verify_modeled_pair(comm, out))
    }
}

// ───────────────────────────── mg_zran3 ─────────────────────────────

/// NAS MG ZRAN3 on the class C/8 grid (128³), k = 10. One rep = 4 ZRAN3.
pub struct MgZran3 {
    extrema: api::Extrema,
    digest: u64,
}

const ZRAN3_PER_REP: usize = 4;

fn extrema_digest(e: &api::Extrema) -> u64 {
    let pairs = |salt: u64, side: &[(f64, u64)]| {
        side.iter().zip(0u64..).fold(0u64, |acc, ((v, pos), i)| {
            acc.wrapping_add(mix(v.to_bits() ^ pos.rotate_left(32), (salt << 56) | i))
        })
    };
    pairs(1, &e.largest).wrapping_add(pairs(2, &e.smallest))
}

/// +1 at the largest cells, −1 at the smallest: what ZRAN3 leaves behind.
fn charges(e: &api::Extrema) -> impl Iterator<Item = (u64, f64)> + '_ {
    e.largest
        .iter()
        .map(|(_, pos)| (*pos, 1.0))
        .chain(e.smallest.iter().map(|(_, pos)| (*pos, -1.0)))
}

fn charges_digest(cells: impl Iterator<Item = (u64, f64)>) -> u64 {
    cells.fold(0u64, |acc, (pos, v)| {
        acc.wrapping_add(mix(v.to_bits(), (3 << 56) | pos))
    })
}

impl Workload for MgZran3 {
    const NAME: &'static str = "mg_zran3";
    type Input = api::MgSlab;
    type Output = Vec<api::Extrema>;

    fn new(_seed: u64) -> Self {
        // An independent selection over the sequential NPB stream: keep
        // the ten best of each side in a sorted list; a later equal value
        // never displaces an earlier one (ties go to the smaller index).
        const K: usize = 10;
        let mut largest: Vec<(f64, u64)> = Vec::with_capacity(K + 1);
        let mut smallest: Vec<(f64, u64)> = Vec::with_capacity(K + 1);
        for (i, v) in api::mg_field_serial().into_iter().enumerate() {
            if largest.len() < K || v > largest[K - 1].0 {
                let at = largest.partition_point(|(w, _)| *w >= v);
                largest.insert(at, (v, i as u64));
                largest.truncate(K);
            }
            if smallest.len() < K || v < smallest[K - 1].0 {
                let at = smallest.partition_point(|(w, _)| *w <= v);
                smallest.insert(at, (v, i as u64));
                smallest.truncate(K);
            }
        }
        let extrema = api::Extrema { largest, smallest };
        let digest = extrema_digest(&extrema).wrapping_add(charges_digest(charges(&extrema)));
        MgZran3 { extrema, digest }
    }

    fn oracle_digest(&self) -> u64 {
        self.digest
    }

    fn setup(&self, comm: &Comm) -> Self::Input {
        api::mg_slab(comm)
    }

    fn rep(&self, comm: &Comm, slab: &mut Self::Input) -> Self::Output {
        (0..ZRAN3_PER_REP)
            .map(|_| api::mg_zran3(comm, slab))
            .collect()
    }

    fn rep_parts(&self, comm: &Comm, slab: &mut Self::Input) -> Self::Output {
        (0..ZRAN3_PER_REP)
            .map(|_| api::mg_zran3_parts(comm, slab))
            .collect()
    }

    fn check(&self, comm: &Comm, slab: &Self::Input, out: &Self::Output) -> Check {
        let cells = slab.nonzero_cells();
        let ok = out.len() == ZRAN3_PER_REP
            && out.iter().all(|e| *e == self.extrema)
            && cells
                .iter()
                .all(|cell| charges(&self.extrema).any(|c| c == *cell));
        let digest = replicated(comm, extrema_digest(&out[0]))
            .wrapping_add(charges_digest(cells.into_iter()));
        Check {
            ok,
            digest,
            float_bits: 0,
        }
    }

    const RATIO_METRIC: Option<&'static str> = Some("nas.mg.mpi_over_rsmpi_modeled");

    fn modeled_pair(
        &self,
        comm: &Comm,
        slab: &mut Self::Input,
        _out: &Self::Output,
    ) -> Option<(f64, f64)> {
        Some(api::mg_zran3_modeled_pair(comm, slab))
    }
}

// ───────────────────────────── cg_solve ─────────────────────────────

/// 32 CG solves of the 1-D Poisson system at n = 1024, 64 iterations each:
/// 512 doubles per rank at p = 2, so the 129 allreduces and 64 halo
/// exchanges per solve outweigh the vector work.
pub struct CgSolve {
    /// `(‖b‖, ‖r₆₄‖)` of a plain sequential CG on the same system.
    reference: (f64, f64),
}

const CG_N: usize = 1024;
const CG_ITERATIONS: usize = 64;
const CG_SOLVES_PER_REP: usize = 32;
/// Distributed and sequential CG differ only by the rounding of their dot
/// products; the residual after 64 iterations may differ by this share.
const CG_RESIDUAL_TOLERANCE: f64 = 1e-3;

/// `y = A·x` for `A = tridiag(−1, 2, −1)` with Dirichlet ends.
fn poisson_matvec(x: &[f64], y: &mut [f64]) {
    let n = x.len();
    for i in 0..n {
        let left = if i == 0 { 0.0 } else { x[i - 1] };
        let right = if i + 1 == n { 0.0 } else { x[i + 1] };
        y[i] = 2.0 * x[i] - left - right;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Workload for CgSolve {
    const NAME: &'static str = "cg_solve";
    type Input = api::CgProblem;
    type Output = Vec<api::CgOutcome>;

    fn new(_seed: u64) -> Self {
        let x_star: Vec<f64> = (0..CG_N).map(api::cg_x_star).collect();
        let mut b = vec![0.0; CG_N];
        poisson_matvec(&x_star, &mut b);
        let (mut x, mut r, mut ap) = (vec![0.0; CG_N], b.clone(), vec![0.0; CG_N]);
        let mut p = r.clone();
        let mut rho = dot(&r, &r);
        let initial = rho.sqrt();
        for _ in 0..CG_ITERATIONS {
            poisson_matvec(&p, &mut ap);
            let alpha = rho / dot(&p, &ap);
            for i in 0..CG_N {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            let rho_next = dot(&r, &r);
            let beta = rho_next / rho;
            rho = rho_next;
            for i in 0..CG_N {
                p[i] = r[i] + beta * p[i];
            }
        }
        CgSolve {
            reference: (initial, rho.sqrt()),
        }
    }

    fn oracle_digest(&self) -> u64 {
        // CG is floating point all the way: the only result that is exact
        // across rank counts is the iteration count.
        mix(CG_ITERATIONS as u64, 0)
    }

    fn setup(&self, comm: &Comm) -> Self::Input {
        api::cg_problem(comm, CG_N, CG_ITERATIONS)
    }

    fn rep(&self, comm: &Comm, problem: &mut Self::Input) -> Self::Output {
        (0..CG_SOLVES_PER_REP)
            .map(|_| api::cg_solve(comm, problem))
            .collect()
    }

    fn rep_parts(&self, comm: &Comm, problem: &mut Self::Input) -> Self::Output {
        (0..CG_SOLVES_PER_REP)
            .map(|_| api::cg_solve_parts(comm, problem))
            .collect()
    }

    fn check(&self, comm: &Comm, _problem: &Self::Input, out: &Self::Output) -> Check {
        let (initial, residual) = self.reference;
        let close =
            |got: f64, want: f64, tolerance: f64| (got - want).abs() <= tolerance * want.abs();
        let first = out[0];
        let ok = out.len() == CG_SOLVES_PER_REP
            // At a fixed p every solve repeats bit for bit.
            && out.iter().all(|o| *o == first)
            && first.iterations == CG_ITERATIONS
            && close(first.initial_residual, initial, 1e-12)
            && close(first.residual, residual, CG_RESIDUAL_TOLERANCE)
            // The known solution is not reached in 64 of 1024 iterations;
            // the error bound only guards against a diverging solve.
            && first.max_error.is_finite()
            && first.max_error <= 4.0;
        let float_bits = [first.residual, first.initial_residual, first.max_error]
            .iter()
            .fold(0u64, |acc, v| mix(v.to_bits(), acc));
        Check {
            ok,
            digest: replicated(comm, mix(first.iterations as u64, 0)),
            float_bits,
        }
    }
}

// ───────────────────────────── local_heavy ─────────────────────────────

/// Six global-view calls over 8 Mi elements (4 Mi per rank at p = 2), each
/// making one tiny collective: the block kernels and the sequential
/// engine do nearly all the work.
pub struct LocalHeavy {
    floats: Vec<f64>,
    ints: Vec<i64>,
    sum_f: f64,
    min_i: i64,
    moments: (u64, f64, f64),
    mink: Vec<i64>,
    digest: u64,
}

const LOCAL_ELEMENTS: usize = 1 << 23;
const MINK_K: usize = 10;

#[derive(Debug, PartialEq)]
pub struct LocalOutput {
    sum_f: f64,
    min_i: i64,
    scan_sum: Vec<i64>,
    scan_min: Vec<f64>,
    moments: (u64, f64, f64),
    mink: Vec<i64>,
}

fn local_exact_digest(min_i: i64, mink: &[i64]) -> u64 {
    mix(min_i as u64, 4 << 56).wrapping_add(digest_at(5, 0, mink, |v| v as u64))
}

impl LocalHeavy {
    fn run(&self, comm: &Comm, calls: &impl api::GlobalView) -> LocalOutput {
        let floats = my_block(comm, &self.floats);
        let ints = my_block(comm, &self.ints);
        LocalOutput {
            sum_f: calls.reduce_all(comm, &api::sum::<f64>(), floats),
            min_i: calls.reduce_all(comm, &api::min::<i64>(), ints),
            scan_sum: calls.scan(comm, &api::sum::<i64>(), ints, ScanKind::Inclusive),
            scan_min: calls.scan(comm, &api::min::<f64>(), floats, ScanKind::Exclusive),
            moments: api::moments_parts(&calls.reduce_all(comm, &api::MeanVar, floats)),
            mink: calls.reduce_all(comm, &api::MinK::<i64>::new(MINK_K), ints),
        }
    }
}

impl Workload for LocalHeavy {
    const NAME: &'static str = "local_heavy";
    const RSMPI_PARTS: bool = true;
    type Input = ();
    type Output = LocalOutput;

    fn new(seed: u64) -> Self {
        let mut rng = api::TestRng::new(seed);
        let floats: Vec<f64> = (0..LOCAL_ELEMENTS).map(|_| rng.f64_in(-1.0..1.0)).collect();
        let ints: Vec<i64> = (0..LOCAL_ELEMENTS)
            .map(|_| rng.i64_in(-(1 << 30)..1 << 30))
            .collect();
        let scan_sum = api::seq_scan(&api::sum::<i64>(), &ints, ScanKind::Inclusive);
        let scan_min = api::seq_scan(&api::min::<f64>(), &floats, ScanKind::Exclusive);
        let min_i = api::seq_reduce(&api::min::<i64>(), &ints);
        let mink = api::seq_reduce(&api::MinK::<i64>::new(MINK_K), &ints);
        let digest = digest_at(6, 0, &scan_sum, |v| v as u64)
            .wrapping_add(digest_at(7, 0, &scan_min, f64::to_bits))
            .wrapping_add(local_exact_digest(min_i, &mink));
        LocalHeavy {
            sum_f: api::seq_reduce(&api::sum::<f64>(), &floats),
            moments: api::moments_parts(&api::seq_reduce(&api::MeanVar, &floats)),
            floats,
            ints,
            min_i,
            mink,
            digest,
        }
    }

    fn oracle_digest(&self) -> u64 {
        self.digest
    }

    fn setup(&self, _comm: &Comm) -> Self::Input {}

    fn rep(&self, comm: &Comm, _: &mut ()) -> LocalOutput {
        self.run(comm, &api::Whole)
    }

    fn rep_parts(&self, comm: &Comm, _: &mut ()) -> LocalOutput {
        self.run(comm, &api::Parts)
    }

    fn check(&self, comm: &Comm, _: &(), out: &LocalOutput) -> Check {
        // Float sums regroup with p; everything else here is exact.
        let near = |got: f64, want: f64| (got - want).abs() <= 1e-6;
        let ok = near(out.sum_f, self.sum_f)
            && out.min_i == self.min_i
            && out.mink == self.mink
            && out.moments.0 == self.moments.0
            && near(out.moments.1, self.moments.1)
            && near(out.moments.2, self.moments.2);
        let offset = my_offset(comm, LOCAL_ELEMENTS);
        let digest = digest_at(6, offset, &out.scan_sum, |v| v as u64)
            .wrapping_add(digest_at(7, offset, &out.scan_min, f64::to_bits))
            .wrapping_add(replicated(comm, local_exact_digest(out.min_i, &out.mink)));
        let float_bits = [out.sum_f, out.moments.1, out.moments.2]
            .iter()
            .fold(0u64, |acc, v| mix(v.to_bits(), acc));
        Check {
            ok,
            digest,
            float_bits,
        }
    }
}

// ───────────────────────────── large_state ─────────────────────────────

/// 1 MiB operator states (131072 `u64` buckets) over 8192 inputs: the
/// splittable and whole-state reductions and the splittable scan, twice.
pub struct LargeState {
    inputs: Vec<usize>,
    counts: Vec<u64>,
    digest: u64,
}

const LARGE_BUCKETS: usize = 131_072;
const LARGE_INPUTS: usize = 8192;
const LARGE_CALLS_PER_REP: usize = 2;

/// `(splittable reduce, whole-state reduce, exclusive bucket ranks)`.
type LargeCall = (Vec<u64>, Vec<u64>, Vec<u64>);

fn counts_digest(salt: u64, counts: &[u64]) -> u64 {
    digest_at(salt, 0, counts, |v| v)
}

impl LargeState {
    fn run(&self, comm: &Comm, calls: &impl api::GlobalView) -> Vec<LargeCall> {
        let local = my_block(comm, &self.inputs);
        let counts = api::Counts::new(LARGE_BUCKETS);
        let ranks = api::BucketRank::new(LARGE_BUCKETS);
        (0..LARGE_CALLS_PER_REP)
            .map(|_| {
                (
                    calls.reduce_all_splittable(comm, &counts, local),
                    calls.reduce_all(comm, &counts, local),
                    calls.scan_splittable(comm, &ranks, local, ScanKind::Exclusive),
                )
            })
            .collect()
    }
}

impl Workload for LargeState {
    const NAME: &'static str = "large_state";
    const RSMPI_PARTS: bool = true;
    type Input = ();
    type Output = Vec<LargeCall>;

    fn new(seed: u64) -> Self {
        let mut rng = api::TestRng::new(seed);
        let inputs: Vec<usize> = (0..LARGE_INPUTS)
            .map(|_| rng.usize_in(0..LARGE_BUCKETS))
            .collect();
        let counts = api::seq_reduce(&api::Counts::new(LARGE_BUCKETS), &inputs);
        let ranks = api::seq_scan(
            &api::BucketRank::new(LARGE_BUCKETS),
            &inputs,
            ScanKind::Exclusive,
        );
        let per_call = counts_digest(8, &counts)
            .wrapping_add(counts_digest(9, &counts))
            .wrapping_add(digest_at(10, 0, &ranks, |v| v));
        LargeState {
            inputs,
            counts,
            digest: per_call.wrapping_mul(LARGE_CALLS_PER_REP as u64),
        }
    }

    fn oracle_digest(&self) -> u64 {
        self.digest
    }

    fn setup(&self, _comm: &Comm) -> Self::Input {}

    fn rep(&self, comm: &Comm, _: &mut ()) -> Self::Output {
        self.run(comm, &api::Whole)
    }

    fn rep_parts(&self, comm: &Comm, _: &mut ()) -> Self::Output {
        self.run(comm, &api::Parts)
    }

    fn check(&self, comm: &Comm, _: &(), out: &Self::Output) -> Check {
        let ok = out.len() == LARGE_CALLS_PER_REP
            && out
                .iter()
                .all(|(split, whole, _)| *split == self.counts && *whole == self.counts);
        let offset = my_offset(comm, LARGE_INPUTS);
        let digest = out.iter().fold(0u64, |acc, (split, whole, ranks)| {
            acc.wrapping_add(replicated(
                comm,
                counts_digest(8, split).wrapping_add(counts_digest(9, whole)),
            ))
            .wrapping_add(digest_at(10, offset, ranks, |v| v))
        });
        Check {
            ok,
            digest,
            float_bits: 0,
        }
    }
}

// ───────────────────────────── overlap ─────────────────────────────

/// 50 rounds of 8 concurrent non-blocking 64 KiB `Counts` reductions: the
/// `large_state` schedules, driven through `Request` and the progress
/// engine instead of blocking calls.
pub struct Overlap {
    inputs: Vec<Vec<usize>>,
    counts: Vec<Vec<u64>>,
    digest: u64,
}

const OVERLAP_BUCKETS: usize = 8192;
const OVERLAP_BATCH: usize = 8;
const OVERLAP_INPUTS: usize = 2048;
const OVERLAP_ROUNDS_PER_REP: usize = 50;

fn batch_digest(results: &[Vec<u64>]) -> u64 {
    results
        .iter()
        .zip(11u64..)
        .fold(0u64, |acc, (counts, salt)| {
            acc.wrapping_add(counts_digest(salt, counts))
        })
}

impl Overlap {
    /// Every round's results are taken, only the last round's are kept.
    fn run(&self, comm: &Comm, calls: &impl api::GlobalView) -> Vec<Vec<u64>> {
        let locals: Vec<&[usize]> = self
            .inputs
            .iter()
            .map(|global| my_block(comm, global))
            .collect();
        let op = api::Counts::new(OVERLAP_BUCKETS);
        let mut last = Vec::new();
        for _ in 0..OVERLAP_ROUNDS_PER_REP {
            last = calls.ireduce_all_batch(comm, op, &locals);
        }
        last
    }
}

impl Workload for Overlap {
    const NAME: &'static str = "overlap";
    const RSMPI_PARTS: bool = true;
    const REQUESTS_IN_FLIGHT: bool = true;
    type Input = ();
    type Output = Vec<Vec<u64>>;

    fn new(seed: u64) -> Self {
        let mut rng = api::TestRng::new(seed);
        let inputs: Vec<Vec<usize>> = (0..OVERLAP_BATCH)
            .map(|_| {
                (0..OVERLAP_INPUTS)
                    .map(|_| rng.usize_in(0..OVERLAP_BUCKETS))
                    .collect()
            })
            .collect();
        let op = api::Counts::new(OVERLAP_BUCKETS);
        let counts: Vec<Vec<u64>> = inputs
            .iter()
            .map(|global| api::seq_reduce(&op, global))
            .collect();
        let digest = batch_digest(&counts);
        Overlap {
            inputs,
            counts,
            digest,
        }
    }

    fn oracle_digest(&self) -> u64 {
        self.digest
    }

    fn setup(&self, _comm: &Comm) -> Self::Input {}

    fn rep(&self, comm: &Comm, _: &mut ()) -> Self::Output {
        self.run(comm, &api::Whole)
    }

    fn rep_parts(&self, comm: &Comm, _: &mut ()) -> Self::Output {
        self.run(comm, &api::Parts)
    }

    fn check(&self, comm: &Comm, _: &(), out: &Self::Output) -> Check {
        Check {
            ok: *out == self.counts,
            digest: replicated(comm, batch_digest(out)),
            float_bits: 0,
        }
    }
}

/// Runs `$body` with `$W` bound to the workload type called `$name`.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "is_sort" => {
                type $W = $crate::workloads::IsSort;
                $body
            }
            "mg_zran3" => {
                type $W = $crate::workloads::MgZran3;
                $body
            }
            "cg_solve" => {
                type $W = $crate::workloads::CgSolve;
                $body
            }
            "local_heavy" => {
                type $W = $crate::workloads::LocalHeavy;
                $body
            }
            "large_state" => {
                type $W = $crate::workloads::LargeState;
                $body
            }
            "overlap" => {
                type $W = $crate::workloads::Overlap;
                $body
            }
            other => panic!("unknown workload {other}"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_invariant_under_how_blocks_tile_the_sequence() {
        let values: Vec<u64> = (0..1000).map(|i| i * i + 7).collect();
        let whole = digest_at(3, 0, &values, |v| v);
        for cut in [0, 1, 333, 999, 1000] {
            let (a, b) = values.split_at(cut);
            let split = digest_at(3, 0, a, |v| v).wrapping_add(digest_at(3, cut as u64, b, |v| v));
            assert_eq!(split, whole, "cut at {cut}");
        }
        // …and it sees a swap, a gap, and a different salt.
        let mut swapped = values.clone();
        swapped.swap(10, 11);
        assert_ne!(digest_at(3, 0, &swapped, |v| v), whole);
        assert_ne!(digest_at(3, 0, &values[..999], |v| v), whole);
        assert_ne!(digest_at(4, 0, &values, |v| v), whole);
    }

    /// Each workload, end to end at small rank counts: the whole-call and
    /// the parts form agree with each other and with the oracle, and the
    /// digests sum to the oracle's whatever p is.
    fn agrees_with_its_oracle<W: Workload>(seed: u64) {
        let w = W::new(seed);
        for p in [1, 2, 3] {
            let run = api::run_ranks(p, |comm| {
                let mut input = w.setup(comm);
                let whole = w.rep(comm, &mut input);
                let check = w.check(comm, &input, &whole);
                let parts = w.rep_parts(comm, &mut input);
                (check, w.check(comm, &input, &parts) == check)
            })
            .expect("run completes");
            assert!(
                run.results.iter().all(|(check, same)| check.ok && *same),
                "{} p={p}",
                W::NAME
            );
            let digest = run
                .results
                .iter()
                .fold(0u64, |acc, (check, _)| acc.wrapping_add(check.digest));
            assert_eq!(digest, w.oracle_digest(), "{} p={p}", W::NAME);
        }
    }

    #[test]
    fn cg_solve_agrees_with_its_oracle() {
        agrees_with_its_oracle::<CgSolve>(1);
    }

    #[test]
    fn large_state_agrees_with_its_oracle() {
        agrees_with_its_oracle::<LargeState>(2);
    }

    #[test]
    fn overlap_agrees_with_its_oracle() {
        agrees_with_its_oracle::<Overlap>(3);
    }

    #[test]
    fn mg_zran3_agrees_with_its_oracle() {
        agrees_with_its_oracle::<MgZran3>(4);
    }
}
