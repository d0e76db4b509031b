//! Randomized-interleaving properties for the request-based collectives.
//!
//! A random "plan" — process count, a list of collective kinds, and a
//! seed for per-rank completion orders — is executed twice: once with
//! blocking calls (the oracle) and once by issuing every collective as a
//! request up front, then completing the requests in a *per-rank
//! shuffled* order through a random mix of [`Request::wait`],
//! [`Request::test`] polling loops, and one batched
//! [`wait_all`](gv_msgpass::wait_all). The properties:
//!
//! * **oracle agreement**: every request resolves to exactly the value
//!   the blocking collective produces, whatever order ranks harvest
//!   completions in (the per-request stamps are all distinct, so a
//!   schedule that cross-matched traffic between in-flight requests
//!   would produce a visibly wrong vector, not a coincidental match);
//! * **non-overtaking**: requests of the *same* kind issued back to back
//!   and waited in reverse order still deliver their own results — the
//!   per-collective tag salt keeps round `n` of request `i+1` from
//!   satisfying round `n` of request `i`.
//!
//! Failures shrink to a minimal plan and report a `GV_TESTKIT_SEED` for
//! exact replay (see gv-testkit docs).

use gv_msgpass::{wait_all, Comm, Request, Runtime};
use gv_testkit::prop::{check, Config, Strategy};
use gv_testkit::rng::TestRng;

/// The collective kinds under test. All resolve to `Vec<u64>` so one
/// request vector can hold an arbitrary mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Commutative elementwise sum (recursive doubling or reduce+bcast).
    SumAllreduce,
    /// Non-commutative concatenation — result is rank order, so any
    /// reordering inside the schedule is visible.
    ConcatAllreduce,
    ScanInclusive,
    ScanExclusive,
}

const KINDS: [Kind; 4] = [
    Kind::SumAllreduce,
    Kind::ConcatAllreduce,
    Kind::ScanInclusive,
    Kind::ScanExclusive,
];

/// Rank `r`'s contribution to request `i`: distinct across both axes so
/// cross-matched traffic cannot produce a correct-looking result.
fn stamp(rank: usize, i: usize) -> u64 {
    (rank as u64) * 1009 + (i as u64) * 7 + 1
}

// The collectives take `Fn(&S) -> usize` with `S = Vec<u64>`.
#[allow(clippy::ptr_arg)]
fn wire(v: &Vec<u64>) -> usize {
    v.len() * 8
}

fn concat(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    a.extend(b);
    a
}

fn sum(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// The sum-allreduce state length varies per request so the sweep mixes
/// wire sizes (and hence algorithm selections) within one plan.
fn sum_len(i: usize) -> usize {
    i % 3 + 1
}

fn issue(comm: &Comm, kind: Kind, i: usize) -> Request<Vec<u64>> {
    let r = comm.rank();
    match kind {
        Kind::SumAllreduce => comm.iallreduce(vec![stamp(r, i); sum_len(i)], true, wire, sum),
        Kind::ConcatAllreduce => comm.iallreduce(vec![stamp(r, i)], false, wire, concat),
        Kind::ScanInclusive => comm.iscan_inclusive(vec![stamp(r, i)], wire, concat),
        Kind::ScanExclusive => comm.iscan_exclusive(vec![stamp(r, i)], Vec::new, wire, concat),
    }
}

fn blocking(comm: &Comm, kind: Kind, i: usize) -> Vec<u64> {
    let r = comm.rank();
    match kind {
        Kind::SumAllreduce => comm.allreduce(vec![stamp(r, i); sum_len(i)], true, wire, sum),
        Kind::ConcatAllreduce => comm.allreduce(vec![stamp(r, i)], false, wire, concat),
        Kind::ScanInclusive => comm.scan_inclusive(vec![stamp(r, i)], wire, concat),
        Kind::ScanExclusive => comm.scan_exclusive(vec![stamp(r, i)], Vec::new, wire, concat),
    }
}

/// One randomly generated mixed-collective exchange.
#[derive(Clone, Debug)]
struct Plan {
    p: usize,
    kinds: Vec<Kind>,
    /// Seeds the per-rank completion order and wait/test/batch choice —
    /// each rank derives its own stream, so ranks harvest completions in
    /// genuinely different orders within one run.
    order_seed: u64,
}

struct PlanStrategy;

impl Strategy for PlanStrategy {
    type Value = Plan;

    fn generate(&self, rng: &mut TestRng) -> Plan {
        let p = rng.usize_in(2..9);
        let k = rng.usize_in(1..7);
        let kinds = (0..k).map(|_| KINDS[rng.usize_in(0..KINDS.len())]).collect();
        Plan {
            p,
            kinds,
            order_seed: rng.next_u64(),
        }
    }

    fn shrink(&self, value: &Plan) -> Vec<Plan> {
        let mut candidates = Vec::new();
        if value.kinds.len() > 1 {
            let mut plan = value.clone();
            plan.kinds.pop();
            candidates.push(plan);
        }
        if value.p > 2 {
            let mut plan = value.clone();
            plan.p -= 1;
            candidates.push(plan);
        }
        candidates
    }
}

/// Runs the plan, blocking or via requests, and returns each rank's
/// per-request results (indexed by issue order). Panics inside rank
/// closures are converted to `Err` so the shrinker can keep going.
fn run_case(plan: &Plan, nonblocking: bool) -> Result<Vec<Vec<Vec<u64>>>, String> {
    let plan = plan.clone();
    let outcome = std::panic::catch_unwind(move || {
        Runtime::new(plan.p).run(|comm| {
            let k = plan.kinds.len();
            if !nonblocking {
                return (0..k).map(|i| blocking(comm, plan.kinds[i], i)).collect::<Vec<_>>();
            }
            // Issue everything up front, then complete in a per-rank
            // shuffled order via a random mix of mechanisms.
            let mut reqs: Vec<Option<Request<Vec<u64>>>> =
                (0..k).map(|i| Some(issue(comm, plan.kinds[i], i))).collect();
            let mut rng = TestRng::new(
                plan.order_seed ^ (comm.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut order: Vec<usize> = (0..k).collect();
            for i in (1..k).rev() {
                order.swap(i, rng.usize_in(0..i + 1));
            }
            let mut results: Vec<Option<Vec<u64>>> = vec![None; k];
            let mut batch: Vec<(usize, Request<Vec<u64>>)> = Vec::new();
            for &i in &order {
                let mut req = reqs[i].take().expect("issued exactly once");
                match rng.usize_in(0..3) {
                    0 => results[i] = Some(req.wait().expect("transport alive")),
                    1 => loop {
                        // A test() poll loop: each call sweeps the
                        // engine, so every in-flight schedule advances
                        // while this one is being watched.
                        if let Some(out) = req.test().expect("transport alive") {
                            results[i] = Some(out);
                            break;
                        }
                    },
                    _ => batch.push((i, req)),
                }
            }
            let (ids, mut deferred): (Vec<usize>, Vec<Request<Vec<u64>>>) =
                batch.into_iter().unzip();
            let outs = wait_all(&mut deferred).expect("transport alive");
            for (i, out) in ids.into_iter().zip(outs) {
                results[i] = Some(out);
            }
            results
                .into_iter()
                .map(|r| r.expect("every request completed"))
                .collect::<Vec<_>>()
        })
    });
    match outcome {
        Ok(out) => Ok(out.results),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("rank panicked: {msg}"))
        }
    }
}

#[test]
fn shuffled_request_completions_match_the_blocking_oracle() {
    let config = Config::new(24);
    check(
        "shuffled_request_completions_match_the_blocking_oracle",
        &config,
        &PlanStrategy,
        |plan| {
            let oracle = run_case(plan, false)?;
            let nonblocking = run_case(plan, true)?;
            for r in 0..plan.p {
                for (i, (got, want)) in nonblocking[r].iter().zip(&oracle[r]).enumerate() {
                    if got != want {
                        return Err(format!(
                            "rank {r}, request {i} ({:?}): requests returned {got:?}, \
                             blocking oracle returned {want:?}",
                            plan.kinds[i]
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// A strategy over `(p, k, kind)` for the reverse-wait property: `k`
/// requests of one kind, waited last-issued-first.
struct ReversePlanStrategy;

impl Strategy for ReversePlanStrategy {
    type Value = (usize, usize, u8);

    fn generate(&self, rng: &mut TestRng) -> (usize, usize, u8) {
        (
            rng.usize_in(2..9),
            rng.usize_in(2..7),
            rng.usize_in(0..KINDS.len()) as u8,
        )
    }

    fn shrink(&self, &(p, k, kind): &(usize, usize, u8)) -> Vec<(usize, usize, u8)> {
        let mut candidates = Vec::new();
        if k > 2 {
            candidates.push((p, k - 1, kind));
        }
        if p > 2 {
            candidates.push((p - 1, k, kind));
        }
        candidates
    }
}

#[test]
fn reverse_order_waits_preserve_non_overtaking() {
    let config = Config::new(16);
    check(
        "reverse_order_waits_preserve_non_overtaking",
        &config,
        &ReversePlanStrategy,
        |&(p, k, kind)| {
            let kind = KINDS[kind as usize];
            let plan = Plan {
                p,
                kinds: vec![kind; k],
                order_seed: 0,
            };
            let oracle = run_case(&plan, false)?;
            let outcome = std::panic::catch_unwind(|| {
                Runtime::new(p).run(|comm| {
                    let mut reqs: Vec<Request<Vec<u64>>> =
                        (0..k).map(|i| issue(comm, kind, i)).collect();
                    // Harvest strictly last-issued-first: if round n of
                    // request i+1 could satisfy round n of request i,
                    // this order would surface the mismatch.
                    let mut results = vec![Vec::new(); k];
                    for i in (0..k).rev() {
                        results[i] = reqs[i].wait().expect("transport alive");
                    }
                    results
                })
            });
            let results = match outcome {
                Ok(out) => out.results,
                Err(_) => return Err("rank panicked during reverse-order waits".to_string()),
            };
            for r in 0..p {
                if results[r] != oracle[r] {
                    return Err(format!(
                        "rank {r} ({kind:?} × {k}): reverse-order waits returned \
                         {:?}, blocking oracle returned {:?}",
                        results[r], oracle[r]
                    ));
                }
            }
            Ok(())
        },
    );
}
