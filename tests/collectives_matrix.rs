//! Exhaustive small-`p` matrix over the message-passing collectives.
//!
//! Every rank count from 1 through 9 (covering the power-of-two,
//! one-off-a-power, and odd cases every schedule special-cases) ×
//! every collective (rooted reduce at *every* root, allreduce via the
//! cost-driven selector, by reduce+bcast, and by recursive doubling,
//! inclusive / exclusive / linear-chain scans, alltoallv) × a
//! commutative payload (u64 sum) and a non-commutative one (string
//! concatenation, which detects any out-of-rank-order combine) — all
//! checked against a sequential oracle. A second matrix runs the
//! three-way splittable selector over vector payloads, including
//! shorter-than-p vectors that force empty segments.
//!
//! A third pins the whole-state (`S = 1`) tree and chain — `bcast`,
//! `reduce`, the allreduce forced onto reduce+bcast, the scan forced onto
//! the one-segment chain — and the circulant `allgather` to the closed
//! forms of the textbook schedules for p = 1..17 and every root: message
//! and byte totals, and every rank's modeled clock.
//!
//! A final test pins down that the virtual-clock cost model and the
//! call/byte statistics are bit-for-bit deterministic across repeated
//! runs of the same workload.

use gv_msgpass::collectives::tree::whole;
use gv_msgpass::{AllreduceAlgorithm, CostModel, Runtime, ScanAlgorithm};

/// Runs one communicator through every reduction/scan-shaped collective
/// and asserts each result against the rank-order sequential oracle.
///
/// `contrib`/`combine`/`ident` are non-capturing closures (fn pointers)
/// so the whole exercise stays `Fn + Sync` for the runtime.
fn exercise_all_collectives<T>(
    p: usize,
    commutative: bool,
    contrib: fn(usize) -> T,
    combine: fn(T, T) -> T,
    ident: fn() -> T,
    wire: fn(&T) -> usize,
) where
    T: Clone + Send + PartialEq + std::fmt::Debug + 'static,
{
    Runtime::new(p).run(|comm| {
        let r = comm.rank();
        let mine = contrib(r);
        // Oracle: fold ranks lo..hi in rank order.
        let fold = |lo: usize, hi: usize| {
            let mut acc = ident();
            for rank in lo..hi {
                acc = combine(acc, contrib(rank));
            }
            acc
        };
        let total = fold(0, p);

        // Rooted reduce, at every possible root.
        for root in 0..p {
            let got = comm.reduce(root, mine.clone(), wire, combine);
            if r == root {
                assert_eq!(
                    got.as_ref(),
                    Some(&total),
                    "reduce(root={root}) at the root, p={p}, rank={r}"
                );
            } else {
                assert!(
                    got.is_none(),
                    "reduce(root={root}) off-root, p={p}, rank={r}"
                );
            }
        }

        // The selector and both named allreduce schedules deliver the
        // total everywhere, for either commutativity declaration.
        assert_eq!(
            comm.allreduce(mine.clone(), commutative, wire, combine),
            total,
            "allreduce (selector), p={p}, rank={r}, commutative={commutative}"
        );
        assert_eq!(
            comm.allreduce_by(
                AllreduceAlgorithm::ReduceBroadcast,
                mine.clone(),
                whole(),
                wire,
                combine
            ),
            total,
            "reduce+bcast, p={p}, rank={r}, commutative={commutative}"
        );
        assert_eq!(
            comm.allreduce_by(
                AllreduceAlgorithm::RecursiveDoubling,
                mine.clone(),
                whole(),
                wire,
                combine
            ),
            total,
            "recursive doubling, p={p}, rank={r}"
        );

        // Scans: rank r's inclusive prefix is ranks 0..=r, exclusive is
        // 0..r (the identity at rank 0), and the O(p) linear chain must
        // agree with the parallel-prefix schedule.
        let inclusive = comm.scan_inclusive(mine.clone(), wire, combine);
        assert_eq!(inclusive, fold(0, r + 1), "scan_inclusive, p={p}, rank={r}");
        let exclusive = comm.scan_exclusive(mine.clone(), ident, wire, combine);
        assert_eq!(exclusive, fold(0, r), "scan_exclusive, p={p}, rank={r}");
        assert_eq!(
            comm.scan_both_by(
                (ScanAlgorithm::PipelinedChain, 1),
                mine.clone(),
                whole(),
                wire,
                combine
            )
            .1,
            inclusive,
            "linear chain scan, p={p}, rank={r}"
        );
        let (exc2, inc2) = comm.scan_both(mine.clone(), wire, combine);
        assert_eq!(inc2, inclusive, "scan_both inclusive half, p={p}, rank={r}");
        assert_eq!(
            exc2.unwrap_or_else(ident),
            exclusive,
            "scan_both exclusive half, p={p}, rank={r}"
        );
    });
}

#[test]
fn commutative_collectives_match_oracle_for_p_1_through_9() {
    for p in 1..=9 {
        // Distinct per-rank values (squares), so a dropped or duplicated
        // contribution cannot cancel out.
        exercise_all_collectives::<u64>(
            p,
            true,
            |r| (r as u64 + 1) * (r as u64 + 1),
            |a, b| a + b,
            || 0,
            |_| 8,
        );
    }
}

#[test]
fn non_commutative_collectives_match_oracle_for_p_1_through_9() {
    for p in 1..=9 {
        // String concatenation: any combine applied out of rank order
        // produces a visibly different string, so this flushes out
        // schedules that silently assume commutativity.
        exercise_all_collectives::<String>(
            p,
            false,
            |r| format!("[{r}]"),
            |mut a, b| {
                a.push_str(&b);
                a
            },
            String::new,
            |s| s.len(),
        );
    }
}

#[test]
fn splittable_selector_matches_oracle_for_p_1_through_9() {
    // Vector payloads through the three-way selector: length 3 forces
    // empty segments for p > 3; length 64 gives every rank a real chunk.
    for p in 1..=9usize {
        for len in [3usize, 64] {
            for commutative in [true, false] {
                Runtime::new(p).run(move |comm| {
                    let r = comm.rank();
                    let mine: Vec<u64> = (0..len).map(|i| (r * len + i) as u64).collect();
                    let got = comm.allreduce_splittable(
                        mine,
                        commutative,
                        gv_core::split::split_vec_segments,
                        gv_core::split::unsplit_vec_segments,
                        |v: &Vec<u64>| v.len() * 8,
                        |mut a, b| {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x += y;
                            }
                            a
                        },
                    );
                    let expected: Vec<u64> = (0..len)
                        .map(|i| (0..p).map(|q| (q * len + i) as u64).sum())
                        .collect();
                    assert_eq!(got, expected, "p={p} len={len} commutative={commutative}");
                });
            }
        }
    }
}

/// The α–β clock, replayed by hand: a send charges the sender `α/2` and
/// stamps the message; a receive charges `α/2` and then waits for the
/// message's availability, `α/2 + β·bytes` after the stamp.
struct ClockModel {
    cost: CostModel,
    bytes: usize,
    clocks: Vec<f64>,
}

impl ClockModel {
    fn send(&mut self, from: usize) -> f64 {
        self.clocks[from] += self.cost.alpha / 2.0;
        self.clocks[from]
    }

    fn recv(&mut self, at: usize, sent_at: f64) {
        let available = sent_at + self.cost.alpha / 2.0 + self.cost.beta * self.bytes as f64;
        self.clocks[at] += self.cost.alpha / 2.0;
        if available > self.clocks[at] {
            self.clocks[at] = available;
        }
    }

    /// Binomial broadcast on the tree rotated to `root`: every rank, once
    /// it holds the value, sends to its children largest subtree first.
    fn bcast(&mut self, root: usize) {
        let p = self.clocks.len();
        // A child's virtual rank exceeds its parent's, so increasing
        // order visits every rank after the message reached it.
        for v in 0..p {
            let mut mask = 1;
            while mask < p && v & mask == 0 {
                mask <<= 1;
            }
            let mut m = mask >> 1;
            while m > 0 {
                if v + m < p {
                    let sent_at = self.send((v + root) % p);
                    self.recv((v + m + root) % p, sent_at);
                }
                m >>= 1;
            }
        }
    }

    /// Binomial reduce to rank 0 (children received in increasing-mask
    /// order), then one more hop to a non-zero root.
    fn reduce(&mut self, root: usize) {
        let p = self.clocks.len();
        let mut sent_at = vec![0.0; p];
        // Children have higher ranks than their parents: decreasing
        // order sees every child's send before the parent's receive.
        for r in (0..p).rev() {
            let mut mask = 1;
            while mask < p {
                if r & mask != 0 {
                    sent_at[r] = self.send(r);
                    break;
                }
                if r + mask < p {
                    self.recv(r, sent_at[r + mask]);
                }
                mask <<= 1;
            }
        }
        if root != 0 {
            let shipped = self.send(0);
            self.recv(root, shipped);
        }
    }

    /// Circulant allgather: in round `k` every rank sends the
    /// `min(2^{k+1}, p) − 2^k` values it holds first to `(r − 2^k) mod p`,
    /// then receives as many from `(r + 2^k) mod p`.
    fn allgather(&mut self) {
        let p = self.clocks.len();
        let value = self.bytes;
        let mut stride = 1;
        while stride < p {
            self.bytes = ((2 * stride).min(p) - stride) * value;
            let sent_at: Vec<f64> = (0..p).map(|r| self.send(r)).collect();
            for r in 0..p {
                self.recv(r, sent_at[(r + stride) % p]);
            }
            stride *= 2;
        }
        self.bytes = value;
    }

    /// Linear chain: wait for the predecessor's prefix, forward.
    fn chain(&mut self) {
        let p = self.clocks.len();
        let mut sent_at = 0.0;
        for r in 0..p {
            if r > 0 {
                self.recv(r, sent_at);
            }
            if r + 1 < p {
                sent_at = self.send(r);
            }
        }
    }
}

#[test]
fn whole_state_tree_and_chain_match_their_closed_forms_for_p_1_through_17() {
    // Affine maps x ↦ a·x + b under composition: associative, not
    // commutative, and a fixed 16 bytes on the wire — so byte totals and
    // clocks have closed forms while any out-of-order combine still
    // shows in the value.
    type Affine = (u64, u64);
    const BYTES: usize = 16;
    fn contrib(r: usize) -> Affine {
        (r as u64 + 2, 2 * r as u64 + 1)
    }
    fn then(f: Affine, g: Affine) -> Affine {
        (
            f.0.wrapping_mul(g.0),
            f.1.wrapping_mul(g.0).wrapping_add(g.1),
        )
    }
    let cost = CostModel::cluster_2006();
    let hop = cost.alpha + cost.beta * BYTES as f64;
    let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.max(1e-30);

    for p in 1..=17usize {
        let prefix = |hi: usize| (0..hi).map(contrib).reduce(then);
        let total = prefix(p).expect("p >= 1");
        let depth = p.next_power_of_two().trailing_zeros() as f64;
        let model = |run: &dyn Fn(&mut ClockModel)| {
            let mut model = ClockModel {
                cost,
                bytes: BYTES,
                clocks: vec![0.0; p],
            };
            run(&mut model);
            model.clocks
        };
        let edges = p as u64 - 1;

        for root in 0..p {
            // bcast: p−1 tree edges, one whole state each.
            let got = Runtime::new(p)
                .run(move |comm| comm.bcast(root, (comm.rank() == root).then(|| contrib(root))));
            assert_eq!(
                got.results,
                vec![contrib(root); p],
                "bcast p={p} root={root}"
            );
            assert_eq!(
                got.stats.messages, edges,
                "bcast messages p={p} root={root}"
            );
            assert_eq!(
                got.stats.bytes,
                edges * BYTES as u64,
                "bcast bytes p={p} root={root}"
            );
            assert_eq!(
                bits(&got.rank_clocks),
                bits(&model(&|m| m.bcast(root))),
                "bcast clocks p={p} root={root}"
            );

            // reduce: p−1 tree edges to rank 0, plus the ship to root.
            let got = Runtime::new(p)
                .run(move |comm| comm.reduce(root, contrib(comm.rank()), |_| BYTES, then));
            for (r, res) in got.results.iter().enumerate() {
                assert_eq!(
                    *res,
                    (r == root).then_some(total),
                    "reduce p={p} root={root} r={r}"
                );
            }
            let msgs = edges + u64::from(root != 0);
            assert_eq!(
                got.stats.messages, msgs,
                "reduce messages p={p} root={root}"
            );
            assert_eq!(
                got.stats.bytes,
                msgs * BYTES as u64,
                "reduce bytes p={p} root={root}"
            );
            assert_eq!(
                bits(&got.rank_clocks),
                bits(&model(&|m| m.reduce(root))),
                "reduce clocks p={p} root={root}"
            );
        }

        // reduce+bcast: the tree up to rank 0 and straight back down.
        let got = Runtime::new(p).run(|comm| {
            let plan = AllreduceAlgorithm::ReduceBroadcast;
            comm.allreduce_by(plan, contrib(comm.rank()), whole(), |_| BYTES, then)
        });
        assert_eq!(got.results, vec![total; p], "reduce+bcast p={p}");
        assert_eq!(got.stats.messages, 2 * edges, "reduce+bcast messages p={p}");
        assert_eq!(
            got.stats.bytes,
            2 * edges * BYTES as u64,
            "reduce+bcast bytes p={p}"
        );
        let rb = model(&|m| {
            m.reduce(0);
            m.bcast(0);
        });
        assert_eq!(
            bits(&got.rank_clocks),
            bits(&rb),
            "reduce+bcast clocks p={p}"
        );

        // linear scan: p−1 chain hops.
        let got = Runtime::new(p).run(|comm| {
            let plan = (ScanAlgorithm::PipelinedChain, 1);
            comm.scan_both_by(plan, contrib(comm.rank()), whole(), |_| BYTES, then)
                .1
        });
        for (r, res) in got.results.iter().enumerate() {
            assert_eq!(Some(*res), prefix(r + 1), "linear scan p={p} r={r}");
        }
        assert_eq!(got.stats.messages, edges, "linear scan messages p={p}");
        assert_eq!(
            got.stats.bytes,
            edges * BYTES as u64,
            "linear scan bytes p={p}"
        );
        let chain = model(&|m| m.chain());
        assert_eq!(
            bits(&got.rank_clocks),
            bits(&chain),
            "linear scan clocks p={p}"
        );

        // allgather: ⌈log₂p⌉ circulant rounds, every rank one message a
        // round, each rank's p−1 foreign values crossing once.
        let got = Runtime::new(p).run(|comm| comm.allgather(contrib(comm.rank()), |_| BYTES));
        let all: Vec<Affine> = (0..p).map(contrib).collect();
        assert_eq!(got.results, vec![all; p], "allgather p={p}");
        let rounds = p.next_power_of_two().trailing_zeros() as u64;
        assert_eq!(
            got.stats.messages,
            p as u64 * rounds,
            "allgather messages p={p}"
        );
        let values = (p * (p - 1) * BYTES) as u64;
        assert_eq!(got.stats.bytes, values, "allgather bytes p={p}");
        let circulant = model(&|m| m.allgather());
        assert_eq!(
            bits(&got.rank_clocks),
            bits(&circulant),
            "allgather clocks p={p}"
        );

        // The critical paths in closed form: p−1 hops of α + βn down the
        // chain at any p; ⌈log₂p⌉ hops per tree sweep when the tree is
        // full (off powers of two the last level is partly missing).
        assert!(close(chain[p - 1], edges as f64 * hop), "chain depth p={p}");
        if p.is_power_of_two() {
            let deepest = |clocks: &[f64]| clocks.iter().cloned().fold(0.0, f64::max);
            assert!(
                close(deepest(&model(&|m| m.bcast(0))), depth * hop),
                "bcast depth p={p}"
            );
            assert!(
                close(model(&|m| m.reduce(0))[0], depth * hop),
                "reduce depth p={p}"
            );
            assert!(
                close(deepest(&rb), 2.0 * depth * hop),
                "reduce+bcast depth p={p}"
            );
        }
    }
}

#[test]
fn scan_both_counts_one_scan_call_per_rank() {
    // The documented convention: scan_both is one schedule, one call —
    // recorded as a single Scan per rank, never as an extra Exscan.
    for p in 1..=9usize {
        let outcome = Runtime::new(p).run(|comm| {
            comm.scan_both(comm.rank() as u64 + 1, |_| 8, |a, b| a + b);
        });
        use gv_msgpass::CallKind;
        assert_eq!(outcome.stats.calls(CallKind::Scan), p as u64, "p={p}");
        assert_eq!(outcome.stats.calls(CallKind::Exscan), 0, "p={p}");
    }
}

#[test]
fn alltoallv_delivers_every_block_in_order_for_p_1_through_9() {
    for p in 1..=9 {
        Runtime::new(p).run(|comm| {
            let r = comm.rank();
            // Ragged payloads: the block from s to d has (s + 2d) % 4
            // elements, so lengths 0..=3 all occur and differ by pair.
            let payload = |s: usize, d: usize| -> Vec<u64> {
                (0..(s + 2 * d) % 4)
                    .map(|i| (s * 100 + d * 10 + i) as u64)
                    .collect()
            };
            let outgoing: Vec<Vec<u64>> = (0..p).map(|d| payload(r, d)).collect();
            let incoming = comm.alltoallv(outgoing);
            assert_eq!(incoming.len(), p, "alltoallv width, p={p}, rank={r}");
            for (s, block) in incoming.iter().enumerate() {
                assert_eq!(
                    *block,
                    payload(s, r),
                    "alltoallv block from {s}, p={p}, rank={r}"
                );
            }
        });
    }
}

#[test]
fn cost_model_and_stats_are_deterministic_across_runs() {
    for p in [1, 2, 5, 8, 9] {
        let run = || {
            Runtime::new(p).run(|comm| {
                let r = comm.rank() as u64;
                let plan = AllreduceAlgorithm::RecursiveDoubling;
                let total = comm.allreduce_by(plan, r + 1, whole(), |_| 8, |a, b| a + b);
                let prefix = comm.scan_inclusive(r + 1, |_| 8, |a, b| a + b);
                let outgoing: Vec<Vec<u64>> = (0..comm.size())
                    .map(|d| vec![r; (r as usize + d) % 3])
                    .collect();
                let received: usize = comm.alltoallv(outgoing).iter().map(Vec::len).sum();
                (total, prefix, received)
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first.results, second.results, "results, p={p}");
        // The virtual clock is modeled, not measured: identical
        // workloads must produce bit-identical times and statistics.
        assert_eq!(
            first.modeled_seconds.to_bits(),
            second.modeled_seconds.to_bits(),
            "modeled_seconds, p={p}"
        );
        let clock_bits = |o: &gv_msgpass::RunOutcome<(u64, u64, usize)>| -> Vec<u64> {
            o.rank_clocks.iter().map(|c| c.to_bits()).collect()
        };
        assert_eq!(
            clock_bits(&first),
            clock_bits(&second),
            "rank_clocks, p={p}"
        );
        // Schedule-level statistics (calls, messages, bytes) are modeled
        // and must be bit-identical. The transport-path counters are
        // *observed* (ring vs stash hits, parks depend on thread timing),
        // so they are masked out of the comparison.
        let schedule_stats = |o: &gv_msgpass::RunOutcome<(u64, u64, usize)>| {
            let mut stats = o.stats;
            stats.transport = Default::default();
            stats
        };
        assert_eq!(
            schedule_stats(&first),
            schedule_stats(&second),
            "stats snapshot, p={p}"
        );
        if p > 1 {
            assert!(
                first.modeled_seconds > 0.0,
                "communication must cost virtual time, p={p}"
            );
        }
    }
}
