//! Distributed key ranking — the bucketed redistribution at the heart of
//! NAS IS, done the way the reference does it: by counting, not comparing.
//!
//! 1. Each rank cuts the value range into `p` spans (span `b` owned by
//!    rank `b`), counts the keys of its own span into a table where they
//!    lie, and copies every other key once into the vector bound for its
//!    owner.
//! 2. An `alltoallv` ships those vectors.
//! 3. Each rank counts what it received into the same table — the
//!    `Counts` reduction of the paper's §3.1.3 over one span — and expands
//!    the table into its block; the concatenation over ranks is the
//!    globally sorted key array.
//! 4. An **exclusive scan** of the block lengths gives each rank the
//!    global rank (index) of its first key — the reference code computes
//!    the same quantity from bucket-size reductions; doing it with the
//!    scan primitive is exactly the kind of use the paper advocates.
//!
//! A table is O(span), so a rank whose span dwarfs its keys sorts them by
//! comparison instead ([`phases`] holds the rule and the phases).

use gv_core::mem::output_vec;
use gv_msgpass::Comm;

mod phases;

/// The globally sorted block owned by one rank after redistribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedBlock {
    /// This rank's keys, sorted ascending; all keys on rank `r` are ≤ all
    /// keys on rank `r+1`.
    pub keys: Vec<u32>,
    /// Global index of `keys[0]` in the conceptual sorted array.
    pub global_offset: u64,
}

/// Buckets, redistributes and sorts `keys` across the communicator.
/// Rank `r` ends up with the keys in `r·s .. (r+1)·s`, `s = ⌈max_key/p⌉`.
///
/// # Panics
///
/// If a key is not in `0..max_key` (so any key, when `max_key` is 0).
pub fn distributed_sort(comm: &Comm, keys: &[u32], max_key: u32) -> SortedBlock {
    let (keys, global_offset) = phases::sort_block(comm, keys, max_key, |_| {});
    SortedBlock {
        keys,
        global_offset,
    }
}

/// Computes, for every local key, its global rank (the number of keys
/// strictly smaller plus the number of equal keys on earlier positions) —
/// the quantity NAS IS reports. Input must already be the
/// [`distributed_sort`] output.
pub fn key_ranks(block: &SortedBlock) -> Vec<u64> {
    let n = block.keys.len() as u64;
    // 32 MiB per rank at class A on two ranks: filled once, front to back.
    let mut ranks = output_vec(block.keys.len());
    ranks.extend(block.global_offset..block.global_offset + n);
    ranks
}

#[cfg(test)]
mod tests {
    use super::phases::{Divisor, MAX_SPAN_PER_KEY};
    use super::*;
    use crate::class::IsClass;
    use crate::is::keygen::{generate_keys, generate_keys_serial};
    use gv_msgpass::{CostModel, RunError, Runtime};
    use gv_testkit::prop::{check, from_fn, Config};
    use gv_testkit::rng::TestRng;
    use gv_testkit::{prop_assert, prop_assert_eq};

    /// Sorts one key vector per rank and returns the blocks in rank order.
    fn sort_on(keys: &[Vec<u32>], max_key: u32) -> Vec<SortedBlock> {
        Runtime::new(keys.len())
            .run(|comm| distributed_sort(comm, &keys[comm.rank()], max_key))
            .results
    }

    /// What the comparison-sorting implementation this one replaced
    /// returned: the gathered keys sorted, cut where `k / ⌈max_key/p⌉`
    /// changes.
    fn oracle_blocks(keys: &[Vec<u32>], max_key: u32) -> Vec<SortedBlock> {
        let p = keys.len();
        let span = max_key.div_ceil(p as u32).max(1);
        let mut all: Vec<u32> = keys.concat();
        all.sort_unstable();
        let mut global_offset = 0;
        (0..p)
            .map(|r| {
                let keys: Vec<u32> = all
                    .iter()
                    .copied()
                    .filter(|&k| (k / span) as usize == r)
                    .collect();
                let block = SortedBlock {
                    keys,
                    global_offset,
                };
                global_offset += block.keys.len() as u64;
                block
            })
            .collect()
    }

    #[test]
    fn distributed_sort_produces_the_globally_sorted_sequence() {
        let class = IsClass::S;
        let mut oracle = generate_keys_serial(class);
        oracle.sort_unstable();
        for p in [1usize, 2, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| {
                let keys = generate_keys(class, comm.rank(), comm.size());
                distributed_sort(comm, &keys, class.max_key())
            });
            let mut flattened = Vec::new();
            let mut expected_offset = 0u64;
            for block in outcome.results {
                assert_eq!(block.global_offset, expected_offset, "p={p}");
                expected_offset += block.keys.len() as u64;
                flattened.extend(block.keys);
            }
            assert_eq!(flattened, oracle, "p={p}");
        }
    }

    #[test]
    fn blocks_are_value_ordered_across_ranks() {
        let class = IsClass::S;
        let outcome = Runtime::new(4).run(|comm| {
            let keys = generate_keys(class, comm.rank(), comm.size());
            distributed_sort(comm, &keys, class.max_key())
        });
        for w in outcome.results.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if let (Some(last), Some(first)) = (a.keys.last(), b.keys.first()) {
                assert!(last <= first);
            }
        }
    }

    #[test]
    fn key_ranks_are_consecutive_globally() {
        let class = IsClass::S;
        let outcome = Runtime::new(3).run(|comm| {
            let keys = generate_keys(class, comm.rank(), comm.size());
            let block = distributed_sort(comm, &keys, class.max_key());
            key_ranks(&block)
        });
        let all: Vec<u64> = outcome.results.concat();
        assert_eq!(all, (0..class.total_keys() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_rank_input_is_fine() {
        // All keys concentrated on one value → some ranks receive nothing.
        let outcome = Runtime::new(4).run(|comm| {
            let keys = if comm.rank() == 0 { vec![7u32; 50] } else { vec![] };
            distributed_sort(comm, &keys, 1 << 11)
        });
        let total: usize = outcome.results.iter().map(|b| b.keys.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn the_multiply_is_the_quotient_for_every_kind_of_divisor() {
        let mut rng = TestRng::new(0x15_d1f);
        let edges = [
            0,
            1,
            2,
            3,
            1 << 16,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ];
        let mut divisors = edges[1..].to_vec();
        divisors.extend([5, 7, 641, 174_763, 477_218_589, 1 << 18]);
        divisors.extend((0..200).map(|_| rng.next_u32().max(1)));
        for d in divisors {
            let by = Divisor::new(d);
            let multiples =
                (0..4u32).flat_map(|q| [q.wrapping_mul(d).wrapping_sub(1), q.wrapping_mul(d)]);
            let random = (0..200).map(|_| rng.next_u32());
            for k in edges
                .into_iter()
                .chain(multiples)
                .chain(random.collect::<Vec<_>>())
            {
                assert_eq!(by.quotient(k), k / d, "{k} / {d}");
            }
        }
    }

    #[test]
    fn a_key_outside_the_range_fails_the_run_and_says_which() {
        for (p, max_key, bad_rank, bad_key) in
            [(3, 100, 1, 100), (2, 1 << 19, 0, u32::MAX), (1, 7, 0, 7)]
        {
            let error = Runtime::new(p)
                .try_run(|comm| {
                    let mut keys = vec![max_key - 1; 40];
                    if comm.rank() == bad_rank {
                        keys[17] = bad_key;
                    }
                    distributed_sort(comm, &keys, max_key)
                })
                .map(|outcome| outcome.results)
                .expect_err("an out-of-range key must not be ranked");
            let RunError::Failed(report) = error else {
                panic!("expected a failed rank, got {error}");
            };
            assert_eq!(report.rank, bad_rank);
            for needle in [
                bad_key.to_string(),
                format!("0..{max_key}"),
                format!("rank {bad_rank}"),
            ] {
                assert!(
                    report.message.contains(&needle),
                    "{:?} lacks {needle:?}",
                    report.message
                );
            }
        }
    }

    #[test]
    fn an_empty_range_admits_no_key() {
        for block in sort_on(&vec![vec![]; 3], 0) {
            assert_eq!(
                block,
                SortedBlock {
                    keys: vec![],
                    global_offset: 0
                }
            );
        }
        let error = Runtime::new(3)
            .try_run(|comm| distributed_sort(comm, &[0], 0))
            .map(|outcome| outcome.results)
            .expect_err("0 is not in 0..0");
        assert!(matches!(error, RunError::Failed(_)), "{error}");
    }

    #[test]
    fn ranks_past_the_range_own_nothing_and_the_last_owner_takes_the_remainder() {
        // (p, max_key, the spans' lengths): fewer values than ranks; a
        // short last span; a short last span followed by empty ones.
        for (p, max_key, widths) in [
            (5usize, 3u32, vec![1usize, 1, 1, 0, 0]),
            (4, 10, vec![3, 3, 3, 1]),
            (8, 9, vec![2, 2, 2, 2, 1, 0, 0, 0]),
        ] {
            // Every value three times on every rank.
            let keys = vec![(0..max_key).flat_map(|k| [k; 3]).collect::<Vec<u32>>(); p];
            let blocks = sort_on(&keys, max_key);
            assert_eq!(
                blocks,
                oracle_blocks(&keys, max_key),
                "p={p} max_key={max_key}"
            );
            let lengths: Vec<usize> = blocks.iter().map(|b| b.keys.len()).collect();
            let expected: Vec<usize> = widths.iter().map(|w| w * 3 * p).collect();
            assert_eq!(lengths, expected, "p={p} max_key={max_key}");
        }
    }

    /// The ranking's charge on a virtual clock that counts operations
    /// (γ = 1, messages free): every rank's clock, and the run's.
    fn ranking_ops(keys: &[Vec<u32>], max_key: u32) -> (Vec<f64>, f64) {
        let counting = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
        };
        let outcome = Runtime::new(keys.len()).cost_model(counting).run(|comm| {
            distributed_sort(comm, &keys[comm.rank()], max_key);
            comm.now()
        });
        (outcome.results, outcome.modeled_seconds)
    }

    #[test]
    fn the_virtual_clock_charges_the_algorithm_that_runs() {
        let p = 4;
        let n = 8;
        // Rank r holds n keys spread over the whole range, r of them moved
        // onto value 0, so the blocks differ in length.
        let keys_in = |max_key: u32| -> Vec<Vec<u32>> {
            (0..p)
                .map(|r| {
                    (0..n)
                        .map(|i| {
                            if i < r {
                                0
                            } else {
                                (i * p + r) as u32 * max_key / (n * p) as u32
                            }
                        })
                        .collect()
                })
                .collect()
        };
        // Bucketing charges n; then the slowest rank sets the run's clock,
        // and rank 0, which the exclusive scan sends nothing, keeps its own.
        let check = |max_key: u32, charge: &dyn Fn(usize) -> f64| {
            let keys = keys_in(max_key);
            let blocks = oracle_blocks(&keys, max_key);
            assert_eq!(sort_on(&keys, max_key), blocks);
            let charges: Vec<f64> = blocks.iter().map(|b| charge(b.keys.len())).collect();
            let (clocks, run) = ranking_ops(&keys, max_key);
            assert_eq!(clocks[0], n as f64 + charges[0]);
            assert_eq!(run, n as f64 + charges.iter().copied().fold(0.0, f64::max));
        };
        // Span = MAX_SPAN_PER_KEY · n, the widest that is counted: one
        // count and one write per key, one sweep of the table.
        let span = MAX_SPAN_PER_KEY * n;
        check((p * span) as u32, &|m| (2 * m + span) as f64);
        // One value more per span: compared, m⌈log₂ m⌉ as before.
        check((p * (span + 1)) as u32, &|m| {
            (m as u32 * (usize::BITS - m.max(2).leading_zeros())) as f64
        });
    }

    /// One input of the sweep: a key vector per rank and the range.
    #[derive(Debug, Clone)]
    struct Case {
        max_key: u32,
        keys: Vec<Vec<u32>>,
    }

    fn case(rng: &mut TestRng) -> Case {
        let p = rng.usize_in(1..10);
        let max_key =
            [1, p as u32 - 1, p as u32, 17, 1 << 11, 1 << 19, u32::MAX][rng.usize_in(0..7)];
        let n = match rng.usize_in(0..4) {
            _ if max_key == 0 => 0,
            0 => rng.usize_in(0..2),
            _ => rng.usize_in(0..4097),
        };
        if n == 0 {
            // Also the only input an empty range admits.
            let keys = vec![Vec::new(); p];
            return Case { max_key, keys };
        }
        let span = (max_key as usize).div_ceil(p).max(1) as u64;
        let below = |rng: &mut TestRng| rng.below(max_key as u64) as u32;
        // First and last value of a span, and the range's ends.
        let edge = |rng: &mut TestRng| {
            let start = rng.below(p as u64 + 1) * span;
            (start.saturating_sub(rng.below(2))).min(max_key as u64 - 1) as u32
        };
        // The NAS key stream's bell: four uniform variates summed.
        let bell = |rng: &mut TestRng| {
            let x: f64 = (0..4).map(|_| rng.f64_unit()).sum();
            ((x * max_key as f64 / 4.0) as u32).min(max_key - 1)
        };
        let shape = rng.usize_in(0..5);
        let all: Vec<u32> = match shape {
            0 => vec![below(rng); n],
            1 => (0..n).map(|_| edge(rng)).collect(),
            2 => (0..n).map(|_| bell(rng)).collect(),
            _ => (0..n).map(|_| below(rng)).collect(),
        };
        let mut keys = vec![Vec::new(); p];
        if shape == 4 {
            // Everything on one rank.
            keys[rng.usize_in(0..p)] = all;
        } else {
            // Dealt unevenly, so that ranks sit on both sides of the
            // span-per-key rule in one run.
            let mut rest = all.as_slice();
            for mine in &mut keys[..p - 1] {
                let (head, tail) = rest.split_at(rng.usize_in(0..rest.len() + 1));
                *mine = head.to_vec();
                rest = tail;
            }
            keys[p - 1] = rest.to_vec();
        }
        Case { max_key, keys }
    }

    #[test]
    fn any_keys_on_any_ranks_come_back_as_the_comparison_sort_returned_them() {
        check(
            "any_keys_on_any_ranks_come_back_as_the_comparison_sort_returned_them",
            &Config::new(400),
            &from_fn(case),
            |case| {
                let blocks = sort_on(&case.keys, case.max_key);
                let total: usize = case.keys.iter().map(Vec::len).sum();
                let mut offset = 0;
                for (r, block) in blocks.iter().enumerate() {
                    prop_assert!(block.keys.is_sorted(), "rank {r}'s block is not sorted");
                    prop_assert_eq!(block.global_offset, offset);
                    offset += block.keys.len() as u64;
                }
                prop_assert_eq!(offset, total as u64);
                // Same multiset, value-ordered across ranks, cut at the
                // same values.
                prop_assert_eq!(blocks, oracle_blocks(&case.keys, case.max_key));
                Ok(())
            },
        );
    }
}
