//! The NAS IS timed iteration structure.
//!
//! The reference benchmark runs `rank()` ten times; before each iteration
//! `i` it plants two known keys (`key[i] = i` and
//! `key[i + MAX_ITER] = MAX_KEY − i`) and *partially verifies* the
//! resulting ranks of the planted keys. The reference checks against
//! precomputed per-class constants; since this repo also supports scaled
//! classes, partial verification here cross-checks each planted key's
//! rank two independent ways:
//!
//! * from the globally sorted blocks (offset + local position), and
//! * by a sum **reduction** of per-rank counts of smaller keys over the
//!   *unsorted* array — one more place the benchmark leans on reductions.

use gv_msgpass::localview::local_allreduce;
use gv_msgpass::Comm;

use crate::class::IsClass;

use super::keygen::generate_keys;
use super::rank::distributed_sort;

/// Default iteration count of the reference benchmark.
pub const MAX_ITERATIONS: usize = 10;

/// Plants `value` at global index `g` of the block-distributed key array.
fn plant_key(comm: &Comm, keys: &mut [u32], class: IsClass, g: usize, value: u32) {
    let range = gv_executor::chunk_ranges(class.total_keys(), comm.size())
        .nth(comm.rank())
        .expect("rank < size");
    if range.contains(&g) {
        keys[g - range.start] = value;
    }
}

/// Rank of `value` (count of strictly smaller keys) from the unsorted
/// distributed array, via a sum reduction.
fn rank_by_reduction(comm: &Comm, keys: &[u32], value: u32) -> u64 {
    let local = keys.iter().filter(|&&k| k < value).count() as u64;
    comm.advance(keys.len() as u64);
    local_allreduce(comm, local, |a, b| a + b)
}

/// Rank of `value` from the sorted blocks (global offset of the first
/// occurrence), broadcast from whichever rank owns the boundary.
fn rank_from_sorted(comm: &Comm, sorted: &super::rank::SortedBlock, value: u32) -> u64 {
    // Count of keys < value in my sorted block, then sum across ranks —
    // equivalent to the global lower-bound position.
    let local = sorted.keys.partition_point(|&k| k < value) as u64;
    comm.advance((sorted.keys.len().max(2)).ilog2() as u64);
    local_allreduce(comm, local, |a, b| a + b)
}

/// Runs `iterations` NAS-IS iterations; returns `true` iff every partial
/// verification passed.
pub fn run_iterations(comm: &Comm, class: IsClass, iterations: usize) -> bool {
    let mut keys = generate_keys(class, comm.rank(), comm.size());
    let max_key = class.max_key();
    let mut all_ok = true;
    for iteration in 1..=iterations {
        // The reference's per-iteration key modifications.
        plant_key(comm, &mut keys, class, iteration, iteration as u32);
        plant_key(
            comm,
            &mut keys,
            class,
            iteration + MAX_ITERATIONS,
            max_key - iteration as u32,
        );
        let sorted = distributed_sort(comm, &keys, max_key);
        // Partial verification on the two planted values.
        for probe in [iteration as u32, max_key - iteration as u32] {
            let by_reduction = rank_by_reduction(comm, &keys, probe);
            let by_position = rank_from_sorted(comm, &sorted, probe);
            all_ok &= by_reduction == by_position;
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_msgpass::Runtime;

    #[test]
    fn iterations_partially_verify_across_rank_counts() {
        for p in [1usize, 2, 4, 8] {
            let outcome = Runtime::new(p).run(move |comm| run_iterations(comm, IsClass::S, 3));
            assert_eq!(outcome.results, vec![true; p], "p={p}");
        }
    }

    #[test]
    fn planted_keys_change_the_ranks() {
        // Sanity: after planting, value `1` exists (rank of 2 is ≥ 1).
        let outcome = Runtime::new(2).run(|comm| {
            let mut keys = generate_keys(IsClass::S, comm.rank(), comm.size());
            plant_key(comm, &mut keys, IsClass::S, 1, 1);
            rank_by_reduction(comm, &keys, 2)
        });
        assert!(outcome.results[0] >= 1);
        assert_eq!(outcome.results[0], outcome.results[1]);
    }

    #[test]
    fn rank_probes_agree_even_with_duplicates() {
        let outcome = Runtime::new(3).run(|comm| {
            // Heavily duplicated keys.
            let keys: Vec<u32> = (0..200)
                .map(|i| ((i + comm.rank() * 7) % 16) as u32)
                .collect();
            let sorted = distributed_sort(comm, &keys, 16);
            (0..16u32).all(|probe| {
                rank_by_reduction(comm, &keys, probe) == rank_from_sorted(comm, &sorted, probe)
            })
        });
        assert_eq!(outcome.results, vec![true; 3]);
    }
}
