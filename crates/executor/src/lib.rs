//! # gv-executor
//!
//! A small, self-contained data-parallel execution substrate used by the
//! shared-memory engine of `gv-core`.
//!
//! The paper's global-view algorithms (Listings 2 and 3) are phrased as
//! `forall processors q in 0..p-1` loops. This crate provides exactly that
//! shape: a persistent [`Pool`] of worker threads, a [`Pool::scope`] API for
//! borrowing stack data into workers, and [`chunks`] helpers that split a
//! slice into one contiguous block per *virtual processor* and run a closure
//! on each block.
//!
//! The pool is deliberately simple — one shared `std::sync::mpsc`
//! injector, no work stealing — because the engine always submits exactly
//! `p` long-running, balanced tasks per parallel region. A work-stealing
//! scheduler would add complexity without changing the behaviour the
//! paper's algorithms need.
//!
//! ```
//! use gv_executor::{Pool, chunks::par_map_chunks};
//!
//! let pool = Pool::new(4);
//! let data: Vec<u64> = (1..=1000).collect();
//! let partials = par_map_chunks(&pool, &data, 4, |_chunk_index, chunk| {
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(partials.into_iter().sum::<u64>(), 500_500);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod chunks;
pub mod lane;
pub mod pool;
pub mod scope;

pub use chunks::{chunk_ranges, par_map_chunks};
pub use pool::Pool;
pub use scope::Scope;

/// Returns the default number of virtual processors to use when the caller
/// does not specify one.
///
/// This is the host parallelism when available, and `1` otherwise. The
/// engines treat this as a *virtual* processor count: correctness never
/// depends on it, and the paper's algorithms are exercised identically for
/// any value ≥ 1.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
