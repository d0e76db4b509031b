//! # gv-executor
//!
//! The execution substrate of the global-view engines.
//!
//! The paper's global-view algorithms (Listings 2 and 3) are phrased as
//! `forall processors q in 0..p-1` loops. `gv_core::par` runs that loop on
//! [`std::thread::scope`], with its threads counted by a [`Pool`], over the
//! balanced, in-order blocks of [`chunk_ranges`]. The message-passing
//! runtime (`gv-msgpass`) sends between its ranks over [`lane`]s, the
//! crate's one `unsafe` module.
//!
//! ```
//! use gv_executor::{chunk_ranges, Pool};
//!
//! let pool = Pool::new(4);
//! let data: Vec<u64> = (1..=1000).collect();
//! let partials: Vec<u64> = pool.scope(|s| {
//!     let jobs: Vec<_> = chunk_ranges(data.len(), pool.threads())
//!         .map(|range| {
//!             let chunk = &data[range];
//!             s.spawn(move || chunk.iter().sum::<u64>())
//!         })
//!         .collect();
//!     jobs.into_iter().map(|job| job.join().unwrap()).collect()
//! });
//! assert_eq!(partials.into_iter().sum::<u64>(), 500_500);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chunks;
// The SPSC ring: the crate's only `unsafe`.
#[allow(unsafe_code)]
pub mod lane;
pub mod pool;

pub use chunks::chunk_ranges;
pub use pool::Pool;

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
