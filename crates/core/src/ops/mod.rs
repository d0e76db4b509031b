//! The operator library: the 12 MPI built-ins (§2.2) and the paper's
//! user-defined operators, plus extensions. Every operator implements
//! [`crate::op::ReduceScanOp`] directly; the built-ins are the case where
//! input, state and output types coincide.
//!
//! | Module | Operators | Paper reference |
//! |---|---|---|
//! | [`builtin`] | sum, prod, min, max, land/lor/lxor, band/bor/bxor, minloc/maxloc | §2.2 (MPI's twelve built-ins) |
//! | [`mink`] | `MinK`, `MaxK` | Listings 1 and 4 |
//! | [`minloc`] | `MinI`, `MaxI` | Listing 5 |
//! | [`counts`] | `Counts`, `BucketRank` | Listing 6 / §3.1.3 |
//! | [`histogram`] | `Histogram` over real bin edges | Listing 6 generalized |
//! | [`sorted`] | `Sorted`, `SortedPaperExact` | Listings 7 and 8 / §3.1.4 |
//! | [`topk`] | `TopBottomK` | §4.2 (NAS MG ZRAN3) |
//! | [`mod@minmax`] | `MinMax` | extension (two built-ins fused into one reduction) |
//! | [`runs`] | `LongestRun` | extension (generalizes Listing 7's `sorted`) |
//! | [`kadane`] | `MaxSubarray` | extension (classic mergeable-state showcase) |
//! | [`segmented`] | `Segmented<M>` segmented scans over a single-type operator | related work (NESL/Blelloch) expressed as a user operator |
//! | [`stats`] | `MeanVar` | extension (distinct accumulate/combine showcase) |
//! | [`translate`] | `Translated` wrapper | §3 performance note (ablation TXT-TRANSLATE) |
//! | [`num`] | capability traits for the built-ins | — |

pub mod builtin;
pub mod counts;
pub mod histogram;
pub mod kadane;
pub mod mink;
pub mod minloc;
pub mod minmax;
pub mod num;
pub mod runs;
pub mod segmented;
pub mod sorted;
pub mod stats;
pub mod topk;
pub mod translate;

pub use builtin::{
    band, bor, bxor, land, lor, lxor, max, maxloc, min, minloc as minloc_builtin, prod, sum,
};
pub use counts::{BucketRank, Counts};
pub use histogram::{Histogram, HistogramCounts};
pub use kadane::MaxSubarray;
pub use mink::{KBest, MaxK, MinK};
pub use minloc::{maxi, mini, MaxI, MinI};
pub use minmax::{minmax, MinMax};
pub use runs::{LongestRun, LongestRunResult};
pub use segmented::{flag_segments, SegState, Segmented};
pub use sorted::{Sorted, SortedPaperExact, SortedState};
pub use stats::{MeanVar, Moments};
pub use topk::{TopBottom, TopBottomK, TopBottomState};
pub use translate::Translated;
