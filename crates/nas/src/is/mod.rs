//! NAS IS (Integer Sort) — the kernel behind the paper's Figure 2.
//!
//! The full pipeline is implemented: key generation from the NPB random
//! stream ([`keygen`]), distributed bucket ranking ([`rank`]) and the
//! verification phase in the three styles §4.1 compares ([`verify`]).

pub mod iterate;
pub mod keygen;
pub mod rank;
pub mod verify;

pub use iterate::{run_iterations, MAX_ITERATIONS};
pub use keygen::{generate_keys, generate_keys_serial};
pub use rank::{distributed_sort, key_ranks, SortedBlock};
pub use verify::{verify_mpi_scalar_opt, verify_nas_mpi, verify_rsmpi};

use gv_msgpass::Comm;

use crate::class::IsClass;

/// Which verification implementation to run (the Figure 2 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyVariant {
    /// Reference C+MPI structure (two memory references per value).
    NasMpi,
    /// C+MPI after the paper's scalar optimization.
    MpiScalarOpt,
    /// C+RSMPI: the `sorted` user-defined reduction.
    Rsmpi,
}

impl VerifyVariant {
    /// All variants with display names.
    pub const ALL: [(VerifyVariant, &'static str); 3] = [
        (VerifyVariant::NasMpi, "C+MPI"),
        (VerifyVariant::MpiScalarOpt, "C+MPI (scalar-opt)"),
        (VerifyVariant::Rsmpi, "C+RSMPI"),
    ];

    /// Runs this variant.
    pub fn verify(self, comm: &Comm, keys: &[u32]) -> bool {
        match self {
            VerifyVariant::NasMpi => verify_nas_mpi(comm, keys),
            VerifyVariant::MpiScalarOpt => verify_mpi_scalar_opt(comm, keys),
            VerifyVariant::Rsmpi => verify_rsmpi(comm, keys),
        }
    }
}

/// End-to-end IS on one rank: generate keys, sort them globally, verify.
/// Returns `(sorted_ok, local_sorted_len)`.
pub fn run_is(comm: &Comm, class: IsClass, variant: VerifyVariant) -> (bool, usize) {
    let keys = generate_keys(class, comm.rank(), comm.size());
    let block = distributed_sort(comm, &keys, class.max_key());
    let ok = variant.verify(comm, &block.keys);
    (ok, block.keys.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_msgpass::Runtime;

    #[test]
    fn full_is_pipeline_verifies_for_every_variant() {
        for (variant, _) in VerifyVariant::ALL {
            let outcome = Runtime::new(4).run(move |comm| run_is(comm, IsClass::S, variant));
            let total: usize = outcome.results.iter().map(|(_, n)| n).sum();
            assert_eq!(total, IsClass::S.total_keys());
            assert!(outcome.results.iter().all(|(ok, _)| *ok), "{variant:?}");
        }
    }
}
