//! `comm3`: periodic boundary-plane exchange along the z decomposition.
//!
//! Each rank ships its first owned plane to the rank below and its last
//! owned plane to the rank above (periodically), receiving the matching
//! ghost planes in return. With a single rank the exchange degenerates to
//! a local wrap-around copy, as in the reference code.

use gv_msgpass::{Comm, Tag};

use super::grid::{ExtSlab, Slab};

const TAG_UP: Tag = 31; // plane travelling to the rank above
const TAG_DOWN: Tag = 32; // plane travelling to the rank below

/// Exchanges ghost planes for `slab` and returns it extended with them.
///
/// Ranks owning zero planes of this (coarse) level participate by
/// forwarding nothing — callers must arrange decompositions where every
/// rank owns at least one plane (the V-cycle bounds its depth to ensure
/// this).
pub fn exchange(comm: &Comm, slab: &Slab) -> ExtSlab {
    let p = comm.size();
    let r = comm.rank();
    assert!(
        slab.z_len >= 1,
        "comm3 requires at least one owned plane per rank"
    );
    if p == 1 {
        // Periodic wrap within the single slab.
        let below = slab.plane(slab.z_len - 1).to_vec();
        let above = slab.plane(0).to_vec();
        return ExtSlab::new(slab, below, above);
    }
    let up = (r + 1) % p;
    let down = (r + p - 1) % p;
    comm.send_vec(up, TAG_UP, slab.plane(slab.z_len - 1).to_vec());
    comm.send_vec(down, TAG_DOWN, slab.plane(0).to_vec());
    let below: Vec<f64> = comm.recv(down, TAG_UP);
    let above: Vec<f64> = comm.recv(up, TAG_DOWN);
    ExtSlab::new(slab, below, above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_msgpass::Runtime;

    /// Fills a slab so cell (x,y,z_global) = z_global · 10000 + y · 100 + x.
    fn fill_coords(slab: &mut Slab) {
        let n = slab.n;
        for z in 0..slab.z_len {
            for y in 0..n {
                for x in 0..n {
                    let idx = slab.idx(x, y, z);
                    slab.data[idx] = ((slab.z_start + z) * 10_000 + y * 100 + x) as f64;
                }
            }
        }
    }

    #[test]
    fn ghost_planes_are_the_periodic_neighbours() {
        let n = 8;
        for p in [1usize, 2, 4] {
            let outcome = Runtime::new(p).run(move |comm| {
                let mut slab = Slab::for_rank(n, comm.rank(), comm.size());
                fill_coords(&mut slab);
                let ext = exchange(comm, &slab);
                // The ghost below must be global plane (z_start - 1) mod n,
                // the ghost above (z_start + z_len) mod n.
                let below_z = (slab.z_start + n - 1) % n;
                let above_z = (slab.z_start + slab.z_len) % n;
                let ok_below = (0..n).all(|y| {
                    (0..n).all(|x| {
                        ext.at(x as isize, y as isize, 0) == (below_z * 10_000 + y * 100 + x) as f64
                    })
                });
                let ok_above = (0..n).all(|y| {
                    (0..n).all(|x| {
                        ext.at(x as isize, y as isize, slab.z_len + 1)
                            == (above_z * 10_000 + y * 100 + x) as f64
                    })
                });
                (ok_below, ok_above)
            });
            for (ok_below, ok_above) in outcome.results {
                assert!(ok_below && ok_above, "p={p}");
            }
        }
    }
}
