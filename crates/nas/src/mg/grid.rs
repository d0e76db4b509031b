//! Z-distributed slabs of a periodic cubic grid.
//!
//! The global grid is `n × n × n` with periodic boundaries in all three
//! dimensions. Rank `r` owns a contiguous block of z-planes (balanced
//! chunking), the 1-D decomposition the MG kernels here work over. The
//! reference NAS code uses a 3-D decomposition; a 1-D one exchanges the
//! same kind of boundary planes with fewer neighbours, which preserves the
//! communication structure ZRAN3 and the V-cycle exercise (DESIGN.md
//! documents the substitution).

use gv_executor::chunk_ranges;

/// One rank's slab of z-planes.
#[derive(Debug, Clone, PartialEq)]
pub struct Slab {
    /// Global grid edge.
    pub n: usize,
    /// First global z-plane owned by this slab.
    pub z_start: usize,
    /// Number of owned z-planes.
    pub z_len: usize,
    /// Cell data, row-major: index `(z_local · n + y) · n + x`.
    pub data: Vec<f64>,
}

impl Slab {
    /// The slab rank `rank` of `p` owns for an `n³` grid.
    pub fn for_rank(n: usize, rank: usize, p: usize) -> Slab {
        let range = chunk_ranges(n, p).nth(rank).expect("rank < p");
        Slab {
            n,
            z_start: range.start,
            z_len: range.len(),
            data: vec![0.0; n * n * range.len()],
        }
    }

    /// Number of cells owned.
    pub fn cells(&self) -> usize {
        self.n * self.n * self.z_len
    }

    /// Linear index of `(x, y, z_local)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z_local: usize) -> usize {
        (z_local * self.n + y) * self.n + x
    }

    /// Global linear index of `(x, y, z_local)` in the conceptual `n³`
    /// array. Owned cells are contiguous there too, so `data[i]` sits at
    /// `global_index(0, 0, 0) + i`.
    #[inline]
    pub fn global_index(&self, x: usize, y: usize, z_local: usize) -> u64 {
        (((self.z_start + z_local) * self.n + y) * self.n + x) as u64
    }

    /// Whether global z-plane `z` is owned here; returns its local index.
    pub fn local_z(&self, z: usize) -> Option<usize> {
        (z >= self.z_start && z < self.z_start + self.z_len).then(|| z - self.z_start)
    }

    /// A view of one owned z-plane.
    pub fn plane(&self, z_local: usize) -> &[f64] {
        let len = self.n * self.n;
        &self.data[z_local * len..(z_local + 1) * len]
    }

    /// Sets every cell to zero (NAS `zero3`).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// A slab extended with one ghost plane below and above (for 27-point
/// stencils); ghost content comes from `comm3`.
#[derive(Debug, Clone)]
pub struct ExtSlab {
    /// Global grid edge.
    pub n: usize,
    /// Owned z-planes (ghosts excluded).
    pub z_len: usize,
    /// `(z_len + 2) · n · n` cells; plane 0 is the ghost below, plane
    /// `z_len + 1` the ghost above.
    pub data: Vec<f64>,
}

impl ExtSlab {
    /// Builds an extended copy of `slab` with the given ghost planes.
    pub fn new(slab: &Slab, below: Vec<f64>, above: Vec<f64>) -> ExtSlab {
        let plane = slab.n * slab.n;
        assert_eq!(below.len(), plane, "ghost plane size");
        assert_eq!(above.len(), plane, "ghost plane size");
        let mut data = Vec::with_capacity(plane * (slab.z_len + 2));
        data.extend_from_slice(&below);
        data.extend_from_slice(&slab.data);
        data.extend_from_slice(&above);
        ExtSlab {
            n: slab.n,
            z_len: slab.z_len,
            data,
        }
    }

    /// Value at `(x, y, ze)` where `ze ∈ 0..z_len+2` (0 and `z_len+1` are
    /// ghosts); `x`/`y` wrap periodically.
    #[inline]
    pub fn at(&self, x: isize, y: isize, ze: usize) -> f64 {
        let n = self.n as isize;
        let x = x.rem_euclid(n) as usize;
        let y = y.rem_euclid(n) as usize;
        self.data[(ze * self.n + y) * self.n + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_tile_the_grid() {
        for p in [1usize, 2, 3, 5] {
            let mut planes = 0;
            let mut cursor = 0;
            for r in 0..p {
                let s = Slab::for_rank(16, r, p);
                assert_eq!(s.z_start, cursor);
                cursor += s.z_len;
                planes += s.z_len;
            }
            assert_eq!(planes, 16, "p={p}");
        }
    }

    #[test]
    fn global_index_is_row_major() {
        let s = Slab::for_rank(8, 1, 2); // owns z 4..8
        assert_eq!(s.z_start, 4);
        assert_eq!(s.global_index(3, 2, 0), ((4 * 8 + 2) * 8 + 3) as u64);
    }

    #[test]
    fn local_z_roundtrip() {
        let s = Slab::for_rank(8, 1, 2);
        assert_eq!(s.local_z(3), None);
        assert_eq!(s.local_z(4), Some(0));
        assert_eq!(s.local_z(7), Some(3));
        assert_eq!(s.local_z(8), None);
    }

    #[test]
    fn ext_slab_wraps_xy_and_exposes_ghosts() {
        let mut s = Slab::for_rank(4, 0, 1);
        for (i, v) in s.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        let below = vec![-1.0; 16];
        let above = vec![-2.0; 16];
        let e = ExtSlab::new(&s, below, above);
        // Ghosts at ze = 0 and ze = z_len + 1.
        assert_eq!(e.at(0, 0, 0), -1.0);
        assert_eq!(e.at(0, 0, 5), -2.0);
        // Interior matches, shifted by one ghost plane.
        assert_eq!(e.at(1, 2, 1), s.data[s.idx(1, 2, 0)]);
        // Periodic wrap in x and y.
        assert_eq!(e.at(-1, 0, 1), s.data[s.idx(3, 0, 0)]);
        assert_eq!(e.at(0, 4, 1), s.data[s.idx(0, 0, 0)]);
    }
}
