//! NAS IS key generation (`create_seq`).
//!
//! Each key consumes four consecutive variates of the NPB random stream:
//! `key = ⌊(x1+x2+x3+x4) · max_key/4⌋`. Rank `r` generates its contiguous
//! block of the conceptual key array by jumping the seed `4 · block_start`
//! steps — the same `find_my_seed` scheme the reference code uses, so the
//! distributed key sequence is identical to the serial one for any rank
//! count.

use gv_executor::chunk_ranges;

use crate::class::IsClass;
use crate::randlc::Randlc;

/// Keys formed per [`Randlc::fill`] call: four variates each, staged in a
/// 32 KiB stack buffer that stays in L1 between the fill and the sums.
const KEYS_PER_FILL: usize = 1024;

/// Generates rank `rank`'s block of the class's key sequence when the keys
/// are block-distributed over `p` ranks.
pub fn generate_keys(class: IsClass, rank: usize, p: usize) -> Vec<u32> {
    let range = chunk_ranges(class.total_keys(), p)
        .nth(rank)
        .expect("rank < p");
    let mut gen = Randlc::nas_default().jumped(4 * range.start as u64);
    let quarter = class.max_key() as f64 / 4.0;
    let mut keys = Vec::with_capacity(range.len());
    let mut variates = [0.0f64; 4 * KEYS_PER_FILL];
    while keys.len() < range.len() {
        let batch = KEYS_PER_FILL.min(range.len() - keys.len());
        let variates = &mut variates[..4 * batch];
        gen.fill(variates);
        keys.extend(variates.chunks_exact(4).map(|q| {
            // Left to right, as `create_seq` adds its four `randlc` calls.
            let x = ((q[0] + q[1]) + q[2]) + q[3];
            (x * quarter) as u32
        }));
    }
    keys
}

/// Generates the full serial key sequence (testing oracle).
pub fn generate_keys_serial(class: IsClass) -> Vec<u32> {
    generate_keys(class, 0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_generation_tiles_the_serial_sequence() {
        let class = IsClass::S;
        let serial = generate_keys_serial(class);
        assert_eq!(serial.len(), 1 << 16);
        for p in [2usize, 3, 8] {
            let mut tiled = Vec::new();
            for r in 0..p {
                tiled.extend(generate_keys(class, r, p));
            }
            assert_eq!(tiled, serial, "p={p}");
        }
    }

    #[test]
    fn keys_are_the_stepped_formula_whatever_the_staging() {
        // `create_seq` as written: four `randlc` calls per key, added left
        // to right — no `fill`, no staging buffer.
        let class = IsClass::S;
        let mut gen = Randlc::nas_default();
        let quarter = class.max_key() as f64 / 4.0;
        let stepped: Vec<u32> = (0..class.total_keys())
            .map(|_| {
                let x = gen.next_f64() + gen.next_f64() + gen.next_f64() + gen.next_f64();
                (x * quarter) as u32
            })
            .collect();
        // p = 3 cuts blocks that are no multiple of the staging buffer.
        for p in [1usize, 2, 3, 8] {
            let tiled: Vec<u32> = (0..p).flat_map(|r| generate_keys(class, r, p)).collect();
            assert_eq!(tiled, stepped, "p={p}");
        }
    }

    #[test]
    fn keys_are_in_range_and_spread() {
        let class = IsClass::S;
        let keys = generate_keys_serial(class);
        let max_key = class.max_key();
        for &k in &keys {
            assert!(k < max_key);
        }
        // The sum of four uniforms concentrates around the middle (the
        // Irwin–Hall hump NAS IS is specified around); the extreme tails
        // below max_key/100 have probability ≈ 1e-7 and must not appear
        // in 2^16 samples.
        let mid = keys
            .iter()
            .filter(|&&k| k > max_key / 4 && k < 3 * max_key / 4)
            .count();
        assert!(mid > keys.len() / 2);
        assert!(keys.iter().all(|&k| k > max_key / 100));
        assert!(keys.iter().all(|&k| k < max_key - max_key / 100));
    }
}
