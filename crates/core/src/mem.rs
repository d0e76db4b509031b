//! Where large outputs land: the one place foreign code is wrapped.
//!
//! A scan writes one output per element into memory nothing has touched
//! yet. An output of 32 MiB is past every `malloc` threshold, so the
//! allocator maps it fresh on each call and the kernel backs it one 4 KiB
//! page per fault while the rescan loop fills it — 8192 faults, more time
//! than the loop itself (DESIGN.md, "Where outputs land"). Where the
//! kernel offers transparent huge pages on request (Linux, THP mode
//! `madvise` or `always`), [`map_huge`] asks for the window to be backed
//! 2 MiB at a time instead; everywhere else it does nothing.
//!
//! `std` already links the C library on Linux, so `madvise` is declared
//! here and no crate is needed.

use std::mem::MaybeUninit;
use std::ops::Range;

/// The huge-page size asked for: 2 MiB on x86-64 and on aarch64 with 4 KiB
/// base pages. Where the kernel's differs, a range aligned to this one is
/// still page-aligned and the advice still valid; it may just cover no
/// whole huge page.
const HUGE_PAGE: usize = 2 << 20;

/// Windows shorter than this are left alone: 4 MiB is the smallest size
/// that contains an aligned huge page wherever the window starts, and at
/// that size the call (2–4 µs) is under 1 % of the time it takes to fill
/// the window. Below it the page faults are few and the allocator usually
/// recycles the memory anyway.
const MIN_WINDOW: usize = 2 * HUGE_PAGE;

/// The addresses [`map_huge`] advises for a window of `len` bytes at
/// `start`: its huge-page-aligned interior, or an empty range when the
/// window is shorter than [`MIN_WINDOW`].
fn huge_interior(start: usize, len: usize) -> Range<usize> {
    if len < MIN_WINDOW {
        return 0..0;
    }
    // A live window ends inside the address space, so neither sum wraps;
    // `len ≥ 2 · HUGE_PAGE` puts the rounded start below the rounded end.
    let first = start.next_multiple_of(HUGE_PAGE);
    let last = (start + len) / HUGE_PAGE * HUGE_PAGE;
    first..last
}

/// Tells the kernel that `window` is about to be filled and may be backed
/// by huge pages. Call it where the window is written, not where it is
/// allocated (a trace then sees the saving in the phase that made it).
///
/// Windows under 4 MiB, zero-sized element types and every platform other
/// than Linux are left alone. The advice changes neither the mapping nor
/// its contents, so this is safe on any window, initialised or not, and
/// calling it twice is harmless; when the kernel declines (THP mode
/// `never`, or built without it) nothing changes at all.
pub fn map_huge<T>(window: &mut [MaybeUninit<T>]) {
    let start = window.as_mut_ptr().cast::<u8>();
    let advised = huge_interior(start as usize, std::mem::size_of_val(window));
    if !advised.is_empty() {
        advise(
            start.wrapping_add(advised.start - start as usize),
            advised.len(),
        );
    }
}

/// An empty `Vec` with room for `n` elements, for an output that is about
/// to be filled once from front to back: `Vec::with_capacity(n)` whose
/// spare capacity has been through [`map_huge`].
pub fn output_vec<T>(n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    map_huge(out.spare_capacity_mut());
    out
}

#[cfg(target_os = "linux")]
fn advise(start: *mut u8, len: usize) {
    /// `MADV_HUGEPAGE` of `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
    }
    // SAFETY: `start..start + len` lies inside a slice the caller borrows
    // mutably, so it is mapped memory of this process that nothing else
    // is using, and it is aligned to a multiple of the page size.
    // `MADV_HUGEPAGE` sets a flag on the mapping: it reads, writes, moves
    // and unmaps nothing, whatever the pages hold. A failure (`EINVAL`
    // from a kernel without THP, `ENOMEM`) leaves the mapping as it was,
    // which is also what not calling would have done, so the result is
    // not looked at.
    unsafe {
        madvise(start.cast(), len, MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise(_start: *mut u8, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const MIB: usize = 1 << 20;

    /// The contract of the range arithmetic: empty, or inside the window
    /// and huge-page-aligned at both ends.
    fn check(start: usize, len: usize) -> Range<usize> {
        let advised = huge_interior(start, len);
        if !advised.is_empty() {
            assert!(advised.start >= start && advised.end <= start + len);
            assert_eq!(advised.start % HUGE_PAGE, 0);
            assert_eq!(advised.end % HUGE_PAGE, 0);
            // Nothing that could have been covered is left out.
            assert!(advised.start - start < HUGE_PAGE);
            assert!(start + len - advised.end < HUGE_PAGE);
        }
        advised
    }

    #[test]
    fn short_windows_are_left_alone() {
        for start in [0, 8, HUGE_PAGE, 5 * HUGE_PAGE - 8] {
            assert!(check(start, 0).is_empty());
            // A 256 Ki-element scan of `i64`: nothing is advised.
            assert!(check(start, (256 << 10) * 8).is_empty());
            assert!(check(start, 4 * MIB - 1).is_empty());
        }
    }

    #[test]
    fn four_mib_always_holds_an_aligned_huge_page() {
        let base = 7 * HUGE_PAGE;
        assert_eq!(check(base, 4 * MIB), base..base + 4 * MIB);
        for offset in [1, 8, 4096, HUGE_PAGE - 8, HUGE_PAGE - 1] {
            let advised = check(base + offset, 4 * MIB);
            assert_eq!(advised, base + HUGE_PAGE..base + 2 * HUGE_PAGE);
        }
    }

    #[test]
    fn the_ends_round_inwards() {
        let base = 3 * HUGE_PAGE;
        // Starting 8 bytes past a boundary loses the first huge page…
        let advised = check(base + 8, 32 * MIB - 8);
        assert_eq!(advised, base + HUGE_PAGE..base + 32 * MIB);
        // …ending 8 bytes before one loses the last…
        let advised = check(base, 32 * MIB - 8);
        assert_eq!(advised, base..base + 30 * MIB);
        // …and malloc's 16-byte header does the first to a fresh mapping.
        let advised = check(base + 16, 32 * MIB);
        assert_eq!(advised, base + HUGE_PAGE..base + 32 * MIB);
    }

    #[test]
    fn empty_and_zero_sized_windows_reach_no_call() {
        map_huge::<u64>(&mut []);
        map_huge(&mut [MaybeUninit::<()>::uninit(); 64]);
        assert!(output_vec::<()>(usize::MAX).is_empty());
        assert!(output_vec::<u64>(0).is_empty());
    }

    #[test]
    fn an_output_vec_is_an_empty_vec_of_that_capacity() {
        for n in [1usize, 1 << 10, 4 * MIB / 8 - 1, 4 * MIB / 8, 3 * MIB] {
            let mut out = output_vec::<u64>(n);
            assert!(out.is_empty());
            assert!(out.capacity() >= n);
            let at = out.as_ptr();
            out.extend(0..n as u64);
            assert_eq!(out.as_ptr(), at, "filling an output must not move it");
            assert!(out.iter().copied().eq(0..n as u64));
        }
    }

    /// Counts its drops and carries a value to be read back.
    struct Tracked<'a> {
        value: usize,
        drops: &'a AtomicUsize,
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn advice_leaves_initialised_elements_as_they_were() {
        let drops = AtomicUsize::new(0);
        // 8 MiB of live elements: at least three huge pages are advised.
        let n = 8 * MIB / std::mem::size_of::<Tracked>();
        let mut window: Vec<MaybeUninit<Tracked>> = (0..n)
            .map(|value| {
                MaybeUninit::new(Tracked {
                    value,
                    drops: &drops,
                })
            })
            .collect();
        assert!(!huge_interior(window.as_ptr() as usize, 8 * MIB).is_empty());
        map_huge(&mut window);
        map_huge(&mut window);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        for (i, slot) in window.iter_mut().enumerate() {
            // SAFETY: every slot was initialised above and is dropped
            // exactly once, here.
            unsafe {
                assert_eq!(slot.assume_init_ref().value, i);
                slot.assume_init_drop();
            }
        }
        assert_eq!(drops.load(Ordering::Relaxed), n);
    }
}
