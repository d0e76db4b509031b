//! Pins a thread to one of the cores this process may use.
//!
//! The guest scheduler starts a runtime's rank threads on the core of the
//! thread that spawned them and, because ranks that wait for each other
//! yield, leaves them there for about a second before it moves one away:
//! watched through `/proc/<pid>/task/*/stat`, both ranks of an `overlap`
//! round sat on one core for the first 1.1 s (9.5 ms per rep) and on two
//! from then on (5.8 ms). How long that lasts differs from process to
//! process, which is most of what made `wall_s` noisy (README, "Noise").
//! MPI launchers bind ranks to cores for the same reason.
//!
//! std links the C library on Linux, so the two calls are declared here
//! and no crate is needed. Elsewhere, and when a call fails, threads stay
//! unpinned: pinning steadies the measurement, nothing depends on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Added to every index given to [`pin_current_thread`]. A busy neighbour
/// slows one core at a time (README, "Noise", item 4), so the runner gives
/// each child of a timed mode another value: a run's single-rank processes
/// then take turns on the cores instead of all sharing the fate of one.
static FIRST_CORE: AtomicUsize = AtomicUsize::new(0);

/// Sets the offset for the threads this process binds from now on.
pub fn set_first_core(index: usize) {
    // Relaxed: a plain setting, stored before any rank thread exists.
    FIRST_CORE.store(index, Ordering::Relaxed);
}

/// `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The `index`-th (modulo their number) core of `allowed`, if any.
fn pick(allowed: &[u64], index: usize) -> Option<usize> {
    let cores: Vec<usize> = (0..allowed.len() * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    (!cores.is_empty()).then(|| cores[index % cores.len()])
}

/// Binds the calling thread to the `index`-th core it is allowed on,
/// counted from the process's first core (modulo their number). Returns
/// whether it is bound now.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(index: usize) -> bool {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; the mask is a live, writable
    // buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return false;
    }
    let index = index.wrapping_add(FIRST_CORE.load(Ordering::Relaxed));
    let Some(core) = pick(&allowed, index) else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: as above, and the mask is only read.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_index: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_among_the_allowed_cores_only() {
        // Cores 1, 3 and 64 allowed.
        let allowed = [0b1010, 0b1];
        assert_eq!(pick(&allowed, 0), Some(1));
        assert_eq!(pick(&allowed, 1), Some(3));
        assert_eq!(pick(&allowed, 2), Some(64));
        assert_eq!(pick(&allowed, 3), Some(1));
        assert_eq!(pick(&[0, 0], 0), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_thread_is_allowed_on_one_core() {
        std::thread::spawn(|| {
            assert!(pin_current_thread(0));
            let mut now: CpuSet = [0; 16];
            // SAFETY: as in `pin_current_thread`.
            assert_eq!(
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut now) },
                0
            );
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        })
        .join()
        .unwrap();
    }
}
