//! How many threads a parallel region may use.

/// A thread budget for the shared-memory engine.
///
/// A parallel region spends it through [`Pool::scope`], which is
/// [`std::thread::scope`]: the threads are started for the region and
/// joined before it returns, so a job may borrow from the caller's stack,
/// and a job's panic resumes on the caller once every job has finished.
/// The engine (`gv_core::par`) runs the first share of a region on the
/// calling thread and starts at most `threads − 1` others.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A budget of `threads` threads, the caller's included.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker thread");
        Pool { threads }
    }

    /// The number of threads a region may use, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`std::thread::Scope`] on which jobs that borrow
    /// from the caller's stack can be spawned, and joins them all before
    /// returning.
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(f)
    }
}
