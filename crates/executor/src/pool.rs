//! A persistent pool of worker threads fed from a shared injector channel.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

use crate::scope::{Scope, ScopeState};

/// A heap-allocated unit of work.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads.
///
/// Jobs are submitted through [`Pool::scope`], which allows the submitted
/// closures to borrow from the caller's stack; the scope joins all of its
/// jobs before returning, which is what makes those borrows sound.
///
/// Dropping the pool closes the injector channel and joins every worker.
pub struct Pool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` workers. `threads` must be ≥ 1.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker thread");
        let (sender, receiver) = channel::<Job>();
        // `mpsc` has one consumer, so the workers take turns at it.
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|index| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("gv-worker-{index}"))
                    .spawn(move || loop {
                        // The guard is a temporary of this statement: a
                        // worker holds the lock while it waits for a job,
                        // never while it runs one.
                        let job = rx.lock().expect("jobs run outside the injector lock").recv();
                        match job {
                            Ok(job) => job(),
                            // The channel closing is the shutdown signal.
                            Err(_) => break,
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            sender: Some(sender),
            workers,
            threads,
        }
    }

    /// Creates a pool sized to [`crate::default_parallelism`].
    pub fn with_default_parallelism() -> Self {
        Self::new(crate::default_parallelism())
    }

    /// The number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    pub(crate) fn inject(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(job)
            .expect("pool workers exited before shutdown");
    }

    /// Runs `f` with a [`Scope`] on which borrowed jobs can be spawned.
    ///
    /// All jobs spawned on the scope are guaranteed to have finished when
    /// `scope` returns. If any job panicked, the panic is resumed on the
    /// caller's thread after all jobs have completed (first panic wins).
    ///
    /// Jobs may themselves run on the calling thread if all workers are
    /// busy — see [`Scope::spawn`] for the exact guarantee.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope::new(self, Arc::clone(&state));
        // Even if the caller's closure panics, already-spawned jobs hold
        // borrows into 'env — we must join them before unwinding.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        state.wait_all();
        match result {
            Ok(value) => {
                state.resume_panic();
                value
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Close the channel so workers fall out of their recv loops.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            // A worker only panics if a job panicked *and* the panic escaped
            // the scope bookkeeping, which Scope prevents; still, don't
            // double-panic while unwinding.
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("pool worker panicked outside any scope");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_jobs() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = Pool::new(2);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn jobs_can_borrow_stack_data() {
        let pool = Pool::new(2);
        let data = vec![1u32, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for x in &data {
                s.spawn(|| {
                    sum.fetch_add(*x as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn sequential_pool_still_works() {
        let pool = Pool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable after a job panic.
        let ok = pool.scope(|_| 1);
        assert_eq!(ok, 1);
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = Pool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            // A nested scope from the same thread while jobs are in flight.
            pool.scope(|inner| {
                inner.spawn(|| {
                    counter.fetch_add(10, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }
}
