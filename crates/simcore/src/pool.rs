//! A resizable worker pool with a core-allocation gate.
//!
//! The external scheduler of the paper changes the number of cores an
//! application may use *while it runs*. In real-execution mode the simulated
//! machine enforces that with a [`ResizablePool`]: a fixed set of worker
//! threads drains a job queue, but at most `active_limit` workers may execute
//! jobs concurrently. Raising or lowering the limit has the same effect as
//! the paper's affinity changes, without tearing threads down.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    available: Condvar,
}

#[derive(Debug)]
struct GateState {
    limit: usize,
    running: usize,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Gate {
            state: Mutex::new(GateState { limit, running: 0 }),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.running >= state.limit {
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.running += 1;
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running -= 1;
        drop(state);
        self.available.notify_all();
    }

    fn set_limit(&self, limit: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.limit = limit.max(1);
        drop(state);
        self.available.notify_all();
    }

    fn limit(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).limit
    }
}

#[derive(Debug, Default)]
struct Completion {
    state: Mutex<CompletionState>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct CompletionState {
    submitted: u64,
    completed: u64,
}

impl Completion {
    fn submitted(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .submitted += 1;
    }

    fn completed(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.completed += 1;
        drop(state);
        self.done.notify_all();
    }

    fn wait_idle(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.completed < state.submitted {
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A thread pool whose effective parallelism can be changed at runtime.
#[derive(Debug)]
pub struct ResizablePool {
    sender: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    gate: Arc<Gate>,
    completion: Arc<Completion>,
    worker_count: usize,
}

impl ResizablePool {
    /// Creates a pool with `workers` threads, all initially allowed to run.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Job>();
        // std's receiver is single-consumer: the workers take turns on it.
        let receiver = Arc::new(Mutex::new(receiver));
        let gate = Arc::new(Gate::new(workers));
        let completion = Arc::new(Completion::default());
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let gate = Arc::clone(&gate);
                let completion = Arc::clone(&completion);
                std::thread::Builder::new()
                    .name(format!("hb-sim-worker-{i}"))
                    .spawn(move || loop {
                        // Its own statement: the lock is held to dequeue,
                        // never while the job runs.
                        let job = receiver.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        let Ok(job) = job else { break };
                        gate.acquire();
                        job();
                        gate.release();
                        completion.completed();
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ResizablePool {
            sender: Some(sender),
            workers: handles,
            gate,
            completion,
            worker_count: workers,
        }
    }

    /// Number of worker threads (the machine's total cores).
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Sets how many workers may execute concurrently (the allocated cores).
    /// Values are clamped to `[1, worker_count]`.
    pub fn set_active_limit(&self, cores: usize) {
        self.gate.set_limit(cores.clamp(1, self.worker_count));
    }

    /// Current concurrency limit.
    pub fn active_limit(&self) -> usize {
        self.gate.limit()
    }

    /// Submits a job for asynchronous execution.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.completion.submitted();
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(Box::new(job))
            .expect("pool workers have exited");
    }

    /// Blocks until every submitted job has completed.
    pub fn wait_idle(&self) {
        self.completion.wait_idle();
    }

    /// Submits a batch of jobs and waits for all of them (and any previously
    /// submitted work) to finish.
    pub fn run_batch(&self, jobs: Vec<Job>) {
        for job in jobs {
            self.completion.submitted();
            self.sender
                .as_ref()
                .expect("pool already shut down")
                .send(job)
                .expect("pool workers have exited");
        }
        self.wait_idle();
    }
}

impl Drop for ResizablePool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain remaining jobs and exit.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_runs_all_jobs() {
        let pool = ResizablePool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_batch_waits_for_completion() {
        let pool = ResizablePool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..20)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn active_limit_bounds_concurrency() {
        let pool = ResizablePool::new(8);
        pool.set_active_limit(2);
        assert_eq!(pool.active_limit(), 2);

        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                concurrent.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "no more than 2 jobs may run at once, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn raising_limit_increases_concurrency() {
        let pool = ResizablePool::new(8);
        pool.set_active_limit(8);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                concurrent.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert!(
            peak.load(Ordering::SeqCst) > 2,
            "full pool should exceed 2-way concurrency"
        );
    }

    #[test]
    fn limits_are_clamped() {
        let pool = ResizablePool::new(4);
        pool.set_active_limit(0);
        assert_eq!(pool.active_limit(), 1);
        pool.set_active_limit(100);
        assert_eq!(pool.active_limit(), 4);
        assert_eq!(pool.worker_count(), 4);
    }

    #[test]
    fn zero_worker_request_gets_one() {
        let pool = ResizablePool::new(0);
        assert_eq!(pool.worker_count(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        pool.submit(move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ResizablePool::new(3);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No explicit wait: drop must drain the queue before joining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }
}
