//! The workspace's one work loop for independent tasks.
//!
//! A venue build fans its geodesic footprint solves out, the landmark table
//! its landmark Dijkstras, and `VenueServer` each batch's work items.
//! All of them call [`fan_out`]: scoped workers pull task indices off one
//! atomic counter (dynamic load balancing, so one slow task does not hold up
//! a fixed share of the rest), with the calling thread as worker 0.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(i)` for every `i` in `0..tasks` on up to `workers` threads and
/// returns the results in task order.
///
/// The calling thread is worker 0, so one worker (or zero), or one task,
/// spawns no thread, and the caller's thread-local state (a pooled search
/// state, say) serves its share. Each task runs exactly once. A task's panic
/// reaches the caller with its own payload once every worker has stopped.
pub fn fan_out<T, F>(tasks: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return done;
            }
            done.push((i, task(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(tasks)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn every_task_runs_once_and_returns_in_order() {
        for tasks in 0..=9 {
            for workers in 1..=4 {
                let runs: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
                let got = fan_out(tasks, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                let want: Vec<usize> = (0..tasks).map(|i| i * 10).collect();
                assert_eq!(got, want, "tasks {tasks}, workers {workers}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "tasks {tasks}, workers {workers}"
                );
            }
        }
    }

    /// Runs 8 tasks on `workers` threads where every task on one side
    /// panics, the calling thread's when `on_caller`, else the spawned
    /// worker's, and returns the payload the caller sees. The other side
    /// waits in its first task until the panicking side has started one, so
    /// the panicking side always gets a task.
    fn payload_from(workers: usize, on_caller: bool) -> String {
        let caller = std::thread::current().id();
        let started = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fan_out(8, workers, |i| {
                if (std::thread::current().id() == caller) == on_caller {
                    started.store(true, Ordering::Relaxed);
                    std::panic::panic_any(format!("task {i} failed"));
                }
                while !started.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                i
            })
        }))
        .unwrap_err();
        err.downcast_ref::<String>().unwrap().clone()
    }

    #[test]
    fn a_panic_on_the_callers_share_keeps_its_payload() {
        // One worker runs every task on the calling thread.
        assert_eq!(payload_from(1, true), "task 0 failed");
        let got = payload_from(2, true);
        assert!(
            got.starts_with("task ") && got.ends_with(" failed"),
            "{got}"
        );
    }

    #[test]
    fn a_panic_on_a_spawned_worker_keeps_its_payload() {
        let got = payload_from(2, false);
        assert!(
            got.starts_with("task ") && got.ends_with(" failed"),
            "{got}"
        );
    }
}
