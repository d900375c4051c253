//! The one worker pool, behind [`crate::CampaignPlan::run_cells`]:
//! independent tasks fanned over scoped std threads, results slot-indexed
//! so output never depends on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(0..n)` across a pool of `threads` workers (`0` = one per core).
/// Each worker claims the next index off a shared counter and writes its
/// result into that index's dedicated slot, so the returned order is
/// byte-identical to a sequential run however the OS schedules the
/// workers.
pub(crate) fn pool_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
        t => t,
    }
    .min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("worker filled every claimed slot")
        })
        .collect()
}
