//! The workspace's one scoped worker pool.
//!
//! The scenario simulates its datasets on it, and the analysis layer builds
//! contexts and indexes, runs experiments and localizes CBG blocks on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `jobs` scoped threads (clamped to at
/// least 1), returning the results in input order. Workers claim items
/// through an atomic cursor and hand `(position, result)` pairs back on
/// join, so the output never depends on scheduling. A worker panic is
/// re-raised on the caller's thread with its original payload.
pub fn map_in_order<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        for w in workers {
            let mine = w
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in mine {
                slots[i] = Some(result);
            }
        }
    });
    // Every position was claimed by exactly one worker, and every worker
    // returned, so no slot is empty.
    slots.into_iter().flatten().collect()
}
