//! The host threads of rt-render's parallel loops — volume generation and
//! the warp — and of the harnesses that borrow its split: how many work at
//! once, and how many have been started since the process began.
//!
//! A loop runs on the caller's thread plus `workers() - 1` scoped ones, the
//! caller working too, so it starts one thread fewer than it has workers.
//! A harness that keeps its own threads parked (rt-pvr's resident session)
//! hands them a [`crate::shearwarp::ScreenWarp`] instead and starts none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Threads started by [`on_workers`] so far.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Threads a parallel loop works on: the cores this process may use,
/// counted once. `available_parallelism` reads cgroup files on every call,
/// tens of microseconds a loop over a few rows must not pay each time.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(4, |c| c.get()))
}

/// Threads [`on_workers`] has started since the process began — rt-render's
/// share of the spawn tally the pipeline's tests hold flat.
pub fn spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Run `work` on `min(workers(), items)` threads at once, the caller's
/// among them, and return when every copy has. Each copy claims its items
/// from state the closure shares (an atomic counter, a locked iterator).
pub fn on_workers(items: usize, work: impl Fn() + Sync) {
    let helpers = workers().min(items).saturating_sub(1);
    SPAWNED.fetch_add(helpers as u64, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(&work);
        }
        work();
    });
}

/// `f` of every item, computed on [`on_workers`]' threads, in item order.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = Mutex::new(items.iter().enumerate());
    let done = Mutex::new(Vec::with_capacity(items.len()));
    on_workers(items.len(), || loop {
        let claimed = next.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, item)) = claimed else { break };
        let r = f(item);
        done.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((i, r));
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_keeps_item_order_and_counts_its_helpers() {
        let before = spawned();
        let xs: Vec<usize> = (0..100).collect();
        assert_eq!(
            map(&xs, |x| x * 2),
            (0..100).map(|x| x * 2).collect::<Vec<_>>()
        );
        // Other tests of this binary may spawn meanwhile: at least ours.
        assert!(spawned() >= before + workers() as u64 - 1);
        assert!(map(&[] as &[u8], |x| *x).is_empty());
    }
}
