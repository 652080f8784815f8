//! The workspace's one thread executor: the items of an iterator run on
//! the calling thread plus scoped helper threads, which claim them in
//! index order through one shared cursor, and every item's result comes
//! back in index order.
//!
//! The sort drivers run each phase through it — the base case, the
//! Modern GPU partition kernels, every merge round — because a kernel's
//! thread blocks are independent: each owns a disjoint output window.
//! Results return in index order, so the drivers reduce counters in
//! window order and a sort's output and counters do not depend on the
//! thread count.
//!
//! **The idle-core rule.** A sort phase runs on `idle_threads()`: the
//! caller plus one helper per core that no running sort of this process
//! occupies. A sort running alone gets every core; two sweep workers or
//! two serve compute workers on a two-core machine get no helpers, so
//! in-sort parallelism never oversubscribes the machine. The count is
//! re-read at every phase, so a sort picks up a core another sort
//! frees.

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Sorts running in this process, counted by [`SortGuard`]. A statistic
/// that publishes no other data, hence `Relaxed`.
static RUNNING_SORTS: AtomicUsize = AtomicUsize::new(0);

/// Cores this process may use. Read once: `available_parallelism`
/// reads cgroup files on every call (about 22 µs each).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Marks one sort as running while it lives. Dropping it ends the mark,
/// also when the sort unwinds from a panic.
pub(crate) struct SortGuard(());

impl SortGuard {
    pub(crate) fn enter() -> Self {
        RUNNING_SORTS.fetch_add(1, Ordering::Relaxed);
        SortGuard(())
    }
}

impl Drop for SortGuard {
    fn drop(&mut self) {
        RUNNING_SORTS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Threads for one phase of a running sort: the caller plus one helper
/// per core that no running sort occupies (the sort asking counts as
/// running).
pub(crate) fn idle_threads() -> usize {
    1 + cores().saturating_sub(RUNNING_SORTS.load(Ordering::Relaxed))
}

/// Run `f(index, item)` for every item on `threads` threads — the
/// caller plus `threads - 1` scoped helpers, fewer when there are fewer
/// items — and return the results in index order.
///
/// Items are claimed in index order. After the first `Err` no thread
/// claims another item, but every claimed item finishes, so the error
/// returned is the lowest-indexed one: the error a sequential run stops
/// at, for any `f` whose failure depends only on its item.
/// `threads <= 1` runs inline on the caller's thread.
///
/// # Errors
///
/// The lowest-indexed `Err` that `f` returned.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its original payload, once
/// every helper has finished.
pub fn try_map<I, R, E, F>(threads: usize, items: I, f: F) -> Result<Vec<R>, E>
where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
    E: Send,
    F: Fn(usize, I::Item) -> Result<R, E> + Sync,
{
    let items = items.into_iter();
    let most = items.size_hint().1.unwrap_or(usize::MAX);
    let helpers = threads.saturating_sub(1).min(most.saturating_sub(1));
    if helpers == 0 {
        return items.enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = Mutex::new(items.enumerate());
    // Only a hint to stop claiming: results reach the caller through the
    // joins, so `Relaxed` suffices.
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            // A poisoned cursor means another thread panicked inside the
            // iterator; that panic is the one the caller gets.
            let Some((i, item)) = cursor.lock().ok().and_then(|mut c| c.next()) else { break };
            let result = f(i, item);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let mut done = thread::scope(|s| {
        let helpers: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // The claimed indices are a prefix 0..k, each present once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`try_map`] for an infallible `f`: every item runs.
pub fn map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    match try_map(threads, items, |i, item| Ok::<R, Infallible>(f(i, item))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_index_order_with_items_in_flight_together() {
        // Items 0–3 wait for each other, then items 4–7 do, so each of
        // the four threads runs one item of each half: every thread
        // finishes a late item before another thread's early one.
        let halves = [Barrier::new(4), Barrier::new(4)];
        let out = map(4, 0..8usize, |i, x| {
            assert_eq!(i, x);
            halves[x / 4].wait();
            x * x
        });
        assert_eq!(out, (0..8).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_in_an_item_reaches_the_caller() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                map(threads, 0..16usize, |_, x| {
                    assert_ne!(x, 11, "item eleven exploded");
                    x
                })
            });
            let payload = caught.expect_err("the item's panic must propagate");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("item eleven exploded"), "threads={threads}: {msg:?}");
        }
    }

    #[test]
    fn empty_input_yields_no_results() {
        for threads in [1, 4] {
            assert!(map(threads, Vec::<u32>::new(), |_, x| x).is_empty());
            assert_eq!(try_map(threads, 0..0, |_, x: i32| Err::<i32, _>(x)), Ok(vec![]));
        }
    }

    #[test]
    fn the_lowest_indexed_error_wins() {
        // Items 3 and 5 fail together on two threads, so either may fail
        // first; the result is item 3's error either way, as it is in a
        // sequential run.
        let together = Barrier::new(2);
        let out = try_map(4, 0..32usize, |_, x| {
            if x == 3 || x == 5 {
                together.wait();
                return Err(x);
            }
            Ok(x)
        });
        assert_eq!(out, Err(3));
        let seq = try_map(1, 0..32usize, |_, x| if x == 3 || x == 5 { Err(x) } else { Ok(x) });
        assert_eq!(seq, Err(3));
    }
}
