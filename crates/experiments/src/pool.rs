//! The sweep-wide work-stealing pool.
//!
//! [`steal_map`] executes a batch of independent jobs on OS threads using
//! chunked shared-index stealing: the item range is split into one
//! contiguous chunk per worker, each chunk is drained through its own
//! atomic cursor, and a worker whose chunk runs dry pulls from the other
//! chunks round-robin. Compared to a single global cursor, ownership
//! keeps most claims uncontended while stealing still guarantees no
//! worker idles before the batch is done — and the steal counter makes
//! the load imbalance observable.
//!
//! Results come back in input order, so the output is **bit-identical**
//! to a serial map for any worker count; parallelism and stealing only
//! change the order work is *done*.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the pool did while draining one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Jobs executed by the pool (= input length).
    pub executed: u64,
    /// Jobs a worker claimed from a chunk it did not own. Always 0 when
    /// the batch ran serially.
    pub steals: u64,
}

impl StealStats {
    /// Accumulate another batch's stats into this one.
    pub fn merge(&mut self, other: &StealStats) {
        self.executed += other.executed;
        self.steals += other.steals;
    }
}

/// Map `f` over `items` on up to `workers` OS threads with chunked
/// work-stealing, returning results in input order plus steal stats.
///
/// `workers <= 1` (or a single-item batch) degenerates to a plain serial
/// map with no thread machinery.
pub fn steal_map<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return (
            items.iter().map(f).collect(),
            StealStats {
                executed: n as u64,
                steals: 0,
            },
        );
    }

    // Contiguous chunk [lo, hi) per worker; chunk `w` starts at its own
    // cursor. Claims are `fetch_add` on the cursor, so an owner and its
    // thieves can never double-claim an index; overshoot past `hi` is
    // harmless (the claimed index is simply invalid and the chunk stays
    // exhausted).
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * n / workers, (w + 1) * n / workers))
        .collect();
    let cursors: Vec<AtomicUsize> = bounds.iter().map(|&(lo, _)| AtomicUsize::new(lo)).collect();
    let steals = AtomicU64::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    // Panic containment: a job that panics must fail the whole batch
    // cleanly — catch the unwind so the worker thread keeps draining the
    // shared cursors (peers would otherwise spin on chunks nobody
    // advances), record the first payload, and re-raise it after every
    // worker has joined.
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|s| {
        for w in 0..workers {
            let bounds = &bounds;
            let cursors = &cursors;
            let steals = &steals;
            let done = &done;
            let f = &f;
            let aborted = &aborted;
            let first_panic = &first_panic;
            s.spawn(move || loop {
                // Own chunk first, then victims in round-robin order.
                let mut claimed = None;
                for k in 0..workers {
                    let c = (w + k) % workers;
                    let i = cursors[c].fetch_add(1, Ordering::Relaxed);
                    if i < bounds[c].1 {
                        if k > 0 {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        claimed = Some(i);
                        break;
                    }
                }
                let Some(i) = claimed else { break };
                if aborted.load(Ordering::Relaxed) {
                    // Drain without executing: the batch is already doomed,
                    // but the cursors must still run dry so every worker
                    // exits its claim loop.
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => done.lock().unwrap_or_else(|e| e.into_inner()).push((i, r)),
                    Err(payload) => {
                        aborted.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
            });
        }
    });

    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    let mut v = done.into_inner().unwrap_or_else(|e| e.into_inner());
    v.sort_by_key(|&(i, _)| i);
    (
        v.into_iter().map(|(_, r)| r).collect(),
        StealStats {
            executed: n as u64,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_uneven_work() {
        let items: Vec<u64> = (0..64).collect();
        let (out, stats) = steal_map(&items, 8, |&i| {
            let mut acc = i;
            for _ in 0..(i % 9) * 1500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        let ids: Vec<u64> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, items);
        assert_eq!(stats.executed, 64);
    }

    #[test]
    fn serial_degenerate_case_has_no_steals() {
        let items = vec![1, 2, 3];
        let (out, stats) = steal_map(&items, 1, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(
            stats,
            StealStats {
                executed: 3,
                steals: 0
            }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u32> = vec![];
        let (out, stats) = steal_map(&items, 4, |&x| x);
        assert!(out.is_empty());
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn uneven_final_chunk_still_drains_completely() {
        // 7 items over 3 workers: chunks of 2/2/3.
        let items: Vec<u32> = (0..7).collect();
        let (out, _) = steal_map(&items, 3, |&x| x + 100);
        assert_eq!(out, (100..107).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_fails_the_batch_cleanly_and_reraises() {
        // One bad cell out of 64: the call must terminate (no worker left
        // spinning on a stuck cursor, no poisoned-mutex double panic) and
        // re-raise the original payload after all workers joined.
        let items: Vec<u64> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            steal_map(&items, 4, |&i| {
                if i == 13 {
                    panic!("bad cell 13");
                }
                i * 2
            })
        }));
        let payload = result.expect_err("the panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a string");
        assert!(msg.contains("bad cell 13"), "payload was {msg:?}");
    }

    #[test]
    fn panicking_job_in_serial_mode_propagates_too() {
        let items = vec![1u32, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            steal_map(&items, 1, |&x| {
                if x == 2 {
                    panic!("serial bad cell");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stealing_happens_when_one_chunk_is_heavy() {
        // All the work lives in worker 0's chunk; the other workers must
        // steal to contribute. With 4 workers over 32 heavy-then-light
        // items the thieves claim at least one index.
        let items: Vec<u64> = (0..32).collect();
        let (out, stats) = steal_map(&items, 4, |&i| {
            let spin = if i < 8 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        assert_eq!(out.len(), 32);
        assert_eq!(stats.executed, 32);
        // Steals are timing-dependent; on a single-core box the first
        // worker may drain everything before the others are scheduled, so
        // only assert the counter is consistent, not that it is nonzero.
        assert!(stats.steals <= 32);
    }
}
