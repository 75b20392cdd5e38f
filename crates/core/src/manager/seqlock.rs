//! Protocol tests of the seqlock behind [`super::arena::SeqlockArena`].
//!
//! The arena type lives in `arena.rs`; its tests there check the snapshot
//! API. The tests here check the seqlock as the paper's §4 uses it: one
//! application-side publisher overwriting the page, the manager polling it
//! from another thread, and every clone of the handle naming one page.

#[cfg(test)]
mod tests {
    use crate::manager::arena::{ArenaSnapshot, SeqlockArena};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn snap(i: u64) -> ArenaSnapshot {
        ArenaSnapshot {
            seq: i,
            threads: 2,
            total_transactions: i as f64 * 10.0,
            rate_tx_per_us: i as f64,
            updated_at_us: i * 100,
        }
    }

    const ZERO: ArenaSnapshot = ArenaSnapshot {
        seq: 0,
        threads: 0,
        total_transactions: 0.0,
        rate_tx_per_us: 0.0,
        updated_at_us: 0,
    };

    #[test]
    fn roundtrip() {
        // Each publish overwrites the whole page: a read returns the
        // latest snapshot exactly, extreme field values included.
        let a = SeqlockArena::new();
        for i in 1..=5 {
            a.publish(snap(i));
            assert_eq!(a.read(), snap(i));
        }
        let extreme = ArenaSnapshot {
            seq: u64::MAX,
            threads: u32::MAX,
            total_transactions: f64::MAX,
            rate_tx_per_us: f64::MIN_POSITIVE,
            updated_at_us: u64::MAX,
        };
        a.publish(extreme);
        assert_eq!(a.read(), extreme);
        a.publish(snap(7));
        assert_eq!(a.read(), snap(7));
    }

    #[test]
    fn fresh_arena_reads_zeroed() {
        // Reading never writes: repeated reads of a fresh page stay zero.
        for a in [SeqlockArena::new(), SeqlockArena::default()] {
            assert_eq!(a.read(), ZERO);
            assert_eq!(a.read(), ZERO);
        }
    }

    #[test]
    fn clones_share_the_page() {
        let a = SeqlockArena::new();
        let b = a.clone();
        b.publish(snap(3));
        assert_eq!(a.read(), snap(3));
        let c = a.clone();
        assert_eq!(c.read(), snap(3), "a later clone sees the page as is");
        c.publish(snap(4));
        assert_eq!(b.read(), snap(4));
        assert_eq!(
            SeqlockArena::new().read(),
            ZERO,
            "a new arena is a new page"
        );
    }

    /// Stops the writer thread when dropped, so a failed assertion on the
    /// reading side does not leave it spinning.
    struct StopOnDrop(Arc<AtomicBool>);

    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    #[test]
    fn concurrent_reads_are_never_torn() {
        // The §4 shape: the application's sampler publishes from its own
        // thread while the manager polls. Every field is derived from
        // `seq`, so a torn read breaks the relation.
        let a = SeqlockArena::new();
        a.publish(snap(1));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let a = a.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    a.publish(snap(i));
                    i += 1;
                }
            })
        };
        let guard = StopOnDrop(stop);
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut reads, mut changes, mut last) = (0u64, 0u64, 1u64);
        while (reads < 30_000 || changes < 2) && Instant::now() < deadline {
            let s = a.read();
            assert_eq!(s.threads, 2, "torn");
            assert_eq!(s.total_transactions, s.seq as f64 * 10.0, "torn");
            assert_eq!(s.rate_tx_per_us, s.seq as f64, "torn");
            assert_eq!(s.updated_at_us, s.seq * 100, "torn");
            assert!(s.seq >= last, "went backwards");
            if s.seq != last {
                changes += 1;
            }
            last = s.seq;
            reads += 1;
        }
        drop(guard);
        writer.join().expect("writer");
        assert!(reads >= 30_000, "only {reads} reads");
        assert!(changes >= 2, "the reader saw only {changes} publishes");
    }
}
