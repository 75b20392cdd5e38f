//! Event counters.
//!
//! A [`Counter`] mimics one hardware event counter: a monotone accumulator
//! that can be read destructively (`take_delta`) or non-destructively
//! (`total`). A [`CounterSet`] groups the counters of a single thread, the
//! same granularity at which the `perfctr` driver virtualizes the PMU.

use std::fmt;

/// The hardware events the simulated PMU can count.
///
/// The paper's policies use only [`EventKind::BusTransactions`] (the Pentium 4
/// `IOQ_allocation` / bus-transactions-any event). The others are provided
/// because the simulator produces them for free and extensions (cache-aware
/// ablations, symbiosis metrics) consume them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Transactions issued on the front-side bus (64 bytes each on the
    /// paper's Xeon platform).
    BusTransactions,
    /// Elapsed cycles while the thread was scheduled on a cpu.
    /// (The simulator counts wall-microseconds-on-cpu; at a fixed clock the
    /// two are proportional.)
    CyclesOnCpu,
    /// Virtual progress: microseconds of *useful* work completed. Not
    /// observable on real hardware — exposed for validation and tests only.
    VirtualProgress,
    /// Number of times the thread was placed on a cpu whose cache it did not
    /// already occupy (cold start / migration).
    ColdStarts,
    /// Number of scheduling quanta in which the thread ran at all.
    QuantaRun,
}

impl EventKind {
    /// Every defined event kind, in a fixed order (used for dense storage).
    pub const ALL: [EventKind; 5] = [
        EventKind::BusTransactions,
        EventKind::CyclesOnCpu,
        EventKind::VirtualProgress,
        EventKind::ColdStarts,
        EventKind::QuantaRun,
    ];

    /// Dense index of this event within [`EventKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            EventKind::BusTransactions => 0,
            EventKind::CyclesOnCpu => 1,
            EventKind::VirtualProgress => 2,
            EventKind::ColdStarts => 3,
            EventKind::QuantaRun => 4,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::BusTransactions => "bus_transactions",
            EventKind::CyclesOnCpu => "cycles_on_cpu",
            EventKind::VirtualProgress => "virtual_progress",
            EventKind::ColdStarts => "cold_starts",
            EventKind::QuantaRun => "quanta_run",
        };
        f.write_str(s)
    }
}

/// One monotone event counter.
///
/// `total` only grows (the simulator adds non-negative amounts); a separate
/// high-water mark of what has already been consumed supports
/// read-and-reset semantics without ever rolling the hardware count back —
/// exactly how user-space samples a `perfctr` virtual counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    total: f64,
    consumed: f64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `amount` events. Negative amounts are a logic error in the
    /// producer and are rejected (counters are monotone).
    ///
    /// # Panics
    /// Panics if `amount` is negative or NaN.
    pub fn add(&mut self, amount: f64) {
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "counter increments must be finite and non-negative, got {amount}"
        );
        self.total += amount;
    }

    /// Total events since creation (never decreases).
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Total events truncated to an integer, as real hardware would report.
    #[inline]
    pub fn total_u64(&self) -> u64 {
        self.total as u64
    }

    /// Events accumulated since the previous `take_delta` call, and mark
    /// them consumed. This is the sampling primitive: the CPU manager calls
    /// it at every sampling point.
    pub fn take_delta(&mut self) -> f64 {
        let d = self.total - self.consumed;
        self.consumed = self.total;
        d
    }

    /// Events accumulated since the previous `take_delta`, without
    /// consuming them.
    #[inline]
    pub fn peek_delta(&self) -> f64 {
        self.total - self.consumed
    }
}

/// All counters belonging to one thread.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counters: [Counter; EventKind::ALL.len()],
}

impl CounterSet {
    /// A fresh set with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to a specific counter.
    #[inline]
    pub fn get(&self, kind: EventKind) -> &Counter {
        &self.counters[kind.index()]
    }

    /// Mutable access to a specific counter.
    #[inline]
    pub fn get_mut(&mut self, kind: EventKind) -> &mut Counter {
        &mut self.counters[kind.index()]
    }

    /// Accumulate events of `kind`.
    #[inline]
    pub fn add(&mut self, kind: EventKind, amount: f64) {
        self.get_mut(kind).add(amount);
    }

    /// Accumulate one stretch of running: bus transactions issued, cycles
    /// on the cpu and virtual progress. The same as three [`Self::add`]
    /// calls, with one check of all three amounts.
    ///
    /// # Panics
    /// Panics if any amount is negative, infinite or NaN.
    #[inline]
    pub fn add_running(&mut self, transactions: f64, cycles: f64, progress: f64) {
        let ok = |a: f64| (0.0..f64::INFINITY).contains(&a);
        assert!(
            ok(transactions) & ok(cycles) & ok(progress),
            "counter increments must be finite and non-negative, got \
             {transactions}, {cycles}, {progress}"
        );
        self.counters[EventKind::BusTransactions.index()].total += transactions;
        self.counters[EventKind::CyclesOnCpu.index()].total += cycles;
        self.counters[EventKind::VirtualProgress.index()].total += progress;
    }

    /// Iterate `(kind, total)` pairs.
    pub fn totals(&self) -> impl Iterator<Item = (EventKind, f64)> + '_ {
        EventKind::ALL
            .iter()
            .map(move |&k| (k, self.get(k).total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone_and_delta_resets() {
        let mut c = Counter::new();
        c.add(10.0);
        assert_eq!(c.total(), 10.0);
        assert_eq!(c.take_delta(), 10.0);
        assert_eq!(c.take_delta(), 0.0);
        c.add(2.5);
        assert_eq!(c.peek_delta(), 2.5);
        assert_eq!(c.take_delta(), 2.5);
        assert_eq!(c.total(), 12.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_increment_rejected() {
        Counter::new().add(-1.0);
    }

    #[test]
    fn truncated_view_matches_hardware_semantics() {
        let mut c = Counter::new();
        c.add(3.9);
        assert_eq!(c.total_u64(), 3);
    }

    #[test]
    fn counter_set_addresses_each_event_independently() {
        let mut s = CounterSet::new();
        s.add(EventKind::BusTransactions, 100.0);
        s.add(EventKind::CyclesOnCpu, 7.0);
        assert_eq!(s.get(EventKind::BusTransactions).total(), 100.0);
        assert_eq!(s.get(EventKind::CyclesOnCpu).total(), 7.0);
        assert_eq!(s.get(EventKind::VirtualProgress).total(), 0.0);
    }

    #[test]
    fn add_running_matches_three_adds() {
        let mut a = CounterSet::new();
        let mut b = CounterSet::new();
        for (t, c, p) in [(3.5, 100.0, 0.25), (0.0, 7.0, 0.0), (1e-300, 0.1, 2.0)] {
            a.add_running(t, c, p);
            b.add(EventKind::BusTransactions, t);
            b.add(EventKind::CyclesOnCpu, c);
            b.add(EventKind::VirtualProgress, p);
        }
        for k in EventKind::ALL {
            assert_eq!(a.get(k).total().to_bits(), b.get(k).total().to_bits());
        }
    }

    #[test]
    fn add_running_rejects_every_bad_amount_in_every_position() {
        for bad in [
            -1.0,
            -0.0 - 1e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for pos in 0..3 {
                let mut amounts = [1.0; 3];
                amounts[pos] = bad;
                let caught = std::panic::catch_unwind(|| {
                    CounterSet::new().add_running(amounts[0], amounts[1], amounts[2])
                });
                assert!(caught.is_err(), "{bad} at position {pos} accepted");
            }
        }
    }

    #[test]
    fn event_index_is_dense_and_consistent() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
