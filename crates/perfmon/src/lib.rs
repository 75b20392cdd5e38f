//! Simulated performance-monitoring counters.
//!
//! The ICPP 2003 paper reads hardware performance-monitoring counters (via
//! Mikael Pettersson's `perfctr` Linux driver) to observe, per thread, the
//! number of **bus transactions** issued since the last read. The scheduling
//! policies never see anything else from the hardware: just monotone event
//! counts keyed by thread, sampled at scheduler-controlled instants.
//!
//! This crate reproduces exactly that contract on top of the simulator:
//!
//! * [`EventKind`] — the event set a Pentium-4-era PMU exposes that the paper
//!   uses (bus transactions) plus a few neighbours useful for extensions.
//! * [`Counter`] — one monotone event counter (read, read-and-reset-delta).
//! * [`CounterSet`] — all counters of one thread (what `perfctr` calls a
//!   per-thread *virtual counter* file).
//! * [`Registry`] — all counter sets on the machine, keyed by an opaque
//!   thread id. The simulator increments counters; schedulers sample them.
//!
//! Turning counter deltas into the transactions/µs rates both paper
//! policies consume (twice per scheduling quantum) is the scheduler's
//! job: `busbw_core::pipeline::Meter` reads [`Registry::total`] at quantum
//! boundaries and samples.
//!
//! Counts are kept in `f64` internally because the fluid simulator produces
//! fractional transactions per tick; reads expose both the fractional total
//! and a truncated `u64` view (what real hardware would show).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod registry;

pub use counter::{Counter, CounterSet, EventKind};
pub use registry::{Registry, ThreadKey};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_rate_estimation() {
        let mut reg = Registry::new();
        let t = ThreadKey(7);
        reg.register(t);
        // Simulate 1000 µs of a thread issuing 5 tx/µs, read as a
        // scheduler does: the counter delta over the interval.
        let before = reg.total(t, EventKind::BusTransactions);
        reg.add(t, EventKind::BusTransactions, 5000.0);
        let rate = (reg.total(t, EventKind::BusTransactions) - before) / 1000.0;
        assert!((rate - 5.0).abs() < 1e-9);
    }
}
