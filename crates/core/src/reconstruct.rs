//! Demand reconstruction: from *consumed* bandwidth to *required*
//! bandwidth.
//!
//! §4 of the paper drives both policies with each job's "bus bandwidth
//! **requirements**". Hardware counters, however, report bandwidth
//! **consumption** — and under a saturated bus consumption is deflated:
//! every thread's memory phases are dilated, so a job demanding
//! 11.65 tx/µs per thread may be observed at ~4.9. Feeding deflated
//! observations into Equation (1) inflates `ABBW/proc` (allocated jobs
//! look cheaper than they are) and flips the pairing decisions the paper
//! describes — e.g. a saturating application would be co-scheduled with a
//! BBMA instead of with its own second instance.
//!
//! The correction uses a second PMU reading that the paper's platform
//! really provides: the Pentium 4 / Xeon event set includes **IOQ (bus
//! queue) occupancy** events, from which the average *dilation* Λ̄ of
//! memory phases over an interval can be estimated (Λ̄ ≈ 1 on an
//! uncontended bus). Since consumption tracks progress,
//!
//! ```text
//! requirement ≈ consumption × Λ̄
//! ```
//!
//! exactly for fully memory-bound jobs, and with a bounded *relative*
//! overestimate for compute-bound jobs — which is harmless because their
//! absolute rates are small (an nBBMA measured at 0.004 tx/µs inflates to
//! at most ~0.01). The simulator exposes the same reading as
//! `MachineView::dilation_integral`; the real-thread CPU manager accepts
//! it through [`crate::manager::CpuManager::note_dilation`].
//!
//! Reconstruction is part of the *measurement* layer: [`reconstruct`] is a
//! pure function that the pipeline's [`crate::pipeline::Meter`] and the
//! CPU manager both call before handing a rate to their
//! [`crate::BandwidthEstimator`]. Both policies, the ablation comparators
//! and the model-driven comparator therefore receive reconstructed
//! requirements, so the Latest-vs-Window comparison stays exactly the
//! paper's.

/// One reconstruction step: the clamped inputs and the output, as fed to
/// the estimator (the trace layer's "reconstruction inputs/outputs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconstruction {
    /// Consumed bandwidth per thread over the interval, tx/µs (clamped
    /// at 0).
    pub measured_per_thread: f64,
    /// Average bus dilation Λ̄ used (clamped at 1).
    pub dilation: f64,
    /// Reconstructed requirement per thread, tx/µs.
    pub demand_per_thread: f64,
}

/// Reconstruct one interval's per-thread requirement from its consumption.
///
/// * `measured_per_thread` — consumed bandwidth per thread over the
///   interval (tx/µs; negative values are clamped to 0);
/// * `dilation` — the average bus dilation Λ̄ over the interval (1 =
///   uncontended; values below 1 are clamped).
pub fn reconstruct(measured_per_thread: f64, dilation: f64) -> Reconstruction {
    let measured = measured_per_thread.max(0.0);
    let dilation = dilation.max(1.0);
    Reconstruction {
        measured_per_thread: measured,
        dilation,
        demand_per_thread: measured * dilation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(measured: f64, dilation: f64) -> f64 {
        reconstruct(measured, dilation).demand_per_thread
    }

    #[test]
    fn uncontended_observations_are_exact() {
        assert_eq!(demand(11.65, 1.0), 11.65);
        // Downward phase change on an uncontended bus is believed at once.
        assert_eq!(demand(2.0, 1.0), 2.0);
    }

    #[test]
    fn saturated_observations_are_inflated_by_dilation() {
        // CG-class job throttled to 4.87 tx/µs/thread at Λ̄ = 2.63 —
        // reconstruction recovers ≈ its 11.65 true demand (µ < 1 gives a
        // slight overestimate, which is the safe direction).
        let est = demand(4.87, 2.63);
        assert!((11.0..13.5).contains(&est), "reconstructed {est}");
    }

    #[test]
    fn low_rate_jobs_stay_low_after_inflation() {
        // nBBMA at deep saturation: absolute error stays negligible.
        let est = demand(0.0037, 3.0);
        assert!(est < 0.02, "{est}");
    }

    #[test]
    fn dilation_below_one_is_clamped() {
        let r = reconstruct(5.0, 0.5);
        assert_eq!(r.dilation, 1.0);
        assert_eq!(r.demand_per_thread, 5.0);
    }

    #[test]
    fn negative_measurements_are_clamped() {
        let r = reconstruct(-1.0, 2.0);
        assert_eq!(r.measured_per_thread, 0.0);
        assert_eq!(r.demand_per_thread, 0.0);
    }
}
