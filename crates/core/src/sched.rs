//! The bus-bandwidth-aware gang scheduler (§4 of the paper), expressed as
//! [`PolicyStack`] presets over the [`crate::pipeline`] stages.
//!
//! One stack shape hosts both paper policies; they differ only in the
//! [`BandwidthEstimator`] plugged in. Per scheduling quantum:
//!
//! 1. **Measure.** Counter samples are taken twice per quantum
//!    ([`busbw_sim::Scheduler::on_sample`]); at the quantum boundary each
//!    job that ran gets its per-thread transaction rate recorded
//!    (equipartitioned over its threads, as in the paper) — the sampled
//!    [`Meter`] stage.
//! 2. **Rotate.** Jobs that just ran move to the end of the (conceptually
//!    circular) applications list — the stack's own bookkeeping.
//! 3. **Select.** The head job is admitted unconditionally — this is the
//!    paper's starvation-freedom guarantee ([`HeadOfList`] admission).
//!    While free processors remain, the list is re-traversed and the job
//!    maximizing `fitness(ABBW/proc, BBW/thread)` among those that *fit*
//!    (gang semantics: all threads or nothing) is admitted; `ABBW/proc`
//!    is recomputed after every admission ([`FitnessSelector`]).
//! 4. **Place.** Admitted gangs are placed with affinity: each thread
//!    prefers its previous cpu, then its warmest cache, then any free cpu
//!    ([`PackedPlacer`]).

use crate::estimator::BandwidthEstimator;
use crate::pipeline::{
    FitnessSelector, HeadOfList, Meter, PackedPlacer, PolicyStack, PAPER_QUANTUM_US,
};

/// The paper's bandwidth-aware gang scheduler around an estimator rule:
/// head-of-list admission, fitness-max fill, packed affinity placement,
/// 200 ms quantum sampled twice.
pub fn bus_aware(estimator: Box<dyn BandwidthEstimator>) -> PolicyStack {
    bus_aware_with_quantum(estimator, PAPER_QUANTUM_US)
}

/// [`bus_aware`] with a custom quantum (the quantum ablation), still
/// sampled twice per quantum.
///
/// # Panics
/// Panics if `quantum_us` is zero.
pub fn bus_aware_with_quantum(
    estimator: Box<dyn BandwidthEstimator>,
    quantum_us: u64,
) -> PolicyStack {
    let name = estimator.label().to_string();
    PolicyStack::new(
        name,
        quantum_us,
        Some(Meter::sampled(estimator)),
        Box::new(HeadOfList),
        Box::new(FitnessSelector),
        Box::new(PackedPlacer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{LatestQuantumEstimator, QuantaWindowEstimator};
    use busbw_sim::{
        AppDescriptor, AppId, ConstantDemand, Machine, Scheduler, StopCondition, ThreadSpec,
        XEON_4WAY,
    };
    use std::collections::BTreeMap;

    fn app(m: &mut Machine, name: &str, nthreads: usize, rate: f64, mu: f64, work: f64) -> AppId {
        let threads = (0..nthreads)
            .map(|_| ThreadSpec::new(work, Box::new(ConstantDemand::new(rate, mu))))
            .collect();
        m.add_app(AppDescriptor::new(name, threads))
    }

    fn latest() -> PolicyStack {
        bus_aware(Box::new(LatestQuantumEstimator::new()))
    }

    fn window() -> PolicyStack {
        bus_aware(Box::new(QuantaWindowEstimator::new()))
    }

    #[test]
    fn everything_fits_everything_runs() {
        let mut m = Machine::new(XEON_4WAY);
        let a = app(&mut m, "a", 2, 1.0, 0.2, 400_000.0);
        let b = app(&mut m, "b", 2, 1.0, 0.2, 400_000.0);
        let mut s = latest();
        let out = m.run(&mut s, StopCondition::AppsFinished(vec![a, b]));
        assert!(out.condition_met);
        // Both fit on 4 cpus: finish in ~solo time.
        for id in [a, b] {
            let t = m.turnaround_us(id).unwrap();
            assert!(t < 500_000, "{t}");
        }
    }

    #[test]
    fn gang_semantics_all_threads_or_none() {
        let mut m = Machine::new(XEON_4WAY);
        // Three 2-thread apps on 4 cpus: exactly two run per quantum.
        for i in 0..3 {
            app(&mut m, &format!("a{i}"), 2, 1.0, 0.2, f64::INFINITY);
        }
        let mut s = latest();
        // Drive a few quanta manually.
        for _ in 0..5 {
            let d = s.schedule(&m.view());
            // Count threads per app among assignments.
            let mut per_app: BTreeMap<AppId, usize> = BTreeMap::new();
            for a in &d.assignments {
                let info = m.view().thread(a.thread).unwrap();
                *per_app.entry(info.app).or_default() += 1;
            }
            assert_eq!(d.assignments.len(), 4, "all cpus used");
            for (_, n) in per_app {
                assert_eq!(n, 2, "gangs are indivisible");
            }
            // Advance a quantum so rotation matters.
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
    }

    #[test]
    fn no_starvation_under_rotation() {
        let mut m = Machine::new(XEON_4WAY);
        let ids: Vec<AppId> = (0..4)
            .map(|i| app(&mut m, &format!("a{i}"), 2, 8.0, 0.8, f64::INFINITY))
            .collect();
        let mut s = window();
        let mut ran_ever: BTreeMap<AppId, bool> = ids.iter().map(|&i| (i, false)).collect();
        // Drive quanta manually; every app must run (head-of-list rule).
        for _ in 0..12 {
            let d = s.schedule(&m.view());
            for a in &d.assignments {
                let info = m.view().thread(a.thread).unwrap();
                ran_ever.insert(info.app, true);
            }
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        assert!(ran_ever.values().all(|&r| r), "{ran_ever:?}");
    }

    #[test]
    fn pairs_heavy_with_light_when_bus_is_tight() {
        let mut m = Machine::new(XEON_4WAY);
        // Two heavy 2-thread jobs (each alone nearly fills the bus) and two
        // light 2-thread jobs. The fitness rule should co-schedule
        // heavy+light, not heavy+heavy.
        let h1 = app(&mut m, "h1", 2, 11.0, 0.9, f64::INFINITY);
        let h2 = app(&mut m, "h2", 2, 11.0, 0.9, f64::INFINITY);
        let l1 = app(&mut m, "l1", 2, 0.1, 0.05, f64::INFINITY);
        let l2 = app(&mut m, "l2", 2, 0.1, 0.05, f64::INFINITY);
        let mut s = latest();
        // Warm up estimates over a few quanta.
        let mut paired_heavy_heavy = 0;
        let mut quanta = 0;
        for _ in 0..20 {
            let d = s.schedule(&m.view());
            let mut apps: Vec<AppId> = d
                .assignments
                .iter()
                .map(|a| m.view().thread(a.thread).unwrap().app)
                .collect();
            apps.sort();
            apps.dedup();
            if apps.contains(&h1) && apps.contains(&h2) {
                paired_heavy_heavy += 1;
            }
            let _ = (apps.contains(&l1), apps.contains(&l2));
            quanta += 1;
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        // The first quantum has no estimates (heavy+heavy is unavoidable),
        // and because the counters measure *achieved* bandwidth, heavy jobs
        // that co-ran look lighter than they are — so occasional
        // heavy+heavy pairings recur (the paper's policy measures the same
        // way). The claim to verify is that the fitness rule makes
        // heavy+light the dominant pairing, where a bandwidth-oblivious
        // round-robin over this 4-job list would pair heavy+heavy half the
        // time and Linux would do so arbitrarily.
        assert!(quanta >= 20);
        assert!(
            paired_heavy_heavy * 2 < quanta,
            "heavy jobs co-scheduled {paired_heavy_heavy}/{quanta} quanta"
        );
    }

    #[test]
    fn estimates_converge_to_solo_rates() {
        let mut m = Machine::new(XEON_4WAY);
        let a = app(&mut m, "a", 2, 5.0, 0.5, f64::INFINITY);
        let mut s = latest();
        for _ in 0..6 {
            let d = s.schedule(&m.view());
            let _ = m.run(
                &mut busbw_sim::testkit::Replay::new(d),
                StopCondition::At(m.now() + 200_000),
            );
        }
        // The estimator settles on the *next* schedule call.
        let _ = s.schedule(&m.view());
        let est = s.estimate(a);
        assert!(
            (4.0..7.0).contains(&est),
            "estimate {est}, expected ~5 tx/µs/thread"
        );
    }

    #[test]
    fn placement_preserves_affinity_across_quanta() {
        let mut m = Machine::new(XEON_4WAY);
        let _a = app(&mut m, "a", 2, 2.0, 0.3, f64::INFINITY);
        let _b = app(&mut m, "b", 2, 2.0, 0.3, f64::INFINITY);
        let mut s = window();
        let d1 = s.schedule(&m.view());
        let placement1: BTreeMap<_, _> = d1.assignments.iter().map(|a| (a.thread, a.cpu)).collect();
        let _ = m.run(
            &mut busbw_sim::testkit::Replay::new(d1),
            StopCondition::At(m.now() + 200_000),
        );
        let d2 = s.schedule(&m.view());
        for a in &d2.assignments {
            assert_eq!(placement1[&a.thread], a.cpu, "thread migrated needlessly");
        }
    }

    #[test]
    fn preset_stack_reports_paper_defaults() {
        let s = latest();
        assert_eq!(s.name(), "Latest");
        assert_eq!(s.quantum_us(), PAPER_QUANTUM_US);
        assert_eq!(
            s.stage_labels(),
            ["Latest", "head", "fitness", "packed"],
            "preset composes the paper stages"
        );
    }
}
