//! The estimate stage: [`Meter`], the one measurement path (§4) shared by
//! every bandwidth-aware stack.

use std::collections::BTreeMap;

use busbw_perfmon::EventKind;
use busbw_sim::{AppId, MachineView, SimTime};
use busbw_trace::TraceEvent;

use super::{StageCtx, PAPER_SAMPLES_PER_QUANTUM};
use crate::estimator::{BandwidthEstimator, LatestQuantumEstimator};
use crate::reconstruct::reconstruct;

/// Total transactions issued so far by `app`'s threads.
fn app_tx(view: &MachineView<'_>, app: AppId) -> f64 {
    view.app(app)
        .map(|a| {
            a.threads
                .iter()
                .map(|t| view.registry.total(t.key(), EventKind::BusTransactions))
                .sum()
        })
        .unwrap_or(0.0)
}

/// The paper's measurement rule (§4): counter deltas are equipartitioned
/// over a job's threads, passed through demand reconstruction
/// (consumption × mean dilation — under saturation a raw measurement is
/// only a lower bound on the requirement, see [`mod@crate::reconstruct`]),
/// and fed to a [`BandwidthEstimator`] rule: whole-quantum rates at
/// quantum boundaries, and finer-grained rates at the twice-per-quantum
/// counter samples when the meter samples at all.
pub struct Meter {
    rule: Box<dyn BandwidthEstimator>,
    sampled: bool,
    /// Jobs committed for the current quantum.
    running: Vec<AppId>,
    /// Per-app cumulative transaction totals at the last quantum boundary.
    quantum_snapshot: BTreeMap<AppId, f64>,
    /// Per-app cumulative transaction totals at the last counter sample.
    sample_snapshot: BTreeMap<AppId, f64>,
    last_boundary_us: SimTime,
    last_sample_us: SimTime,
    /// IOQ-dilation integral at the last quantum boundary / sample.
    dilation_at_boundary: f64,
    dilation_at_sample: f64,
}

impl Meter {
    /// The paper's meter: `rule` fed at quantum boundaries and at two
    /// counter samples per quantum.
    pub fn sampled(rule: Box<dyn BandwidthEstimator>) -> Self {
        Self::with_rule(rule, true)
    }

    /// The comparators' meter: the Latest rule over whole quanta, with no
    /// mid-quantum samples.
    pub fn raw() -> Self {
        Self::with_rule(Box::new(LatestQuantumEstimator::new()), false)
    }

    fn with_rule(rule: Box<dyn BandwidthEstimator>, sampled: bool) -> Self {
        Self {
            rule,
            sampled,
            running: Vec::new(),
            quantum_snapshot: BTreeMap::new(),
            sample_snapshot: BTreeMap::new(),
            last_boundary_us: 0,
            last_sample_us: 0,
            dilation_at_boundary: 0.0,
            dilation_at_sample: 0.0,
        }
    }

    /// Short display name: the rule's ("Latest" / "Window" / "EWMA") for
    /// a sampled meter, "raw" otherwise.
    pub fn label(&self) -> &'static str {
        if self.sampled {
            self.rule.label()
        } else {
            "raw"
        }
    }

    /// Settle the quantum that just ended: record the reconstructed rate
    /// of every job committed at the previous [`Meter::commit`].
    pub fn settle(&mut self, ctx: &StageCtx<'_, '_>) {
        let view = ctx.view;
        let dt = view.now.saturating_sub(self.last_boundary_us);
        if dt == 0 {
            return;
        }
        let lambda = (view.dilation_integral - self.dilation_at_boundary) / dt as f64;
        for &app in &self.running {
            let Some(info) = view.app(app) else { continue };
            let before = self.quantum_snapshot.get(&app).copied().unwrap_or(0.0);
            let per_thread =
                (app_tx(view, app) - before).max(0.0) / dt as f64 / info.width().max(1) as f64;
            let rec = reconstruct(per_thread, lambda);
            if ctx.tracer.emits() {
                ctx.tracer.emit(TraceEvent::Reconstruct {
                    at_us: view.now,
                    app: app.0,
                    measured_per_thread: rec.measured_per_thread,
                    dilation: rec.dilation,
                    demand_per_thread: rec.demand_per_thread,
                });
            }
            self.rule.record_quantum(app, rec.demand_per_thread);
        }
    }

    /// Current `BBW/thread` estimate; `0.0` for never-measured jobs.
    pub fn estimate(&self, app: AppId) -> f64 {
        self.rule.estimate(app)
    }

    /// A new quantum starts with `admitted` running: snapshot their
    /// counters and the dilation integral.
    pub fn commit(&mut self, view: &MachineView<'_>, admitted: &[AppId]) {
        for &app in admitted {
            let t = app_tx(view, app);
            self.quantum_snapshot.insert(app, t);
            self.sample_snapshot.insert(app, t);
        }
        self.running = admitted.to_vec();
        self.last_boundary_us = view.now;
        self.last_sample_us = view.now;
        self.dilation_at_boundary = view.dilation_integral;
        self.dilation_at_sample = view.dilation_integral;
    }

    /// A mid-quantum counter sample: record each running job's
    /// reconstructed rate since the previous sample.
    pub fn on_sample(&mut self, view: &MachineView<'_>) {
        let dt = view.now.saturating_sub(self.last_sample_us);
        if dt == 0 {
            return;
        }
        let lambda = (view.dilation_integral - self.dilation_at_sample) / dt as f64;
        for &app in &self.running {
            let Some(info) = view.app(app) else { continue };
            let total = app_tx(view, app);
            let before = self.sample_snapshot.get(&app).copied().unwrap_or(0.0);
            let per_thread = (total - before).max(0.0) / dt as f64 / info.width().max(1) as f64;
            self.rule
                .record_sample(app, reconstruct(per_thread, lambda).demand_per_thread);
            self.sample_snapshot.insert(app, total);
        }
        self.dilation_at_sample = view.dilation_integral;
        self.last_sample_us = view.now;
    }

    /// The sampling period to request from the machine: half a quantum
    /// for a sampled meter, none otherwise.
    pub fn sample_period_us(&self, quantum_us: u64) -> Option<u64> {
        self.sampled
            .then(|| quantum_us / u64::from(PAPER_SAMPLES_PER_QUANTUM))
    }

    /// Drop all state for a finished job.
    pub fn forget(&mut self, app: AppId) {
        self.quantum_snapshot.remove(&app);
        self.sample_snapshot.remove(&app);
        self.rule.forget(app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::QuantaWindowEstimator;
    use crate::pipeline::{NullSelector, Open, PackedPlacer, PolicyStack, PAPER_QUANTUM_US};
    use busbw_sim::{
        AppDescriptor, Assignment, ConstantDemand, CpuId, Decision, Machine, Scheduler,
        StopCondition, ThreadSpec, XEON_4WAY,
    };
    use busbw_trace::EventBus;

    fn two_thread_app(m: &mut Machine) -> AppId {
        let threads = (0..2)
            .map(|_| ThreadSpec::new(f64::INFINITY, Box::new(ConstantDemand::new(4.0, 0.5))))
            .collect();
        m.add_app(AppDescriptor::new("a", threads))
    }

    /// Run `app` alone on the first cpus for `us`.
    fn run_alone(m: &mut Machine, app: AppId, us: u64) {
        let assignments: Vec<Assignment> = m
            .view()
            .app(app)
            .unwrap()
            .threads
            .iter()
            .enumerate()
            .map(|(i, &t)| Assignment {
                thread: t,
                cpu: CpuId(i),
            })
            .collect();
        let d = Decision {
            assignments,
            next_resched_in_us: us,
            sample_period_us: None,
        };
        let until = m.now() + us;
        let _ = m.run(
            &mut busbw_sim::testkit::Replay::new(d),
            StopCondition::At(until),
        );
    }

    fn settle(meter: &mut Meter, m: &Machine) {
        let view = m.view();
        let bus = EventBus::off();
        meter.settle(&StageCtx {
            view: &view,
            tracer: &bus,
        });
    }

    #[test]
    fn sample_periods_follow_the_configured_rate() {
        let sampled = Meter::sampled(Box::new(QuantaWindowEstimator::new()));
        assert_eq!(sampled.sample_period_us(200_000), Some(100_000));
        assert_eq!(sampled.label(), "Window");
        let raw = Meter::raw();
        assert_eq!(raw.sample_period_us(200_000), None);
        assert_eq!(raw.label(), "raw");
    }

    #[test]
    fn null_estimator_is_inert() {
        // `estimator=null` is a stack with no meter: no samples requested,
        // and every job reads as bandwidth-free even after it ran.
        let mut m = Machine::new(XEON_4WAY);
        let a = two_thread_app(&mut m);
        let mut s = PolicyStack::new(
            "null",
            PAPER_QUANTUM_US,
            None,
            Box::new(Open),
            Box::new(NullSelector),
            Box::new(PackedPlacer),
        );
        assert_eq!(s.stage_labels()[0], "none");
        let d = s.schedule(&m.view());
        assert_eq!(d.sample_period_us, None);
        run_alone(&mut m, a, PAPER_QUANTUM_US);
        let _ = s.schedule(&m.view());
        assert_eq!(s.estimate(a), 0.0);
    }

    #[test]
    fn raw_rate_measures_committed_jobs_only() {
        let mut m = Machine::new(XEON_4WAY);
        let a = two_thread_app(&mut m);
        let mut e = Meter::raw();
        // Not committed: a quantum of running is not measured.
        run_alone(&mut m, a, 200_000);
        settle(&mut e, &m);
        assert_eq!(e.estimate(a), 0.0);
        e.commit(&m.view(), &[a]);
        run_alone(&mut m, a, 200_000);
        settle(&mut e, &m);
        let est = e.estimate(a);
        assert!((2.0..6.5).contains(&est), "raw rate estimate {est}");
        e.forget(a);
        assert_eq!(e.estimate(a), 0.0);
    }

    #[test]
    fn raw_meter_records_consumption_times_clamped_dilation() {
        // Alone on an uncontended bus Λ̄ ≤ 1 clamps to 1, so the recorded
        // rate is exactly the per-thread counter delta over the quantum.
        let mut m = Machine::new(XEON_4WAY);
        let a = two_thread_app(&mut m);
        let mut e = Meter::raw();
        e.commit(&m.view(), &[a]);
        let before = app_tx(&m.view(), a);
        run_alone(&mut m, a, 200_000);
        let view = m.view();
        let lambda = view.dilation_integral / 200_000.0;
        let per_thread = (app_tx(&view, a) - before) / 200_000.0 / 2.0;
        settle(&mut e, &m);
        assert_eq!(e.estimate(a), per_thread * lambda.max(1.0));
    }

    #[test]
    fn sampled_meter_feeds_mid_quantum_samples_to_the_rule() {
        let mut m = Machine::new(XEON_4WAY);
        let a = two_thread_app(&mut m);
        let mut e = Meter::sampled(Box::new(QuantaWindowEstimator::new()));
        e.commit(&m.view(), &[a]);
        run_alone(&mut m, a, 100_000);
        e.on_sample(&m.view());
        // The window rule averages samples only: one sample is in.
        let est = e.estimate(a);
        assert!((2.0..6.5).contains(&est), "windowed estimate {est}");
    }
}
