//! Machine snapshots: a `Machine::clone()` taken mid-run and run forward
//! must be bit-identical to the original run forward, and a run stopped
//! at a decision count then resumed must match one continuous run. The
//! offline oracle's search relies on both (it resumes every node from its
//! parent's snapshot instead of replaying the plan from t = 0).

use busbw_sim::{
    AppDescriptor, AppId, Assignment, ConstantDemand, CpuId, Decision, Machine, MachineConfig,
    MachineView, RunStats, Scheduler, StopCondition, ThreadSpec, TopologyConfig, XEON_4WAY,
};
use busbw_workloads::burst::TwoStateBurst;

/// Rotates every runnable thread one cpu further each quantum, so
/// threads migrate (across sockets on a multi-socket machine), go cold
/// and re-warm. Samples twice per quantum.
#[derive(Clone, Default)]
struct Rotate {
    step: usize,
    samples: u64,
}

impl Scheduler for Rotate {
    fn schedule(&mut self, v: &MachineView<'_>) -> Decision {
        let runnable: Vec<_> = v.threads().filter(|t| t.is_runnable()).collect();
        let n = v.num_cpus;
        let assignments = runnable
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, t)| Assignment {
                thread: t.id,
                cpu: CpuId((i + self.step) % n),
            })
            .collect();
        self.step += 1;
        Decision {
            assignments,
            next_resched_in_us: 30_000,
            sample_period_us: Some(15_000),
        }
    }

    fn on_sample(&mut self, _v: &MachineView<'_>) {
        self.samples += 1;
    }
}

/// Two-socket config: eight cpus, four per socket, `HierarchicalBus`.
fn two_socket() -> MachineConfig {
    MachineConfig {
        num_cpus: 8,
        topology: TopologyConfig::multi(2),
        ..XEON_4WAY
    }
}

/// A bursty gang (stateful `TwoStateBurst` demand), a barrier-coupled
/// heavy gang and a light constant gang: more threads than cpus, so the
/// rotation also preempts.
fn loaded(cfg: MachineConfig) -> (Machine, Vec<AppId>) {
    let mut m = Machine::new(cfg);
    let bursty = (0..3)
        .map(|i| {
            ThreadSpec::new(
                400_000.0,
                Box::new(TwoStateBurst::raytrace(6.0, 0.7, 11 + i)),
            )
        })
        .collect();
    let heavy = (0..4)
        .map(|_| ThreadSpec::new(300_000.0, Box::new(ConstantDemand::new(9.0, 0.9))))
        .collect();
    let light = (0..3)
        .map(|_| ThreadSpec::new(250_000.0, Box::new(ConstantDemand::new(0.5, 0.1))))
        .collect();
    let ids = vec![
        m.add_app(AppDescriptor::new("bursty", bursty)),
        m.add_app(AppDescriptor::new("heavy", heavy).with_barrier_interval(20_000.0)),
        m.add_app(AppDescriptor::new("light", light)),
    ];
    (m, ids)
}

/// Every `RunStats` field, f64s by bit pattern.
fn stats_bits(s: &RunStats) -> Vec<u64> {
    let b = &s.bus;
    let mut v = vec![
        s.elapsed_us,
        s.ticks,
        s.schedule_calls,
        s.sample_calls,
        s.cold_placements,
        s.placements,
        b.total_transactions.to_bits(),
        b.total_demanded.to_bits(),
        b.saturated_us.to_bits(),
        b.peak_dilation.to_bits(),
        b.utilization_integral.to_bits(),
        s.n_levels as u64,
    ];
    for l in &s.levels {
        v.extend([
            l.total_issued.to_bits(),
            l.total_demanded.to_bits(),
            l.saturated_us.to_bits(),
            l.utilization_integral.to_bits(),
            l.peak_dilation.to_bits(),
        ]);
    }
    v.extend(s.tick_dt_hist.buckets);
    v
}

/// Every app report and the clock, f64s by bit pattern.
fn machine_bits(m: &Machine, apps: &[AppId]) -> Vec<u64> {
    let mut v = vec![m.now()];
    for &a in apps {
        let r = m.app_report(a).expect("app exists");
        v.extend([
            r.threads as u64,
            r.arrived_at_us,
            r.finished_at_us.unwrap_or(u64::MAX),
            r.cpu_time_us.to_bits(),
            r.progress_us.to_bits(),
            r.transactions.to_bits(),
            r.cold_starts.to_bits(),
            r.quanta_run.to_bits(),
        ]);
    }
    v
}

fn assert_clone_runs_like_the_original(cfg: MachineConfig) {
    let (mut original, apps) = loaded(cfg);
    let mut sched = Rotate::default();
    // Stop mid-quantum and between samples, with the replay cache warm.
    let head = original.run(&mut sched, StopCondition::At(107_300));
    assert_eq!(head.stopped_at, 107_300);
    let mut snapshot = original.clone();
    let mut sched2 = sched.clone();

    let stop = StopCondition::AllFiniteAppsFinished;
    let a = original.run(&mut sched, stop.clone());
    let b = snapshot.run(&mut sched2, stop);
    assert!(a.condition_met && b.condition_met);
    assert!(a.stats.schedule_calls > 10, "run too short to test");
    assert_eq!(a.stopped_at, b.stopped_at);
    assert_eq!(stats_bits(&a.stats), stats_bits(&b.stats));
    assert_eq!(
        machine_bits(&original, &apps),
        machine_bits(&snapshot, &apps)
    );
    assert_eq!(sched.samples, sched2.samples);
}

#[test]
fn clone_runs_forward_like_the_original_on_one_socket() {
    assert_clone_runs_like_the_original(XEON_4WAY);
}

#[test]
fn clone_runs_forward_like_the_original_on_two_sockets() {
    let (m, _) = loaded(two_socket());
    assert_eq!(m.view().bus_levels.len(), 3, "expected a hierarchical bus");
    assert_clone_runs_like_the_original(two_socket());
}

#[test]
fn decision_stop_then_resume_matches_a_continuous_run() {
    let (mut continuous, apps) = loaded(two_socket());
    let mut sched = Rotate::default();
    let whole = continuous.run(&mut sched, StopCondition::AppsFinished(apps.clone()));
    assert!(whole.condition_met);

    let (mut chained, _) = loaded(two_socket());
    let mut sched2 = Rotate::default();
    let mut decisions = 0;
    loop {
        let stop = StopCondition::AppsFinishedOrDecisions(apps.clone(), 3);
        let out = chained.run(&mut sched2, stop);
        decisions += out.stats.schedule_calls;
        if out.condition_met {
            break;
        }
        assert_eq!(out.stats.schedule_calls, 3, "stopped before its count");
    }
    assert_eq!(decisions, whole.stats.schedule_calls);
    assert_eq!(chained.now(), continuous.now());
    assert_eq!(
        machine_bits(&chained, &apps),
        machine_bits(&continuous, &apps)
    );
    assert_eq!(sched.samples, sched2.samples);
}
