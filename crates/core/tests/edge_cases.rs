//! Edge cases for the policy layer: degenerate machines, dying jobs,
//! oversized gangs, and estimator plumbing end to end.

use busbw_core::estimator::EwmaEstimator;
use busbw_core::pipeline::{PAPER_QUANTUM_US, PAPER_SAMPLES_PER_QUANTUM};
use busbw_core::{bus_aware, latest_quantum, linux_like, quanta_window};
use busbw_sim::{
    AppDescriptor, AppId, ConstantDemand, Decision, Machine, MachineConfig, Scheduler,
    StopCondition, ThreadSpec, XEON_4WAY,
};

fn add(m: &mut Machine, name: &str, n: usize, rate: f64, work: f64) -> AppId {
    let threads = (0..n)
        .map(|_| ThreadSpec::new(work, Box::new(ConstantDemand::new(rate, 0.5))))
        .collect();
    m.add_app(AppDescriptor::new(name, threads))
}

fn quantum(m: &mut Machine, s: &mut dyn Scheduler) -> Decision {
    let d = s.schedule(&m.view());
    let clone = d.clone();
    m.run(
        &mut busbw_sim::testkit::Replay::new(d),
        StopCondition::At(m.now() + 200_000),
    );
    clone
}

#[test]
fn empty_machine_schedules_nothing_without_panicking() {
    let m = Machine::new(XEON_4WAY);
    for mut s in [latest_quantum(), quanta_window()] {
        let d = s.schedule(&m.view());
        assert!(d.assignments.is_empty());
        assert!(d.next_resched_in_us > 0);
    }
    let mut linux = linux_like();
    assert!(linux.schedule(&m.view()).assignments.is_empty());
}

#[test]
fn single_cpu_machine_runs_one_job_at_a_time() {
    let cfg = MachineConfig {
        num_cpus: 1,
        ..XEON_4WAY
    };
    let mut m = Machine::new(cfg);
    let a = add(&mut m, "a", 1, 1.0, f64::INFINITY);
    let b = add(&mut m, "b", 1, 1.0, f64::INFINITY);
    let mut s = quanta_window();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4 {
        let d = quantum(&mut m, &mut s);
        assert_eq!(d.assignments.len(), 1, "one cpu, one thread");
        seen.insert(m.view().thread(d.assignments[0].thread).unwrap().app);
    }
    assert!(seen.contains(&a) && seen.contains(&b), "rotation on 1 cpu");
}

#[test]
fn oversized_gang_never_runs_but_never_blocks_others() {
    let mut m = Machine::new(XEON_4WAY);
    let wide = add(&mut m, "wide", 6, 1.0, f64::INFINITY); // wider than machine
    let ok = add(&mut m, "ok", 2, 1.0, 500_000.0);
    let mut s = latest_quantum();
    let out = m.run(&mut s, StopCondition::AppsFinished(vec![ok]));
    assert!(out.condition_met, "narrow job finished despite wide job");
    let wide_progress = m
        .view()
        .app(wide)
        .unwrap()
        .threads
        .iter()
        .map(|&t| m.view().thread(t).unwrap().progress_us)
        .sum::<f64>();
    assert_eq!(wide_progress, 0.0, "6-wide gang cannot fit 4 cpus");
}

#[test]
fn estimator_state_is_dropped_with_the_job() {
    let mut m = Machine::new(XEON_4WAY);
    let short = add(&mut m, "short", 2, 8.0, 150_000.0);
    let _long = add(&mut m, "long", 2, 1.0, f64::INFINITY);
    let mut s = latest_quantum();
    for _ in 0..4 {
        quantum(&mut m, &mut s);
    }
    assert!(
        m.turnaround_us(short).is_some(),
        "short job should be done after 800 ms"
    );
    // One more schedule triggers the refresh that forgets the dead job.
    let _ = s.schedule(&m.view());
    assert_eq!(s.estimate(short), 0.0, "estimate must be forgotten");
}

#[test]
fn ewma_estimator_works_end_to_end_in_the_scheduler() {
    let mut m = Machine::new(XEON_4WAY);
    let a = add(&mut m, "a", 2, 6.0, f64::INFINITY);
    let mut s = bus_aware(Box::new(EwmaEstimator::matching_window(5)));
    assert_eq!(s.name(), "EWMA");
    // Drive with the real machine loop so on_sample fires.
    m.run(&mut s, StopCondition::At(1_600_000));
    let _ = s.schedule(&m.view());
    let est = s.estimate(a);
    assert!((4.0..8.5).contains(&est), "EWMA estimate {est}");
}

#[test]
fn policies_survive_every_job_finishing() {
    let mut m = Machine::new(XEON_4WAY);
    let a = add(&mut m, "a", 2, 1.0, 200_000.0);
    let b = add(&mut m, "b", 2, 1.0, 200_000.0);
    let mut s = quanta_window();
    let out = m.run(&mut s, StopCondition::AppsFinished(vec![a, b]));
    assert!(out.condition_met);
    // Machine now empty of runnable work; further scheduling is a no-op.
    let d = s.schedule(&m.view());
    assert!(d.assignments.is_empty());
}

#[test]
fn sampling_contract_matches_paper_two_per_quantum() {
    assert_eq!(PAPER_QUANTUM_US, 200_000);
    assert_eq!(PAPER_SAMPLES_PER_QUANTUM, 2);
    assert_eq!(latest_quantum().quantum_us(), PAPER_QUANTUM_US);
    let mut m = Machine::new(XEON_4WAY);
    add(&mut m, "a", 2, 2.0, f64::INFINITY);
    // Every decision asks the machine for a sample every 100 ms.
    let d = latest_quantum().schedule(&m.view());
    assert_eq!(d.sample_period_us, Some(100_000));
    let mut s = latest_quantum();
    let out = m.run(&mut s, StopCondition::At(2_000_000));
    // 2 samples per 200 ms over 2 s ≈ 20 (±boundary effects).
    assert!(
        (16..=22).contains(&(out.stats.sample_calls as i64)),
        "sample calls {}",
        out.stats.sample_calls
    );
}
