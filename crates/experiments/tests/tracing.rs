//! End-to-end checks of the structured-tracing layer: the pinned event
//! sequence of a tiny deterministic run, worker-count invariance of the
//! merged stream, and the hardened (non-panicking) hard-cap path.

use busbw_core::linux_like;
use busbw_experiments::{
    merge_traces, run_spec, steal_map, Fig2Set, PolicyKind, RunCompletion, RunnerConfig, TraceMode,
};
use busbw_sim::{AppDescriptor, ConstantDemand, Machine, StopCondition, ThreadSpec, XEON_4WAY};
use busbw_trace::{EventBus, TraceEvent};
use busbw_workloads::paper::PaperApp;

/// A machine with two single-thread constant-demand apps, far more work
/// than two quanta can retire — the smallest fully deterministic workload
/// exercising placements, bus solves, and phase edges.
fn two_app_machine() -> Machine {
    let mut m = Machine::new(XEON_4WAY);
    for name in ["alpha", "beta"] {
        m.add_app(AppDescriptor::new(
            name,
            vec![ThreadSpec::new(
                10_000_000.0,
                Box::new(ConstantDemand::new(0.0, 0.0)),
            )],
        ));
    }
    m
}

#[test]
fn two_app_two_quantum_event_sequence_is_pinned() {
    let (bus, handle) = EventBus::memory();
    let mut m = two_app_machine();
    m.set_tracer(bus);
    let mut sched = linux_like();
    // Exactly two Linux quanta (100 ms each).
    let out = m.run(&mut sched, StopCondition::At(200_000));
    assert!(out.condition_met);

    let events = handle.take();
    let got: Vec<String> = events
        .iter()
        .map(|e| format!("{}@{}", e.kind(), e.at_us()))
        .collect();
    // The pinned sequence: the four pipeline stages report at each
    // reschedule, both threads are placed at t=0, one phase edge fires
    // per thread as its (zero-rate) demand is first observed, a single
    // Λ solve (constant demand never re-emits), and the re-placements at
    // the 100 ms quantum boundary. Any change to the tick loop's (or the
    // policy pipeline's) emission points shows up here verbatim.
    let want = [
        "stage_decision@0",
        "stage_decision@0",
        "stage_decision@0",
        "stage_decision@0",
        "placement@0",
        "placement@0",
        "phase_edge@0",
        "phase_edge@0",
        "bus_solve@0",
        "stage_decision@100000",
        "stage_decision@100000",
        "stage_decision@100000",
        "stage_decision@100000",
        "placement@100000",
        "placement@100000",
    ];
    assert_eq!(got, want, "full sequence: {got:#?}");

    // The same events serialize to parseable JSON with monotone times.
    let mut last = 0;
    for e in &events {
        assert!(e.at_us() >= last, "events must be time-ordered");
        last = e.at_us();
        let js = e.to_json();
        busbw_trace::json::parse(&js).expect("event JSON parses");
    }
}

#[test]
fn merged_selection_events_are_identical_serial_vs_four_workers() {
    let rc = RunnerConfig {
        scale: 0.05,
        trace: TraceMode::Collect,
        ..RunnerConfig::default()
    };
    let jobs: Vec<(PaperApp, PolicyKind)> = vec![
        (PaperApp::Cg, PolicyKind::Window),
        (PaperApp::Mg, PolicyKind::Latest),
        (PaperApp::Volrend, PolicyKind::Window),
        (PaperApp::Raytrace, PolicyKind::Latest),
    ];
    let run_all = |workers: usize| {
        let (results, _) = steal_map(&jobs, workers, |(app, p)| {
            run_spec(&Fig2Set::B.spec(*app), *p, &rc)
        });
        merge_traces(&results)
    };
    let serial = run_all(1);
    let parallel = run_all(4);

    // The merged stream — and in particular every per-quantum gang
    // selection — is byte-for-byte identical regardless of worker count.
    let jsonl = |merged: &[(usize, TraceEvent)], kind: Option<&str>| {
        merged
            .iter()
            .filter(|(_, e)| kind.is_none_or(|k| e.kind() == k))
            .map(|(ji, e)| format!("{ji}:{}", e.to_json()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sel_serial = jsonl(&serial, Some("gang_selected"));
    assert!(!sel_serial.is_empty(), "bus-aware runs must select gangs");
    assert_eq!(sel_serial, jsonl(&parallel, Some("gang_selected")));
    assert_eq!(jsonl(&serial, None), jsonl(&parallel, None));
}

#[test]
fn hard_capped_run_reports_unfinished_apps_instead_of_panicking() {
    // A cap far below the work volume: no measured app can finish.
    let rc = RunnerConfig {
        scale: 0.05,
        hard_cap_factor: 0.2,
        trace: TraceMode::Collect,
        ..RunnerConfig::default()
    };
    let r = run_spec(&Fig2Set::A.spec(PaperApp::Cg), PolicyKind::Linux, &rc);

    let RunCompletion::HardCap { unfinished } = &r.completion else {
        panic!("expected the hard cap to fire, got {:?}", r.completion);
    };
    assert_eq!(unfinished.len(), 2, "both CG instances were cut off");
    for u in unfinished {
        assert!(u.name.contains("CG"), "unfinished app name: {}", u.name);
        assert!(
            u.progress_frac > 0.0 && u.progress_frac < 1.0,
            "progress {}",
            u.progress_frac
        );
    }
    // Turnarounds are censored at the stop time, not absent.
    assert_eq!(r.turnarounds_us.len(), 2);
    assert!(r.turnarounds_us.iter().all(|&t| t > 0.0));
    assert!(r.mean_turnaround_us > 0.0);
    // And the censoring is visible in the trace.
    let cut: Vec<&TraceEvent> = r
        .events
        .iter()
        .filter(|e| e.kind() == "run_unfinished")
        .collect();
    assert_eq!(cut.len(), 2);

    // The same workload with the default cap finishes cleanly.
    let ok = run_spec(
        &Fig2Set::A.spec(PaperApp::Cg),
        PolicyKind::Linux,
        &RunnerConfig {
            hard_cap_factor: 100.0,
            ..rc
        },
    );
    assert_eq!(ok.completion, RunCompletion::Finished);
    assert!(ok.events.iter().all(|e| e.kind() != "run_unfinished"));
}
