//! Integration: the user-level CPU manager with real OS threads,
//! exercising the full §4 system — protocol, arenas, gates, selection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use busbw::core::estimator::{LatestQuantumEstimator, QuantaWindowEstimator};
use busbw::core::manager::{AppRuntime, CpuManager, ManagerConfig, ManagerHandle, Signal};

fn manager(num_cpus: usize) -> (CpuManager, ManagerHandle) {
    CpuManager::new(
        ManagerConfig {
            num_cpus,
            ..ManagerConfig::default()
        },
        Some(Box::new(QuantaWindowEstimator::new())),
    )
}

fn connect(m: &mut CpuManager, h: &ManagerHandle, name: &str) -> AppRuntime {
    let pending = AppRuntime::request_connect(h, name).expect("manager alive");
    m.pump();
    pending.complete().expect("manager alive")
}

#[test]
fn manager_pairs_heavy_with_light_via_arena_rates() {
    let (mut m, h) = manager(4);
    let mut heavy1 = connect(&mut m, &h, "heavy1");
    let mut heavy2 = connect(&mut m, &h, "heavy2");
    let mut light = connect(&mut m, &h, "light");
    // Each app registers two worker threads; keep the handles so the test
    // can generate the counter traffic the run-time library would see.
    let h1 = (
        heavy1.register_thread().expect("manager alive"),
        heavy1.register_thread().expect("manager alive"),
    );
    let h2 = (
        heavy2.register_thread().expect("manager alive"),
        heavy2.register_thread().expect("manager alive"),
    );
    let hl = (
        light.register_thread().expect("manager alive"),
        light.register_thread().expect("manager alive"),
    );
    m.pump();

    // Simulate the run-time library: count transactions at each job's
    // nominal rate, publish to the arena every quantum, and let the
    // manager sample + select. After warm-up the two heavy jobs must not
    // be co-scheduled (4 cpus: one heavy pairs with the light job).
    let interval_us = 200_000u64;
    let mut co_scheduled_heavy = 0;
    for q in 1..=10u64 {
        for (app, handles, rate) in [
            (&mut heavy1, &h1, 22.0f64),
            (&mut heavy2, &h2, 22.0),
            (&mut light, &hl, 0.02),
        ] {
            let tx_per_thread = (rate * interval_us as f64 / 2.0) as u64;
            handles.0.count_transactions(tx_per_thread);
            handles.1.count_transactions(tx_per_thread);
            app.publish_sample(q * interval_us);
        }
        m.sample();
        let sel = m.quantum();
        if q > 3 && sel.contains(&heavy1.id()) && sel.contains(&heavy2.id()) {
            co_scheduled_heavy += 1;
        }
    }
    assert_eq!(
        co_scheduled_heavy, 0,
        "heavy jobs co-scheduled after warmup"
    );
}

#[test]
fn blocked_workers_park_and_released_workers_progress() {
    let (mut m, h) = manager(2);
    let mut a = connect(&mut m, &h, "a");
    let mut b = connect(&mut m, &h, "b");
    let ta = a.register_thread().expect("manager alive");
    let tb = b.register_thread().expect("manager alive");
    m.pump();

    let stop = Arc::new(AtomicBool::new(false));
    let pa = Arc::new(AtomicU64::new(0));
    let pb = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for (th, prog) in [(ta.clone(), pa.clone()), (tb.clone(), pb.clone())] {
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                prog.fetch_add(1, Ordering::Relaxed);
                th.checkpoint();
                std::thread::sleep(Duration::from_micros(100));
            }
        }));
    }

    // Both fit on 2 cpus: both run.
    let sel = m.quantum();
    assert_eq!(sel.len(), 2);
    std::thread::sleep(Duration::from_millis(50));
    assert!(pa.load(Ordering::Relaxed) > 0);
    assert!(pb.load(Ordering::Relaxed) > 0);

    // Manually block `b` through its gate (as the manager would if a
    // wider job arrived) and verify it parks.
    tb.gate().deliver(Signal::Block);
    std::thread::sleep(Duration::from_millis(30));
    let before = pb.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(60));
    let after = pb.load(Ordering::Relaxed);
    assert!(
        after - before <= 1,
        "blocked worker advanced {before}->{after}"
    );

    tb.gate().deliver(Signal::Unblock);
    std::thread::sleep(Duration::from_millis(60));
    assert!(pb.load(Ordering::Relaxed) > after, "unblocked worker stuck");

    stop.store(true, Ordering::SeqCst);
    // Ensure nobody is parked at exit.
    ta.gate().deliver(Signal::Unblock);
    tb.gate().deliver(Signal::Unblock);
    for w in workers {
        w.join().unwrap();
    }
    a.thread_exited();
    b.thread_exited();
    a.disconnect();
    b.disconnect();
    m.pump();
    assert!(m.job_names().is_empty());
}

#[test]
fn estimator_choice_is_pluggable_at_manager_level() {
    // Same protocol flow works for the Latest Quantum estimator.
    let (mut m, h) = CpuManager::new(
        ManagerConfig {
            num_cpus: 2,
            ..ManagerConfig::default()
        },
        Some(Box::new(LatestQuantumEstimator::new())),
    );
    let mut a = connect(&mut m, &h, "a");
    a.register_thread().expect("manager alive");
    m.pump();
    let sel = m.quantum();
    assert_eq!(sel, vec![a.id()]);
}

#[test]
fn realtime_manager_loop_runs_and_shuts_down() {
    // Exercise run_realtime for a few quanta with a connected app.
    let (m, h) = manager(2);
    let stop = Arc::new(AtomicBool::new(false));
    let mgr = {
        let stop = stop.clone();
        std::thread::spawn(move || m.run_realtime(stop))
    };
    // connect() needs the manager pumping — it is, on its own thread.
    let mut app = AppRuntime::connect(&h, "rt").expect("manager alive");
    let th = app.register_thread().expect("manager alive");
    for i in 1..=4u64 {
        th.count_transactions(1000);
        app.publish_sample(i * 50_000);
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, Ordering::SeqCst);
    mgr.join().expect("manager thread");
    app.disconnect();
}
