//! The user-level CPU manager driving **real OS threads**.
//!
//! ```text
//! cargo run --release --example cpu_manager_demo
//! ```
//!
//! Reproduces the paper's §4 system end to end, outside the simulator:
//!
//! * a manager thread runs the Quanta Window policy with a 200 ms quantum
//!   over 2 processors' worth of gangs;
//! * three applications connect through the protocol, register worker
//!   threads (the run-time library's thread-creation interception), and
//!   publish bus-transaction rates into their shared arenas twice per
//!   quantum;
//! * workers count "transactions" in software (one per loop iteration of
//!   a memory-touching kernel), hit checkpoints where block signals take
//!   effect, and are steered by the manager's block/unblock gates.
//!
//! Expected output: the heavy streamer pair never runs together with the
//! other heavy streamer; each job's achieved iteration rate reflects the
//! manager's gang decisions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use busbw::core::estimator::QuantaWindowEstimator;
use busbw::core::manager::{AppRuntime, CpuManager, ManagerConfig};

fn main() {
    let cfg = ManagerConfig {
        num_cpus: 2,
        bus_total_tx_per_us: busbw::sim::PAPER_BUS_TX_PER_US,
        quantum_us: 200_000,
    };
    let (manager, handle) = CpuManager::new(cfg, Some(Box::new(QuantaWindowEstimator::new())));
    let stop = Arc::new(AtomicBool::new(false));
    let mgr_thread = {
        let stop = stop.clone();
        std::thread::spawn(move || manager.run_realtime(stop))
    };

    // Three single-thread jobs: two "heavy" (publish ~20 tx/µs) and one
    // "light" (~0.1 tx/µs). With 2 cpus the manager should pair
    // heavy+light, rotating the heavies.
    let jobs: Vec<(&str, f64)> = vec![("heavy-A", 20.0), ("heavy-B", 20.0), ("light", 0.1)];
    let started = Instant::now();
    let mut worker_handles = Vec::new();
    let progress: Vec<Arc<AtomicU64>> = jobs.iter().map(|_| Arc::new(AtomicU64::new(0))).collect();

    for (i, (name, rate)) in jobs.iter().enumerate() {
        let mut app = AppRuntime::connect(&handle, *name).expect("manager alive");
        let th = app.register_thread().expect("manager alive");
        let stop = stop.clone();
        let prog = progress[i].clone();
        let rate = *rate;
        worker_handles.push(std::thread::spawn(move || {
            // The worker: touch memory, count transactions, publish the
            // arena at the manager-requested period, obey checkpoints.
            let mut buf = vec![0u8; 256 * 1024];
            let mut last_publish = Instant::now();
            let publish_every = Duration::from_micros(app.update_period_us());
            while !stop.load(Ordering::SeqCst) {
                // ~1 ms of "work"; count transactions proportional to the
                // job's nominal rate so the arena reports it faithfully.
                for b in buf.iter_mut().step_by(64) {
                    *b = b.wrapping_add(1);
                }
                th.count_transactions((rate * 1000.0) as u64);
                prog.fetch_add(1, Ordering::Relaxed);
                if last_publish.elapsed() >= publish_every {
                    let now_us = started.elapsed().as_micros() as u64;
                    app.publish_sample(now_us);
                    last_publish = Instant::now();
                }
                th.checkpoint();
                std::thread::sleep(Duration::from_millis(1));
            }
            app.disconnect();
        }));
    }

    // Observe for 3 seconds, reporting per-second progress.
    let mut last = vec![0u64; jobs.len()];
    for second in 1..=3u32 {
        std::thread::sleep(Duration::from_secs(1));
        print!("t={second}s  ");
        for (i, (name, _)) in jobs.iter().enumerate() {
            let now = progress[i].load(Ordering::Relaxed);
            print!("{name}: {:>4} iters  ", now - last[i]);
            last[i] = now;
        }
        println!();
    }

    stop.store(true, Ordering::SeqCst);
    for w in worker_handles {
        w.join().expect("worker");
    }
    mgr_thread.join().expect("manager");
    println!("\nall jobs steered by block/unblock gates; manager shut down cleanly");
}
