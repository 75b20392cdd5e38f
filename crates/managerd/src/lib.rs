//! `busbw-managerd`: an **open-system** CPU manager server.
//!
//! The paper's §4 artifact is a user-level CPU manager daemon that
//! applications connect to, publish bandwidth samples to, and take
//! block/unblock signals from. The simulator reproduces its *policies*
//! over closed batches; this crate serves the manager stack itself
//! (`busbw_core::manager` — seqlock-arena samples, protocol channel,
//! signal gates) against an **open arrival process**: clients connect
//! live, are scheduled by the real [`CpuManager`] quantum loop, and
//! depart on completion, so tail latency (p99/p999 turnaround) and
//! overload behavior become measurable.
//!
//! Design:
//!
//! * **Virtual time.** One single-threaded event loop owns a virtual
//!   µs clock and drives [`CpuManager::pump`]/[`CpuManager::sample`]/
//!   [`CpuManager::quantum`] explicitly, exactly like the deterministic
//!   test harnesses do. Client worker threads are *modeled*: progress
//!   advances between events for every client whose signal gate is open
//!   ([`busbw_core::manager::ThreadHandle::is_blocked`]), so the real
//!   gate/signal/arena code paths are exercised without parking any OS
//!   thread. A fixed seed therefore yields one byte-exact serve.
//! * **One estimator path.** [`serve`] takes the manager's estimator
//!   rule as `Option<Box<dyn BandwidthEstimator>>`, the same trait the
//!   simulator's policy stacks use; `None` serves the bandwidth-oblivious
//!   baseline, which measures nothing and reads every job as
//!   bandwidth-free.
//! * **Open arrivals.** [`ArrivalProcess`] draws seeded Poisson,
//!   Pareto (heavy-tailed), or diurnal trace-driven inter-arrival gaps.
//! * **Overload admission control.** At most
//!   [`OpenConfig::queue_capacity`] clients may be live; beyond that an
//!   arrival is **shed** (counted, traced, never connected) — the open
//!   analogue of a bounded accept queue.
//! * **No modeled cost.** Manager operations take no virtual time and
//!   no cost is tallied for them. The paper's ≈4.5 % manager overhead
//!   (§4) was measured on real hardware; here the host cost of a serve is
//!   measured by the repository benchmark (`perfbench`, workload `open`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;

pub use arrivals::{ArrivalProcess, Rng64, DIURNAL_PROFILE, MIN_PARETO_ALPHA};

use busbw_core::estimator::BandwidthEstimator;
use busbw_core::manager::{AppRuntime, CpuManager, ManagerConfig, ThreadHandle};
use busbw_trace::TraceEvent;

/// How per-client work is drawn (seeded, uniform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Minimum solo service time, µs.
    pub min_service_us: u64,
    /// Maximum solo service time, µs.
    pub max_service_us: u64,
    /// Maximum gang width (threads); widths are drawn in `1..=max_width`
    /// and clamped to the machine so every client *can* be scheduled.
    pub max_width: usize,
    /// Minimum per-thread bus transaction rate while running, tx/µs.
    pub min_rate: f64,
    /// Maximum per-thread bus transaction rate while running, tx/µs.
    pub max_rate: f64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        Self {
            min_service_us: 50_000,
            max_service_us: 400_000,
            max_width: 2,
            min_rate: 1.0,
            max_rate: 8.0,
        }
    }
}

/// Configuration of one open serve.
#[derive(Debug, Clone)]
pub struct OpenConfig {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Virtual horizon of the serve, µs.
    pub duration_us: u64,
    /// Seed for arrivals and client parameters.
    pub seed: u64,
    /// Bounded accept queue: maximum simultaneously live clients; beyond
    /// this, arrivals are shed.
    pub queue_capacity: usize,
    /// The manager configuration (quantum, cpus).
    pub manager: ManagerConfig,
    /// Per-client work model.
    pub service: ServiceModel,
    /// Collect `ClientArrived`/`ClientShed`/`ClientDeparted` events.
    pub collect_events: bool,
}

impl Default for OpenConfig {
    fn default() -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_per_s: 20.0 },
            duration_us: 5_000_000,
            seed: 42,
            queue_capacity: 8,
            manager: ManagerConfig::default(),
            service: ServiceModel::default(),
            collect_events: false,
        }
    }
}

/// What one open serve produced.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// Turnaround (departure − arrival, µs) per served client, in
    /// departure order.
    pub turnarounds_us: Vec<f64>,
    /// Slowdown (turnaround ÷ solo service time) per served client,
    /// aligned with `turnarounds_us`.
    pub slowdowns: Vec<f64>,
    /// Clients the arrival process offered before the horizon.
    pub arrived: u64,
    /// Arrivals rejected by the bounded accept queue.
    pub shed: u64,
    /// Clients served to completion.
    pub served: u64,
    /// Clients still live (admitted, unfinished) at the horizon.
    pub live_at_end: u64,
    /// Virtual duration actually served, µs.
    pub duration_us: u64,
    /// Client lifecycle events, time-ordered (empty unless
    /// [`OpenConfig::collect_events`]).
    pub events: Vec<TraceEvent>,
}

impl OpenOutcome {
    /// Fraction of arrivals shed, ∈ [0, 1].
    pub fn shed_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrived as f64
        }
    }

    /// Mean slowdown over served clients (0 when none were served).
    pub fn mean_slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            0.0
        } else {
            self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
        }
    }
}

/// One live (admitted, unfinished) client.
struct LiveClient {
    rt: AppRuntime,
    threads: Vec<ThreadHandle>,
    arrived_at_us: u64,
    service_us: u64,
    done_us: u64,
    /// Per-thread bus transaction rate while running, tx/µs.
    rate: f64,
}

impl LiveClient {
    fn remaining_us(&self) -> u64 {
        self.service_us - self.done_us
    }

    /// Whether the client's gang may progress right now (all gates get
    /// identical signals, so the first gate speaks for the gang).
    fn runnable(&self) -> bool {
        !self.threads[0].is_blocked()
    }
}

/// Serve one open arrival process to the horizon. Deterministic in
/// `cfg.seed`: the loop is single-threaded and every source of
/// variation (arrival gaps, client widths/service/rates) is drawn from
/// the seeded generator. `estimator = None` serves a bandwidth-oblivious
/// manager: every job reads as bandwidth-free, so gang selection
/// degenerates to plain width-first rotation (the "Linux-like" baseline
/// of the open-system figures).
pub fn serve(cfg: &OpenConfig, estimator: Option<Box<dyn BandwidthEstimator>>) -> OpenOutcome {
    assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
    assert!(
        cfg.service.min_service_us >= 1 && cfg.service.min_service_us <= cfg.service.max_service_us
    );
    let (mut mgr, handle) = CpuManager::new(cfg.manager, estimator);
    let mcfg = mgr.config();
    let update_period_us = mcfg.sample_period_us();

    // Independent streams so the arrival schedule does not shift when
    // the client-parameter model changes.
    let mut arr_rng = Rng64::new(cfg.seed);
    let mut cli_rng = Rng64::new(cfg.seed ^ 0xC0FF_EE00_DEAD_BEEF);

    let mut now: u64 = 0;
    let mut next_arrival = cfg.arrivals.next_gap_us(0, &mut arr_rng);
    let mut next_sample = update_period_us;
    let mut next_quantum = mcfg.quantum_us;
    let horizon = cfg.duration_us;

    let mut live: Vec<LiveClient> = Vec::new();
    let mut out = OpenOutcome {
        turnarounds_us: Vec::new(),
        slowdowns: Vec::new(),
        arrived: 0,
        shed: 0,
        served: 0,
        live_at_end: 0,
        duration_us: horizon,
        events: Vec::new(),
    };

    while now < horizon {
        // The next instant anything can happen: an arrival, a sampling
        // point, a quantum boundary, the earliest completion of a
        // currently runnable client, or the horizon itself.
        let next_completion = live
            .iter()
            .filter(|c| c.runnable())
            .map(|c| now + c.remaining_us())
            .min()
            .unwrap_or(u64::MAX);
        let next = next_arrival
            .min(next_sample)
            .min(next_quantum)
            .min(next_completion)
            .min(horizon);

        // Advance every runnable client through the quiet interval,
        // counting the bus transactions its threads perform.
        let dt = next - now;
        if dt > 0 {
            for c in live.iter_mut() {
                if !c.runnable() {
                    continue;
                }
                let adv = dt.min(c.remaining_us());
                if adv == 0 {
                    continue;
                }
                c.done_us += adv;
                let tx = (c.rate * adv as f64) as u64;
                for t in &c.threads {
                    t.count_transactions(tx);
                }
            }
        }
        now = next;
        if now >= horizon {
            break;
        }

        // Same-instant ordering is fixed: departures free capacity
        // before the arrival is considered, sampling reads arenas
        // before the quantum settles them.
        let mut i = 0;
        while i < live.len() {
            if live[i].done_us < live[i].service_us {
                i += 1;
                continue;
            }
            let c = live.remove(i);
            let turnaround = now - c.arrived_at_us;
            let client = c.rt.id().0;
            c.rt.disconnect();
            mgr.pump();
            out.served += 1;
            out.turnarounds_us.push(turnaround as f64);
            out.slowdowns.push(turnaround as f64 / c.service_us as f64);
            if cfg.collect_events {
                out.events.push(TraceEvent::ClientDeparted {
                    at_us: now,
                    client,
                    turnaround_us: turnaround,
                });
            }
        }

        if now == next_arrival {
            out.arrived += 1;
            // Client parameters are always drawn, admitted or not, so
            // the parameter stream stays aligned with the arrival stream
            // whatever the shed pattern.
            let width = (cli_rng.range_u64(1, cfg.service.max_width.max(1) as u64) as usize)
                .min(mcfg.num_cpus);
            let service_us =
                cli_rng.range_u64(cfg.service.min_service_us, cfg.service.max_service_us);
            let rate = cli_rng.range_f64(cfg.service.min_rate, cfg.service.max_rate);
            if live.len() >= cfg.queue_capacity {
                out.shed += 1;
                if cfg.collect_events {
                    out.events.push(TraceEvent::ClientShed {
                        at_us: now,
                        arrival: out.arrived - 1,
                        live: live.len(),
                    });
                }
            } else {
                let pending = AppRuntime::request_connect(&handle, format!("c{}", out.arrived - 1))
                    .expect("manager alive");
                mgr.pump();
                let mut rt = pending.complete().expect("manager acked");
                let mut threads = Vec::with_capacity(width);
                for _ in 0..width {
                    threads.push(rt.register_thread().expect("manager alive"));
                }
                mgr.pump();
                if cfg.collect_events {
                    out.events.push(TraceEvent::ClientArrived {
                        at_us: now,
                        client: rt.id().0,
                        width,
                    });
                }
                live.push(LiveClient {
                    rt,
                    threads,
                    arrived_at_us: now,
                    service_us,
                    done_us: 0,
                    rate,
                });
            }
            next_arrival = now + cfg.arrivals.next_gap_us(now, &mut arr_rng);
        }

        if now == next_sample {
            for c in live.iter_mut() {
                c.rt.publish_sample(now);
            }
            mgr.sample();
            next_sample += update_period_us;
        }

        if now == next_quantum {
            mgr.quantum();
            next_quantum += mcfg.quantum_us;
        }
    }

    out.live_at_end = live.len() as u64;
    // Unpark whatever is still live so nothing leaks a parked state.
    for c in live {
        c.rt.disconnect();
    }
    mgr.pump();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_core::estimator::{LatestQuantumEstimator, QuantaWindowEstimator};

    fn quick_cfg() -> OpenConfig {
        OpenConfig {
            arrivals: ArrivalProcess::Poisson { rate_per_s: 40.0 },
            duration_us: 2_000_000,
            seed: 42,
            queue_capacity: 6,
            collect_events: true,
            ..OpenConfig::default()
        }
    }

    fn digest(o: &OpenOutcome) -> Vec<u8> {
        let mut b = Vec::new();
        for t in &o.turnarounds_us {
            b.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        for s in &o.slowdowns {
            b.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        for v in [o.arrived, o.shed, o.served, o.live_at_end] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        let mut ev = String::new();
        for e in &o.events {
            e.write_json(&mut ev);
            ev.push('\n');
        }
        b.extend_from_slice(ev.as_bytes());
        b
    }

    #[test]
    fn serve_is_byte_deterministic_for_a_fixed_seed() {
        let cfg = quick_cfg();
        let a = serve(&cfg, Some(Box::new(LatestQuantumEstimator::new())));
        let b = serve(&cfg, Some(Box::new(LatestQuantumEstimator::new())));
        assert!(a.arrived > 10, "expected a busy serve, got {}", a.arrived);
        assert_eq!(digest(&a), digest(&b));
        // A different seed produces a different serve.
        let c = serve(
            &OpenConfig {
                seed: 43,
                ..quick_cfg()
            },
            Some(Box::new(LatestQuantumEstimator::new())),
        );
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn accounting_balances_arrived_against_shed_served_live() {
        for seed in [1, 7, 99] {
            let o = serve(
                &OpenConfig {
                    seed,
                    ..quick_cfg()
                },
                Some(Box::new(QuantaWindowEstimator::new())),
            );
            assert_eq!(
                o.arrived,
                o.shed + o.served + o.live_at_end,
                "seed {seed}: {} arrived, {} shed, {} served, {} live",
                o.arrived,
                o.shed,
                o.served,
                o.live_at_end
            );
            assert_eq!(o.served as usize, o.turnarounds_us.len());
            assert_eq!(o.served as usize, o.slowdowns.len());
            for (&t, &s) in o.turnarounds_us.iter().zip(&o.slowdowns) {
                assert!(t > 0.0 && t.is_finite());
                assert!(s >= 1.0 - 1e-9, "slowdown below 1: {s}");
            }
        }
    }

    #[test]
    fn overload_sheds_and_light_load_does_not() {
        let heavy = serve(
            &OpenConfig {
                arrivals: ArrivalProcess::Poisson { rate_per_s: 400.0 },
                queue_capacity: 4,
                ..quick_cfg()
            },
            Some(Box::new(LatestQuantumEstimator::new())),
        );
        assert!(heavy.shed > 0, "400/s into capacity 4 must shed");
        assert!(heavy.shed_rate() > 0.3, "shed rate {}", heavy.shed_rate());
        let light = serve(
            &OpenConfig {
                arrivals: ArrivalProcess::Poisson { rate_per_s: 2.0 },
                ..quick_cfg()
            },
            Some(Box::new(LatestQuantumEstimator::new())),
        );
        assert_eq!(light.shed, 0, "2/s into capacity 6 must not shed");
        assert!(light.served > 0);
    }

    #[test]
    fn events_are_time_ordered_and_consistent_with_counters() {
        let o = serve(&quick_cfg(), Some(Box::new(LatestQuantumEstimator::new())));
        let mut last = 0;
        let (mut arrived, mut shed, mut departed) = (0u64, 0u64, 0u64);
        for e in &o.events {
            assert!(e.at_us() >= last, "event stream rewound");
            last = e.at_us();
            match e {
                TraceEvent::ClientArrived { .. } => arrived += 1,
                TraceEvent::ClientShed { .. } => shed += 1,
                TraceEvent::ClientDeparted { .. } => departed += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(arrived + shed, o.arrived);
        assert_eq!(shed, o.shed);
        assert_eq!(departed, o.served);
    }

    #[test]
    fn heavy_tailed_arrivals_serve_deterministically_too() {
        let cfg = OpenConfig {
            arrivals: ArrivalProcess::Pareto {
                rate_per_s: 30.0,
                alpha: 1.5,
            },
            ..quick_cfg()
        };
        let a = serve(&cfg, Some(Box::new(QuantaWindowEstimator::new())));
        let b = serve(&cfg, Some(Box::new(QuantaWindowEstimator::new())));
        assert_eq!(digest(&a), digest(&b));
        assert!(a.arrived > 0);
    }
}
