//! The `open` workload: managerd serves of the `open` figure's grid — the
//! three estimator stacks × the four offered-load multiples — with
//! Poisson arrivals over a long virtual horizon. It is the only workload
//! that drives `busbw-managerd` and `core::manager`.

use std::time::Instant;

use busbw_experiments::open::{
    OpenStack, DEFAULT_QUEUE_CAPACITY, LOAD_MULTIPLIERS, SMALL_RATE_PER_S,
};
use busbw_experiments::steal_map;
use busbw_managerd::{serve, ArrivalProcess, OpenConfig, OpenOutcome};
use busbw_trace::fnv1a64;

use crate::spans::Tracer;
use crate::{layers, median, ratio, run_passes, score, set_up, Args, Report};

/// Virtual horizon of each serve: 2,000 s, about 75k arrivals per serve
/// at the mean multiple.
const HORIZON_US: u64 = 2_000_000_000;

/// Set-ups per run; each is calibration plus building the serve grid.
const SETUPS: usize = 9;

/// One serve of the grid.
struct Serve {
    label: String,
    stack: OpenStack,
    cfg: OpenConfig,
}

fn serve_grid(seed: u64) -> Vec<Serve> {
    let mut out = Vec::new();
    for stack in OpenStack::ALL {
        for mult in LOAD_MULTIPLIERS {
            out.push(Serve {
                label: format!("{}@{mult}x", stack.label()),
                stack,
                cfg: OpenConfig {
                    arrivals: ArrivalProcess::Poisson {
                        rate_per_s: SMALL_RATE_PER_S * mult,
                    },
                    duration_us: HORIZON_US,
                    seed,
                    queue_capacity: DEFAULT_QUEUE_CAPACITY,
                    ..OpenConfig::default()
                },
            });
        }
    }
    out
}

/// What is kept of one serve: its counts and a digest of its turnarounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Outcome {
    arrived: u64,
    served: u64,
    shed: u64,
    live_at_end: u64,
    turnarounds_fnv: u64,
}

impl Outcome {
    fn of(o: &OpenOutcome) -> Self {
        let bytes: Vec<u8> = o
            .turnarounds_us
            .iter()
            .flat_map(|t| t.to_bits().to_le_bytes())
            .collect();
        Outcome {
            arrived: o.arrived,
            served: o.served,
            shed: o.shed,
            live_at_end: o.live_at_end,
            turnarounds_fnv: fnv1a64(&bytes),
        }
    }

    /// Every arrival is served, shed, or still live at the horizon, and
    /// every served client has a turnaround.
    fn conserves(&self, turnarounds: usize) -> bool {
        self.arrived == self.served + self.shed + self.live_at_end
            && turnarounds as u64 == self.served
    }
}

/// What is kept of one pass.
struct PassOut {
    serves: Vec<(Outcome, bool)>,
    steals: u64,
    virtual_s: f64,
}

/// One timed pass: every serve of the grid on the pool. Returns the
/// outcomes and the pool's steal count.
fn open_pass(tr: &mut Tracer, grid: &[Serve], workers: usize) -> (Vec<OpenOutcome>, u64) {
    let (outs, steal) = steal_map(grid, workers, |s| {
        let t0 = Instant::now();
        let out = serve(&s.cfg, s.stack.build());
        (out, t0, Instant::now())
    });
    let outs = outs
        .into_iter()
        .zip(grid)
        .map(|((out, t0, t1), s)| {
            tr.record("managerd.serve", format!("{}/{}", tr.op(), s.label), t0, t1);
            out
        })
        .collect();
    (outs, steal.steals)
}

/// Run the `open` workload.
pub fn run(args: &Args) -> Report {
    let (setup, grid) = set_up(args, SETUPS, || serve_grid(args.seed));
    let passes = run_passes(
        args,
        || {},
        |tr| open_pass(tr, &grid, args.workers),
        |(outs, steals), _| PassOut {
            virtual_s: outs.iter().map(|o| o.duration_us).sum::<u64>() as f64 / 1e6,
            serves: outs
                .iter()
                .map(|o| {
                    let k = Outcome::of(o);
                    (k, k.conserves(o.turnarounds_us.len()))
                })
                .collect(),
            steals,
        },
    );

    let mut report = Report::from_passes(&passes, &setup, |o| o.virtual_s);
    let mut first: Vec<Outcome> = Vec::new();
    score(&mut report, &passes, grid.len(), |o| {
        if first.is_empty() {
            first = o.serves.iter().map(|s| s.0).collect();
        }
        let mut failed = 0;
        for ((got, conserves), (want, s)) in o.serves.iter().zip(first.iter().zip(&grid)) {
            if !conserves || got != want {
                eprintln!(
                    "check failed: serve {}: {got:?} (first pass {want:?})",
                    s.label
                );
                failed += 1;
            }
        }
        failed
    });

    let traced: Vec<&PassOut> = passes
        .iter()
        .filter(|p| p.traced)
        .filter_map(|p| p.out.as_ref())
        .collect();
    if let (true, Some(last)) = (args.trace, traced.last()) {
        let m = &mut report.metrics;
        let sum = |f: fn(&Outcome) -> u64| last.serves.iter().map(|s| f(&s.0)).sum::<u64>() as f64;
        let serve_ms = layers::span_ms(&passes, "managerd.serve");
        m.put("pool.executed", grid.len() as f64);
        m.put(
            "pool.steals",
            median(traced.iter().map(|o| o.steals as f64)),
        );
        m.put("managerd.serve_ms", serve_ms);
        m.put("managerd.arrived", sum(|o| o.arrived));
        m.put("managerd.served", sum(|o| o.served));
        m.put("managerd.shed", sum(|o| o.shed));
        m.put("managerd.live_at_end", sum(|o| o.live_at_end));
        m.put(
            "managerd.ns_per_arrival",
            ratio(serve_ms * 1e6, sum(|o| o.arrived)),
        );
    }
    report
}
