//! The repository benchmark: four workloads over the experiments harness,
//! timed from outside through the crates' public entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|oracle|warm|open> [--seed N] [--seconds S] [--trace 0|1] [--scale X]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A run whose
//! output checks fail prints that object with `"correct": false` and
//! exits 1. See `perfbench/README.md` for the workloads, the metric
//! table and the baseline.

#![forbid(unsafe_code)]

mod closed;
mod host;
mod layers;
mod open;
mod oracle;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use spans::{Span, Tracer};

/// Passes a run makes at least, so every output is checked against a
/// repeat of itself (and a traced run has one pass of each kind).
const MIN_PASSES: usize = 2;

/// Seed of a run that names none; `experiments` uses the same default.
pub const DEFAULT_SEED: u64 = 42;

/// Work directory, relative to the directory the benchmark runs from. It
/// holds the span logs and one scratch directory per workload.
const WORK_DIR: &str = ".perfbench";

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget of a run.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics from a traced run.
    pub trace: bool,
    /// Work-volume scale of the `sweep` and `warm` workloads.
    pub scale: f64,
    /// Worker threads (one per hardware thread).
    pub workers: usize,
    /// This workload's scratch directory, emptied by every set-up.
    pub dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: closed::BENCH_SCALE,
        workers: host::nproc(),
        dir: PathBuf::from(WORK_DIR),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    args.dir = args.dir.join(&args.workload);
    Ok(args)
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MiB"),
];

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (0 for none).
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured pass.
pub struct Timed<U> {
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// Process CPU seconds during the pass.
    pub cpu_s: f64,
    /// Whether the pass ran with the tracer on.
    pub traced: bool,
    /// The pass's spans (empty when untraced).
    pub spans: Vec<Span>,
    /// What the pass produced, or `None` when it panicked.
    pub out: Option<U>,
}

impl<U> Timed<U> {
    /// Self time of the spans named `name` in this pass, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        spans::self_ns_by_name(&self.spans)
            .get(name)
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

/// Make passes until the budget is spent, untraced; with `--trace 1`
/// alternate untraced and traced passes, so that drift on the host
/// shows in both and their difference is the tracing overhead.
///
/// `prepare` runs untimed before each pass, `pass` is timed inside a root
/// span `bench.pass`, and `after` turns the pass's output into what is
/// kept, untimed. A pass that panics ends the run's passes.
pub fn run_passes<T, U>(
    args: &Args,
    mut prepare: impl FnMut(),
    mut pass: impl FnMut(&mut Tracer) -> T,
    mut after: impl FnMut(T, bool) -> U,
) -> Vec<Timed<U>> {
    let mut out: Vec<Timed<U>> = Vec::new();
    let t0 = Instant::now();
    // Stop once the budget is spent, or when the next pass would end
    // further past it than it is now short of it.
    let mut last_wall = 0.0;
    while out.len() < MIN_PASSES || t0.elapsed().as_secs_f64() + last_wall / 2.0 < args.seconds {
        let traced = args.trace && out.len() % 2 == 1;
        prepare();
        let mut tr = Tracer::new(traced, format!("{}/pass{}", args.workload, out.len()));
        let cpu0 = host::cpu_seconds();
        let w0 = Instant::now();
        tr.enter("bench.pass");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass(&mut tr)));
        tr.exit();
        let wall_s = w0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;
        let ok = r.is_ok();
        last_wall = wall_s;
        out.push(Timed {
            wall_s,
            cpu_s,
            traced,
            spans: tr.finish(),
            out: r.ok().map(|t| after(t, traced)),
        });
        if !ok {
            break;
        }
    }
    out
}

/// What a workload run reports.
pub struct Report {
    /// Ops attempted: cells, serves and oracle searches.
    pub attempted: u64,
    /// Ops that panicked or broke their check.
    pub failed: u64,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Median ns of the calibration loop.
    pub calibration_ns: f64,
    /// Host seconds of each untraced pass, in run order.
    pub walls: Vec<f64>,
    /// Median host seconds of an untraced pass.
    pub wall_s: f64,
    /// Mean process CPU seconds of an untraced pass.
    pub cpu_s: f64,
    /// Median simulated (or virtual) seconds per host second.
    pub sim_s_per_host_s: f64,
    /// Median host seconds of a traced pass (trace runs only).
    pub traced_wall_s: f64,
    /// Median share of a traced pass no layer span covers, %.
    pub unattributed_pct: f64,
    /// Per-layer metrics (trace runs only); the end-to-end ones are
    /// added from the fields above.
    pub metrics: Metrics,
    /// Every span of the run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Fold the host timings of `passes` into a report; `sim_s` gives
    /// each pass's simulated or virtual seconds.
    pub fn from_passes<U>(passes: &[Timed<U>], setup: &Setup, sim_s: impl Fn(&U) -> f64) -> Self {
        let plain = || passes.iter().filter(|p| !p.traced && p.out.is_some());
        let traced = || passes.iter().filter(|p| p.traced && p.out.is_some());
        let n_plain = plain().count().max(1) as f64;
        Report {
            attempted: 0,
            failed: 0,
            setup_s: setup.setup_s,
            calibration_ns: setup.calibration_ns,
            walls: plain().map(|p| p.wall_s).collect(),
            wall_s: median(plain().map(|p| p.wall_s)),
            cpu_s: plain().map(|p| p.cpu_s).sum::<f64>() / n_plain,
            sim_s_per_host_s: median(
                plain().map(|p| sim_s(p.out.as_ref().expect("ok")) / p.wall_s),
            ),
            traced_wall_s: median(traced().map(|p| p.wall_s)),
            unattributed_pct: median(traced().map(|p| {
                let root = &p.spans[0];
                100.0 * p.self_ms("bench.pass") * 1e6 / (root.end_ns - root.start_ns).max(1) as f64
            })),
            metrics: Metrics::default(),
            spans: passes.iter().fold(Vec::new(), |mut all, p| {
                spans::append(&mut all, p.spans.clone());
                all
            }),
        }
    }
}

/// Count `ops` ops per pass; `check_pass` returns how many of a pass's
/// ops broke their check. Every op of a pass that panicked failed.
pub fn score<U>(
    report: &mut Report,
    passes: &[Timed<U>],
    ops: usize,
    mut check_pass: impl FnMut(&U) -> u64,
) {
    for p in passes {
        report.attempted += ops as u64;
        report.failed += p.out.as_ref().map_or(ops as u64, &mut check_pass);
    }
}

/// Median set-up cost of a run.
pub struct Setup {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Median ns of the calibration loop inside it.
    pub calibration_ns: f64,
}

/// Set up `reps` times — host calibration, a fresh work directory, then
/// the workload's own `setup` — and keep the last set-up's value.
pub fn set_up<S>(args: &Args, reps: usize, mut setup: impl FnMut() -> S) -> (Setup, S) {
    let mut walls = Vec::new();
    let mut cals = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        cals.push(host::calibrate() as f64);
        let _ = std::fs::remove_dir_all(&args.dir);
        std::fs::create_dir_all(&args.dir).expect("create the work directory");
        last = Some(setup());
        walls.push(t0.elapsed().as_secs_f64());
    }
    (
        Setup {
            setup_s: median(walls),
            calibration_ns: median(cals),
        },
        last.expect("at least one set-up"),
    )
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "sweep" => closed::sweep(&args),
        "warm" => closed::warm(&args),
        "oracle" => oracle::run(&args),
        "open" => open::run(&args),
        w => {
            eprintln!("perfbench: unknown workload `{w}` (sweep|oracle|warm|open)");
            std::process::exit(2);
        }
    };

    let cpu = host::cpu_model();
    let nproc = host::nproc();
    let names: Vec<(String, &str)> = if args.trace {
        let overhead = 100.0 * ratio(report.traced_wall_s - report.wall_s, report.wall_s);
        let m = &mut report.metrics;
        m.put(
            "pool.utilization",
            ratio(report.cpu_s, report.wall_s * args.workers as f64),
        );
        m.put("bench.trace_overhead_pct", overhead);
        m.put("bench.unattributed_pct", report.unattributed_pct);
        m.put("bench.calibration_ns", report.calibration_ns);
        let mut jsonl = format!(
            "{{\"host\":{{\"nproc\":{nproc},\"cpu\":\"{cpu}\",\"calibration_ns\":{}}},\"workload\":\"{}\",\"seed\":{}}}\n",
            report.calibration_ns, args.workload, args.seed
        );
        spans::to_jsonl(&report.spans, &mut jsonl);
        let path = PathBuf::from(WORK_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, jsonl).expect("write the span log");
        println!("spans: {} -> {}", report.spans.len(), path.display());
        layers::per_layer_names()
    } else {
        let m = &mut report.metrics;
        m.put("setup_s", report.setup_s);
        m.put("wall_s", report.wall_s);
        m.put("cpu_s", report.cpu_s);
        m.put("sim_s_per_host_s", report.sim_s_per_host_s);
        m.put("peak_rss_mb", host::peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in report.metrics.0.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's list"
        );
    }

    println!(
        "host: nproc={nproc} cpu=\"{cpu}\" calibration_ns={:.0}",
        report.calibration_ns
    );
    println!(
        "workload={} seed={} workers={} error_rate={}/{}",
        args.workload, args.seed, args.workers, report.failed, report.attempted
    );
    let (lo, hi) = report
        .walls
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    println!(
        "untraced passes: {} (wall min {lo:.6} s, median {:.6} s, max {hi:.6} s)",
        report.walls.len(),
        report.wall_s
    );
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.metrics.0.get(name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>18.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
