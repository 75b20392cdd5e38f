//! Per-layer measurements shared by the workloads, and the fixed list of
//! per-layer metrics every traced run prints.
//!
//! A layer a workload does not run reads 0 on that workload (no
//! simulation on `warm` and `open`, no oracle outside `oracle`, ...).

use std::path::Path;
use std::time::Instant;

use busbw_experiments::cache::{decode_result, encode_result};
use busbw_experiments::fig2::Fig2Set;
use busbw_experiments::{
    run_spec, run_spec_profiled, steal_map, CellId, ExecStats, Executed, Plan, PolicyKind,
    RunRequest, RunResult, RunnerConfig,
};
use busbw_sim::{Phase, PhaseSet, StageTimings};
use busbw_workloads::mix::WorkloadSpec;
use busbw_workloads::paper::PaperApp;

use crate::{median, ratio, Metrics, Timed};

/// The engine phases reported as `sim.phase.<name>.{calls,ns}`.
const PHASES: [Phase; 7] = [
    Phase::Schedule,
    Phase::Barrier,
    Phase::Replay,
    Phase::Placement,
    Phase::Demand,
    Phase::Solve,
    Phase::Commit,
];

/// Every per-layer metric, with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("jobgraph.plan_ms", "ms"),
        ("jobgraph.cells_declared", "count"),
        ("jobgraph.cells_unique", "count"),
        ("jobgraph.execute_ms", "ms"),
        ("pool.executed", "count"),
        ("pool.steals", "count"),
        ("pool.utilization", "ratio"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.corrupt", "count"),
        ("cache.bytes", "bytes"),
        ("cache.read_us_per_cell", "us"),
        ("cache.decode_us_per_cell", "us"),
        ("cache.encode_us_per_cell", "us"),
        ("sim.ticks", "count"),
        ("sim.ns_per_tick", "ns"),
        ("sim.nominal_ticks_per_iter", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in PHASES {
        out.push((format!("sim.phase.{}.calls", p.name()), "count"));
        out.push((format!("sim.phase.{}.ns", p.name()), "ns"));
    }
    for (n, u) in [
        ("bus.memo_hits", "count"),
        ("bus.memo_misses", "count"),
        ("bus.memo_hit_ratio", "ratio"),
        ("bus.solve_ns_per_call", "ns"),
    ] {
        out.push((n.to_string(), u));
    }
    for s in busbw_sim::STAGE_NAMES {
        out.push((format!("pipeline.{s}.calls"), "count"));
        out.push((format!("pipeline.{s}.ns"), "ns"));
    }
    for (n, u) in [
        ("oracle.search_s", "s"),
        ("oracle.nodes", "count"),
        ("oracle.leaves", "count"),
        ("oracle.bound_prunes", "count"),
        ("oracle.sym_prunes", "count"),
        ("oracle.us_per_node", "us"),
        ("oracle.root_bound_gap_pct", "%"),
        ("oracle.heuristic_cells_s", "s"),
        ("oracle.certified_share", "ratio"),
        ("oracle.regret_pct", "%"),
        ("managerd.serve_ms", "ms"),
        ("managerd.arrived", "count"),
        ("managerd.served", "count"),
        ("managerd.shed", "count"),
        ("managerd.live_at_end", "count"),
        ("managerd.ns_per_arrival", "ns"),
        ("figures.fold_ms", "ms"),
        ("figures.render_ms", "ms"),
        ("figures.bytes", "bytes"),
        ("bench.trace_overhead_pct", "%"),
        ("bench.unattributed_pct", "%"),
        ("bench.calibration_ns", "ns"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Handles to cells `0..n` of any plan. A `CellId` is the cell's index in
/// the plan that declared it, so declaring `n` distinct requests on a
/// scratch plan yields handles that reach every result of an `Executed`.
/// Callers check the premise: a handle must equal the id the real plan
/// hands out for the same index ([`find`]).
pub fn cell_handles(n: usize) -> Vec<CellId> {
    let mut scratch = Plan::new();
    let spec = Fig2Set::A.spec(PaperApp::Cg);
    (0..n)
        .map(|i| {
            let rc = RunnerConfig {
                seed: i as u64,
                ..RunnerConfig::default()
            };
            scratch.cell(RunRequest::spec(spec.clone(), PolicyKind::Linux, &rc))
        })
        .collect()
}

/// The index of `id` among `handles`, if any.
pub fn find(handles: &[CellId], id: CellId) -> Option<usize> {
    handles.iter().position(|&h| h == id)
}

/// Median self time of the spans named `span` over the traced passes, ms.
pub fn span_ms<U>(passes: &[Timed<U>], span: &str) -> f64 {
    median(
        passes
            .iter()
            .filter(|p| p.traced && p.out.is_some())
            .map(|p| p.self_ms(span)),
    )
}

/// The job graph, pool and cache counters of a pass, with the median
/// plan and execute times over the traced passes.
pub fn put_exec<U>(
    m: &mut Metrics,
    passes: &[Timed<U>],
    stats: &ExecStats,
    declared: u64,
    unique: usize,
    steals: f64,
) {
    m.put("jobgraph.plan_ms", span_ms(passes, "jobgraph.plan"));
    m.put("jobgraph.execute_ms", span_ms(passes, "jobgraph.execute"));
    m.put("jobgraph.cells_declared", declared as f64);
    m.put("jobgraph.cells_unique", unique as f64);
    m.put("pool.executed", stats.executed as f64);
    m.put("pool.steals", steals);
    m.put("cache.hits", stats.cache_hits as f64);
    m.put("cache.misses", stats.cache_misses as f64);
    m.put("cache.hit_ratio", stats.hit_rate());
    m.put("cache.corrupt", stats.cache_corrupt as f64);
}

/// The per-stage wall-time histograms of the policy-stack cells among the
/// first `cells` cells. The one place the benchmark reads `StageTimings`.
pub fn stage_timings(executed: &Executed, cells: usize) -> StageTimings {
    executed.merged_stage_timings(0..cells)
}

/// `pipeline.<stage>.{calls,ns}`.
pub fn put_stages(m: &mut Metrics, t: &StageTimings) {
    for (name, st) in t.named() {
        m.put(format!("pipeline.{name}.calls"), st.calls as f64);
        m.put(format!("pipeline.{name}.ns"), st.total_ns as f64);
    }
}

/// `bus.memo_{hits,misses,hit_ratio}` summed over `results`.
pub fn put_memo<'a>(m: &mut Metrics, results: impl Iterator<Item = &'a RunResult>) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for r in results {
        hits += r.memo_hits;
        misses += r.memo_misses;
    }
    m.put("bus.memo_hits", hits as f64);
    m.put("bus.memo_misses", misses as f64);
    m.put(
        "bus.memo_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
}

/// Encode and decode every result through the run codec, timed per call.
/// Returns the mean µs per encode and per decode, and how many results
/// did not survive the round trip byte-identically.
pub fn codec<'a>(results: impl Iterator<Item = &'a RunResult>) -> (f64, f64, u64) {
    let (mut enc_ns, mut dec_ns, mut n, mut broken) = (0u128, 0u128, 0u64, 0u64);
    for r in results {
        let t0 = Instant::now();
        let bytes = encode_result(r);
        let t1 = Instant::now();
        let back = decode_result(&bytes);
        let t2 = Instant::now();
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t2 - t1).as_nanos();
        n += 1;
        if back.map(|b| encode_result(&b)).as_deref() != Ok(&bytes[..]) {
            broken += 1;
        }
    }
    let per = |ns: u128| ratio(ns as f64 / 1e3, n as f64);
    (per(enc_ns), per(dec_ns), broken)
}

/// Read every cache entry in `dir`, timed. Returns (entries, bytes, mean
/// µs per read).
pub fn cache_reads(dir: &Path) -> (u64, u64, f64) {
    let (mut n, mut bytes, mut ns) = (0u64, 0u64, 0u128);
    let entries = std::fs::read_dir(dir).expect("list the cache directory");
    for e in entries {
        let path = e.expect("cache directory entry").path();
        if path.extension().and_then(|x| x.to_str()) != Some("run") {
            continue;
        }
        let t0 = Instant::now();
        let data = std::fs::read(&path).expect("read a cache entry");
        ns += t0.elapsed().as_nanos();
        n += 1;
        bytes += data.len() as u64;
    }
    (n, bytes, ratio(ns as f64 / 1e3, n as f64))
}

/// Engine-phase attribution over a set of closed cells.
pub struct Profile {
    phases: PhaseSet,
    ticks: u64,
    nominal_ticks: f64,
    plain_ns: u64,
    /// Cells profiled.
    pub cells: u64,
    /// Cells whose plain or profiled run disagreed with the workload's
    /// own result for that cell.
    pub mismatched: u64,
}

/// The simulated quantities two runs of one cell must agree on.
fn fingerprint(r: &RunResult) -> (u64, u64, u64, u64, u64) {
    (
        r.ticks,
        r.sim_elapsed_us,
        r.mean_turnaround_us.to_bits(),
        r.memo_hits,
        r.memo_misses,
    )
}

/// A closed cell of a workload: its workload and policy, and the result
/// the workload's own pass produced for it.
pub type Member<'a> = (WorkloadSpec, PolicyKind, &'a RunResult);

/// Re-declare `specs` on `plan`, the plan a pass executed, and pair each
/// with that pass's result. Every cell must already be in the plan (it
/// must not grow) and among `handles`; otherwise the benchmark no longer
/// matches the program and the error says which cell is missing.
pub fn members<'a>(
    plan: &mut Plan,
    rc: &RunnerConfig,
    specs: Vec<(WorkloadSpec, PolicyKind)>,
    executed: &'a Executed,
    handles: &[CellId],
) -> Result<Vec<Member<'a>>, String> {
    let before = plan.len();
    let mut out = Vec::with_capacity(specs.len());
    for (spec, policy) in specs {
        let id = plan.cell(RunRequest::spec(spec.clone(), policy, rc));
        if plan.len() != before || find(handles, id).is_none() {
            return Err(format!(
                "{} under {} is not a cell of the pass",
                spec.name,
                policy.label()
            ));
        }
        out.push((spec, policy, executed.get(id)));
    }
    Ok(out)
}

/// Run each cell twice on the pool — plainly through `run_spec`, timed,
/// and through `run_spec_profiled` — and check both against the
/// workload's own result for the cell.
pub fn profile(cells: &[Member], rc: &RunnerConfig, workers: usize) -> Profile {
    let (runs, _) = steal_map(cells, workers, |(spec, policy, _)| {
        let t0 = Instant::now();
        let plain = run_spec(spec, *policy, rc);
        let plain_ns = t0.elapsed().as_nanos() as u64;
        let (profiled, phases) = run_spec_profiled(spec, *policy, rc);
        (plain, profiled, phases, plain_ns)
    });
    let mut p = Profile {
        phases: PhaseSet::new(),
        ticks: 0,
        nominal_ticks: 0.0,
        plain_ns: 0,
        cells: cells.len() as u64,
        mismatched: 0,
    };
    for ((plain, profiled, phases, plain_ns), (.., want)) in runs.iter().zip(cells) {
        let want = fingerprint(want);
        if fingerprint(plain) != want || fingerprint(profiled) != want {
            p.mismatched += 1;
        }
        p.phases.merge(phases);
        p.ticks += plain.ticks;
        p.nominal_ticks += plain.sim_elapsed_us as f64 / rc.machine.tick_us as f64;
        p.plain_ns += plain_ns;
    }
    p
}

/// `sim.*` and `bus.solve_ns_per_call`.
pub fn put_profile(m: &mut Metrics, p: &Profile) {
    m.put("sim.ticks", p.ticks as f64);
    m.put("sim.ns_per_tick", ratio(p.plain_ns as f64, p.ticks as f64));
    m.put(
        "sim.nominal_ticks_per_iter",
        ratio(p.nominal_ticks, p.ticks as f64),
    );
    for ph in PHASES {
        let st = p.phases.stat(ph);
        m.put(format!("sim.phase.{}.calls", ph.name()), st.calls as f64);
        m.put(format!("sim.phase.{}.ns", ph.name()), st.total_ns as f64);
    }
    let solve = p.phases.stat(Phase::Solve);
    m.put(
        "bus.solve_ns_per_call",
        ratio(solve.total_ns as f64, solve.calls as f64),
    );
}
