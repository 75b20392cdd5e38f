//! The `oracle` workload: the `regret` figure (`plan_regret` →
//! `Engine::execute` → `fold_regret`).
//!
//! Its two oracle cells run through `oracle_outcome`, the function an
//! oracle cell executes, so that each search's report (nodes, prunes,
//! whether it finished) is observable. Their results are put into the
//! engine's memory cache under the cells' own keys, and `Engine::execute`
//! runs the 54 heuristic cells — the control: an oracle change moves the
//! searches and nothing else.

use std::sync::Arc;
use std::time::Instant;

use busbw_experiments::{
    fold_regret, oracle_outcome, plan_regret, regret_mixes, sampled_stacks, steal_map, CellId,
    Engine, ExecStats, Executed, Plan, PolicyKind, RegretCells, RunCache, RunRequest, RunnerConfig,
    REGRET_PRESETS, REGRET_SAMPLED_STACKS,
};
use busbw_metrics::{FigureSummary, Table};
use busbw_trace::fnv1a64;
use busbw_workloads::mix::WorkloadSpec;

use crate::spans::Tracer;
use crate::{layers, median, run_passes, score, set_up, Args, Report};

/// Work-volume scale: the `regret --scale 0.1` figure, where one search
/// hits its node budget and the other finishes.
const ORACLE_SCALE: f64 = 0.1;

/// Set-ups per run; each is calibration plus planning.
const SETUPS: usize = 9;

/// The regret plan, plus the oracle and preset cells of each mix
/// re-declared on it (which must not add cells) for the invariants.
struct Oracle {
    plan: Plan,
    cells: RegretCells,
    declared: u64,
    unique: usize,
    oracles: Vec<CellId>,
    presets: Vec<Vec<CellId>>,
}

fn plan_oracle(rc: &RunnerConfig, mixes: &[WorkloadSpec]) -> Oracle {
    let mut plan = Plan::new();
    let cells = plan_regret(&mut plan, rc);
    let (declared, unique) = (plan.declared(), plan.len());
    let oracles = mixes
        .iter()
        .map(|m| plan.cell(RunRequest::oracle(m.clone(), rc)))
        .collect();
    let presets = mixes
        .iter()
        .map(|m| {
            REGRET_PRESETS
                .iter()
                .map(|&p| plan.cell(RunRequest::spec(m.clone(), p, rc)))
                .collect()
        })
        .collect();
    Oracle {
        plan,
        cells,
        declared,
        unique,
        oracles,
        presets,
    }
}

/// One search's report, as kept.
struct Search {
    nodes: u64,
    leaves: u64,
    bound_prunes: u64,
    sym_prunes: u64,
    root_lower_bound_us: u64,
    best_cost_us: u64,
    complete: bool,
}

/// What is kept of one pass.
struct PassOut {
    searches: Vec<Search>,
    stats: ExecStats,
    declared: u64,
    unique: usize,
    grew: bool,
    /// Simulated seconds of the oracle and preset cells. The sampled
    /// stacks are left out: which stacks are sampled depends on the seed,
    /// and one that never finishes runs to the hard cap, so their
    /// simulated time swings fourfold between seeds.
    sim_s: f64,
    /// Mixes whose oracle cost exceeds a preset's, or whose root lower
    /// bound exceeds the search's best cost.
    broken_mixes: u64,
    regret_pct: f64,
    csv_fnv: u64,
    bytes: usize,
}

/// One timed pass.
fn oracle_pass(
    tr: &mut Tracer,
    rc: &RunnerConfig,
    mixes: &[WorkloadSpec],
    workers: usize,
) -> (Oracle, Vec<Search>, Engine, Executed, FigureSummary, usize) {
    let o = tr.time("jobgraph.plan", || plan_oracle(rc, mixes));
    // The run configuration an oracle cell resolves to (single-run).
    let cell_rc = RunnerConfig { workers: 1, ..*rc };
    let (searched, _) = steal_map(mixes, workers, |mix| {
        let t0 = Instant::now();
        let out = oracle_outcome(mix, &cell_rc);
        (out, t0, Instant::now())
    });
    let mut cache = RunCache::new(None, true);
    let mut searches = Vec::new();
    for ((out, t0, t1), mix) in searched.into_iter().zip(mixes) {
        tr.record("oracle.search", format!("{}/{}", tr.op(), mix.name), t0, t1);
        let r = &out.report;
        searches.push(Search {
            nodes: r.nodes,
            leaves: r.leaves,
            bound_prunes: r.bound_prunes,
            sym_prunes: r.sym_prunes,
            root_lower_bound_us: r.root_lower_bound_us,
            best_cost_us: r.best_cost_us,
            complete: r.complete,
        });
        cache.put(
            RunRequest::oracle(mix.clone(), rc).key(),
            Arc::new(out.result),
        );
    }
    let mut engine = Engine::new(cache);
    let executed = tr.time("jobgraph.execute", || engine.execute(&o.plan, workers));
    let fig = tr.time("figures.fold", || fold_regret(&o.cells, &executed));
    let bytes = tr.time("figures.render", || {
        let t = Table::from_figure(&fig);
        t.to_csv().len() + t.render().len()
    });
    (o, searches, engine, executed, fig, bytes)
}

fn keep(
    o: &Oracle,
    searches: Vec<Search>,
    engine: &Engine,
    executed: &Executed,
    fig: &FigureSummary,
    bytes: usize,
) -> PassOut {
    let cost = |id: CellId| executed.get(id).mean_turnaround_us;
    let broken_mixes = o
        .oracles
        .iter()
        .zip(&o.presets)
        .zip(&searches)
        .filter(|((&oracle, presets), s)| {
            presets.iter().any(|&p| cost(oracle) > cost(p))
                || s.root_lower_bound_us > s.best_cost_us
        })
        .count() as u64;
    let regret_pct = fig
        .rows
        .iter()
        .find(|r| r.app == "Oracle")
        .and_then(|r| r.get("mean_regret%"))
        .unwrap_or(f64::NAN);
    PassOut {
        searches,
        stats: *engine.stats(),
        declared: o.declared,
        unique: o.unique,
        grew: o.plan.len() != o.unique,
        sim_s: o
            .oracles
            .iter()
            .chain(o.presets.iter().flatten())
            .map(|&id| executed.get(id).sim_elapsed_us)
            .sum::<u64>() as f64
            / 1e6,
        broken_mixes,
        regret_pct,
        csv_fnv: fnv1a64(Table::from_figure(fig).to_csv().as_bytes()),
        bytes,
    }
}

/// The figure's heuristic cells: every mix under every preset and
/// sampled stack.
fn heuristic_cells(rc: &RunnerConfig, mixes: &[WorkloadSpec]) -> Vec<(WorkloadSpec, PolicyKind)> {
    let stacks = sampled_stacks(rc.seed, REGRET_SAMPLED_STACKS);
    let policies: Vec<PolicyKind> = REGRET_PRESETS
        .iter()
        .copied()
        .chain(stacks.into_iter().map(PolicyKind::Stack))
        .collect();
    mixes
        .iter()
        .flat_map(|m| policies.iter().map(move |&p| (m.clone(), p)))
        .collect()
}

/// Run the `oracle` workload.
pub fn run(args: &Args) -> Report {
    let rc = RunnerConfig {
        scale: ORACLE_SCALE,
        seed: args.seed,
        workers: args.workers,
        ..RunnerConfig::default()
    };
    let mixes = regret_mixes();
    let (setup, unique) = set_up(args, SETUPS, || plan_oracle(&rc, &mixes).unique);
    let cells = layers::cell_handles(unique);
    let mut kept: Option<(Oracle, Executed)> = None;
    let passes = run_passes(
        args,
        || {},
        |tr| oracle_pass(tr, &rc, &mixes, args.workers),
        |(o, searches, engine, executed, fig, bytes), traced| {
            let out = keep(&o, searches, &engine, &executed, &fig, bytes);
            if traced {
                kept = Some((o, executed));
            }
            out
        },
    );

    let mut report = Report::from_passes(&passes, &setup, |o| o.sim_s);
    let mut first = None;
    score(&mut report, &passes, unique, |o| {
        let repeat = *first.get_or_insert(o.csv_fnv) == o.csv_fnv;
        let served = o.stats.cache_hits == mixes.len() as u64;
        if o.grew || !served || !repeat || !o.regret_pct.is_finite() {
            eprintln!(
                "check failed: regret plan grew={} oracle cells served={served} figure repeats={repeat}",
                o.grew
            );
            return unique as u64;
        }
        if o.broken_mixes > 0 {
            eprintln!(
                "check failed: {} oracle searches break an invariant",
                o.broken_mixes
            );
        }
        o.broken_mixes
    });

    let traced: Vec<&PassOut> = passes
        .iter()
        .filter(|p| p.traced)
        .filter_map(|p| p.out.as_ref())
        .collect();
    if let (true, Some(last), Some((mut o, executed))) = (args.trace, traced.last(), kept) {
        let m = &mut report.metrics;
        let steals = median(traced.iter().map(|o| o.stats.steals as f64));
        layers::put_exec(m, &passes, &last.stats, last.declared, last.unique, steals);

        let s = &last.searches;
        let sum = |f: fn(&Search) -> u64| s.iter().map(f).sum::<u64>() as f64;
        let search_s = layers::span_ms(&passes, "oracle.search") / 1e3;
        m.put("oracle.search_s", search_s);
        m.put("oracle.nodes", sum(|s| s.nodes));
        m.put("oracle.leaves", sum(|s| s.leaves));
        m.put("oracle.bound_prunes", sum(|s| s.bound_prunes));
        m.put("oracle.sym_prunes", sum(|s| s.sym_prunes));
        m.put(
            "oracle.us_per_node",
            crate::ratio(search_s * 1e6, sum(|s| s.nodes)),
        );
        let gaps = s.iter().map(|s| {
            100.0
                * crate::ratio(
                    s.best_cost_us as f64 - s.root_lower_bound_us as f64,
                    s.best_cost_us as f64,
                )
        });
        m.put(
            "oracle.root_bound_gap_pct",
            gaps.sum::<f64>() / s.len().max(1) as f64,
        );
        m.put(
            "oracle.heuristic_cells_s",
            layers::span_ms(&passes, "jobgraph.execute") / 1e3,
        );
        m.put(
            "oracle.certified_share",
            crate::ratio(
                s.iter().filter(|s| s.complete).count() as f64,
                s.len() as f64,
            ),
        );
        if last.regret_pct.is_finite() {
            m.put("oracle.regret_pct", last.regret_pct);
        }
        m.put("figures.fold_ms", layers::span_ms(&passes, "figures.fold"));
        m.put(
            "figures.render_ms",
            layers::span_ms(&passes, "figures.render"),
        );
        m.put("figures.bytes", last.bytes as f64);

        let results = || cells.iter().map(|&id| executed.get(id));
        layers::put_memo(m, results());
        layers::put_stages(m, &layers::stage_timings(&executed, unique));
        let specs = heuristic_cells(&rc, &mixes);
        match layers::members(&mut o.plan, &rc, specs, &executed, &cells) {
            Ok(members) => {
                let mut extra = Tracer::new(true, format!("{}/layers", args.workload));
                let prof = extra.time("sim.profile", || {
                    layers::profile(&members, &rc, args.workers)
                });
                report.attempted += prof.cells;
                report.failed += prof.mismatched;
                layers::put_profile(m, &prof);
                crate::spans::append(&mut report.spans, extra.finish());
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                report.failed += 1;
            }
        }
    }
    report
}
