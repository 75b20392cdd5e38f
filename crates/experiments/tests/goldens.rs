//! Byte-for-byte goldens for the figure families that `results/` does not
//! pin at full scale: the three `topo` panels (the only figures whose
//! cells run the multi-socket `HierarchicalBus`), `ablate-stages`, the
//! open-system `open` figure and the `regret` figure (the only one whose
//! cells run the offline-optimal oracle); plus the tick and
//! simulated-time counts of a fixed four-cell slice.
//!
//! The files under `results/golden-0.1/` are what
//! `experiments topo|ablate --stages|open|regret --scale 0.1` writes
//! (default seed 42; `open` at its default `poisson:small` arrivals and
//! `short` horizon). This test regenerates each figure through the library entry
//! points and compares both the CSV and the rendered text table. To
//! re-pin after an intended change, rerun those commands with
//! `--out results/golden-0.1` and delete the `.manifest.json` files.

use std::path::PathBuf;

use busbw_experiments::open::{SHORT_DURATION_US, SMALL_RATE_PER_S};
use busbw_experiments::{
    ablate_stages, open_tail_latency, regret_panel, run_spec, topo_panel, PolicyKind, RunnerConfig,
    TOPO_SHAPES,
};
use busbw_managerd::ArrivalProcess;
use busbw_metrics::{FigureSummary, Table};
use busbw_workloads::mix::{fig1_solo, fig1_with_bbma, fig2_set_a, fig2_set_b};
use busbw_workloads::paper::PaperApp;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden-0.1")
}

fn rc() -> RunnerConfig {
    RunnerConfig {
        scale: 0.1,
        ..RunnerConfig::default()
    }
}

/// Compare one figure's CSV and text rendering against its golden files,
/// naming the first differing line on a mismatch.
fn assert_matches_golden(fig: &FigureSummary) {
    let table = Table::from_figure(fig);
    for (ext, got) in [("csv", table.to_csv()), ("txt", table.render())] {
        let path = golden_dir().join(format!("{}.{ext}", fig.id));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()));
        if got == want {
            continue;
        }
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{}.{ext} drifted from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            fig.id,
            path.display(),
            first_diff + 1,
            got.lines().nth(first_diff),
            want.lines().nth(first_diff),
        );
    }
}

#[test]
fn topo_panels_match_goldens() {
    for shape in TOPO_SHAPES {
        assert_matches_golden(&topo_panel(shape, &rc()));
    }
}

#[test]
fn ablate_stages_matches_golden() {
    assert_matches_golden(&ablate_stages(&rc()));
}

#[test]
fn open_figure_matches_golden() {
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: SMALL_RATE_PER_S,
    };
    // `open_tail_latency` is `plan_open` + `fold_open` at the CLI's
    // default accept-queue depth, on a throwaway engine.
    assert_matches_golden(&open_tail_latency(&rc(), arrivals, SHORT_DURATION_US));
}

#[test]
fn regret_figure_matches_golden() {
    assert_matches_golden(&regret_panel(&rc()));
}

/// The simulated work of a fixed four-cell slice — a coarsenable solo
/// run, a saturated mix, and two time-shared Fig. 2 sets — at scale 0.1,
/// seed 42. Tick counts and simulated time are host-independent, so any
/// drift means the simulation itself changed (host time is measured by
/// `perfbench`, not here).
#[test]
fn tick_slice_counts_are_pinned() {
    let cells = [
        (fig1_solo(PaperApp::Cg), PolicyKind::Linux, 2_792, 701_800),
        (
            fig1_with_bbma(PaperApp::Cg),
            PolicyKind::Linux,
            9_548,
            1_519_700,
        ),
        (
            fig2_set_a(PaperApp::Mg),
            PolicyKind::Window,
            24_777,
            2_477_700,
        ),
        (
            fig2_set_b(PaperApp::Raytrace),
            PolicyKind::Latest,
            13_699,
            1_369_900,
        ),
    ];
    let (mut ticks, mut sim_us) = (0, 0);
    for (spec, policy, want_ticks, want_sim_us) in cells {
        let r = run_spec(&spec, policy, &rc());
        assert_eq!(
            (r.ticks, r.sim_elapsed_us),
            (want_ticks, want_sim_us),
            "{} under {}: (ticks, simulated µs)",
            spec.name,
            policy.label()
        );
        ticks += r.ticks;
        sim_us += r.sim_elapsed_us;
    }
    assert_eq!((ticks, sim_us), (50_816, 6_069_100));
}
