//! Byte-for-byte goldens for the figure families that `results/` does not
//! pin at full scale: the three `topo` panels (the only figures whose
//! cells run the multi-socket `HierarchicalBus`), `ablate-stages` and the
//! open-system `open` figure.
//!
//! The files under `results/golden-0.1/` are what
//! `experiments topo|ablate --stages|open --scale 0.1` writes (default
//! seed 42; `open` at its default `poisson:small` arrivals and `short`
//! horizon). This test regenerates each figure through the library entry
//! points and compares both the CSV and the rendered text table. To
//! re-pin after an intended change, rerun those commands with
//! `--out results/golden-0.1` and delete the `.manifest.json` files.

use std::path::PathBuf;

use busbw_experiments::open::{SHORT_DURATION_US, SMALL_RATE_PER_S};
use busbw_experiments::{ablate_stages, open_tail_latency, topo_panel, RunnerConfig, TOPO_SHAPES};
use busbw_managerd::ArrivalProcess;
use busbw_metrics::{FigureSummary, Table};

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
