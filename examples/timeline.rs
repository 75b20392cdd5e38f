//! Visualize schedules: a text Gantt chart of the same workload under the
//! Linux baseline and the Quanta Window policy.
//!
//! ```text
//! cargo run --release --example timeline [app]
//! ```
//!
//! The contrast to look for (default MG, set C): under Linux the app's
//! threads scatter and interleave with the BBMA streamers; under the
//! bandwidth-aware policy the gangs are intact and the two app instances
//! are kept apart from the saturating background whenever the fitness
//! rule can arrange it.
//!
//! The chart is rendered from the machine's structured trace: an in-memory
//! `EventBus` collects the `Placement` event the machine emits for every
//! thread each scheduling decision places.

use std::collections::BTreeMap;

use busbw::core::{linux_like, quanta_window};
use busbw::sim::{Machine, Scheduler, StopCondition, XEON_4WAY};
use busbw::workloads::{mix, paper::PaperApp};
use busbw_trace::{EventBus, TraceEvent};

/// One scheduling decision as seen in the placement stream: its time and
/// the app occupying each cpu (`None` = idle). A decision that places no
/// thread emits no event and so does not appear.
type Epoch = (u64, Vec<Option<u64>>);

/// Group the `Placement` events of one run into decisions: the machine
/// emits every placement of a decision at the decision's timestamp.
fn epochs(events: &[TraceEvent], num_cpus: usize) -> Vec<Epoch> {
    let mut out: Vec<Epoch> = Vec::new();
    for ev in events {
        if let TraceEvent::Placement {
            at_us, cpu, app, ..
        } = *ev
        {
            if out.last().map(|e| e.0) != Some(at_us) {
                out.push((at_us, vec![None; num_cpus]));
            }
            if let Some(e) = out.last_mut() {
                e.1[cpu] = Some(app);
            }
        }
    }
    out
}

/// Which app occupied `cpu` at simulated time `t_us`, if any.
fn occupant_at(epochs: &[Epoch], cpu: usize, t_us: u64) -> Option<u64> {
    let idx = epochs.partition_point(|e| e.0 <= t_us);
    epochs.get(idx.checked_sub(1)?)?.1[cpu]
}

/// Fraction of decisions in which `app` had at least one thread placed.
fn run_fraction(epochs: &[Epoch], app: u64) -> f64 {
    if epochs.is_empty() {
        return 0.0;
    }
    let n = epochs.iter().filter(|e| e.1.contains(&Some(app))).count();
    n as f64 / epochs.len() as f64
}

/// Render a text Gantt chart: one row per cpu, one column per `bucket_us`
/// of simulated time, cells keyed by a per-app letter (`·` = idle),
/// followed by a legend of `apps` (id → name).
fn render_gantt(epochs: &[Epoch], apps: &BTreeMap<u64, String>, bucket_us: u64) -> String {
    assert!(bucket_us > 0, "bucket must be positive");
    let Some(last) = epochs.last() else {
        return String::from("(empty trace)\n");
    };
    let buckets = (((last.0 + bucket_us) / bucket_us) as usize).min(400);
    // Stable letter per app in id order.
    let letters: BTreeMap<u64, char> = apps
        .keys()
        .enumerate()
        .map(|(i, &a)| {
            let c = if i < 26 {
                (b'A' + i as u8) as char
            } else {
                (b'a' + (i - 26) as u8 % 26) as char
            };
            (a, c)
        })
        .collect();
    let mut out = String::new();
    for cpu in 0..last.1.len() {
        out.push_str(&format!("cpu{cpu} |"));
        for b in 0..buckets {
            let cell = occupant_at(epochs, cpu, b as u64 * bucket_us)
                .and_then(|a| letters.get(&a).copied())
                .unwrap_or('·');
            out.push(cell);
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "      +{} ({} ms/col)\n",
        "-".repeat(buckets),
        bucket_us / 1000
    ));
    for (app, name) in apps {
        out.push_str(&format!("  {} = {name} (app{app})\n", letters[app]));
    }
    out
}

/// Run `sched` on `machine` with an in-memory trace attached and return
/// the decisions it made plus every app's name.
fn record(
    machine: &mut Machine,
    sched: &mut dyn Scheduler,
    stop: StopCondition,
) -> (Vec<Epoch>, BTreeMap<u64, String>, bool) {
    let (bus, events) = EventBus::memory();
    machine.set_tracer(bus);
    let out = machine.run(sched, stop);
    let view = machine.view();
    let apps = view.apps().map(|a| (a.id.0, a.name.to_string())).collect();
    (
        epochs(&events.events(), view.num_cpus),
        apps,
        out.condition_met,
    )
}

fn show(label: &str, mut sched: Box<dyn Scheduler>, app: PaperApp) {
    let spec = mix::fig2_set_c(app).scaled(0.05);
    let built = mix::build_machine(&spec, XEON_4WAY, 42);
    let mut machine = built.machine;
    let (epochs, apps, done) = record(
        &mut machine,
        &mut *sched,
        StopCondition::AppsFinished(built.measured_ids.clone()),
    );
    assert!(done);
    println!("=== {label} ===");
    println!("{}", render_gantt(&epochs, &apps, 100_000));
    for &id in &built.measured_ids {
        println!(
            "  {} turnaround: {:.2} s (ran in {:.0}% of quanta)",
            apps[&id.0],
            machine.turnaround_us(id).unwrap() as f64 / 1e6,
            run_fraction(&epochs, id.0) * 100.0
        );
    }
    println!();
}

fn main() {
    let app = std::env::args()
        .nth(1)
        .and_then(|s| PaperApp::from_name(&s))
        .unwrap_or(PaperApp::Mg);
    println!(
        "workload: 2x{} + 2xBBMA + 2xnBBMA (set C, 1/20 scale)\n",
        app.name()
    );
    show("Linux 2.4-like baseline", Box::new(linux_like()), app);
    show("Quanta Window policy", Box::new(quanta_window()), app);
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw::sim::{
        AppDescriptor, Assignment, ConstantDemand, CpuId, Decision, MachineView, ThreadId,
        ThreadSpec,
    };

    /// Alternates two single-thread apps on cpu0.
    struct Alternator {
        flip: bool,
    }

    impl Scheduler for Alternator {
        fn schedule(&mut self, _v: &MachineView<'_>) -> Decision {
            self.flip = !self.flip;
            Decision {
                assignments: vec![Assignment {
                    thread: ThreadId(u64::from(self.flip)),
                    cpu: CpuId(0),
                }],
                next_resched_in_us: 100_000,
                sample_period_us: None,
            }
        }
    }

    fn alternate_until(t_us: u64) -> (Vec<Epoch>, BTreeMap<u64, String>) {
        let mut m = Machine::new(XEON_4WAY);
        for name in ["first", "second"] {
            m.add_app(AppDescriptor::new(
                name,
                vec![ThreadSpec::new(
                    f64::INFINITY,
                    Box::new(ConstantDemand::new(0.5, 0.1)),
                )],
            ));
        }
        let (epochs, apps, _) = record(
            &mut m,
            &mut Alternator { flip: false },
            StopCondition::At(t_us),
        );
        (epochs, apps)
    }

    #[test]
    fn records_every_decision_and_the_alternation() {
        let (epochs, _) = alternate_until(1_000_000);
        assert_eq!(epochs.len(), 10);
        let on_cpu0: Vec<_> = epochs.iter().map(|e| e.1[0]).collect();
        assert_eq!(&on_cpu0[..3], &[Some(1), Some(0), Some(1)]);
        assert!((run_fraction(&epochs, 0) - 0.5).abs() < 0.11);
        assert!((run_fraction(&epochs, 1) - 0.5).abs() < 0.11);
    }

    #[test]
    fn occupant_lookup_uses_latest_decision() {
        let (epochs, _) = alternate_until(500_000);
        // The first decision (at t = 0) put app1 ("second") on cpu0.
        assert_eq!(occupant_at(&epochs, 0, 50_000), Some(1));
        assert_eq!(occupant_at(&epochs, 0, 150_000), Some(0));
        // cpu3 was never used.
        assert_eq!(occupant_at(&epochs, 3, 150_000), None);
    }

    #[test]
    fn gantt_renders_rows_legend_idle_cells_and_alternation() {
        let (epochs, apps) = alternate_until(600_000);
        let g = render_gantt(&epochs, &apps, 100_000);
        assert!(g.contains("cpu0 |"));
        assert!(g.contains("cpu3 |"));
        assert!(g.contains("A = first (app0)"));
        assert!(g.contains("B = second (app1)"));
        // cpu3 idle the whole time.
        let cpu3_row = g.lines().find(|l| l.starts_with("cpu3")).unwrap();
        assert!(cpu3_row.contains("··"));
        // cpu0 shows both letters, alternating.
        let cpu0_row = g.lines().find(|l| l.starts_with("cpu0")).unwrap();
        assert!(cpu0_row.contains("BABABA"), "{cpu0_row}");
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        assert_eq!(render_gantt(&[], &BTreeMap::new(), 1000), "(empty trace)\n");
    }
}
