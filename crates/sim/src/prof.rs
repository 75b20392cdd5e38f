//! Phase-attributed self-profiling for the tick engine.
//!
//! The tick loop is a handful of phases — scheduler decisions, barrier
//! caps, the event-driven replay attempt, placement scans, demand-model
//! queries, the Λ solve, and the commit/integration step — and a tick
//! budget in the hundred-nanosecond range. Attributing wall time to those
//! phases is what turns "the engine is slow" into "62 % of the tick is
//! demand re-evaluation". A [`PhaseTimer`] owned by the machine records a
//! ns/call histogram per [`Phase`]; the `bench profile` subcommand folds
//! the result into the `busbw-metrics` registry and prints the breakdown.
//!
//! Design constraints, in priority order:
//!
//! 1. **Byte-identity neutral.** The timer observes wall clocks only; it
//!    never reads or writes simulation state, and nothing it records
//!    enters the run codec. A profiled run is byte-identical to an
//!    unprofiled one (pinned by a proptest in the experiments crate).
//! 2. **Free when disabled.** [`PhaseTimer::begin`] compiles to a single
//!    well-predicted branch returning `None`; [`PhaseTimer::end`] to the
//!    matching branch on the token. No clock is read, nothing allocates.
//! 3. **Nestable and re-entrant.** Tokens are plain values: begin/end
//!    pairs may nest (an inner phase inside an outer one — durations are
//!    *inclusive* per phase) and interleave freely. Dropping a token
//!    without `end` simply records nothing.
//!
//! Timing granularity: `Instant::now()` costs ~20–40 ns on current
//! hardware, comparable to the cheapest phases it measures. Per-phase
//! *shares* remain faithful (every phase pays the same constant), but
//! absolute ns/call for sub-100 ns phases read high; the breakdown table
//! reports calls and totals so the skew is visible rather than hidden.

use std::time::Instant;

/// One engine phase, in tick-loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Scheduler consultation: `Scheduler::schedule` plus applying the
    /// returned decision (placement validation, preempt/place cycle).
    Schedule = 0,
    /// Barrier-cap rebuild at the top of every tick.
    Barrier = 1,
    /// The event-driven replay attempt: guard checks plus, when they
    /// pass, the snapshot-based request rebuild.
    Replay = 2,
    /// Placement scan and SMT busy-count rebuild (full path only).
    Placement = 3,
    /// Demand evaluation: demand-model queries, cache warmth multipliers,
    /// and the request-vector build (full path only).
    Demand = 4,
    /// Bus arbitration: the memo probe and, on a miss, the saturated-Λ
    /// Newton solve. One call per tick.
    Solve = 5,
    /// Tick commit: coarsening-window scan, progress integration, cache
    /// advance, bus accounting, and completion detection.
    Commit = 6,
    /// Trace/audit emission: structured-trace events and audit-hook
    /// callbacks (only timed while a tracer or hook is attached).
    Trace = 7,
    /// Run-codec work: encoding/decoding results through the content-
    /// addressed cache. Never recorded by the machine itself — the
    /// experiments layer times its codec with the same `PhaseSet` so one
    /// table covers the whole pipeline.
    Codec = 8,
}

impl Phase {
    /// Number of phases (array size for [`PhaseSet`]).
    pub const COUNT: usize = 9;

    /// All phases, in tick-loop order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Schedule,
        Phase::Barrier,
        Phase::Replay,
        Phase::Placement,
        Phase::Demand,
        Phase::Solve,
        Phase::Commit,
        Phase::Trace,
        Phase::Codec,
    ];

    /// Stable snake_case name (metric keys, JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Barrier => "barrier",
            Phase::Replay => "replay",
            Phase::Placement => "placement",
            Phase::Demand => "demand",
            Phase::Solve => "solve",
            Phase::Commit => "commit",
            Phase::Trace => "trace",
            Phase::Codec => "codec",
        }
    }
}

/// Histogram bucket upper bounds in ns, log-spaced. The low end is finer
/// than the scheduler-stage histograms because engine phases sit in the
/// tens-of-ns range once the tick path is allocation-free.
pub const PHASE_BUCKET_BOUNDS_NS: [u64; 7] = [64, 256, 1_024, 4_096, 16_384, 131_072, 1_048_576];

/// Call count, total ns, and a log-bucketed ns/call histogram for one
/// phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recorded begin/end pairs.
    pub calls: u64,
    /// Σ duration, ns (inclusive of nested phases).
    pub total_ns: u64,
    /// Histogram: `buckets[i]` counts durations ≤ `PHASE_BUCKET_BOUNDS_NS[i]`
    /// (last bucket = overflow).
    pub buckets: [u64; PHASE_BUCKET_BOUNDS_NS.len() + 1],
}

impl PhaseStat {
    /// Record one duration. Zero-duration phases are legal and land in
    /// the first bucket.
    pub fn record_ns(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        let i = PHASE_BUCKET_BOUNDS_NS.partition_point(|&b| ns > b);
        self.buckets[i] += 1;
    }

    /// Mean ns per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Fold another stat into this one.
    pub fn merge(&mut self, other: &PhaseStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Per-phase stats for a whole run (or several, after merging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSet {
    stats: [PhaseStat; Phase::COUNT],
}

impl PhaseSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration against `phase`.
    pub fn record_ns(&mut self, phase: Phase, ns: u64) {
        self.stats[phase as usize].record_ns(ns);
    }

    /// The stats of one phase.
    pub fn stat(&self, phase: Phase) -> &PhaseStat {
        &self.stats[phase as usize]
    }

    /// Fold another set into this one (cross-run aggregation).
    pub fn merge(&mut self, other: &PhaseSet) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.merge(b);
        }
    }

    /// `(name, stat)` pairs in tick-loop order, recorded phases only.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, &PhaseStat)> {
        Phase::ALL
            .iter()
            .map(move |&p| (p.name(), self.stat(p)))
            .filter(|(_, s)| s.calls > 0)
    }

    /// Σ total_ns across phases (inclusive — nested phases double-count).
    pub fn grand_total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.total_ns).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.calls == 0)
    }
}

/// Opaque begin token: `Some(start)` while profiling, `None` when off.
pub type PhaseToken = Option<Instant>;

/// The engine's phase profiler: an enable flag plus a [`PhaseSet`].
///
/// See the module docs for the begin/end token protocol and the disabled
/// cost model.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    enabled: bool,
    set: PhaseSet,
}

impl PhaseTimer {
    /// A disabled timer with empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch profiling on or off. Already-recorded stats are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether begin/end pairs currently record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a phase. One branch when disabled.
    #[inline]
    pub fn begin(&self) -> PhaseToken {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish timing: record the elapsed ns against `phase`. Tokens from
    /// a disabled `begin` record nothing, so toggling mid-run is safe.
    #[inline]
    pub fn end(&mut self, phase: Phase, token: PhaseToken) {
        if let Some(t0) = token {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.set.record_ns(phase, ns);
        }
    }

    /// The recorded stats.
    pub fn set(&self) -> &PhaseSet {
        &self.set
    }

    /// Take the recorded stats, leaving an empty set (enable flag kept).
    pub fn take(&mut self) -> PhaseSet {
        std::mem::take(&mut self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::new();
        let tok = t.begin();
        assert!(tok.is_none());
        t.end(Phase::Solve, tok);
        assert!(t.set().is_empty());
    }

    #[test]
    fn enabled_timer_counts_calls_and_time() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        for _ in 0..5 {
            let tok = t.begin();
            t.end(Phase::Demand, tok);
        }
        let s = t.set().stat(Phase::Demand);
        assert_eq!(s.calls, 5);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        assert!(t.set().stat(Phase::Solve).calls == 0);
    }

    #[test]
    fn nested_phases_record_inclusively() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let outer = t.begin();
        let inner = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(Phase::Solve, inner);
        t.end(Phase::Commit, outer);
        let solve = *t.set().stat(Phase::Solve);
        let commit = *t.set().stat(Phase::Commit);
        assert_eq!(solve.calls, 1);
        assert_eq!(commit.calls, 1);
        // The outer span contains the inner one.
        assert!(commit.total_ns >= solve.total_ns);
        assert!(solve.total_ns >= 2_000_000);
    }

    #[test]
    fn interleaved_reentrant_tokens_are_independent() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        // Two overlapping begin tokens for the *same* phase, ended out of
        // order — each records exactly once.
        let a = t.begin();
        let b = t.begin();
        t.end(Phase::Replay, a);
        t.end(Phase::Replay, b);
        assert_eq!(t.set().stat(Phase::Replay).calls, 2);
    }

    #[test]
    fn zero_duration_phase_lands_in_first_bucket() {
        let mut s = PhaseStat::default();
        s.record_ns(0);
        assert_eq!(s.calls, 1);
        assert_eq!(s.total_ns, 0);
        assert_eq!(s.buckets[0], 1);
        // Bucket edges are inclusive on the left bound's upper edge.
        s.record_ns(PHASE_BUCKET_BOUNDS_NS[0]);
        assert_eq!(s.buckets[0], 2);
        s.record_ns(PHASE_BUCKET_BOUNDS_NS[0] + 1);
        assert_eq!(s.buckets[1], 1);
    }

    #[test]
    fn overflow_bucket_catches_huge_durations() {
        let mut s = PhaseStat::default();
        s.record_ns(u64::MAX / 2);
        assert_eq!(*s.buckets.last().unwrap(), 1);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = PhaseSet::new();
        let mut b = PhaseSet::new();
        a.record_ns(Phase::Demand, 100);
        b.record_ns(Phase::Demand, 50);
        b.record_ns(Phase::Codec, 7);
        a.merge(&b);
        assert_eq!(a.stat(Phase::Demand).calls, 2);
        assert_eq!(a.stat(Phase::Demand).total_ns, 150);
        assert_eq!(a.stat(Phase::Codec).calls, 1);
        assert_eq!(a.named().count(), 2);
    }

    #[test]
    fn toggling_mid_run_is_safe() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let tok = t.begin();
        t.set_enabled(false);
        // Token predates the toggle: still records (it carries its own
        // clock), matching the documented token-value semantics.
        t.end(Phase::Barrier, tok);
        assert_eq!(t.set().stat(Phase::Barrier).calls, 1);
        // New tokens after the toggle are inert.
        let tok = t.begin();
        t.end(Phase::Barrier, tok);
        assert_eq!(t.set().stat(Phase::Barrier).calls, 1);
    }

    #[test]
    fn take_resets_stats_but_keeps_enablement() {
        let mut t = PhaseTimer::new();
        t.set_enabled(true);
        let tok = t.begin();
        t.end(Phase::Schedule, tok);
        let set = t.take();
        assert_eq!(set.stat(Phase::Schedule).calls, 1);
        assert!(t.set().is_empty());
        assert!(t.is_enabled());
    }
}
