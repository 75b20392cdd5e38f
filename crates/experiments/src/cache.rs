//! Content-addressed run cache.
//!
//! Every simulator run is identified by a **run key**: an FNV-1a 64-bit
//! hash (the `busbw-trace` manifest hasher) over a canonical byte
//! encoding of the fully-resolved run tuple — workload spec, policy,
//! machine config, seed, scale, hard-cap factor, and trace wiring —
//! salted with [`RUN_SCHEMA_VERSION`]. The encoded bytes travel with the
//! hash, so key equality compares content, not just the 64-bit digest:
//! a hash collision degrades to a cache miss, never to a wrong result.
//!
//! Cached [`RunResult`]s round-trip through a hand-rolled binary codec
//! that stores every `f64` as its IEEE-754 bit pattern, so a cache-served
//! result is **bit-identical** to the fresh run that produced it —
//! including the structured trace events. The cache itself is an
//! in-memory map plus an optional on-disk store (`--cache-dir`), with
//! writes going through a temp-file rename so concurrent processes never
//! observe a torn entry.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

use busbw_sim::MachineConfig;
use busbw_trace::{fnv1a64, TraceEvent};
use busbw_workloads::app::{AppSpec, Behavior};
use busbw_workloads::mix::WorkloadSpec;

use crate::policy::{AdmissionKind, EstimatorKind, PlacerKind, SelectorKind, StackSpec};
use crate::runner::{PolicyKind, RunCompletion, RunResult, TraceMode, UnfinishedApp};

/// Schema-version salt mixed into every run key and stamped on every
/// cache file. Bump it whenever the [`RunResult`] layout, the canonical
/// key encoding, or anything that feeds a run's numbers changes: old
/// entries then simply stop matching (cache invalidation by content).
///
/// v2: `PolicyKind::Stack` joined the policy encoding, `StageDecision`
/// joined the event codec, and [`RunResult`] grew stage timings.
///
/// v3: the open-system manager runs joined — `RunShape::Open` in the key
/// encoding, `ClientArrived`/`ClientShed`/`ClientDeparted` in the event
/// codec, and [`RunResult`] grew optional [`OpenStats`].
///
/// v4: hierarchical bus topologies joined — [`MachineConfig::topology`]
/// in the machine encoding, the three socket-aware placer kinds in the
/// stack encoding, and `LevelSaturated` in the event codec.
///
/// v5: the offline-optimal oracle joined — `PolicyKind::OfflineOptimal`
/// in the policy encoding and `RunShape::Oracle` in the key encoding
/// (`experiments regret`).
///
/// v6: one bandwidth-measurement path — traced results of raw-meter and
/// `ModelDriven` cells gain `Reconstruct` and stage events, and
/// `ModelDriven` cells now report stage timings.
///
/// v7: open-system results (`OpenStats`) drop managerd's modeled
/// manager overhead and the serve duration it was divided by (the
/// duration stays in `sim_elapsed_us`).
///
/// v8: the bus keeps no Λ memo, so results drop its hit and miss counts.
pub const RUN_SCHEMA_VERSION: u32 = 8;

/// Magic bytes prefixing every on-disk cache entry.
const MAGIC: &[u8; 8] = b"BBWRUN\x00\x01";

// ---------------------------------------------------------------------
// Canonical byte encoding
// ---------------------------------------------------------------------

/// Append-only canonical byte encoder. All multi-byte integers are
/// little-endian; floats are encoded as their `to_bits` pattern, so the
/// encoding is total (infinities and NaNs included) and bit-exact.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
}

/// Cursor-based decoder matching [`Enc`]. All errors are strings — a
/// decode failure only ever downgrades a cache hit to a miss.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a length prefix for a sequence whose elements occupy at least
    /// `min_elem_bytes` each, rejecting counts that cannot possibly fit in
    /// the remaining buffer. The check runs **before** any allocation, so
    /// an adversarial or bit-flipped prefix can neither reserve huge
    /// buffers nor spin a long decode loop — it fails immediately.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        let fits = n
            .checked_mul(min_elem_bytes.max(1))
            .is_some_and(|total| total <= self.remaining());
        if !fits {
            return Err(format!(
                "sequence length {n} cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "usize overflow".to_string())
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| e.to_string())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Run keys
// ---------------------------------------------------------------------

/// A content-addressed run identity: the FNV-1a 64-bit digest of the
/// canonical encoding, plus the encoding itself for collision-proof
/// equality.
#[derive(Debug, Clone)]
pub struct RunKey {
    hash: u64,
    encoded: Arc<Vec<u8>>,
}

impl RunKey {
    /// Wrap a finished canonical encoding.
    pub fn from_encoded(encoded: Vec<u8>) -> Self {
        Self {
            hash: fnv1a64(&encoded),
            encoded: Arc::new(encoded),
        }
    }

    /// The 64-bit digest (names the on-disk cache entry).
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Lowercase-hex digest, e.g. for cache file names.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// The canonical encoding the digest was computed over.
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }
}

impl PartialEq for RunKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.encoded == other.encoded
    }
}

impl Eq for RunKey {}

impl Hash for RunKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

fn encode_behavior(e: &mut Enc, b: &Behavior) {
    match b {
        Behavior::Constant => e.u8(0),
        Behavior::Oscillating {
            amplitude,
            period_us,
        } => {
            e.u8(1);
            e.f64(*amplitude);
            e.f64(*period_us);
        }
        Behavior::Bursty => e.u8(2),
    }
}

fn encode_app_spec(e: &mut Enc, a: &AppSpec) {
    e.str(&a.name);
    e.usize(a.nthreads);
    e.f64(a.work_us_per_thread);
    e.f64(a.rate_per_thread);
    e.f64(a.mu);
    e.f64(a.cache_sensitivity);
    encode_behavior(e, &a.behavior);
    e.opt_f64(a.barrier_interval_us);
}

/// Encode a [`WorkloadSpec`] canonically (names included — they are part
/// of the figure output via unfinished-app reports).
pub(crate) fn encode_workload(e: &mut Enc, w: &WorkloadSpec) {
    e.str(&w.name);
    e.usize(w.apps.len());
    for a in &w.apps {
        encode_app_spec(e, a);
    }
    e.usize(w.measured.len());
    for &m in &w.measured {
        e.usize(m);
    }
}

/// Encode a [`PolicyKind`] including every variant payload (window
/// widths, quantum lengths, gang-fill seeds).
pub(crate) fn encode_policy(e: &mut Enc, p: &PolicyKind) {
    match *p {
        PolicyKind::Linux => e.u8(0),
        PolicyKind::Latest => e.u8(1),
        PolicyKind::Window => e.u8(2),
        PolicyKind::WindowN(n) => {
            e.u8(3);
            e.usize(n);
        }
        PolicyKind::LatestWithQuantum(q) => {
            e.u8(4);
            e.u64(q);
        }
        PolicyKind::RoundRobinGang => e.u8(5),
        PolicyKind::RandomGang(seed) => {
            e.u8(6);
            e.u64(seed);
        }
        PolicyKind::GreedyPack => e.u8(7),
        PolicyKind::LinuxO1 => e.u8(8),
        PolicyKind::ModelDriven => e.u8(9),
        PolicyKind::Stack(spec) => {
            e.u8(10);
            encode_stack_spec(e, &spec);
        }
        PolicyKind::OfflineOptimal => e.u8(11),
    }
}

/// Encode a composed stack: every stage choice with its payload, plus the
/// quantum — substituting any single stage must change the run key.
pub(crate) fn encode_stack_spec(e: &mut Enc, s: &StackSpec) {
    match s.estimator {
        EstimatorKind::Latest => e.u8(0),
        EstimatorKind::Window(n) => {
            e.u8(1);
            e.usize(n);
        }
        EstimatorKind::Ewma(n) => {
            e.u8(2);
            e.usize(n);
        }
        EstimatorKind::Raw => e.u8(3),
        EstimatorKind::Null => e.u8(4),
    }
    e.u8(match s.admission {
        AdmissionKind::Head => 0,
        AdmissionKind::StrictHead => 1,
        AdmissionKind::Fcfs => 2,
        AdmissionKind::Widest => 3,
        AdmissionKind::Open => 4,
    });
    match s.selector {
        SelectorKind::Fitness => e.u8(0),
        SelectorKind::Random(seed) => {
            e.u8(1);
            e.u64(seed);
        }
        SelectorKind::Greedy => e.u8(2),
        SelectorKind::Lookahead => e.u8(3),
        SelectorKind::None => e.u8(4),
    }
    e.u8(match s.placer {
        PlacerKind::Packed => 0,
        PlacerKind::Scatter => 1,
        PlacerKind::Smt => 2,
        PlacerKind::PackLocal => 3,
        PlacerKind::SpreadSockets => 4,
        PlacerKind::Migrate => 5,
    });
    e.u64(s.quantum_us);
}

/// Encode a [`MachineConfig`]: every field that can change a run's
/// numbers, in declaration order.
pub(crate) fn encode_machine(e: &mut Enc, m: &MachineConfig) {
    e.usize(m.num_cpus);
    e.u64(m.tick_us);
    e.usize(m.smt_threads_per_core);
    e.f64(m.smt_core_speedup);
    e.f64(m.bus.capacity_tx_per_us);
    e.f64(m.bus.bytes_per_tx);
    e.f64(m.bus.arbitration_per_master);
    e.f64(m.bus.active_master_threshold);
    e.f64(m.bus.queueing_coeff);
    e.f64(m.bus.queueing_exponent);
    e.f64(m.cache.warmup_tau_us);
    e.f64(m.cache.decay_tau_us);
    e.f64(m.cache.cold_demand_boost);
    e.f64(m.cache.min_tracked_warmth);
    e.usize(m.topology.sockets);
    e.f64(m.topology.interconnect_tx_per_us);
    e.f64(m.topology.remote_fraction);
}

/// Encode the trace wiring — collected traces are part of the result, so
/// runs with different wiring must never share a cache entry.
pub(crate) fn encode_trace_mode(e: &mut Enc, t: TraceMode) {
    e.u8(match t {
        // Tag 1 belonged to a retired null-sink mode; the surviving tags
        // keep their values so no run key changes.
        TraceMode::Off => 0,
        TraceMode::Collect => 2,
    });
}

// ---------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------

fn encode_event(e: &mut Enc, ev: &TraceEvent) {
    match ev {
        TraceEvent::Placement {
            at_us,
            cpu,
            thread,
            app,
            cold,
        } => {
            e.u8(0);
            e.u64(*at_us);
            e.usize(*cpu);
            e.u64(*thread);
            e.u64(*app);
            e.bool(*cold);
        }
        TraceEvent::PhaseEdge {
            at_us,
            thread,
            rate,
            mu,
        } => {
            e.u8(1);
            e.u64(*at_us);
            e.u64(*thread);
            e.f64(*rate);
            e.f64(*mu);
        }
        TraceEvent::CoarseJump {
            at_us,
            dt_us,
            ticks_covered,
        } => {
            e.u8(2);
            e.u64(*at_us);
            e.u64(*dt_us);
            e.u64(*ticks_covered);
        }
        TraceEvent::BusSolve {
            at_us,
            lambda,
            utilization,
            saturated,
            requesters,
        } => {
            e.u8(3);
            e.u64(*at_us);
            e.f64(*lambda);
            e.f64(*utilization);
            e.bool(*saturated);
            e.usize(*requesters);
        }
        TraceEvent::AppFinished {
            at_us,
            app,
            turnaround_us,
        } => {
            e.u8(4);
            e.u64(*at_us);
            e.u64(*app);
            e.u64(*turnaround_us);
        }
        TraceEvent::HeadAdmission { at_us, app, width } => {
            e.u8(5);
            e.u64(*at_us);
            e.u64(*app);
            e.usize(*width);
        }
        TraceEvent::GangSelected {
            at_us,
            app,
            width,
            fitness,
            available_per_proc,
        } => {
            e.u8(6);
            e.u64(*at_us);
            e.u64(*app);
            e.usize(*width);
            e.f64(*fitness);
            e.f64(*available_per_proc);
        }
        TraceEvent::Reconstruct {
            at_us,
            app,
            measured_per_thread,
            dilation,
            demand_per_thread,
        } => {
            e.u8(7);
            e.u64(*at_us);
            e.u64(*app);
            e.f64(*measured_per_thread);
            e.f64(*dilation);
            e.f64(*demand_per_thread);
        }
        TraceEvent::RunUnfinished {
            at_us,
            app,
            name,
            progress_frac,
        } => {
            e.u8(8);
            e.u64(*at_us);
            e.u64(*app);
            e.str(name);
            e.f64(*progress_frac);
        }
        TraceEvent::MgrConnect { client, threads } => {
            e.u8(9);
            e.u64(*client);
            e.usize(*threads);
        }
        TraceEvent::MgrDisconnect { client } => {
            e.u8(10);
            e.u64(*client);
        }
        TraceEvent::MgrGate {
            client,
            thread,
            resumed,
            blocks,
            unblocks,
        } => {
            e.u8(11);
            e.u64(*client);
            e.u64(*thread);
            e.bool(*resumed);
            e.u64(*blocks);
            e.u64(*unblocks);
        }
        TraceEvent::MgrSignalReorder { client, thread } => {
            e.u8(12);
            e.u64(*client);
            e.u64(*thread);
        }
        TraceEvent::StageDecision {
            at_us,
            stage,
            items,
        } => {
            e.u8(13);
            e.u64(*at_us);
            e.u8(stage.index() as u8);
            e.usize(*items);
        }
        TraceEvent::ClientArrived {
            at_us,
            client,
            width,
        } => {
            e.u8(14);
            e.u64(*at_us);
            e.u64(*client);
            e.usize(*width);
        }
        TraceEvent::ClientShed {
            at_us,
            arrival,
            live,
        } => {
            e.u8(15);
            e.u64(*at_us);
            e.u64(*arrival);
            e.usize(*live);
        }
        TraceEvent::ClientDeparted {
            at_us,
            client,
            turnaround_us,
        } => {
            e.u8(16);
            e.u64(*at_us);
            e.u64(*client);
            e.u64(*turnaround_us);
        }
        TraceEvent::LevelSaturated {
            at_us,
            level,
            utilization,
            dilation,
        } => {
            e.u8(17);
            e.u64(*at_us);
            e.u64(*level);
            e.f64(*utilization);
            e.f64(*dilation);
        }
    }
}

fn decode_event(d: &mut Dec) -> Result<TraceEvent, String> {
    Ok(match d.u8()? {
        0 => TraceEvent::Placement {
            at_us: d.u64()?,
            cpu: d.usize()?,
            thread: d.u64()?,
            app: d.u64()?,
            cold: d.bool()?,
        },
        1 => TraceEvent::PhaseEdge {
            at_us: d.u64()?,
            thread: d.u64()?,
            rate: d.f64()?,
            mu: d.f64()?,
        },
        2 => TraceEvent::CoarseJump {
            at_us: d.u64()?,
            dt_us: d.u64()?,
            ticks_covered: d.u64()?,
        },
        3 => TraceEvent::BusSolve {
            at_us: d.u64()?,
            lambda: d.f64()?,
            utilization: d.f64()?,
            saturated: d.bool()?,
            requesters: d.usize()?,
        },
        4 => TraceEvent::AppFinished {
            at_us: d.u64()?,
            app: d.u64()?,
            turnaround_us: d.u64()?,
        },
        5 => TraceEvent::HeadAdmission {
            at_us: d.u64()?,
            app: d.u64()?,
            width: d.usize()?,
        },
        6 => TraceEvent::GangSelected {
            at_us: d.u64()?,
            app: d.u64()?,
            width: d.usize()?,
            fitness: d.f64()?,
            available_per_proc: d.f64()?,
        },
        7 => TraceEvent::Reconstruct {
            at_us: d.u64()?,
            app: d.u64()?,
            measured_per_thread: d.f64()?,
            dilation: d.f64()?,
            demand_per_thread: d.f64()?,
        },
        8 => TraceEvent::RunUnfinished {
            at_us: d.u64()?,
            app: d.u64()?,
            name: d.str()?,
            progress_frac: d.f64()?,
        },
        9 => TraceEvent::MgrConnect {
            client: d.u64()?,
            threads: d.usize()?,
        },
        10 => TraceEvent::MgrDisconnect { client: d.u64()? },
        11 => TraceEvent::MgrGate {
            client: d.u64()?,
            thread: d.u64()?,
            resumed: d.bool()?,
            blocks: d.u64()?,
            unblocks: d.u64()?,
        },
        12 => TraceEvent::MgrSignalReorder {
            client: d.u64()?,
            thread: d.u64()?,
        },
        13 => TraceEvent::StageDecision {
            at_us: d.u64()?,
            stage: {
                let i = d.u8()? as usize;
                busbw_trace::PipelineStage::from_index(i)
                    .ok_or_else(|| format!("bad pipeline stage index {i}"))?
            },
            items: d.usize()?,
        },
        14 => TraceEvent::ClientArrived {
            at_us: d.u64()?,
            client: d.u64()?,
            width: d.usize()?,
        },
        15 => TraceEvent::ClientShed {
            at_us: d.u64()?,
            arrival: d.u64()?,
            live: d.usize()?,
        },
        16 => TraceEvent::ClientDeparted {
            at_us: d.u64()?,
            client: d.u64()?,
            turnaround_us: d.u64()?,
        },
        17 => TraceEvent::LevelSaturated {
            at_us: d.u64()?,
            level: d.u64()?,
            utilization: d.f64()?,
            dilation: d.f64()?,
        },
        t => return Err(format!("unknown event tag {t}")),
    })
}

/// Serialize a [`RunResult`] to the bit-exact binary cache payload.
pub fn encode_result(r: &RunResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.usize(r.turnarounds_us.len());
    for &t in &r.turnarounds_us {
        e.f64(t);
    }
    e.f64(r.mean_turnaround_us);
    e.f64(r.workload_rate);
    e.f64(r.measured_apps_rate);
    e.f64(r.saturated_fraction);
    e.u64(r.ticks);
    e.u64(r.sim_elapsed_us);
    match &r.completion {
        RunCompletion::Finished => e.u8(0),
        RunCompletion::HardCap { unfinished } => {
            e.u8(1);
            e.usize(unfinished.len());
            for u in unfinished {
                e.str(&u.name);
                e.f64(u.progress_frac);
            }
        }
    }
    e.usize(r.events.len());
    for ev in &r.events {
        encode_event(&mut e, ev);
    }
    for &b in &r.tick_dt_hist.buckets {
        e.u64(b);
    }
    // Stage timings are wall-clock observations, not simulation outputs:
    // a cache-served result replays the producing run's readings, which is
    // as meaningful as any other run's (they never feed figure data).
    match &r.stage_timings {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            for s in &t.stages {
                e.u64(s.calls);
                e.u64(s.total_ns);
                for &b in &s.buckets {
                    e.u64(b);
                }
            }
        }
    }
    match &r.open {
        None => e.u8(0),
        Some(o) => {
            e.u8(1);
            e.u64(o.arrived);
            e.u64(o.shed);
            e.u64(o.served);
            e.f64(o.mean_slowdown);
        }
    }
    e.usize(r.n_levels);
    for &u in &r.level_utilization {
        e.f64(u);
    }
    for &s in &r.level_saturated {
        e.f64(s);
    }
    e.into_bytes()
}

/// Deserialize a cache payload produced by [`encode_result`].
pub fn decode_result(bytes: &[u8]) -> Result<RunResult, String> {
    let mut d = Dec::new(bytes);
    let n = d.seq_len(8)?;
    let mut turnarounds_us = Vec::with_capacity(n);
    for _ in 0..n {
        turnarounds_us.push(d.f64()?);
    }
    let mean_turnaround_us = d.f64()?;
    let workload_rate = d.f64()?;
    let measured_apps_rate = d.f64()?;
    let saturated_fraction = d.f64()?;
    let ticks = d.u64()?;
    let sim_elapsed_us = d.u64()?;
    let completion = match d.u8()? {
        0 => RunCompletion::Finished,
        1 => {
            // Each entry is a length-prefixed name (≥ 4 bytes) + one f64.
            let n = d.seq_len(12)?;
            let mut unfinished = Vec::with_capacity(n);
            for _ in 0..n {
                unfinished.push(UnfinishedApp {
                    name: d.str()?,
                    progress_frac: d.f64()?,
                });
            }
            RunCompletion::HardCap { unfinished }
        }
        t => return Err(format!("unknown completion tag {t}")),
    };
    // The smallest event is a tag byte + its at_us timestamp.
    let n = d.seq_len(9)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_event(&mut d)?);
    }
    let mut tick_dt_hist = busbw_sim::TickDtHist::default();
    for b in tick_dt_hist.buckets.iter_mut() {
        *b = d.u64()?;
    }
    let stage_timings = match d.u8()? {
        0 => None,
        1 => {
            let mut t = busbw_sim::StageTimings::default();
            for s in t.stages.iter_mut() {
                s.calls = d.u64()?;
                s.total_ns = d.u64()?;
                for b in s.buckets.iter_mut() {
                    *b = d.u64()?;
                }
            }
            Some(t)
        }
        t => return Err(format!("unknown stage-timings tag {t}")),
    };
    let open = match d.u8()? {
        0 => None,
        1 => Some(crate::runner::OpenStats {
            arrived: d.u64()?,
            shed: d.u64()?,
            served: d.u64()?,
            mean_slowdown: d.f64()?,
        }),
        t => return Err(format!("unknown open-stats tag {t}")),
    };
    let n_levels = d.usize()?;
    if n_levels > busbw_sim::MAX_BUS_LEVELS {
        return Err(format!("level count {n_levels} out of range"));
    }
    let mut level_utilization = [0.0; busbw_sim::MAX_BUS_LEVELS];
    for u in level_utilization.iter_mut() {
        *u = d.f64()?;
    }
    let mut level_saturated = [0.0; busbw_sim::MAX_BUS_LEVELS];
    for s in level_saturated.iter_mut() {
        *s = d.f64()?;
    }
    d.done()?;
    Ok(RunResult {
        turnarounds_us,
        mean_turnaround_us,
        workload_rate,
        measured_apps_rate,
        saturated_fraction,
        ticks,
        sim_elapsed_us,
        completion,
        events,
        tick_dt_hist,
        memo_hits: 0,
        memo_misses: 0,
        stage_timings,
        open,
        n_levels,
        level_utilization,
        level_saturated,
    })
}

// ---------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-process map.
    Memory,
    /// Loaded (and verified) from the on-disk store.
    Disk,
}

/// How a disk entry failed to serve a lookup.
enum EntryReject {
    /// A different schema version or a different key's bytes: the entry is
    /// well-formed but simply not ours (stale store, digest collision).
    Stale,
    /// Bad magic, truncated header, or a payload that fails to decode —
    /// the file is damaged. Counted in [`RunCache::corrupt_count`].
    Corrupt,
}

/// In-memory + optional on-disk store of [`RunResult`]s keyed by
/// [`RunKey`].
#[derive(Debug, Default)]
pub struct RunCache {
    mem: HashMap<RunKey, Arc<RunResult>>,
    dir: Option<PathBuf>,
    enabled: bool,
    /// Disk entries rejected as damaged (vs merely stale). Every corrupt
    /// read degrades to a miss; this counter makes the degradation
    /// observable as the `cache.corrupt` metric.
    corrupt: u64,
}

impl RunCache {
    /// A cache with an optional disk directory. `enabled = false` turns
    /// every lookup into a miss and every store into a no-op
    /// (`--no-cache`).
    pub fn new(dir: Option<PathBuf>, enabled: bool) -> Self {
        Self {
            mem: HashMap::new(),
            dir,
            enabled,
            corrupt: 0,
        }
    }

    /// True when lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Disk entries rejected as damaged since this cache was created.
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt
    }

    fn file_for(&self, key: &RunKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.run", key.hex())))
    }

    /// Look `key` up, memory first, then disk. A disk hit is verified
    /// against the full encoded key (collision check) and the schema
    /// version, then promoted into the memory tier.
    pub fn get(&mut self, key: &RunKey) -> Option<(Arc<RunResult>, CacheTier)> {
        if !self.enabled {
            return None;
        }
        if let Some(r) = self.mem.get(key) {
            return Some((Arc::clone(r), CacheTier::Memory));
        }
        let path = self.file_for(key)?;
        let data = std::fs::read(&path).ok()?;
        let result = match Self::parse_entry(key, &data) {
            Ok(r) => r,
            Err(EntryReject::Stale) => return None,
            Err(EntryReject::Corrupt) => {
                self.corrupt += 1;
                return None;
            }
        };
        let arc = Arc::new(result);
        self.mem.insert(key.clone(), Arc::clone(&arc));
        Some((arc, CacheTier::Disk))
    }

    fn parse_entry(key: &RunKey, data: &[u8]) -> Result<RunResult, EntryReject> {
        let mut d = Dec::new(data);
        if d.take(MAGIC.len()).map_err(|_| EntryReject::Corrupt)? != MAGIC {
            return Err(EntryReject::Corrupt);
        }
        if d.u32().map_err(|_| EntryReject::Corrupt)? != RUN_SCHEMA_VERSION {
            return Err(EntryReject::Stale);
        }
        let key_len = d.u32().map_err(|_| EntryReject::Corrupt)? as usize;
        if d.take(key_len).map_err(|_| EntryReject::Corrupt)? != key.encoded() {
            // Digest collision or a stale store: well-formed, just not ours.
            return Err(EntryReject::Stale);
        }
        decode_result(&data[d.pos..]).map_err(|_| EntryReject::Corrupt)
    }

    /// Store a result under `key` in memory and, when a directory is
    /// configured, on disk (atomically, via temp-file rename). Disk write
    /// failures are silently ignored — the cache is an accelerator, never
    /// a correctness dependency.
    pub fn put(&mut self, key: RunKey, result: Arc<RunResult>) {
        if !self.enabled {
            return;
        }
        if let Some(path) = self.file_for(&key) {
            let mut data = Vec::with_capacity(256 + key.encoded().len());
            data.extend_from_slice(MAGIC);
            data.extend_from_slice(&RUN_SCHEMA_VERSION.to_le_bytes());
            data.extend_from_slice(&(key.encoded().len() as u32).to_le_bytes());
            data.extend_from_slice(key.encoded());
            data.extend_from_slice(&encode_result(&result));
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
                let tmp = dir.join(format!(".{}.tmp{}", key.hex(), std::process::id()));
                if std::fs::write(&tmp, &data).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
        }
        self.mem.insert(key, result);
    }

    /// Number of entries held in memory.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busbw_sim::TickDtHist;

    fn sample_result() -> RunResult {
        let mut hist = TickDtHist::default();
        hist.record(1);
        hist.record(130);
        RunResult {
            turnarounds_us: vec![1.5, f64::consts_hack(), 3.25e-300],
            mean_turnaround_us: 2.0,
            workload_rate: 28.34,
            measured_apps_rate: 10.65,
            saturated_fraction: 0.97,
            ticks: 12345,
            sim_elapsed_us: 678_900,
            completion: RunCompletion::HardCap {
                unfinished: vec![UnfinishedApp {
                    name: "CG \"x\"".into(),
                    progress_frac: 0.42,
                }],
            },
            events: vec![
                TraceEvent::Placement {
                    at_us: 0,
                    cpu: 3,
                    thread: 9,
                    app: 2,
                    cold: true,
                },
                TraceEvent::BusSolve {
                    at_us: 100,
                    lambda: 1.65,
                    utilization: 1.0,
                    saturated: true,
                    requesters: 4,
                },
                TraceEvent::RunUnfinished {
                    at_us: 500,
                    app: 2,
                    name: "CG \"x\"".into(),
                    progress_frac: 0.42,
                },
                TraceEvent::StageDecision {
                    at_us: 600,
                    stage: busbw_trace::PipelineStage::Select,
                    items: 2,
                },
                TraceEvent::ClientArrived {
                    at_us: 700,
                    client: 4,
                    width: 2,
                },
                TraceEvent::ClientShed {
                    at_us: 710,
                    arrival: 5,
                    live: 8,
                },
                TraceEvent::ClientDeparted {
                    at_us: 720,
                    client: 4,
                    turnaround_us: 20,
                },
                TraceEvent::LevelSaturated {
                    at_us: 730,
                    level: 2,
                    utilization: 1.0,
                    dilation: 1.4,
                },
            ],
            tick_dt_hist: hist,
            memo_hits: 0,
            memo_misses: 0,
            stage_timings: {
                let mut t = busbw_sim::StageTimings::default();
                t.stages[0].record_ns(120);
                t.stages[2].record_ns(9_999);
                Some(t)
            },
            open: Some(crate::runner::OpenStats {
                arrived: 120,
                shed: 7,
                served: 110,
                mean_slowdown: f64::consts_hack(),
            }),
            n_levels: 3,
            level_utilization: {
                let mut u = [0.0; busbw_sim::MAX_BUS_LEVELS];
                u[0] = 1.0;
                u[1] = 0.42;
                u[2] = f64::consts_hack();
                u
            },
            level_saturated: {
                let mut s = [0.0; busbw_sim::MAX_BUS_LEVELS];
                s[0] = 0.97;
                s
            },
        }
    }

    // A denormal-ish odd value exercising bit-exactness.
    trait F64Hack {
        fn consts_hack() -> f64;
    }
    impl F64Hack for f64 {
        fn consts_hack() -> f64 {
            f64::from_bits(0x3FF0_0000_0000_0001) // 1.0 + 1 ulp
        }
    }

    #[test]
    fn result_codec_round_trips_bit_exactly() {
        let r = sample_result();
        let bytes = encode_result(&r);
        let back = decode_result(&bytes).expect("decodes");
        assert_eq!(back.turnarounds_us.len(), r.turnarounds_us.len());
        for (a, b) in r.turnarounds_us.iter().zip(&back.turnarounds_us) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            back.mean_turnaround_us.to_bits(),
            r.mean_turnaround_us.to_bits()
        );
        assert_eq!(back.workload_rate.to_bits(), r.workload_rate.to_bits());
        assert_eq!(back.completion, r.completion);
        assert_eq!(back.events, r.events);
        assert_eq!(back.tick_dt_hist, r.tick_dt_hist);
        assert_eq!(back.stage_timings, r.stage_timings);
        assert_eq!(back.open, r.open);
        assert_eq!(
            back.open.unwrap().mean_slowdown.to_bits(),
            r.open.unwrap().mean_slowdown.to_bits()
        );
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let bytes = encode_result(&sample_result());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is also rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_result(&long).is_err());
    }

    #[test]
    fn run_keys_compare_by_content_not_digest() {
        let a = RunKey::from_encoded(vec![1, 2, 3]);
        let b = RunKey::from_encoded(vec![1, 2, 3]);
        let c = RunKey::from_encoded(vec![1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn disk_cache_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("busbw-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = RunKey::from_encoded(vec![9, 9, 9]);
        let r = Arc::new(sample_result());

        let mut c1 = RunCache::new(Some(dir.clone()), true);
        assert!(c1.get(&key).is_none());
        c1.put(key.clone(), Arc::clone(&r));
        // Fresh cache (cold memory): must come back from disk.
        let mut c2 = RunCache::new(Some(dir.clone()), true);
        let (got, tier) = c2.get(&key).expect("disk hit");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(got.events, r.events);
        // Second get is served from memory.
        let (_, tier) = c2.get(&key).expect("mem hit");
        assert_eq!(tier, CacheTier::Memory);

        // Corrupt the file: the entry degrades to a miss, and the damage
        // is counted.
        let path = dir.join(format!("{}.run", key.hex()));
        let pristine = std::fs::read(&path).unwrap();
        std::fs::write(&path, b"garbage").unwrap();
        let mut c3 = RunCache::new(Some(dir.clone()), true);
        assert!(c3.get(&key).is_none());
        assert_eq!(c3.corrupt_count(), 1);

        std::fs::write(&path, &pristine).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_flip_fuzz_never_panics_and_counts_damage() {
        // Write one valid disk entry, then re-read it under systematic
        // single-byte flips and truncations. Every read must either miss
        // cleanly or produce *some* decoded result — never panic, never
        // over-allocate on a poisoned length prefix. (A flip in a payload
        // f64 can still decode; only the key bytes are identity-checked.)
        let dir = std::env::temp_dir().join(format!("busbw-cache-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = RunKey::from_encoded(vec![7, 7, 7]);
        let mut seed_cache = RunCache::new(Some(dir.clone()), true);
        seed_cache.put(key.clone(), Arc::new(sample_result()));
        let path = dir.join(format!("{}.run", key.hex()));
        let pristine = std::fs::read(&path).unwrap();

        let mut rejected = 0u64;
        let mut corrupt_total = 0u64;
        // Flip one byte at a time across the whole file (stride 3 keeps
        // the loop fast while still covering header, key, lengths, and
        // payload), plus a sweep of truncation lengths.
        for pos in (0..pristine.len()).step_by(3) {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = pristine.clone();
                mutated[pos] ^= mask;
                std::fs::write(&path, &mutated).unwrap();
                let mut c = RunCache::new(Some(dir.clone()), true);
                if c.get(&key).is_none() {
                    rejected += 1;
                }
                corrupt_total += c.corrupt_count();
            }
        }
        for cut in (0..pristine.len()).step_by(7) {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let mut c = RunCache::new(Some(dir.clone()), true);
            assert!(c.get(&key).is_none(), "truncation at {cut} cannot hit");
            corrupt_total += c.corrupt_count();
        }
        assert!(rejected > 0, "some flips must be rejected");
        assert!(corrupt_total > 0, "damaged entries must tick the counter");

        // The pristine bytes still hit afterwards: rejection is per-read,
        // not sticky.
        std::fs::write(&path, &pristine).unwrap();
        let mut c = RunCache::new(Some(dir.clone()), true);
        assert!(c.get(&key).is_some());
        assert_eq!(c.corrupt_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let key = RunKey::from_encoded(vec![1]);
        let mut c = RunCache::new(None, false);
        c.put(key.clone(), Arc::new(sample_result()));
        assert!(c.get(&key).is_none());
        assert_eq!(c.mem_len(), 0);
    }
}
