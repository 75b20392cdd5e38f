//! The shared front-side bus.
//!
//! All results in the paper flow from one physical fact: the bus serves at
//! most ~29.5 transactions/µs, and threads that collectively demand more
//! stall each other. This module turns a set of per-thread demands into
//! per-thread *speeds* and *issue rates* for one simulation tick.
//!
//! The default model, [`FsbBus`], works in terms of a **uniform memory
//! dilation factor Λ**: every thread's memory phases take Λ× longer than
//! solo. Given demands `d_i` and memory-boundness `µ_i`, a thread's speed is
//!
//! ```text
//! s_i = 1 / ((1 − µ_i) + µ_i·Λ)          (Amdahl-style dilation)
//! issue_i = d_i · s_i                     (traffic tracks progress)
//! ```
//!
//! * Below saturation Λ = 1 + κ·ρ^p — a mild convex queueing penalty in the
//!   bus-utilization ρ (the paper's Fig. 1B shows moderate applications
//!   losing a few percent when sharing an unsaturated bus).
//! * At saturation Λ is the root of `Σ d_i / ((1−µ_i) + µ_i·Λ) = C_eff`,
//!   so aggregate issued traffic exactly equals effective capacity: the
//!   bus is conserved, and bandwidth is shared in proportion to demand —
//!   the behaviour of a round-robin arbiter among continuously-stalled
//!   masters, and the regime in which the paper measures 2–3× slowdowns
//!   for memory-intensive applications running against BBMA.
//! * `C_eff` shrinks slightly per active master (arbitration overhead),
//!   see [`crate::BusConfig::effective_capacity`].
//!
//! Two alternative arbiters ([`MaxMinFairBus`], [`ProportionalBus`]) and a
//! null model ([`UnlimitedBus`]) exist for ablations and testing.

use crate::config::{BusConfig, TopologyConfig};
use crate::ids::ThreadId;

/// One thread's demand presented to the bus for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusRequest {
    /// The requesting thread.
    pub thread: ThreadId,
    /// Effective solo demand for this tick, tx/µs (cache-cold boosts
    /// already applied by the machine).
    pub rate: f64,
    /// Memory-boundness in `[0, 1]`.
    pub mu: f64,
    /// The socket the thread is executing on this tick. Single-level
    /// models ([`FsbBus`] and the ablation arbiters) ignore it; a
    /// [`HierarchicalBus`] charges this socket's local bus.
    pub socket: usize,
    /// Fraction of this thread's traffic that also crosses the
    /// cross-socket interconnect (see
    /// [`crate::config::TopologyConfig::remote_share`]). 0 on a
    /// single-socket machine.
    pub remote: f64,
}

/// The bus's answer for one thread.
#[derive(Debug, Clone, Copy)]
pub struct BusShare {
    /// The thread.
    pub thread: ThreadId,
    /// Speed factor in `(0, 1]` relative to solo execution.
    pub speed: f64,
    /// Transactions/µs actually issued (`rate × speed`).
    pub issue_rate: f64,
}

/// The bus's answer for a whole tick.
#[derive(Debug, Clone)]
pub struct BusOutcome {
    /// Per-thread shares, in the order of the requests.
    pub shares: Vec<BusShare>,
    /// Σ demands, tx/µs.
    pub total_demand: f64,
    /// Σ issued, tx/µs.
    pub total_issued: f64,
    /// Effective capacity after arbitration derating, tx/µs.
    pub effective_capacity: f64,
    /// The uniform memory-dilation factor Λ applied (1 = uncontended).
    pub dilation: f64,
    /// Utilization ρ = min(total_demand / effective_capacity, 1).
    pub utilization: f64,
    /// Whether demand exceeded effective capacity.
    pub saturated: bool,
}

impl BusOutcome {
    /// An outcome with no requests (idle bus).
    pub fn empty(capacity: f64) -> Self {
        Self {
            shares: Vec::new(),
            total_demand: 0.0,
            total_issued: 0.0,
            effective_capacity: capacity,
            dilation: 1.0,
            utilization: 0.0,
            saturated: false,
        }
    }

    /// Reset to the idle state in place, keeping the `shares` allocation.
    fn reset(&mut self, capacity: f64) {
        self.shares.clear();
        self.total_demand = 0.0;
        self.total_issued = 0.0;
        self.effective_capacity = capacity;
        self.dilation = 1.0;
        self.utilization = 0.0;
        self.saturated = false;
    }
}

/// The state of one topology level (a socket's local bus, or the
/// cross-socket interconnect) after an arbitration. Exposed by
/// [`BusModel::levels`] so the machine can account per-level pressure
/// without downcasting the boxed model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelOutcome {
    /// Σ demand charged to this level, tx/µs (interconnect demand is
    /// already scaled by each request's remote fraction).
    pub demand: f64,
    /// Σ traffic actually issued through this level, tx/µs.
    pub issued: f64,
    /// Effective capacity of this level for this request set, tx/µs.
    pub effective_capacity: f64,
    /// The dilation Λ this level imposes on the requests crossing it.
    pub dilation: f64,
    /// Utilization ρ = min(demand / effective_capacity, 1).
    pub utilization: f64,
    /// Whether demand charged to this level exceeded its capacity.
    pub saturated: bool,
}

/// The largest number of topology levels tracked per-level in fixed-size
/// accounting ([`crate::stats::RunStats`] arrays): 4 sockets + the
/// interconnect. Wider topologies still simulate correctly; levels past
/// this many fold into the last accounting slot.
pub const MAX_BUS_LEVELS: usize = 5;

/// A bus arbitration model.
///
/// `&mut self` lets models keep scratch buffers and warm-start solver
/// state between ticks. Models must stay deterministic: the same sequence
/// of calls since construction must yield the same outcomes, which the
/// machine's run-to-run reproducibility depends on. (Warm-started solvers
/// may give ulp-level different answers for the same request set under a
/// different call history; that is fine, history replays identically.)
/// Models are also `Clone` (see [`BusModelClone`]), so a cloned machine
/// resumes with the same warm-start state as the original.
pub trait BusModel: Send + BusModelClone {
    /// Resolve one tick's demands into `out`, reusing its allocations.
    /// Implementations must fully overwrite `out` (including clearing
    /// `shares`).
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome);

    /// Resolve one tick's demands into a fresh outcome (convenience).
    fn arbitrate(&mut self, reqs: &[BusRequest]) -> BusOutcome {
        let mut out = BusOutcome::empty(self.nominal_capacity());
        self.arbitrate_into(reqs, &mut out);
        out
    }

    /// Nominal (single-master) sustained capacity, tx/µs.
    fn nominal_capacity(&self) -> f64;

    /// Per-level outcomes of the most recent arbitration, in a fixed
    /// order (sockets 0.., then the interconnect last). Single-level
    /// models return the empty slice, which the machine reads as "no
    /// per-level accounting".
    fn levels(&self) -> &[LevelOutcome] {
        &[]
    }
}

/// Object-safe cloning for boxed bus models, so `Box<dyn BusModel>` (and
/// with it a whole [`crate::Machine`]) is `Clone`. Blanket-implemented for
/// every `Clone` model; implementors only need `#[derive(Clone)]`.
pub trait BusModelClone {
    /// A boxed copy of this model, warm-start and scratch state included.
    fn clone_box(&self) -> Box<dyn BusModel>;
}

impl<T: BusModel + Clone + 'static> BusModelClone for T {
    fn clone_box(&self) -> Box<dyn BusModel> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn BusModel> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// Amdahl-style dilation speed at dilation Λ.
#[inline]
fn dilated_speed(mu: f64, lambda: f64) -> f64 {
    1.0 / ((1.0 - mu) + mu * lambda)
}

/// Ceiling on the saturation dilation: returned when the request set is
/// physically inconsistent (λ-insensitive demand above capacity) or the
/// Newton step diverges past any meaningful dilation.
const LAMBDA_MAX: f64 = 1e9;

/// Solve `Σ d_i/((1−µ_i)+µ_i·λ) = cap` for the saturation dilation λ ≥ 1.
///
/// The left side `f(λ)` is strictly decreasing and convex in λ for any
/// thread with µ > 0, so Newton's method started left of the root
/// converges monotonically (tangents of a convex function never overshoot
/// the root from the left) and quadratically. From the cold start λ = 1
/// a solve takes about eight evaluations on the Fig. 2 cells, fewer when
/// `warm` (the previous tick's λ) is still left of the root. That is rare:
/// `experiments all --scale 0.1` accepts the warm start on 1,792 of its
/// 2.34M saturated solves.
///
/// Edge cases, each pinned by a unit test below:
/// * **Empty or all-zero-rate request sets** never exceed capacity, so
///   `f(1) ≤ 0` and the cold start λ = 1 is returned unchanged.
/// * **All-µ = 0 demand above capacity** is λ-insensitive (`f' = 0`
///   everywhere): no dilation can shed it, so [`LAMBDA_MAX`] is returned
///   and conservation is best-effort.
/// * **Exactly saturated** demand (`Σ dᵢ = cap` at λ = 1) has its root at
///   the left boundary: the first iteration sees `f(1) = 0` and returns
///   λ = 1 without stepping.
/// * **A single fully memory-bound thread** (µ = 1, rate = k·cap)
///   degenerates to `d/λ = cap` with the exact root λ = k; Newton reaches
///   it in one step from any warm start left of the root.
///
/// Bit-determinism: the result depends only on `(reqs, cap, warm)` — the
/// request iteration order and every arithmetic operation are fixed.
pub fn solve_lambda(reqs: &[BusRequest], cap: f64, warm: f64) -> f64 {
    let mut lambda = 1.0;
    // The warm start and the cold start λ = 1 are evaluated in one pass:
    // the solve is bound by the latency of each evaluation, so the second
    // comes almost free, and a rejected warm start (the common case) does
    // not delay the first cold iteration. Each evaluation's values are
    // the ones a separate pass would give, so the iterate sequence is
    // unchanged.
    let mut cached = None;
    if warm > 1.0 && warm.is_finite() {
        let [at_warm, at_one] = f_and_slope(reqs, cap, [warm, 1.0]);
        cached = Some(if at_warm.0 > 0.0 {
            lambda = warm;
            at_warm
        } else {
            at_one
        });
    }
    for _ in 0..64 {
        let (f, fp) = match cached.take() {
            Some(e) => e,
            None => f_and_slope(reqs, cap, [lambda])[0],
        };
        if f <= 0.0 {
            // At (or an ulp past) the root.
            break;
        }
        if fp >= 0.0 {
            // Demand is λ-insensitive (all µ = 0) yet above capacity.
            return LAMBDA_MAX;
        }
        let next = lambda - f / fp;
        if next > LAMBDA_MAX {
            return LAMBDA_MAX;
        }
        // Converged to machine precision (also catches a NaN step,
        // which compares as not-greater).
        if next.partial_cmp(&lambda) != Some(std::cmp::Ordering::Greater) {
            break;
        }
        lambda = next;
    }
    lambda
}

/// `f(λ) = Σ dᵢ/((1−µᵢ) + µᵢλ) − cap` and its derivative at each of `K`
/// trial λs, in one pass over the requests. Every evaluation runs the same
/// operations in request order whatever `K` is, so its bits do not depend
/// on what it is evaluated alongside.
#[inline]
fn f_and_slope<const K: usize>(
    reqs: &[BusRequest],
    cap: f64,
    lambdas: [f64; K],
) -> [(f64, f64); K] {
    let mut out = [(-cap, 0.0); K];
    for r in reqs {
        let a = 1.0 - r.mu;
        for ((f, fp), lambda) in out.iter_mut().zip(lambdas) {
            let denom = a + r.mu * lambda;
            let term = r.rate / denom;
            *f += term;
            *fp -= term * r.mu / denom;
        }
    }
    out
}

/// The default front-side-bus model described in the module docs.
///
/// Every non-empty arbitration runs the full solve. Between ticks the bus
/// keeps only the previous Λ, the warm start of the next saturated solve:
/// cache warmth moves every tick, so the request set is almost never
/// repeated and a cached outcome would not pay for its compare.
#[derive(Debug, Clone)]
pub struct FsbBus {
    cfg: BusConfig,
    /// Λ of the previous arbitration (the next solve's warm start).
    lambda: f64,
    /// `cfg.effective_capacity(n)` per master count `n`, grown on demand.
    cap_by_masters: Vec<f64>,
    // Memoized queueing power: `powf` costs as much as a whole Newton
    // evaluation and every saturated tick computes it at utilization
    // exactly 1.0 (ρ is clamped), so one (input, output) pair answers
    // nearly every call on the hot path.
    pow_u: f64,
    pow_v: f64,
}

impl FsbBus {
    /// A bus with the given configuration.
    pub fn new(cfg: BusConfig) -> Self {
        Self {
            cfg,
            lambda: 0.0,
            cap_by_masters: Vec::new(),
            pow_u: f64::NAN,
            pow_v: f64::NAN,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// [`BusConfig::effective_capacity`] for `n_masters`, from a table
    /// filled by the same formula the first time each count is seen.
    fn effective_capacity(&mut self, n_masters: usize) -> f64 {
        if n_masters >= self.cap_by_masters.len() {
            let cfg = self.cfg;
            let from = self.cap_by_masters.len();
            self.cap_by_masters
                .extend((from..=n_masters).map(|n| cfg.effective_capacity(n)));
        }
        self.cap_by_masters[n_masters]
    }

    /// Everything of an arbitration but the per-thread shares: demand,
    /// capacity, Λ, utilization and saturation (`issued` is left at 0).
    /// An empty set leaves the warm start untouched.
    fn solve(&mut self, reqs: &[BusRequest]) -> LevelOutcome {
        if reqs.is_empty() {
            return LevelOutcome {
                effective_capacity: self.cfg.capacity_tx_per_us,
                dilation: 1.0,
                ..LevelOutcome::default()
            };
        }
        // One fused pass counts active masters and sums demand (the sum's
        // addition order is the request order either way).
        let mut n_masters = 0usize;
        let mut demand = 0.0f64;
        for r in reqs {
            if r.rate > self.cfg.active_master_threshold {
                n_masters += 1;
            }
            demand += r.rate;
        }
        let effective_capacity = self.effective_capacity(n_masters);
        let utilization = (demand / effective_capacity).min(1.0);
        let saturated = demand > effective_capacity;
        // The warm start is the *previous* solution.
        let lambda_sat = if saturated {
            solve_lambda(reqs, effective_capacity, self.lambda)
        } else {
            1.0
        };
        // Below saturation the queueing term provides the (small,
        // convex) contention penalty; at deep saturation λ_sat
        // dominates and taking the max keeps aggregate issued traffic
        // exactly at capacity instead of wasting it.
        if utilization != self.pow_u {
            // Miss: compute and remember. The exponent is fixed per bus,
            // so the pair keys on utilization alone; the reused value is
            // the exact `powf` result, keeping the fold bit-identical.
            self.pow_u = utilization;
            self.pow_v = utilization.powf(self.cfg.queueing_exponent);
        }
        let queueing = self.cfg.queueing_coeff * self.pow_v;
        self.lambda = lambda_sat.max(1.0 + queueing);
        LevelOutcome {
            demand,
            issued: 0.0,
            effective_capacity,
            dilation: self.lambda,
            utilization,
            saturated,
        }
    }
}

impl BusModel for FsbBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        let level = self.solve(reqs);
        out.shares.clear();
        let mut total_issued = 0.0;
        for r in reqs {
            let speed = dilated_speed(r.mu, level.dilation);
            let issue_rate = r.rate * speed;
            total_issued += issue_rate;
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        out.total_demand = level.demand;
        out.total_issued = total_issued;
        out.effective_capacity = level.effective_capacity;
        out.dilation = level.dilation;
        out.utilization = level.utilization;
        out.saturated = level.saturated;
    }

    fn nominal_capacity(&self) -> f64 {
        self.cfg.capacity_tx_per_us
    }
}

/// A multi-socket bus topology: N sockets, each with its own local bus
/// (parameterized by the same [`BusConfig`] as [`FsbBus`]), joined by a
/// shared cross-socket interconnect.
///
/// A request charges every level it crosses: its full rate on the local
/// bus of the socket it executes on, and `remote × rate` on the
/// interconnect. Λ is solved **per level** — each level is literally an
/// [`FsbBus`] solve (same arbitration derate, saturated [`solve_lambda`]
/// root warm-started from that level's previous Λ, sub-saturation
/// queueing penalty; the interconnect level zeroes the per-master derate,
/// a point-to-point link does not re-arbitrate per master) — and a
/// thread's grant is the min across the levels it touches: its effective
/// dilation is
/// `max(Λ_local(socket), Λ_interconnect if remote > 0)`.
///
/// **Degenerate case**: at one socket every request is local (the machine
/// derives `remote = 0`), level 0 receives exactly the request sequence a
/// bare [`FsbBus`] would, and the final per-thread speeds re-run the same
/// `dilated_speed` fold — so the outcome is bit-identical to [`FsbBus`],
/// warm starts included. A differential test below pins this; the
/// machine still instantiates the bare [`FsbBus`] for single-socket
/// configs, so the equivalence is a proven invariant rather than a
/// load-bearing path.
#[derive(Debug, Clone)]
pub struct HierarchicalBus {
    cfg: BusConfig,
    topo: TopologyConfig,
    /// One solver per level: sockets `0..N`, then the interconnect.
    level_bus: Vec<FsbBus>,
    /// Per-socket request scratch, rebuilt each arbitration.
    local: Vec<Vec<BusRequest>>,
    /// Interconnect request scratch (rates pre-scaled by `remote`).
    inter: Vec<BusRequest>,
    /// Per-level summaries of the last arbitration (sockets, then
    /// interconnect), exposed through [`BusModel::levels`].
    levels: Vec<LevelOutcome>,
}

impl HierarchicalBus {
    /// A hierarchical bus over `topo` whose per-socket local buses use
    /// `cfg` (the interconnect inherits the queueing shape but uses the
    /// topology's capacity and no per-master derate).
    pub fn new(cfg: BusConfig, topo: TopologyConfig) -> Self {
        let sockets = topo.sockets.max(1);
        let inter_cfg = BusConfig {
            capacity_tx_per_us: topo.interconnect_tx_per_us,
            arbitration_per_master: 0.0,
            ..cfg
        };
        let mut level_bus: Vec<FsbBus> = (0..sockets).map(|_| FsbBus::new(cfg)).collect();
        level_bus.push(FsbBus::new(inter_cfg));
        let n_levels = sockets + 1;
        Self {
            cfg,
            topo,
            level_bus,
            local: vec![Vec::new(); sockets],
            inter: Vec::new(),
            levels: vec![LevelOutcome::default(); n_levels],
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &TopologyConfig {
        &self.topo
    }

    /// Number of levels: sockets + 1 (interconnect last).
    pub fn n_levels(&self) -> usize {
        self.level_bus.len()
    }
}

impl BusModel for HierarchicalBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        let sockets = self.local.len();
        for l in &mut self.local {
            l.clear();
        }
        self.inter.clear();
        for r in reqs {
            self.local[r.socket.min(sockets - 1)].push(*r);
            if r.remote > 0.0 {
                self.inter.push(BusRequest {
                    rate: r.rate * r.remote,
                    ..*r
                });
            }
        }
        // Solve each level independently (sockets in index order, then
        // the interconnect) — fixed iteration order keeps the model
        // deterministic and each level's warm start its own previous Λ.
        // `issued` is re-folded below at the final per-thread speeds.
        for k in 0..sockets {
            self.levels[k] = self.level_bus[k].solve(&self.local[k]);
        }
        self.levels[sockets] = self.level_bus[sockets].solve(&self.inter);
        let lambda_inter = self.levels[sockets].dilation;
        // Final fold, in request order: each thread is dilated by the
        // worst level it touches, and issued traffic is re-attributed to
        // every level it crosses at that final speed.
        out.shares.clear();
        let mut total_demand = 0.0;
        let mut total_issued = 0.0;
        for r in reqs {
            let socket = r.socket.min(sockets - 1);
            let mut lambda = self.levels[socket].dilation;
            if r.remote > 0.0 && lambda_inter > lambda {
                lambda = lambda_inter;
            }
            let speed = dilated_speed(r.mu, lambda);
            let issue_rate = r.rate * speed;
            total_demand += r.rate;
            total_issued += issue_rate;
            self.levels[socket].issued += issue_rate;
            if r.remote > 0.0 {
                self.levels[sockets].issued += issue_rate * r.remote;
            }
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        // Whole-machine summary: capacity is the sum of the local-bus
        // ceilings (the interconnect constrains a subset, it adds no
        // issue capacity); dilation/utilization/saturation report the
        // bottleneck level.
        let mut cap = 0.0;
        let mut dilation = 1.0f64;
        let mut utilization = 0.0f64;
        let mut saturated = false;
        for (k, lvl) in self.levels.iter().enumerate() {
            if k < sockets {
                cap += lvl.effective_capacity;
            }
            dilation = dilation.max(lvl.dilation);
            utilization = utilization.max(lvl.utilization);
            saturated |= lvl.saturated;
        }
        out.total_demand = total_demand;
        out.total_issued = total_issued;
        out.effective_capacity = cap;
        out.dilation = dilation;
        out.utilization = utilization;
        out.saturated = saturated;
    }

    fn nominal_capacity(&self) -> f64 {
        self.cfg.capacity_tx_per_us * self.local.len() as f64
    }

    fn levels(&self) -> &[LevelOutcome] {
        &self.levels
    }
}

/// Classic max-min fair arbitration (ablation alternative).
///
/// Small demands are fully satisfied; the surplus is split equally among
/// larger ones. Compared with [`FsbBus`], this under-penalizes heavy
/// streamers (they keep an equal absolute share rather than a
/// demand-proportional one), which is why the paper-calibrated default is
/// the proportional model — but a max-min arbiter is what an idealized
/// per-request round-robin with single outstanding misses would give, so it
/// is worth keeping for sensitivity studies.
#[derive(Debug, Clone, Default)]
pub struct MaxMinFairBus {
    cfg: BusConfig,
    // Scratch reused across ticks to keep the hot path allocation-free.
    demands: Vec<f64>,
    grants: Vec<f64>,
}

impl MaxMinFairBus {
    /// A max-min bus with the given configuration.
    pub fn new(cfg: BusConfig) -> Self {
        Self {
            cfg,
            demands: Vec::new(),
            grants: Vec::new(),
        }
    }

    /// Max-min allocation of `cap` over `demands`. Returns grants.
    pub fn max_min(demands: &[f64], cap: f64) -> Vec<f64> {
        let mut grants = vec![0.0f64; demands.len()];
        let mut remaining_cap = cap;
        let mut unsatisfied: Vec<usize> = (0..demands.len()).collect();
        // Iteratively give everyone the fair share or their demand,
        // whichever is smaller; redistribute the slack.
        while !unsatisfied.is_empty() && remaining_cap > 1e-12 {
            let fair = remaining_cap / unsatisfied.len() as f64;
            let mut satisfied_any = false;
            let mut still = Vec::with_capacity(unsatisfied.len());
            for &i in &unsatisfied {
                let want = demands[i] - grants[i];
                if want <= fair {
                    grants[i] = demands[i];
                    remaining_cap -= want;
                    satisfied_any = true;
                } else {
                    still.push(i);
                }
            }
            if !satisfied_any {
                // Nobody can be fully satisfied: split equally and stop.
                let fair = remaining_cap / still.len() as f64;
                for &i in &still {
                    grants[i] += fair;
                }
                remaining_cap = 0.0;
                still.clear();
            }
            unsatisfied = still;
        }
        grants
    }
}

impl BusModel for MaxMinFairBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        if reqs.is_empty() {
            out.reset(self.cfg.capacity_tx_per_us);
            return;
        }
        let n_masters = reqs
            .iter()
            .filter(|r| r.rate > self.cfg.active_master_threshold)
            .count();
        let cap = self.cfg.effective_capacity(n_masters);
        self.demands.clear();
        self.demands.extend(reqs.iter().map(|r| r.rate));
        let total_demand: f64 = self.demands.iter().sum();
        self.grants = Self::max_min(&self.demands, cap);
        let saturated = total_demand > cap;
        out.shares.clear();
        let mut total_issued = 0.0;
        for (r, &g) in reqs.iter().zip(&self.grants) {
            let lambda_i = if g >= r.rate || r.rate <= 0.0 {
                1.0
            } else {
                r.rate / g.max(1e-12)
            };
            let speed = dilated_speed(r.mu, lambda_i);
            // Traffic tracks progress but can never exceed the grant.
            let issue_rate = (r.rate * speed).min(g.max(r.rate.min(g)));
            total_issued += issue_rate;
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        out.total_demand = total_demand;
        out.total_issued = total_issued;
        out.effective_capacity = cap;
        out.dilation = if saturated { total_demand / cap } else { 1.0 };
        out.utilization = (total_demand / cap).min(1.0);
        out.saturated = saturated;
    }

    fn nominal_capacity(&self) -> f64 {
        self.cfg.capacity_tx_per_us
    }
}

/// Pure proportional sharing with no arbitration derate and no queueing —
/// the textbook version of [`FsbBus`] (equivalent to Λ = max(1, ΣD/C) with
/// every µ = 1). Useful as an analytical reference in tests.
#[derive(Debug, Clone, Copy)]
pub struct ProportionalBus {
    /// Capacity in tx/µs.
    pub capacity: f64,
}

impl BusModel for ProportionalBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        if reqs.is_empty() {
            out.reset(self.capacity);
            return;
        }
        let total_demand: f64 = reqs.iter().map(|r| r.rate).sum();
        let lambda = (total_demand / self.capacity).max(1.0);
        out.shares.clear();
        let mut total_issued = 0.0;
        for r in reqs {
            let speed = dilated_speed(r.mu, lambda);
            let issue_rate = r.rate * speed;
            total_issued += issue_rate;
            out.shares.push(BusShare {
                thread: r.thread,
                speed,
                issue_rate,
            });
        }
        out.total_demand = total_demand;
        out.total_issued = total_issued;
        out.effective_capacity = self.capacity;
        out.dilation = lambda;
        out.utilization = (total_demand / self.capacity).min(1.0);
        out.saturated = total_demand > self.capacity;
    }

    fn nominal_capacity(&self) -> f64 {
        self.capacity
    }
}

/// A bus with infinite capacity: every thread runs at solo speed.
/// For unit-testing schedulers in isolation from contention.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnlimitedBus;

impl BusModel for UnlimitedBus {
    fn arbitrate_into(&mut self, reqs: &[BusRequest], out: &mut BusOutcome) {
        out.reset(f64::INFINITY);
        let mut total = 0.0;
        for r in reqs {
            total += r.rate;
            out.shares.push(BusShare {
                thread: r.thread,
                speed: 1.0,
                issue_rate: r.rate,
            });
        }
        out.total_demand = total;
        out.total_issued = total;
    }

    fn nominal_capacity(&self) -> f64 {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAPER_BUS_TX_PER_US;

    fn req(id: u64, rate: f64, mu: f64) -> BusRequest {
        BusRequest {
            thread: ThreadId(id),
            rate,
            mu,
            socket: 0,
            remote: 0.0,
        }
    }

    fn default_fsb() -> FsbBus {
        FsbBus::new(BusConfig::default())
    }

    #[test]
    fn empty_request_set_is_trivial() {
        let out = default_fsb().arbitrate(&[]);
        assert_eq!(out.total_issued, 0.0);
        assert!(!out.saturated);
        assert!(out.shares.is_empty());
    }

    #[test]
    fn single_light_thread_runs_at_nearly_full_speed() {
        let out = default_fsb().arbitrate(&[req(0, 1.0, 0.2)]);
        assert!(!out.saturated);
        assert!(out.shares[0].speed > 0.999, "speed {}", out.shares[0].speed);
        assert!((out.shares[0].issue_rate - 1.0).abs() < 1e-2);
    }

    #[test]
    fn saturation_conserves_capacity_exactly_for_memory_bound_threads() {
        // Four pure streamers demanding 2× capacity.
        let mut bus = default_fsb();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 1.0)).collect();
        let out = bus.arbitrate(&reqs);
        assert!(out.saturated);
        let cap = out.effective_capacity;
        assert!(
            (out.total_issued - cap).abs() < 1e-6 * cap,
            "issued {} vs cap {cap}",
            out.total_issued
        );
    }

    #[test]
    fn proportional_sharing_under_saturation() {
        // Equal µ ⇒ issue rates proportional to demands.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 20.0, 1.0), req(1, 10.0, 1.0)]);
        assert!(out.saturated);
        let r0 = out.shares[0].issue_rate;
        let r1 = out.shares[1].issue_rate;
        assert!((r0 / r1 - 2.0).abs() < 1e-9, "ratio {}", r0 / r1);
    }

    #[test]
    fn low_mu_thread_is_nearly_immune_to_saturation() {
        // An nBBMA-like thread next to two heavy streamers.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 23.6, 1.0), req(1, 23.6, 1.0), req(2, 0.004, 0.01)]);
        assert!(out.saturated);
        assert!(out.shares[2].speed > 0.97, "speed {}", out.shares[2].speed);
        // While the streamers are heavily dilated.
        assert!(out.shares[0].speed < 0.7);
    }

    #[test]
    fn cg_with_two_bbma_slows_two_to_three_fold() {
        // The paper's headline motivation: a memory-intensive app
        // (CG: ~11.7 tx/µs/thread, µ high) against two BBMA streamers
        // suffers a 2–3× slowdown.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[
            req(0, 11.65, 0.85),
            req(1, 11.65, 0.85),
            req(2, 23.6, 0.98),
            req(3, 23.6, 0.98),
        ]);
        let slowdown = 1.0 / out.shares[0].speed;
        assert!(
            (1.9..3.2).contains(&slowdown),
            "CG slowdown under BBMA pressure was {slowdown}"
        );
    }

    #[test]
    fn two_instances_of_heavy_app_lose_forty_to_seventy_percent() {
        // Fig 1B dark-gray shape: 2 instances × 2 threads of SP/MG/CG-class
        // applications degrade 41–61 %.
        let mut bus = default_fsb();
        for (rate, mu) in [(8.5, 0.75), (9.75, 0.8), (11.65, 0.85)] {
            let reqs: Vec<_> = (0..4).map(|i| req(i, rate, mu)).collect();
            let out = bus.arbitrate(&reqs);
            let slowdown = 1.0 / out.shares[0].speed;
            assert!(
                (1.25..1.95).contains(&slowdown),
                "rate {rate}: slowdown {slowdown}"
            );
        }
    }

    #[test]
    fn subsaturation_queueing_penalty_is_small_and_convex() {
        let mut bus = default_fsb();
        // Utilization ~40 %: negligible penalty.
        let low = bus.arbitrate(&[req(0, 6.0, 0.8), req(1, 6.0, 0.8)]);
        assert!(!low.saturated);
        assert!(low.shares[0].speed > 0.97);
        // Utilization ~90 %: a few percent.
        let high = bus.arbitrate(&[req(0, 13.0, 0.8), req(1, 13.0, 0.8)]);
        assert!(high.shares[0].speed < low.shares[0].speed);
        assert!(high.shares[0].speed > 0.75);
    }

    #[test]
    fn dilation_reduces_to_one_when_idle() {
        let out = default_fsb().arbitrate(&[req(0, 0.0, 0.0)]);
        assert!((out.dilation - 1.0).abs() < 1e-9);
        assert_eq!(out.shares[0].speed, 1.0);
    }

    #[test]
    fn lambda_solver_handles_mu_zero_threads() {
        // µ=0 threads contribute constant traffic; solver must not hang.
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 40.0, 1.0), req(1, 2.0, 0.0)]);
        assert!(out.saturated);
        assert!(out.total_issued <= out.effective_capacity + 2.0 + 1e-6);
    }

    #[test]
    fn max_min_allocation_properties() {
        let demands = vec![1.0, 5.0, 20.0, 30.0];
        let grants = MaxMinFairBus::max_min(&demands, PAPER_BUS_TX_PER_US);
        // Grants never exceed demands.
        for (g, d) in grants.iter().zip(&demands) {
            assert!(g <= d);
        }
        // Capacity fully used when total demand exceeds it.
        let total: f64 = grants.iter().sum();
        assert!((total - PAPER_BUS_TX_PER_US).abs() < 1e-9);
        // Small demand fully satisfied.
        assert!((grants[0] - 1.0).abs() < 1e-9);
        // The two large demands get equal shares.
        assert!((grants[2] - grants[3]).abs() < 1e-9);
    }

    #[test]
    fn max_min_under_capacity_grants_everything() {
        let demands = vec![3.0, 4.0];
        let grants = MaxMinFairBus::max_min(&demands, PAPER_BUS_TX_PER_US);
        assert_eq!(grants, demands);
    }

    #[test]
    fn unlimited_bus_never_slows_anyone() {
        let out = UnlimitedBus.arbitrate(&[req(0, 1e6, 1.0)]);
        assert_eq!(out.shares[0].speed, 1.0);
        assert!(!out.saturated);
    }

    #[test]
    fn proportional_bus_matches_fsb_without_overheads() {
        let cfg = BusConfig {
            arbitration_per_master: 0.0,
            queueing_coeff: 0.0,
            ..BusConfig::default()
        };
        let mut fsb = FsbBus::new(cfg);
        let mut prop = ProportionalBus {
            capacity: cfg.capacity_tx_per_us,
        };
        let reqs = [req(0, 25.0, 1.0), req(1, 25.0, 1.0)];
        let a = fsb.arbitrate(&reqs);
        let b = prop.arbitrate(&reqs);
        for (x, y) in a.shares.iter().zip(&b.shares) {
            assert!((x.speed - y.speed).abs() < 1e-9);
        }
    }

    #[test]
    fn unchanged_demand_set_resolves_bit_identically() {
        // A repeated request set re-solves warm-started from its own Λ,
        // and must land on exactly the outcome of the first solve.
        let mut bus = default_fsb();
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let a = bus.arbitrate(&reqs);
        assert!(a.saturated);
        for _ in 0..3 {
            let b = bus.arbitrate(&reqs);
            assert_eq!(a.dilation.to_bits(), b.dilation.to_bits());
            assert_eq!(a.total_issued.to_bits(), b.total_issued.to_bits());
            for (x, y) in a.shares.iter().zip(&b.shares) {
                assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
            }
        }
        // A changed demand set moves Λ.
        let mut reqs2 = reqs.clone();
        reqs2[0].rate += 1.0;
        assert!(bus.arbitrate(&reqs2).dilation > a.dilation);
    }

    #[test]
    fn warm_started_solve_matches_cold_solve() {
        let reqs: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let mut warm = default_fsb();
        // Solve a different saturated set first so the next solve
        // warm-starts from its λ.
        warm.arbitrate(&[req(9, 40.0, 1.0), req(10, 40.0, 1.0)]);
        let w = warm.arbitrate(&reqs);
        let c = default_fsb().arbitrate(&reqs);
        assert!(
            (w.dilation - c.dilation).abs() <= 1e-12 * c.dilation,
            "warm {} vs cold {}",
            w.dilation,
            c.dilation
        );
    }

    // --- solve_lambda edge cases ------------------------------------

    #[test]
    fn solve_lambda_empty_and_zero_rate_requests_stay_at_unity() {
        assert_eq!(solve_lambda(&[], PAPER_BUS_TX_PER_US, 0.0), 1.0);
        assert_eq!(
            solve_lambda(&[req(0, 0.0, 0.7)], PAPER_BUS_TX_PER_US, 0.0),
            1.0
        );
        // A stale warm start must not leak through: f(warm) ≤ 0 rejects it.
        assert_eq!(
            solve_lambda(&[req(0, 0.0, 0.7)], PAPER_BUS_TX_PER_US, 5.0),
            1.0
        );
    }

    #[test]
    fn solve_lambda_all_zero_mu_above_capacity_returns_lambda_max() {
        // λ-insensitive demand above capacity: no root exists, the solver
        // must give up at the ceiling instead of looping or dividing by a
        // zero slope.
        let reqs = [req(0, 20.0, 0.0), req(1, 15.0, 0.0)];
        assert_eq!(solve_lambda(&reqs, PAPER_BUS_TX_PER_US, 0.0), 1e9);
        // Same with a (useless) warm start.
        assert_eq!(solve_lambda(&reqs, PAPER_BUS_TX_PER_US, 3.0), 1e9);
        // Below capacity the same requests are trivially unsaturated.
        assert_eq!(solve_lambda(&reqs, 40.0, 0.0), 1.0);
    }

    #[test]
    fn solve_lambda_exactly_saturated_root_is_at_the_left_boundary() {
        // Σ dᵢ at λ = 1 equals capacity exactly: f(1) = 0, so the solver
        // must return 1.0 without stepping (stepping would overshoot and
        // under-issue).
        let cap = PAPER_BUS_TX_PER_US;
        assert_eq!(solve_lambda(&[req(0, cap, 0.5)], cap, 0.0), 1.0);
        let half = cap / 2.0;
        assert_eq!(
            solve_lambda(&[req(0, half, 1.0), req(1, half, 0.3)], cap, 0.0),
            1.0
        );
    }

    #[test]
    fn solve_lambda_single_thread_degenerate_root() {
        // One fully memory-bound thread: d/λ = cap has the exact root
        // λ = d/cap. Newton on f(λ) = d/λ − cap from the left converges to
        // it; the residual at the returned λ must be ≤ 0 (never
        // over-issues).
        let cap = PAPER_BUS_TX_PER_US;
        for k in [1.5, 2.0, 7.0, 250.0] {
            let reqs = [req(0, k * cap, 1.0)];
            let lambda = solve_lambda(&reqs, cap, 0.0);
            assert!(
                (lambda - k).abs() < 1e-9 * k,
                "k={k}: λ={lambda}, expected ≈{k}"
            );
            let issued = reqs[0].rate * dilated_speed(1.0, lambda);
            assert!(
                issued <= cap * (1.0 + 1e-12),
                "over-issue: {issued} > {cap}"
            );
        }
    }

    #[test]
    fn unsaturated_arbitrate_needs_no_solve() {
        // Below saturation Λ is the queueing term alone, exactly
        // `1 + κρ^p`: no Newton solve contributes to it.
        let cfg = BusConfig::default();
        let mut bus = default_fsb();
        let out = bus.arbitrate(&[req(0, 1.0, 0.2)]);
        assert!(!out.saturated);
        let rho = 1.0 / cfg.effective_capacity(1);
        assert_eq!(out.utilization.to_bits(), rho.to_bits());
        let expected = 1.0 + cfg.queueing_coeff * rho.powf(cfg.queueing_exponent);
        assert_eq!(out.dilation.to_bits(), expected.to_bits());
    }

    // --- HierarchicalBus --------------------------------------------

    fn hreq(id: u64, rate: f64, mu: f64, socket: usize, remote: f64) -> BusRequest {
        BusRequest {
            thread: ThreadId(id),
            rate,
            mu,
            socket,
            remote,
        }
    }

    #[test]
    fn hierarchical_single_socket_is_bit_identical_to_fsb() {
        // The degenerate 1-socket topology must reproduce FsbBus
        // byte-for-byte across a history exercising every path: a
        // saturated solve, the same set re-solved, an unsaturated set, an
        // empty tick, and a warm-started re-solve.
        let mut fsb = default_fsb();
        let mut hier = HierarchicalBus::new(BusConfig::default(), SINGLE_SOCKET_TOPO);
        let sat: Vec<_> = (0..4).map(|i| req(i, 15.0, 0.9)).collect();
        let light = [req(0, 1.0, 0.2)];
        let sat2: Vec<_> = (0..4).map(|i| req(i, 16.0, 0.95)).collect();
        for set in [&sat[..], &sat[..], &light[..], &[][..], &sat2[..]] {
            let a = fsb.arbitrate(set);
            let b = hier.arbitrate(set);
            assert_eq!(a.dilation.to_bits(), b.dilation.to_bits());
            assert_eq!(a.total_demand.to_bits(), b.total_demand.to_bits());
            assert_eq!(a.total_issued.to_bits(), b.total_issued.to_bits());
            assert_eq!(
                a.effective_capacity.to_bits(),
                b.effective_capacity.to_bits()
            );
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.saturated, b.saturated);
            assert_eq!(a.shares.len(), b.shares.len());
            for (x, y) in a.shares.iter().zip(&b.shares) {
                assert_eq!(x.thread, y.thread);
                assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                assert_eq!(x.issue_rate.to_bits(), y.issue_rate.to_bits());
            }
        }
        // 2 levels reported (socket 0 + idle interconnect).
        assert_eq!(hier.levels().len(), 2);
    }

    const SINGLE_SOCKET_TOPO: TopologyConfig = crate::config::SINGLE_SOCKET;

    #[test]
    fn hierarchical_isolates_sockets_without_remote_traffic() {
        // Streamers saturate socket 0's local bus; a light thread on
        // socket 1 with no remote traffic is untouched by them.
        let mut bus = HierarchicalBus::new(BusConfig::default(), TopologyConfig::multi(2));
        let out = bus.arbitrate(&[
            hreq(0, 23.6, 0.98, 0, 0.0),
            hreq(1, 23.6, 0.98, 0, 0.0),
            hreq(2, 1.0, 0.2, 1, 0.0),
        ]);
        let lv = bus.levels();
        assert_eq!(lv.len(), 3);
        assert!(lv[0].saturated, "socket 0 must saturate: {lv:?}");
        assert!(!lv[1].saturated);
        assert!(!lv[2].saturated);
        assert_eq!(lv[2].demand, 0.0);
        assert!(out.shares[0].speed < 0.7, "streamer dilated");
        assert!(out.shares[2].speed > 0.99, "remote socket isolated");
        // Aggregate capacity spans both local buses.
        assert!(out.effective_capacity > PAPER_BUS_TX_PER_US);
    }

    #[test]
    fn hierarchical_interconnect_constrains_remote_traffic() {
        // Both sockets are below local capacity, but every thread sends
        // all of its traffic across the interconnect (migrated off-home):
        // the interconnect is the bottleneck and dilates everyone.
        let topo = TopologyConfig::multi(2);
        let mut bus = HierarchicalBus::new(BusConfig::default(), topo);
        let all_remote: Vec<_> = (0..4)
            .map(|i| hreq(i, 13.0, 0.9, (i as usize) % 2, 1.0))
            .collect();
        let out = bus.arbitrate(&all_remote);
        let lv = bus.levels();
        assert!(!lv[0].saturated && !lv[1].saturated, "{lv:?}");
        assert!(lv[2].saturated, "interconnect must saturate: {lv:?}");
        assert!(out.saturated);
        assert!(out.dilation > 1.05);
        for s in &out.shares {
            assert!(s.speed < 0.95, "remote thread dilated: {}", s.speed);
        }
        // The same demands kept home (remote fraction 0.25) clear the
        // interconnect and run faster.
        let mut home_bus = HierarchicalBus::new(BusConfig::default(), topo);
        let home: Vec<_> = (0..4)
            .map(|i| hreq(i, 13.0, 0.9, (i as usize) % 2, topo.remote_fraction))
            .collect();
        let home_out = home_bus.arbitrate(&home);
        assert!(!home_bus.levels()[2].saturated);
        for (h, r) in home_out.shares.iter().zip(&out.shares) {
            assert!(h.speed > r.speed, "home {} vs remote {}", h.speed, r.speed);
        }
    }

    #[test]
    fn hierarchical_levels_conserve_capacity() {
        // Per-level issued traffic never exceeds that level's effective
        // capacity, even with mixed home/remote saturating demand.
        let mut bus = HierarchicalBus::new(BusConfig::default(), TopologyConfig::multi(2));
        let reqs: Vec<_> = (0..8)
            .map(|i| {
                let sock = (i as usize) / 4;
                let remote = if i % 3 == 0 { 1.0 } else { 0.25 };
                hreq(i, 14.0, 0.9, sock, remote)
            })
            .collect();
        let out = bus.arbitrate(&reqs);
        for (k, lv) in bus.levels().iter().enumerate() {
            assert!(
                lv.issued <= lv.effective_capacity * (1.0 + 1e-6),
                "level {k}: issued {} vs cap {}",
                lv.issued,
                lv.effective_capacity
            );
        }
        assert!(out.total_issued <= out.effective_capacity * (1.0 + 1e-6));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_reqs() -> impl Strategy<Value = Vec<BusRequest>> {
            prop::collection::vec((0.0f64..40.0, 0.01f64..1.0), 1..12).prop_map(|v| {
                v.into_iter()
                    .enumerate()
                    .map(|(i, (rate, mu))| BusRequest {
                        thread: ThreadId(i as u64),
                        rate,
                        mu,
                        socket: 0,
                        remote: 0.0,
                    })
                    .collect()
            })
        }

        proptest! {
            /// The bus never creates bandwidth: total issued ≤ effective
            /// capacity (within solver tolerance) whenever saturated, and
            /// ≤ total demand always.
            #[test]
            fn conservation(reqs in arb_reqs()) {
                let out = FsbBus::new(BusConfig::default()).arbitrate(&reqs);
                prop_assert!(out.total_issued <= out.total_demand + 1e-9);
                if out.saturated {
                    prop_assert!(out.total_issued <= out.effective_capacity * (1.0 + 1e-6));
                }
            }

            /// Speeds are in (0, 1] and issue rates are rate×speed.
            #[test]
            fn speeds_bounded(reqs in arb_reqs()) {
                let out = FsbBus::new(BusConfig::default()).arbitrate(&reqs);
                for (r, s) in reqs.iter().zip(&out.shares) {
                    prop_assert!(s.speed > 0.0 && s.speed <= 1.0 + 1e-12);
                    prop_assert!((s.issue_rate - r.rate * s.speed).abs() < 1e-9);
                }
            }

            /// More memory-bound threads are hurt at least as much by the
            /// same dilation.
            #[test]
            fn monotone_in_mu(rate in 1.0f64..30.0, mu_lo in 0.0f64..0.5, extra in 0.0f64..0.5) {
                let mut bus = FsbBus::new(BusConfig::default());
                let mu_hi = (mu_lo + extra).min(1.0);
                let heavy = [
                    BusRequest { thread: ThreadId(0), rate, mu: mu_lo, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(1), rate, mu: mu_hi, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(2), rate: 25.0, mu: 1.0, socket: 0, remote: 0.0 },
                    BusRequest { thread: ThreadId(3), rate: 25.0, mu: 1.0, socket: 0, remote: 0.0 },
                ];
                let out = bus.arbitrate(&heavy);
                prop_assert!(out.shares[0].speed >= out.shares[1].speed - 1e-12);
            }

            /// Max-min grants: feasible, capped by demand, work-conserving.
            #[test]
            fn max_min_invariants(demands in prop::collection::vec(0.0f64..50.0, 1..10), cap in 1.0f64..60.0) {
                let grants = MaxMinFairBus::max_min(&demands, cap);
                let total_d: f64 = demands.iter().sum();
                let total_g: f64 = grants.iter().sum();
                for (g, d) in grants.iter().zip(&demands) {
                    prop_assert!(*g <= d + 1e-9);
                    prop_assert!(*g >= -1e-12);
                }
                prop_assert!(total_g <= cap + 1e-9);
                // Work conserving: uses min(cap, total demand).
                prop_assert!((total_g - total_d.min(cap)).abs() < 1e-6);
            }

            /// Below saturation every arbiter agrees with [`FsbBus`] up to
            /// the sub-saturation queueing term κ·ρ^p (the alternatives
            /// model no queueing, so their speeds sit exactly at 1 while
            /// FsbBus sits at 1/(1+µκρ^p) ≥ 1 − κρ^p).
            #[test]
            fn arbiters_agree_below_saturation(reqs in arb_reqs()) {
                let cfg = BusConfig::default();
                let fsb = FsbBus::new(cfg).arbitrate(&reqs);
                if !fsb.saturated && fsb.utilization <= 0.9 {
                    let tol =
                        cfg.queueing_coeff * fsb.utilization.powf(cfg.queueing_exponent) + 1e-9;
                    let mm = MaxMinFairBus::new(cfg).arbitrate(&reqs);
                    let pr = ProportionalBus {
                        capacity: cfg.capacity_tx_per_us,
                    }
                    .arbitrate(&reqs);
                    for alt in [&mm, &pr] {
                        for (f, a) in fsb.shares.iter().zip(&alt.shares) {
                            prop_assert!(
                                (f.speed - a.speed).abs() <= tol,
                                "fsb {} vs alt {} (tol {tol})",
                                f.speed,
                                a.speed
                            );
                        }
                    }
                }
            }

            /// Max-min fair never issues more than effective capacity,
            /// saturated or not: each thread's traffic is capped by its
            /// grant and grants sum to ≤ capacity.
            #[test]
            fn max_min_bus_never_exceeds_capacity(reqs in arb_reqs()) {
                let out = MaxMinFairBus::new(BusConfig::default()).arbitrate(&reqs);
                prop_assert!(
                    out.total_issued <= out.effective_capacity + 1e-9,
                    "issued {} vs cap {}",
                    out.total_issued,
                    out.effective_capacity
                );
            }

            /// Proportional sharing conserves capacity for fully
            /// memory-bound threads (µ = 1 ⇒ issue = rate/λ, Σ = min(ΣD, C)).
            #[test]
            fn proportional_bus_full_mu_never_exceeds_capacity(mut reqs in arb_reqs()) {
                for r in &mut reqs {
                    r.mu = 1.0;
                }
                let cap = BusConfig::default().capacity_tx_per_us;
                let out = ProportionalBus { capacity: cap }.arbitrate(&reqs);
                prop_assert!(
                    out.total_issued <= cap + 1e-9,
                    "issued {} vs cap {cap}",
                    out.total_issued
                );
            }
        }
    }
}
