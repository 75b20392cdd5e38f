//! Machine configuration, calibrated to the paper's platform.

use crate::cache::CacheConfig;

/// The paper's measured sustained front-side-bus capacity: 29.5 bus
/// transactions per µs (1797 MB/s at 64 B/tx, STREAM on all four
/// processors). Single-sourced here — workloads, invariants, and tests
/// that reason about "the paper's bus" reference this constant rather
/// than re-hardcoding the literal.
pub const PAPER_BUS_TX_PER_US: f64 = 29.5;

/// Front-side-bus parameters.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// Sustained capacity in bus transactions per µs. The paper measures
    /// 29.5 tx/µs with STREAM on all four processors (1797 MB/s at 64 B/tx).
    pub capacity_tx_per_us: f64,
    /// Bytes moved per transaction (64 on the paper's Xeon).
    pub bytes_per_tx: f64,
    /// Per-additional-master arbitration overhead: with `n` active masters,
    /// effective capacity is `capacity × (1 − arbitration_per_master·(n−1))`
    /// (floored at 50 % of nominal). Models the paper's note that
    /// "contention and arbitration contribute to bandwidth consumption and
    /// eventually bus saturation" even below the raw limit.
    pub arbitration_per_master: f64,
    /// A thread counts as an active master if its demand exceeds this
    /// (tx/µs). Keeps nBBMA-like threads from charging arbitration cost.
    pub active_master_threshold: f64,
    /// Sub-saturation queueing penalty coefficient κ: every thread's memory
    /// phases are dilated by an extra `κ·ρ^p` where ρ is bus utilization.
    pub queueing_coeff: f64,
    /// Queueing penalty exponent `p` (convex: contention only bites as the
    /// bus approaches saturation).
    pub queueing_exponent: f64,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            capacity_tx_per_us: PAPER_BUS_TX_PER_US,
            bytes_per_tx: 64.0,
            arbitration_per_master: 0.03,
            active_master_threshold: 0.5,
            queueing_coeff: 0.35,
            queueing_exponent: 3.0,
        }
    }
}

impl BusConfig {
    /// Effective capacity with `n_masters` active bus masters.
    pub fn effective_capacity(&self, n_masters: usize) -> f64 {
        let n = n_masters.max(1) as f64;
        let derate = 1.0 - self.arbitration_per_master * (n - 1.0);
        self.capacity_tx_per_us * derate.max(0.5)
    }

    /// Sustained bandwidth in MB/s implied by this configuration.
    pub fn sustained_mb_per_s(&self) -> f64 {
        // tx/µs × bytes/tx = bytes/µs = MB/s.
        self.capacity_tx_per_us * self.bytes_per_tx
    }
}

/// Bus topology: N sockets, each with its own local bus (parameterized
/// by [`BusConfig`]), joined by a shared cross-socket interconnect. A
/// memory transaction charges every level it crosses: the full rate on
/// the local bus of the socket it executes on, plus its remote fraction
/// on the interconnect. `sockets == 1` is the paper's machine — one
/// shared FSB, no interconnect traffic at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Number of sockets. Logical cpus are striped contiguously:
    /// socket `k` hosts cpus `k·(num_cpus/sockets) ..`.
    pub sockets: usize,
    /// Capacity of the cross-socket interconnect in tx/µs. Inert when
    /// `sockets == 1` (no transaction ever crosses).
    pub interconnect_tx_per_us: f64,
    /// Fraction of a thread's traffic that crosses the interconnect when
    /// it runs on its *home* socket (remote pages, coherence). A thread
    /// migrated off its home socket sends **all** of its traffic across.
    pub remote_fraction: f64,
}

/// The degenerate single-socket topology: the paper's machine. The
/// interconnect fields are inert at one socket but hold the same sane
/// values [`TopologyConfig::multi`] uses, so raising `sockets` alone
/// yields a working machine.
pub const SINGLE_SOCKET: TopologyConfig = TopologyConfig {
    sockets: 1,
    interconnect_tx_per_us: 44.25,
    remote_fraction: 0.25,
};

impl Default for TopologyConfig {
    fn default() -> Self {
        SINGLE_SOCKET
    }
}

impl TopologyConfig {
    /// A multi-socket topology with the default interconnect: 1.5× the
    /// paper's bus (44.25 tx/µs — cross-socket links carry more than one
    /// local bus but far less than the sum of all of them) and a 25 %
    /// home-socket remote-traffic fraction.
    pub const fn multi(sockets: usize) -> Self {
        TopologyConfig {
            sockets,
            ..SINGLE_SOCKET
        }
    }

    /// The remote-traffic fraction for a thread whose home socket is
    /// `home`, executing on `exec`. Zero on a single-socket machine
    /// (nothing to cross), the configured fraction at home, and 1.0 when
    /// migrated off-home (every access crosses back).
    pub fn remote_share(&self, home: usize, exec: usize) -> f64 {
        if self.sockets <= 1 {
            0.0
        } else if home == exec {
            self.remote_fraction
        } else {
            1.0
        }
    }
}

/// Whole-machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Number of *logical* processors exposed to the scheduler. With
    /// `smt_threads_per_core = 1` (the paper's configuration — it disables
    /// hyperthreading because the perfctr driver of the day could not
    /// virtualize counters across sibling hardware threads) this equals
    /// the physical core count.
    pub num_cpus: usize,
    /// Simulation tick in µs. Smaller = finer bus/cache dynamics; 100 µs is
    /// 1/1000 of the paper's smallest quantum and resolves every effect the
    /// policies can observe.
    pub tick_us: u64,
    /// Hardware threads per physical core. Logical cpus `k·t .. k·t+t-1`
    /// share core `k`. 1 disables SMT.
    pub smt_threads_per_core: usize,
    /// Aggregate speedup of one core when *all* of its hardware threads
    /// are busy, relative to one thread alone (the classic HT figure is
    /// ~1.25: each of two busy siblings runs at ~0.625×). Ignored when
    /// `smt_threads_per_core` is 1.
    pub smt_core_speedup: f64,
    /// Bus parameters. On a multi-socket topology these describe each
    /// *local* (per-socket) bus.
    pub bus: BusConfig,
    /// Bus topology (sockets + interconnect). Defaults to the paper's
    /// single shared FSB.
    pub topology: TopologyConfig,
    /// Cache/affinity parameters.
    pub cache: CacheConfig,
}

impl MachineConfig {
    /// The physical core hosting a logical cpu index.
    pub fn core_of(&self, cpu: usize) -> usize {
        cpu / self.smt_threads_per_core.max(1)
    }

    /// Logical cpus per socket (cpus are striped contiguously).
    pub fn cpus_per_socket(&self) -> usize {
        self.num_cpus.div_ceil(self.topology.sockets.max(1)).max(1)
    }

    /// The socket hosting a logical cpu index.
    pub fn socket_of(&self, cpu: usize) -> usize {
        (cpu / self.cpus_per_socket()).min(self.topology.sockets.max(1) - 1)
    }

    /// Per-thread speed factor when `busy` hardware threads share a core.
    pub fn smt_speed_factor(&self, busy: usize) -> f64 {
        if busy <= 1 || self.smt_threads_per_core <= 1 {
            1.0
        } else {
            // The core's aggregate throughput scales from 1 (one busy
            // thread) to `smt_core_speedup` (all busy), interpolated
            // linearly in the number of busy siblings, split evenly.
            let t = self.smt_threads_per_core as f64;
            let busy = busy as f64;
            let aggregate = 1.0 + (self.smt_core_speedup - 1.0) * (busy - 1.0) / (t - 1.0);
            aggregate / busy
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        XEON_4WAY
    }
}

/// The paper's platform: 4-way Xeon, 29.5 tx/µs sustained bus.
pub const XEON_4WAY: MachineConfig = MachineConfig {
    num_cpus: 4,
    tick_us: 100,
    smt_threads_per_core: 1,
    smt_core_speedup: 1.0,
    bus: BusConfig {
        capacity_tx_per_us: PAPER_BUS_TX_PER_US,
        bytes_per_tx: 64.0,
        arbitration_per_master: 0.03,
        active_master_threshold: 0.5,
        queueing_coeff: 0.35,
        queueing_exponent: 3.0,
    },
    topology: SINGLE_SOCKET,
    cache: CacheConfig {
        warmup_tau_us: 20_000.0,
        decay_tau_us: 10_000.0,
        cold_demand_boost: 0.6,
        min_tracked_warmth: 0.01,
    },
};

/// The same machine with Hyperthreading enabled: 8 logical cpus on 4
/// physical cores, ~1.25× aggregate core speedup — the configuration the
/// paper could *not* measure (perfctr limitation) but lists as future
/// work.
pub const XEON_4WAY_HT: MachineConfig = MachineConfig {
    num_cpus: 8,
    smt_threads_per_core: 2,
    smt_core_speedup: 1.25,
    ..XEON_4WAY
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_constants_match_paper() {
        let c = XEON_4WAY;
        assert_eq!(c.num_cpus, 4);
        assert!((c.bus.capacity_tx_per_us - 29.5).abs() < 1e-12);
        // 29.5 tx/µs × 64 B = 1888 MB/s ≈ the measured 1797 MB/s sustained
        // (the paper's two numbers are themselves ~5 % apart; we keep the
        // transaction-rate calibration since that is what the policies see).
        let mb = c.bus.sustained_mb_per_s();
        assert!((1700.0..2000.0).contains(&mb), "got {mb}");
    }

    #[test]
    fn arbitration_derates_capacity_monotonically() {
        let b = BusConfig::default();
        let mut prev = f64::INFINITY;
        for n in 1..=8 {
            let c = b.effective_capacity(n);
            assert!(c <= prev);
            assert!(c >= 0.5 * b.capacity_tx_per_us);
            prev = c;
        }
        assert_eq!(b.effective_capacity(0), b.effective_capacity(1));
    }

    #[test]
    fn smt_speed_factors() {
        let ht = XEON_4WAY_HT;
        assert_eq!(ht.core_of(0), 0);
        assert_eq!(ht.core_of(1), 0);
        assert_eq!(ht.core_of(2), 1);
        assert_eq!(ht.smt_speed_factor(1), 1.0);
        // Both siblings busy: 1.25 aggregate → 0.625 each.
        assert!((ht.smt_speed_factor(2) - 0.625).abs() < 1e-12);
        // Non-SMT machine never derates.
        assert_eq!(XEON_4WAY.smt_speed_factor(2), 1.0);
    }

    #[test]
    fn socket_mapping_stripes_contiguously() {
        let mut c = XEON_4WAY;
        assert_eq!(c.topology.sockets, 1);
        assert_eq!(c.cpus_per_socket(), 4);
        for cpu in 0..4 {
            assert_eq!(c.socket_of(cpu), 0);
        }
        c.num_cpus = 8;
        c.topology = TopologyConfig::multi(2);
        assert_eq!(c.cpus_per_socket(), 4);
        assert_eq!(c.socket_of(0), 0);
        assert_eq!(c.socket_of(3), 0);
        assert_eq!(c.socket_of(4), 1);
        assert_eq!(c.socket_of(7), 1);
        // Out-of-range cpus clamp to the last socket rather than panic.
        assert_eq!(c.socket_of(99), 1);
    }

    #[test]
    fn remote_share_degenerates_at_one_socket() {
        let single = SINGLE_SOCKET;
        assert_eq!(single.remote_share(0, 0), 0.0);
        let multi = TopologyConfig::multi(2);
        assert!((multi.remote_share(0, 0) - multi.remote_fraction).abs() < 1e-15);
        assert_eq!(multi.remote_share(0, 1), 1.0);
        assert!((multi.interconnect_tx_per_us - 1.5 * PAPER_BUS_TX_PER_US).abs() < 1e-12);
    }

    #[test]
    fn arbitration_floor_holds_for_many_masters() {
        let b = BusConfig {
            arbitration_per_master: 0.2,
            ..BusConfig::default()
        };
        assert_eq!(b.effective_capacity(100), 0.5 * b.capacity_tx_per_us);
    }
}
