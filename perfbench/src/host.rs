//! The host a run measures on: fingerprint, process CPU time, peak
//! memory, and a fixed calibration loop.
//!
//! A host time means little on its own: the same code reads 0.67× as fast
//! on one machine as on another. Every result is printed beside `nproc`,
//! the CPU model and `bench.calibration_ns`, so a figure from another host
//! can be read as a ratio against that host's calibration.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (a dependent xorshift chain, about
/// 10 ms on a current x86 core).
const CALIBRATION_ITERS: u64 = 1 << 23;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// Worker threads the benchmark may use: one per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// User + system CPU seconds of this process so far, threads that have
/// already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it start
    // with the state (field 3), so utime (14) and stime (15) sit at 11, 12.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric CPU time") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Nanoseconds one pass of the fixed calibration loop takes.
pub fn calibrate() -> u64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..black_box(CALIBRATION_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    t0.elapsed().as_nanos() as u64
}
