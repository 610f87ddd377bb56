//! Host figures and placement: peak memory of this process, the noise
//! that tells a slow host apart from a slow program, and pinning the
//! process to one CPU.
//!
//! The figures only read `/proc`; on a system without it every figure
//! reads as zero and the run goes on. Pinning acts on this process
//! alone.

use std::fs;
#[cfg(target_os = "linux")]
use std::sync::OnceLock;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reading of the host-noise counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// Machine-wide steal time, in clock ticks (`/proc/stat`).
    steal_ticks: u64,
    /// Time the calling thread spent runnable but waiting for a CPU,
    /// in ns (`/proc/thread-self/schedstat`).
    runq_wait_ns: u64,
}

impl Noise {
    /// Read the counters now, for the calling thread.
    pub fn sample() -> Noise {
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        let runq_wait_ns = fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
            .unwrap_or(0);
        Noise {
            steal_ticks,
            runq_wait_ns,
        }
    }

    /// `(steal ms, run-queue wait ms)` between `self` and a later
    /// reading. Steal ticks are converted at the usual 100 ticks/s.
    pub fn since(&self, later: &Noise) -> (f64, f64) {
        let steal = later.steal_ticks.saturating_sub(self.steal_ticks) as f64 * 10.0;
        let wait = later.runq_wait_ns.saturating_sub(self.runq_wait_ns) as f64 / 1e6;
        (steal, wait)
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask as `sched_{get,set}affinity` take it (1,024 CPUs).
#[cfg(target_os = "linux")]
type CpuMask = [u64; 16];

/// The CPUs the process was allowed before [`pin_to_one_cpu`].
#[cfg(target_os = "linux")]
static ALLOWED: OnceLock<CpuMask> = OnceLock::new();

#[cfg(target_os = "linux")]
fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // call only reads it. pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Pin the calling thread, and so every thread it starts afterwards,
/// to the last CPU it is allowed to run on. Returns that CPU, or `None`
/// (and leaves the affinity alone) where it cannot be set.
///
/// A serve request hands off between the client, reactor, decode and
/// compile threads. Unpinned, each handoff may wait for a second vCPU
/// that the host has descheduled; on a shared VM that wait, not the
/// program, set the run-to-run spread.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    if !set_affinity(&one) {
        return None;
    }
    let _ = ALLOWED.set(allowed);
    Some(cpu)
}

/// Give the calling thread, and the threads it starts afterwards, back
/// every CPU the process had before it was pinned: checks after the
/// timed interval may use them all.
#[cfg(target_os = "linux")]
pub fn unpin() {
    if let Some(allowed) = ALLOWED.get() {
        set_affinity(allowed);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn unpin() {}
