//! The clocks of the in-process workloads: CPU time of this process, read in
//! seconds of a reference core.
//!
//! The benchmark runs on a few cores of a shared host, and what a tune takes
//! there depends on the neighbours as much as on the advisor:
//!
//! * Wall time includes every interval in which something else held the core
//!   (with two busy neighbours one and the same tune read 0.19–0.33 s on the
//!   wall and 0.18–0.20 s of CPU).  CPU time does not.  A front-door tune is computation with no I/O and no
//!   sleep, so on an idle core the two agree (`tune.cpu_share` of the traced
//!   pass says by how much), and CPU time covers every thread of the process,
//!   so work moved onto a second thread still counts.
//! * The core itself has slow phases that last minutes, in which the same
//!   instructions take up to 1.8× longer.  No statistic over one run removes
//!   a phase that outlasts the run, so every timed region is bracketed by a
//!   fixed piece of work of the benchmark's own ([`reference_kernel`]) and is
//!   reported in the seconds it would have taken at the pace at which that
//!   kernel takes [`REFERENCE_KERNEL_S`]: over eight minutes of drift the raw
//!   CPU time of one tune moved by 15 % and the scaled time by 3 %.
//!   `tune.core_speed` of the traced pass reports the pace it saw.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;

// `struct timespec` is two 64-bit fields on the 64-bit Linux targets only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the perf benchmark reads Linux clocks and /proc; build it for 64-bit Linux");

/// CPU time this process has used so far, all threads, user and system.
fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64` on 64-bit
    // Linux, which the `compile_error!` above enforces), and `clock_gettime`
    // writes nothing but that struct.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU seconds `f` takes, and what it returns.
pub fn cpu_seconds<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = process_cpu();
    let out = f();
    (out, (process_cpu() - start).as_secs_f64())
}

/// What [`reference_kernel`] takes on the quiet reference box.  It only fixes
/// the unit: a reported second is a second of a core on which the kernel
/// takes this long.
pub const REFERENCE_KERNEL_S: f64 = 0.0033;

/// A fixed piece of the kind of work the advisor does — ordered-map inserts,
/// a sort, a float reduction, small allocations — that owes nothing to the
/// product, so no change to the product changes it.
fn reference_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..20_000 {
        *map.entry(next() % 50_000).or_insert(0u64) += 1;
    }
    let mut v: Vec<u64> = (0..40_000).map(|_| next()).collect();
    v.sort_unstable();
    let sum: f64 = v.iter().enumerate().map(|(i, k)| (*k as f64).sqrt() / (1.0 + i as f64)).sum();
    let labels: Vec<String> = map.iter().take(3000).map(|(k, n)| format!("{k}:{n}")).collect();
    map.len() as u64 + sum as u64 + labels.iter().map(|s| s.len() as u64).sum::<u64>()
}

/// The core's pace now: CPU seconds per reference kernel, the fastest of
/// three (what interferes with so short a run only ever adds).
fn pace() -> f64 {
    (0..3).map(|_| cpu_seconds(|| black_box(reference_kernel())).1).fold(f64::INFINITY, f64::min)
}

/// Turns CPU seconds into seconds of the reference core, at the pace
/// measured just before and just after the timed region.
pub struct Pacer {
    before: f64,
}

impl Pacer {
    /// Measures the pace: call it right before the first timed region.
    pub fn start() -> Pacer {
        Pacer { before: pace() }
    }

    /// Measures the pace again and scales `cpu`, the CPU seconds of what ran
    /// since the last measurement.  Returns the scaled seconds and the core's
    /// speed over that stretch (1 = the reference core, below 1 = slower).
    pub fn scale(&mut self, cpu: f64) -> (f64, f64) {
        let after = pace();
        let speed = REFERENCE_KERNEL_S / ((self.before + after) / 2.0);
        self.before = after;
        (cpu * speed, speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let wall = std::time::Instant::now();
        let (x, spun) = cpu_seconds(|| {
            let mut x = 0u64;
            while wall.elapsed() < Duration::from_millis(50) {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            x
        });
        black_box(x);
        assert!(spun > 0.010, "50 ms of spinning cost {spun} s of CPU");
    }

    #[test]
    fn the_kernel_is_fixed_work_and_the_pacer_scales_by_it() {
        assert_eq!(reference_kernel(), reference_kernel());
        let mut pacer = Pacer::start();
        let (scaled, speed) = pacer.scale(2.0);
        assert!(speed > 0.0 && speed.is_finite());
        assert!((scaled - 2.0 * speed).abs() < 1e-12);
    }
}
