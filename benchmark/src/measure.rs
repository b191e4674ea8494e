//! Timing estimator, memory high-water mark, CPU placement and the host
//! record — everything the benchmark needs from the machine it runs on.

use crate::json::Json;
use std::time::Instant;

/// Order statistics of one metric's repetitions within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// Distance between the first and third quartile over the median —
    /// the spread `compare` holds against a metric's bound.
    pub iqr_over_median: f64,
}

impl Summary {
    /// # Panics
    /// Panics on an empty sample: every metric is measured at least once.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quantile(&v, 0.5);
        Summary {
            n: v.len(),
            min: v[0],
            median,
            max: v[v.len() - 1],
            iqr_over_median: if median == 0.0 {
                0.0
            } else {
                (quantile(&v, 0.75) - quantile(&v, 0.25)) / median
            },
        }
    }

    /// The reported value of a wall-clock duration: its fastest
    /// repetition.
    ///
    /// Measured on the reference host (see README, "Host noise"): a busy
    /// neighbour on the shared physical core slows this program's
    /// high-IPC loops by up to 1.5x for seconds at a time, while leaving
    /// the program's floor — the time of an undisturbed repetition —
    /// fixed. Interference only ever adds time, so the fastest of many
    /// short repetitions estimates that floor; over 8 s windows its
    /// run-to-run spread was the smallest of min / p10 / p25 / median /
    /// mean on every series taken.
    pub fn floor(&self) -> f64 {
        self.min
    }
}

/// Linear-interpolated quantile of an ascending sample (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

// ---------------------------------------------------------------------------
// Memory high-water mark
// ---------------------------------------------------------------------------

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left alone it
/// grows with every large block freed, after which a repetition's big
/// arenas are carved from whatever heap an earlier repetition left
/// behind — and resident memory (103..155 MB for the same durable run)
/// and page-fault cost come to depend on allocator history. Pinned, every
/// repetition takes its large buffers fresh from the kernel, as a fresh
/// `compass-run` process does.
pub fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // once, before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

/// Returns freed heap memory to the kernel, then resets the process's
/// resident-set high-water mark to its current resident set (`echo 5 >
/// /proc/self/clear_refs`). Without the trim the mark depends on how much
/// of the previous repetition's memory the allocator happened to retain:
/// CoCoMac runs read 77 or 103 MB, run to run, for the same work.
///
/// Returns whether the kernel accepted the reset; when it did not,
/// [`peak_rss_bytes`] covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and is safe to call at any
    // time; no other thread of this process is running here.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` from `/proc/self/status`, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending; empty if the kernel
/// refuses to say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread — and every thread it spawns from now
/// on, which is how rank and writer threads inherit it — to `cpus`.
/// `main.rs` says which CPUs and why.
///
/// Returns whether the kernel accepted it; a host that refuses leaves
/// placement to the scheduler.
pub fn restrict_to_cpus(cpus: &[usize]) -> bool {
    if cpus.is_empty() {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

// ---------------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------------

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// What a result file says about where it was taken: a timing from one
/// host means nothing on another. `nproc` is the CPUs the process started
/// with (by the time this runs it has narrowed itself to one).
pub fn host_record(nproc: usize) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_owned();
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        caches.push(Json::str(format!("L{level} {kind} {size}")));
    }
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(model)),
        ("caches", Json::Arr(caches)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_floor_median_and_spread() {
        // Nine repetitions, two of them inside a slow phase.
        let reps = [1.00, 1.02, 1.01, 1.55, 1.03, 1.00, 1.52, 1.04, 1.01];
        let s = Summary::of(&reps);
        assert_eq!(s.n, 9);
        assert_eq!(s.floor(), 1.00);
        assert_eq!(s.median, 1.02);
        assert_eq!(s.max, 1.55);
        // Quartiles of the sorted sample at positions 2 and 6: 1.01, 1.04.
        assert!((s.iqr_over_median - 0.03 / 1.02).abs() < 1e-12);
    }

    #[test]
    fn floor_ignores_interference_that_moves_the_median() {
        let quiet = Summary::of(&[2.0, 2.1, 2.0, 2.2, 2.1]);
        let noisy = Summary::of(&[3.0, 2.0, 3.1, 2.9, 3.2]);
        assert_eq!(quiet.floor(), noisy.floor());
        assert!(noisy.median > 1.3 * quiet.median);
    }

    #[test]
    fn quantile_interpolates_and_handles_one_sample() {
        assert_eq!(quantile(&[5.0], 0.25), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        let s = Summary::of(&[4.0]);
        assert_eq!(
            (s.min, s.median, s.max, s.iqr_over_median),
            (4.0, 4.0, 4.0, 0.0)
        );
    }

    #[test]
    fn peak_rss_is_readable_and_placement_never_loses_all_cpus() {
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        let before = allowed_cpus();
        assert!(!before.is_empty());
        assert!(restrict_to_cpus(&before));
        assert_eq!(allowed_cpus(), before);
        assert!(!restrict_to_cpus(&[]));
    }
}
