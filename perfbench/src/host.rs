//! What the benchmark reads about its own process and checkout: the
//! environment knobs it must not inherit, thread count, peak memory and the
//! commit it measures.

use std::time::{Duration, Instant};

/// Environment prefix of every rescache knob. The benchmark fixes each of
/// them itself (trace format, run lengths, store, faults, policy, objective,
/// quota, workers), so an inherited value would measure a different program.
const KNOB_PREFIX: &str = "RESCACHE_";

/// Removes every inherited `RESCACHE_*` variable and returns their names.
/// Must run before any library call reads the environment (the worker count
/// is resolved once per process).
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Threads of this process right now.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}

/// Waits up to a second for the thread count to fall back to `baseline`:
/// a joined thread may still be counted for an instant while it exits.
pub fn threads_settle(baseline: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        match threads() {
            Some(n) if n <= baseline => return Ok(()),
            Some(n) if Instant::now() >= deadline => {
                return Err(format!("{n} threads remain, baseline {baseline}"))
            }
            None => return Err("thread count unreadable".into()),
            Some(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time (user plus system) this process has used, in seconds, counting
/// every thread, exited ones included.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        counters: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` (two
    // `struct timeval`s of two `long`s each, then fourteen `long`s), and
    // `getrusage` writes only within the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, read from `.git` in the working directory
/// when the checkout is a repository, otherwise `"unknown"`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
