//! Facts about the running process and machine: the thread budget, peak memory, CPU time,
//! and the environment line every run prints.

use fmore_fl::engine::RoundEngine;

/// Threads that submit rounds: every workload is driven serially from one thread.
pub const DRIVER_THREADS: usize = 1;

/// The benchmark's thread budget: one driver thread plus `nproc - 1` pool workers, so that
/// runnable threads never exceed the hardware threads. The driver counts because the
/// executor's submitter runs queued pool units while it waits for its fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Hardware threads (`std::thread::available_parallelism`).
    pub nproc: usize,
    /// Pool workers; `0` means the inline engine (no pool at all).
    pub workers: usize,
}

impl Budget {
    /// The budget for this machine.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            workers: nproc - DRIVER_THREADS,
        }
    }

    /// Threads that can be runnable at once: the pool workers plus the helping driver.
    pub fn runnable(&self) -> usize {
        self.workers + DRIVER_THREADS
    }

    /// A fresh engine of the budget's width: a private pool, or the inline engine when the
    /// machine has a single hardware thread.
    pub fn engine(&self) -> RoundEngine {
        match self.workers {
            0 => RoundEngine::inline(),
            n => RoundEngine::pooled(n),
        }
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time consumed by every thread of this process, in nanoseconds, summed from the
/// per-thread scheduler statistics.
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread that exited between the listing and the read has nothing left to add.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// Number of live threads of this process, if the platform reports it.
pub fn live_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// The environment line: everything a reader needs to compare two outputs.
pub fn env_line(budget: &Budget, seed: u64, rounds: usize) -> String {
    let force_scalar = std::env::var(fmore_numerics::simd::FORCE_SCALAR_ENV)
        .unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "env nproc={} pool_width={} driver_threads={} runnable_thread_budget={} \
         avx_enabled={} avx512_enabled={} FMORE_FORCE_SCALAR={force_scalar} \
         profile={profile} seed={seed} rounds={rounds}",
        budget.nproc,
        budget.workers,
        DRIVER_THREADS,
        budget.runnable(),
        fmore_numerics::avx_enabled(),
        fmore_numerics::avx512_enabled(),
    )
}

/// Median round trip, in microseconds, of an empty fan-out of `width + 1` tasks on the
/// engine's pool — one more task than workers, so the submitter both publishes and helps.
/// Absent for the inline engine.
pub fn empty_fanout_us(engine: &RoundEngine, reps: usize) -> Option<f64> {
    let pool = engine.pool()?;
    let width = pool.threads();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let tasks: Vec<fmore_fl::engine::Task<()>> =
                (0..=width).map(|_| Box::new(|| ()) as _).collect();
            let t0 = std::time::Instant::now();
            std::hint::black_box(pool.run_indexed(tasks));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Some(crate::stats::median(&mut samples))
}
