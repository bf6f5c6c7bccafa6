//! `perfbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! Three workloads, each run in its own process from one seeded generator
//! ([`gen`]): `sweep-warm` ([`sweep`]), `serve-fresh` and `serve-hot`
//! ([`serve`]). See `perfbench/NOTES.md` for why each was chosen and which
//! per-layer metric should move which end-to-end metric.

pub mod client;
pub mod gen;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod tracer;

use std::time::{Duration, Instant};

use tracer::Tracer;

/// Chunks a run's timed ops are split into, in op order. `op_p50_us` and
/// `ops_per_s` read the fastest tenth of them (see `perfbench/NOTES.md`).
pub const CHUNKS: usize = 200;

/// The percentile `op_tail_us` reports on every workload: the highest of
/// p99/p95/p90 with at least ten samples beyond it at the default run
/// length that repeats from run to run (see `perfbench/NOTES.md`).
pub const TAIL_QUANTILE: f64 = 0.95;

/// Length of each of the [`CHUNKS`] chunks of an `ops`-op run.
pub fn chunk_len(ops: usize) -> usize {
    ops.div_ceil(CHUNKS).max(1)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask as the kernel takes it: room for 1024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs this process may run on, in ascending order (empty where the
/// kernel will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Paces a run's timed ops and moves its threads, one chunk at a time.
///
/// At every chunk boundary, between ops, it waits until the chunk is due
/// at the workload's nominal rate ([`Workload::ops_per_second`]), so a run
/// spans at least `--seconds` and samples the host's speed over all of
/// them. It then moves every thread of the process (client, reactor,
/// server workers) onto the next allowed CPU, round robin: the threads of
/// an op never cross CPUs, and each run samples every CPU (see
/// `perfbench/NOTES.md`).
pub struct Pacer {
    cpus: Vec<usize>,
    chunk: usize,
    rate: f64,
    start: Option<Instant>,
}

impl Pacer {
    /// A pacer for a run of `ops` timed ops of `workload`.
    pub fn new(workload: Workload, ops: usize) -> Pacer {
        Pacer {
            cpus: allowed_cpus(),
            chunk: chunk_len(ops),
            rate: workload.ops_per_second(),
            start: None,
        }
    }

    /// Call right before op `op` is timed.
    pub fn before(&mut self, op: usize) {
        if !op.is_multiple_of(self.chunk) {
            return;
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        let due = start + Duration::from_secs_f64(op as f64 / self.rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[(op / self.chunk) % self.cpus.len()];
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
        for tid in tasks.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
            // SAFETY: `mask` is a readable buffer of exactly the size
            // passed. A thread that has just exited makes the call fail,
            // which is harmless.
            unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `op_p50_us`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Growth of the process-wide symath tables between two `intern_stats()`
/// readings.
pub fn interner_growth(before: &symath::InternStats, after: &symath::InternStats) -> Vec<Metric> {
    let grew = |a: u64, b: u64| (a - b) as f64;
    vec![
        Metric::new(
            "symath.intern_table_len",
            grew(after.table_len, before.table_len),
            "count",
        ),
        Metric::new(
            "symath.memo_entries",
            grew(after.memo_entries, before.memo_entries),
            "count",
        ),
        Metric::new(
            "symath.programs_compiled",
            grew(after.programs_compiled, before.programs_compiled),
            "count",
        ),
        Metric::new(
            "symath.batch_programs",
            grew(after.batch_programs, before.batch_programs),
            "count",
        ),
    ]
}

/// What one workload run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Latency of each timed op, in µs, in op order.
    pub lat_us: Vec<f64>,
    /// Peak RSS (`VmHWM`) at the end of the timed loop, before the untimed
    /// sample checks, in MB.
    pub rss_mb: f64,
    /// Timed ops plus untimed sample checks.
    pub attempted: u64,
    /// Ops that failed or returned a wrong output, plus failed sample checks.
    pub failed: u64,
    /// Digest of every op's output, in op order.
    pub digest: u64,
    /// Per-layer counters (and, in a traced run, the replay's counts).
    pub metrics: Vec<Metric>,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Whole-grid re-price on a warm `FamilyEngine`.
    SweepWarm,
    /// Never-seen `/v1/infer/characterize` targets.
    ServeFresh,
    /// Bytes-cache hits on primed targets.
    ServeHot,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SweepWarm,
        Workload::ServeFresh,
        Workload::ServeHot,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepWarm => "sweep-warm",
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per requested second. The op count is fixed by `--seconds`, not
    /// by the clock, so a fast build and a slow build do the same work (and,
    /// on `serve-fresh`, grow the same state). The run issues ops no faster
    /// than this rate ([`Pacer`]), so it spans at least `--seconds`.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::SweepWarm => 7.0,
            Workload::ServeFresh => 2000.0,
            Workload::ServeHot => 50000.0,
        }
    }

    /// Client connections the workload holds open.
    pub fn client_connections(self) -> usize {
        match self {
            Workload::SweepWarm => 0,
            Workload::ServeFresh | Workload::ServeHot => 1,
        }
    }

    /// Set up, call `ready`, then run `ops` timed ops.
    pub fn run(
        self,
        seed: u64,
        ops: usize,
        tracer: Option<&mut Tracer>,
        ready: impl FnOnce(),
    ) -> Outcome {
        match self {
            Workload::SweepWarm => sweep::run(seed, ops, tracer, ready),
            Workload::ServeFresh => serve::run_fresh(seed, ops, tracer, ready),
            Workload::ServeHot => serve::run_hot(seed, ops, tracer, ready),
        }
    }
}
