//! `symbench` — interner effectiveness gauge for the `symath` hash-consing
//! layer.
//!
//! ```text
//! symbench [--summary PATH] [--min-eval-speedup X]
//! ```
//!
//! Builds the word-LM and char-LM width-symbolic families (the two with the
//! deepest unrolls), computes their interned stats, and binds three sweep
//! widths each — first **cold** (empty caches warm up) and then **warm**
//! (an identical pass that should run almost entirely out of the interner
//! and memo caches). For each pass it reports the intern hit rate, the
//! op-memo hit rate, heap allocations (counted by a wrapping global
//! allocator), and wall time. `--summary PATH` writes the numbers as JSON
//! (see `BENCH_symath.json`).
//!
//! The warm pass is the number that matters: a healthy interner re-answers
//! a repeated family build with a near-1.0 intern hit rate and near-zero
//! fresh table growth.
//!
//! A third section times **evaluation only**: the nine bound stats roots of
//! each family priced across a 64-point subbatch grid, once point by point
//! ([`InternedGraphStats::eval`], a one-point grid per call) and once as one
//! grid per rep ([`symath::batch_program`] + `eval_grid`). Both produce
//! bit-identical values; the section reports the wall-time ratio and the
//! `symath` batch counters.
//!
//! [`InternedGraphStats::eval`]: cgraph::InternedGraphStats::eval

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use modelzoo::{Domain, ModelConfig, BATCH_SYM};
use serve::flags::Flags;
use serve::json::Json;
use symath::{batch_program, batch_stats, intern_stats, Bindings};

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: symbench [--summary PATH] [--min-eval-speedup X]
  --summary           write a JSON summary to this path
  --min-eval-speedup  fail unless grid eval beats per-point eval by X (default 1)";

/// The three sweep sizes bound per family (spanning the Figure 7–10 range).
const TARGETS: [u64; 3] = [1_000_000, 100_000_000, 1_000_000_000];

struct Pass {
    label: &'static str,
    ms: f64,
    allocations: u64,
    intern_hits: u64,
    intern_misses: u64,
    intern_hit_rate: f64,
    memo_hits: u64,
    memo_misses: u64,
    memo_hit_rate: f64,
    table_growth: u64,
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// One family workload: symbolic training build, interned stats, and three
/// width-bound evaluations — the exact shape of a sweep engine miss.
fn family_workload(domain: Domain) -> f64 {
    let base = ModelConfig::default_for(domain);
    let fam = base.build_family_training();
    let stats = fam.graph.stats_interned();
    let mut acc = 0.0;
    for target in TARGETS {
        let cfg = base.with_target_params(target);
        let widths = cfg.family_widths();
        let bound = stats.bind_all(&widths);
        let bindings = fam.bindings_with_batch(domain.default_subbatch());
        let n = bound.eval(&bindings).expect("all symbols bound");
        acc += n.flops;
    }
    acc
}

fn measure(label: &'static str, domains: &[Domain]) -> Pass {
    let before = intern_stats();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut sink = 0.0;
    for &domain in domains {
        sink += family_workload(domain);
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(sink);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let after = intern_stats();
    Pass {
        label,
        ms,
        allocations,
        intern_hits: after.intern_hits - before.intern_hits,
        intern_misses: after.intern_misses - before.intern_misses,
        intern_hit_rate: rate(
            after.intern_hits - before.intern_hits,
            after.intern_misses - before.intern_misses,
        ),
        memo_hits: after.memo_hits - before.memo_hits,
        memo_misses: after.memo_misses - before.memo_misses,
        memo_hit_rate: rate(
            after.memo_hits - before.memo_hits,
            after.memo_misses - before.memo_misses,
        ),
        table_growth: after.table_len - before.table_len,
    }
}

/// Subbatch grid the eval-only section prices (64 points).
const EVAL_GRID: std::ops::RangeInclusive<u64> = 1..=64;

/// Repetitions of the eval-only passes (each is microseconds on its own).
const EVAL_REPS: usize = 200;

struct EvalOnly {
    roots: usize,
    grid_points: usize,
    reps: usize,
    per_point_ms: f64,
    batched_ms: f64,
    identical: bool,
}

/// Price each family's nine bound stats roots across the subbatch grid,
/// point by point vs one batched grid evaluation per rep.
fn eval_only(domains: &[Domain]) -> EvalOnly {
    let mut per_point_ms = 0.0;
    let mut batched_ms = 0.0;
    let mut roots_total = 0;
    let mut identical = true;
    let points: Vec<Bindings> = EVAL_GRID
        .map(|b| Bindings::new().with(BATCH_SYM, b as f64))
        .collect();
    for &domain in domains {
        let base = ModelConfig::default_for(domain);
        let fam = base.build_family_training();
        let stats = fam.graph.stats_interned();
        let bound = stats.bind_all(&base.with_target_params(100_000_000).family_widths());
        let roots = [
            bound.flops,
            bound.flops_forward,
            bound.flops_backward,
            bound.flops_update,
            bound.bytes,
            bound.bytes_read,
            bound.bytes_written,
            bound.params,
            bound.io,
        ];
        roots_total += roots.len();
        // Warm the program cache so the timings compare evaluation only.
        let per_point_ref: Vec<_> = points.iter().map(|p| bound.eval(p).unwrap()).collect();
        let prog = batch_program(&roots);
        let grid = prog.eval_grid(&points).unwrap();
        for (p, n) in per_point_ref.iter().enumerate() {
            identical &= grid[0][p] == Ok(n.flops) && grid[7][p] == Ok(n.params);
        }

        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..EVAL_REPS {
            for p in &points {
                let n = bound.eval(p).unwrap();
                sink += n.flops + n.params;
            }
        }
        per_point_ms += start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(sink);

        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..EVAL_REPS {
            let g = prog.eval_grid(&points).unwrap();
            sink += g[0][0].as_ref().unwrap() + g[7][points.len() - 1].as_ref().unwrap();
        }
        batched_ms += start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(sink);
    }
    EvalOnly {
        roots: roots_total,
        grid_points: points.len(),
        reps: EVAL_REPS,
        per_point_ms,
        batched_ms,
        identical,
    }
}

fn pass_json(p: &Pass) -> Json {
    Json::obj()
        .set("ms", p.ms)
        .set("allocations", p.allocations)
        .set("intern_hits", p.intern_hits)
        .set("intern_misses", p.intern_misses)
        .set("intern_hit_rate", p.intern_hit_rate)
        .set("memo_hits", p.memo_hits)
        .set("memo_misses", p.memo_misses)
        .set("memo_hit_rate", p.memo_hit_rate)
        .set("table_growth", p.table_growth)
}

fn main() -> ExitCode {
    let flags = Flags::from_env();
    if flags.switch("--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (summary_path, min_eval_speedup) = match (|| -> Result<_, String> {
        flags.check_known(&["--summary", "--min-eval-speedup", "--help"])?;
        Ok((
            flags.get::<String>("--summary")?,
            flags.get::<f64>("--min-eval-speedup")?.unwrap_or(1.0),
        ))
    })() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("symbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let domains = [Domain::WordLm, Domain::CharLm];
    let cold = measure("cold", &domains);
    let warm = measure("warm", &domains);

    println!("pass    ms        allocs   intern-hit  memo-hit  table-growth");
    for p in [&cold, &warm] {
        println!(
            "{:<6} {:>9.1} {:>9} {:>10.3} {:>9.3} {:>13}",
            p.label, p.ms, p.allocations, p.intern_hit_rate, p.memo_hit_rate, p.table_growth
        );
    }

    let evals = eval_only(&domains);
    let eval_speedup = evals.per_point_ms / evals.batched_ms;
    let bstats = batch_stats();
    println!(
        "\neval-only ({} roots x {} points x {} reps): per-point {:.1} ms  batched {:.1} ms  \
         speedup {:.1}x  identical {}",
        evals.roots,
        evals.grid_points,
        evals.reps,
        evals.per_point_ms,
        evals.batched_ms,
        eval_speedup,
        evals.identical
    );
    println!(
        "batch VM: {} programs compiled, {} cache hits, {} instrs, {} regs, {} cse reuses, \
         {} evals over {} points",
        bstats.programs_compiled,
        bstats.program_cache_hits,
        bstats.instructions,
        bstats.registers,
        bstats.cse_reuses,
        bstats.evals,
        bstats.points
    );

    // A warm identical workload must be answered by the caches, grid
    // evaluation must agree with per-point evaluation bit-for-bit, and —
    // under `--min-eval-speedup` — one grid evaluation must beat pricing
    // the same points one by one by the required factor.
    let healthy = warm.intern_hit_rate > 0.99
        && warm.table_growth == 0
        && evals.identical
        && eval_speedup >= min_eval_speedup;
    if !healthy {
        eprintln!(
            "symbench: FAIL — warm pass missed the caches (intern hit rate {:.3}, table growth {}), \
             grid eval diverged from per-point (identical {}), or batched eval speedup {:.1}x fell below the \
             required {:.1}x",
            warm.intern_hit_rate, warm.table_growth, evals.identical, eval_speedup, min_eval_speedup
        );
    }

    if let Some(path) = summary_path {
        let total = intern_stats();
        let doc = Json::obj()
            .set(
                "workload",
                "wordlm+charlm family build, 3 widths bound each",
            )
            .set("cold", pass_json(&cold))
            .set("warm", pass_json(&warm))
            .set("warm_cache_healthy", healthy)
            .set(
                "eval_only",
                Json::obj()
                    .set("roots", evals.roots)
                    .set("grid_points", evals.grid_points)
                    .set("reps", evals.reps)
                    .set("per_point_ms", evals.per_point_ms)
                    .set("batched_ms", evals.batched_ms)
                    .set("speedup_batched_vs_per_point", eval_speedup)
                    .set("min_speedup_required", min_eval_speedup)
                    .set("bit_identical", evals.identical),
            )
            .set(
                "batch_vm",
                Json::obj()
                    .set("programs_compiled", bstats.programs_compiled)
                    .set("program_cache_hits", bstats.program_cache_hits)
                    .set("instructions", bstats.instructions)
                    .set("registers", bstats.registers)
                    .set("cse_reuses", bstats.cse_reuses)
                    .set("evals", bstats.evals)
                    .set("points", bstats.points),
            )
            .set("table_len", total.table_len)
            .set("programs_compiled", total.programs_compiled);
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("symbench: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("summary written to {path}");
    }

    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
