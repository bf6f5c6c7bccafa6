//! `perfbench` — run one workload and print its metrics.
//!
//! ```text
//! perfbench --workload <sweep-warm|serve-fresh|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! seeded ops untraced in a child process, then traced in this one, and
//! prints every per-layer metric plus the tracing overhead. The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits
//! nonzero when any output check failed. A traced run writes its spans
//! under `.bench_out/` in the working directory.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use perfbench::serve::SERVER_WORKERS;
use perfbench::stats::{beyond, median, percentile};
use perfbench::tracer::Tracer;
use perfbench::{chunk_len, Metric, Outcome, Workload, TAIL_QUANTILE};
use serve::json::Json;

const USAGE: &str = "usage: perfbench --workload <sweep-warm|serve-fresh|serve-hot> --seed <n> --seconds <s> --trace <0|1>";

/// Fresh processes timed from spawn to the first timed op; `setup_s` is
/// their median.
const SETUP_PROBES: usize = 9;
/// Rayon shim threads, pinned rather than read from the machine.
const RAYON_THREADS: &str = "1";
/// Where spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Per-layer metrics read off the spans: (metric, span, self time?).
/// Self time excludes child spans; `analysis.infer_characterize_us` is the
/// whole call, bind and eval included.
const SPAN_METRICS: [(&str, &str, bool); 19] = [
    ("modelzoo.build_family_us", "modelzoo.build_family", true),
    ("cgraph.stats_interned_us", "cgraph.stats_interned", true),
    ("cgraph.footprint_plan_us", "cgraph.footprint_plan", true),
    (
        "cgraph.footprint_program_order_us",
        "cgraph.footprint_program_order",
        true,
    ),
    (
        "cgraph.footprint_greedy_us",
        "cgraph.footprint_greedy",
        true,
    ),
    ("symath.bind_us", "symath.bind", true),
    ("symath.eval_point_us", "symath.eval_point", true),
    ("symath.batch_compile_us", "symath.batch_compile", true),
    ("symath.eval_grid_us", "symath.eval_grid", true),
    (
        "analysis.infer_characterize_us",
        "analysis.infer_characterize",
        false,
    ),
    ("serve.http_parse_us", "serve.http_parse", true),
    ("serve.query_parse_us", "serve.query_parse", true),
    ("frontier.querykey_us", "frontier.querykey", true),
    ("serve.bytes_cache_get_us", "serve.bytes_cache_get", true),
    (
        "serve.bytes_cache_insert_us",
        "serve.bytes_cache_insert",
        true,
    ),
    ("serve.memo_lookup_us", "serve.memo_lookup", true),
    ("serve.serialize_us", "serve.serialize", true),
    ("serve.dispatch_us", "serve.dispatch", true),
    ("serve.transport_us", "serve.transport", true),
];

/// Per-layer metrics the workload code computes, with their units. Every
/// per-layer metric is printed on every workload; one a workload's ops
/// never reach reads 0.
const COMPUTED_METRICS: [(&str, &str); 15] = [
    ("analysis.characterize_many_us", "us"),
    ("analysis.self_us", "us"),
    ("cgraph.footprint_ops", "count"),
    ("cgraph.greedy_win_share", "share"),
    ("symath.intern_table_len", "count"),
    ("symath.memo_entries", "count"),
    ("symath.programs_compiled", "count"),
    ("symath.batch_programs", "count"),
    ("serve.bytes_cache_hit_share", "share"),
    ("serve.memo_hit_share", "share"),
    ("serve.epoll_wakeups_per_op", "count/op"),
    ("trace.op_us", "us"),
    ("trace.untraced_op_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.spans_per_op", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
    no_setup_probes: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut setup_probe, mut no_setup_probes) = (false, false);
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            "--setup-probe" => setup_probe = true,
            "--no-setup-probes" => no_setup_probes = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setup_probe,
        no_setup_probes,
    })
}

fn base_args(a: &Args) -> Vec<String> {
    vec![
        "--workload".into(),
        a.workload.name().into(),
        "--seed".into(),
        a.seed.to_string(),
        "--seconds".into(),
        a.seconds.to_string(),
    ]
}

/// Spawn this program with `extra` args; return the child's stdout lines
/// and how long it took until the line `until` appeared (or it exited).
fn run_child(a: &Args, extra: &[&str], until: Option<&str>) -> Result<(Vec<String>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(base_args(a))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = Vec::new();
    let mut elapsed = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if elapsed.is_none() && until == Some(line.as_str()) {
            elapsed = Some(start.elapsed().as_secs_f64());
        }
        lines.push(line);
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let elapsed = elapsed.unwrap_or_else(|| start.elapsed().as_secs_f64());
    if !status.success() {
        return Err(format!("child {extra:?} exited with {status}"));
    }
    if until.is_some_and(|u| !lines.iter().any(|l| l == u)) {
        return Err(format!("child {extra:?} never reported {until:?}"));
    }
    Ok((lines, elapsed))
}

/// The commit being measured, when the working directory is a git
/// checkout (read from `.git` directly; no subprocess).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn env_json(a: &Args, ops: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let serve_workers = if a.workload.client_connections() == 0 {
        0
    } else {
        SERVER_WORKERS
    };
    Json::obj()
        .set("workload", a.workload.name())
        .set("seed", a.seed)
        .set("seconds", a.seconds)
        .set("trace", a.trace)
        .set("ops", ops)
        .set("nproc", nproc)
        .set(
            "rotated_cpus",
            Json::Arr(
                perfbench::allowed_cpus()
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        )
        .set("rayon_shim_threads", RAYON_THREADS)
        .set("server_workers", serve_workers)
        .set("client_connections", a.workload.client_connections())
        .set(
            "tail_percentile",
            format!("p{}", (TAIL_QUANTILE * 100.0).round()),
        )
        .set("git_rev", git_rev())
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The end-to-end metrics; `setup_s` only when set-up was probed.
///
/// The host this runs on changes speed for seconds at a time, by up to
/// 1.7×, and a run's median lands wherever the mix of fast and slow time
/// puts it. So `op_p50_us` and `ops_per_s` read only the fastest tenth
/// of the run's [`perfbench::CHUNKS`] chunks, ranked by chunk median: the
/// host's undisturbed speed. `op_tail_us` reads every op: the tail is what
/// a caller sees, slow episodes included.
fn end_to_end(setup: Option<&[f64]>, out: &Outcome) -> Vec<Metric> {
    let mut chunks: Vec<(f64, &[f64])> = out
        .lat_us
        .chunks(chunk_len(out.lat_us.len()))
        .map(|c| (median(c), c))
        .collect();
    chunks.sort_by(|x, y| x.0.total_cmp(&y.0));
    let fastest: Vec<&[f64]> = chunks
        .iter()
        .take(chunks.len().div_ceil(10))
        .map(|&(_, c)| c)
        .collect();
    let mut fast: Vec<f64> = fastest.concat();
    fast.sort_by(f64::total_cmp);
    let mut all = out.lat_us.clone();
    all.sort_by(f64::total_cmp);
    if beyond(all.len(), TAIL_QUANTILE) < 10 {
        eprintln!(
            "perfbench: fewer than 10 samples beyond p{} — raise --seconds",
            TAIL_QUANTILE * 100.0
        );
    }
    let rates: Vec<f64> = fastest
        .iter()
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e6))
        .collect();
    let setup = setup.map(|s| Metric::new("setup_s", median(s), "s"));
    setup
        .into_iter()
        .chain([
            Metric::new("op_p50_us", percentile(&fast, 0.5), "us"),
            Metric::new("op_tail_us", percentile(&all, TAIL_QUANTILE), "us"),
            Metric::new("ops_per_s", median(&rates), "1/s"),
            Metric::new("rss_mb", out.rss_mb, "MB"),
            Metric::new(
                "ok_share",
                1.0 - out.failed.min(out.attempted) as f64 / out.attempted.max(1) as f64,
                "share",
            ),
        ])
        .collect()
}

/// The untraced facts a `--trace 1` run compares itself against.
fn untraced_line(out: &Outcome) -> String {
    let counters = out
        .metrics
        .iter()
        .fold(Json::obj(), |acc, m| acc.set(m.name, m.value));
    let doc = Json::obj()
        .set("op_mean_us", mean(&out.lat_us))
        .set("digest", format!("{:016x}", out.digest))
        .set("counters", counters);
    format!("# untraced {}", doc.render())
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn run(a: &Args) -> Result<bool, String> {
    let ops = (a.seconds as f64 * a.workload.ops_per_second()).ceil() as usize;
    if a.setup_probe {
        a.workload.run(a.seed, ops, None, || {
            println!("ready");
            let _ = std::io::stdout().flush();
            std::process::exit(0);
        });
        return Err("set-up probe ran past its first op".into());
    }
    println!("# env {}", env_json(a, ops).render());
    let (metrics, attempted, failed) = if a.trace {
        traced(a, ops)?
    } else {
        let setup: Option<Vec<f64>> = if a.no_setup_probes {
            None
        } else {
            let probe = || run_child(a, &["--trace", "0", "--setup-probe"], Some("ready"));
            Some(
                (0..SETUP_PROBES)
                    .map(|_| probe().map(|r| r.1))
                    .collect::<Result<_, _>>()?,
            )
        };
        let out = a.workload.run(a.seed, ops, None, || {});
        println!("{}", untraced_line(&out));
        let metrics = end_to_end(setup.as_deref(), &out);
        (metrics, out.attempted, out.failed)
    };
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// `--trace 1`: the same seeded ops untraced in a child process (for the
/// counters and the overhead baseline), then traced here.
fn traced(a: &Args, ops: usize) -> Result<(Vec<Metric>, u64, u64), String> {
    let (lines, _) = run_child(a, &["--trace", "0", "--no-setup-probes"], None)?;
    let untraced = lines
        .iter()
        .find_map(|l| l.strip_prefix("# untraced "))
        .and_then(|l| Json::parse(l).ok())
        .ok_or("untraced child printed no summary")?;
    let mut tracer = Tracer::default();
    let out = a.workload.run(a.seed, ops, Some(&mut tracer), || {});
    let spans =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", a.workload.name(), a.seed));
    if let Err(e) = tracer.write_jsonl(&spans) {
        eprintln!("perfbench: could not write {}: {e}", spans.display());
    }

    let same_outputs =
        untraced.get("digest").and_then(Json::as_str) == Some(&format!("{:016x}", out.digest));
    if !same_outputs {
        eprintln!("perfbench: traced outputs differ from the untraced run's");
    }
    let untraced_mean = untraced
        .get("op_mean_us")
        .and_then(Json::as_f64)
        .ok_or("untraced summary lacks op_mean_us")?;
    let traced_mean = mean(&out.lat_us);
    let mut values: Vec<(&str, f64)> = vec![
        ("trace.op_us", traced_mean),
        ("trace.untraced_op_us", untraced_mean),
        ("trace.overhead_us", traced_mean - untraced_mean),
        (
            "trace.spans_per_op",
            tracer
                .spans()
                .iter()
                .filter(|s| s.op != perfbench::tracer::SETUP_OP)
                .count() as f64
                / ops.max(1) as f64,
        ),
    ];
    values.extend(out.metrics.iter().map(|m| (m.name, m.value)));
    // Counters come from the untraced run: the replay itself adds to them.
    if let Some(Json::Obj(fields)) = untraced.get("counters") {
        for (name, v) in fields {
            if let Some(v) = v.as_f64() {
                values.push((name.as_str(), v));
            }
        }
    }
    let lookup = |name: &str| {
        values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut metrics: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span, self_time)| {
            let v = if self_time {
                tracer.mean_self_us(span)
            } else {
                tracer.mean_us(span)
            };
            Metric::new(name, v, "us")
        })
        .collect();
    metrics.extend(
        COMPUTED_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, lookup(name), unit)),
    );
    // The digest comparison is one more check.
    let attempted = out.attempted + 1;
    let failed = out.failed + u64::from(!same_outputs);
    Ok((metrics, attempted, failed))
}

fn main() -> ExitCode {
    // Pinned before any parallel call: the rayon shim reads it per call.
    std::env::set_var("RAYON_SHIM_THREADS", RAYON_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
