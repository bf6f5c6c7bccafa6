//! The seeded op streams: reproducible, never-repeating where the workload
//! says so, and the serve-hot priming actually makes every op a hit.

use std::collections::HashSet;

use perfbench::gen::{fresh_stream, hot_stream, sweep_jobs, HOT_TARGETS};
use perfbench::serve::run_hot;
use perfbench::tracer::Tracer;

#[test]
fn same_seed_gives_the_same_op_streams() {
    assert_eq!(sweep_jobs(7), sweep_jobs(7));
    assert_eq!(fresh_stream(7, 64, 256), fresh_stream(7, 64, 256));
    assert_eq!(hot_stream(7, 100), hot_stream(7, 100));
    assert_ne!(fresh_stream(7, 64, 256), fresh_stream(8, 64, 256));
    assert_ne!(hot_stream(7, 100), hot_stream(8, 100));
}

#[test]
fn sweep_grid_is_the_45_point_figure_grid_in_any_seed_order() {
    let jobs = sweep_jobs(3);
    assert_eq!(jobs.len(), 45);
    let mut a: Vec<String> = jobs.iter().map(|j| format!("{j:?}")).collect();
    let mut b: Vec<String> = sweep_jobs(4).iter().map(|j| format!("{j:?}")).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn serve_fresh_never_repeats_a_target_or_a_context() {
    for seed in 0..4 {
        let (warm, ops) = fresh_stream(seed, 1024, 20_000);
        assert_eq!((warm.len(), ops.len()), (1024, 20_000));
        let all: Vec<_> = warm.iter().chain(&ops).collect();
        let contexts: HashSet<u64> = all.iter().map(|t| t.context).collect();
        let targets: HashSet<String> = all.iter().map(|t| t.target()).collect();
        assert_eq!(contexts.len(), all.len(), "seed {seed} repeats a context");
        assert_eq!(targets.len(), all.len(), "seed {seed} repeats a target");
        assert!(all.iter().all(|t| t.prompt < t.context));
    }
}

#[test]
fn serve_hot_gives_every_target_the_same_share() {
    let rounds = 5;
    let stream = hot_stream(11, rounds * HOT_TARGETS.len());
    for i in 0..HOT_TARGETS.len() {
        assert_eq!(stream.iter().filter(|&&j| j == i).count(), rounds);
    }
}

#[test]
fn serve_hot_after_priming_hits_the_bytes_cache_every_time() {
    let out = run_hot(5, 40, None, || {});
    assert_eq!(out.failed, 0);
    let hit_share = out
        .metrics
        .iter()
        .find(|m| m.name == "serve.bytes_cache_hit_share")
        .map(|m| m.value);
    assert_eq!(hit_share, Some(1.0));
}

#[test]
fn traced_serve_hot_returns_the_untraced_bytes() {
    let untraced = run_hot(9, 30, None, || {});
    let mut tracer = Tracer::default();
    let traced = run_hot(9, 30, Some(&mut tracer), || {});
    assert_eq!((untraced.failed, traced.failed), (0, 0));
    assert_eq!(untraced.digest, traced.digest);
    assert!(tracer.mean_self_us("serve.transport") > 0.0);
}

#[test]
fn self_time_excludes_child_spans() {
    let mut t = Tracer::default();
    t.span("parent", |t| {
        t.span("child", |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
    });
    assert!(t.mean_us("parent") >= t.mean_us("child"));
    assert!(t.mean_self_us("parent") < t.mean_us("child"));
}
