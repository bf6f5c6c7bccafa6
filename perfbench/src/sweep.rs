//! `sweep-warm`: re-price the 45-point Figure 7–10 grid on a warm
//! [`FamilyEngine`] through `characterize_many`. Set-up is the cold family
//! build; each op is one whole-grid re-price.
//!
//! The traced run also replays each op layer by layer from public calls —
//! `batch_program`, `BatchProgram::eval_grid` and `footprint_with_plan`
//! once per heuristic — over a replica of the engine's family build
//! (`build_family_training`, `stats_interned`, `FootprintPlan::new`,
//! `bind_all`), and checks the replay returns exactly the engine's points.

use std::collections::HashMap;
use std::time::Instant;

use analysis::{CharacterizationPoint, FamilyEngine};
use cgraph::{footprint_with_plan, FootprintPlan, InPlacePolicy, InternedGraphStats, Scheduler};
use modelzoo::{ModelConfig, BATCH_SYM};
use symath::{batch_program, intern_stats, Bindings, ExprId};

use crate::stats::{peak_rss_mb, Digest};
use crate::tracer::Tracer;
use crate::{gen, interner_growth, Metric, Outcome, Pacer, Workload};

/// Grid points checked against the brute-force `analysis::characterize`.
const BRUTE_SAMPLE: usize = 3;

/// The engine's family build, redone from public calls.
struct Family {
    stats: InternedGraphStats,
    uniq_elems: Vec<ExprId>,
    elem_slot: Vec<(u32, u64)>,
    plan: FootprintPlan,
    seq_len: u64,
}

/// The engine's per-configuration instance, redone from public calls.
struct Instance {
    family: usize,
    stats: InternedGraphStats,
    uniq_elems: Vec<ExprId>,
}

/// Layer-by-layer replica of `FamilyEngine` for the grid's jobs.
struct Replica {
    families: Vec<Family>,
    instances: Vec<Instance>,
}

impl Replica {
    fn build(jobs: &[(ModelConfig, u64)], t: &mut Tracer) -> Replica {
        let mut families = Vec::new();
        let mut family_of: HashMap<String, usize> = HashMap::new();
        let mut instances = Vec::with_capacity(jobs.len());
        for (cfg, _) in jobs {
            let fam = *family_of.entry(cfg.family_key()).or_insert_with(|| {
                families.push(Family::build(cfg, t));
                families.len() - 1
            });
            let widths = cfg.family_widths();
            let f = &families[fam];
            let (stats, uniq_elems) = t.span("symath.bind", |_| {
                let stats = f.stats.bind_all(&widths);
                let uniq: Vec<ExprId> = f.uniq_elems.iter().map(|e| e.bind_all(&widths)).collect();
                (stats, uniq)
            });
            instances.push(Instance {
                family: fam,
                stats,
                uniq_elems,
            });
        }
        Replica {
            families,
            instances,
        }
    }

    /// One grid re-price, layer by layer. Also returns the ops simulated
    /// and the points where the greedy peak beat program order.
    fn characterize(
        &self,
        jobs: &[(ModelConfig, u64)],
        t: &mut Tracer,
    ) -> (Vec<CharacterizationPoint>, u64, u64) {
        let mut sim_ops = 0u64;
        let mut greedy_wins = 0u64;
        let points = jobs
            .iter()
            .zip(&self.instances)
            .map(|((_, subbatch), inst)| {
                let fam = &self.families[inst.family];
                let mut roots = vec![inst.stats.params, inst.stats.flops, inst.stats.bytes];
                roots.extend_from_slice(&inst.uniq_elems);
                let prog = t.span("symath.batch_compile", |_| batch_program(&roots));
                let at = [Bindings::new().with(BATCH_SYM, *subbatch as f64)];
                let grid = t.span("symath.eval_grid", |_| prog.eval_grid(&at));
                let grid = grid.expect("grid is non-empty");
                let val = |r: usize| *grid[r][0].as_ref().expect("all symbols bound");
                let uniq: Vec<u64> = (0..inst.uniq_elems.len())
                    .map(|j| val(3 + j).round().max(0.0) as u64)
                    .collect();
                let sizes: Vec<u64> = fam
                    .elem_slot
                    .iter()
                    .map(|&(slot, db)| uniq[slot as usize] * db)
                    .collect();
                let program = t.span("cgraph.footprint_program_order", |_| {
                    footprint_with_plan(
                        &fam.plan,
                        &sizes,
                        Scheduler::ProgramOrder,
                        InPlacePolicy::Never,
                    )
                });
                let greedy = t.span("cgraph.footprint_greedy", |_| {
                    footprint_with_plan(
                        &fam.plan,
                        &sizes,
                        Scheduler::GreedyMinPeak,
                        InPlacePolicy::Never,
                    )
                });
                sim_ops += 2 * fam.plan.ops() as u64;
                greedy_wins += u64::from(greedy.peak_bytes < program.peak_bytes);
                let (params, flops, bytes) = (val(0), val(1), val(2));
                CharacterizationPoint {
                    params,
                    subbatch: *subbatch,
                    flops_per_step: flops,
                    flops_per_sample: flops / *subbatch as f64,
                    bytes_per_step: bytes,
                    op_intensity: flops / bytes,
                    footprint_bytes: greedy.peak_bytes.min(program.peak_bytes) as f64,
                    seq_len: fam.seq_len,
                }
            })
            .collect();
        (points, sim_ops, greedy_wins)
    }
}

impl Family {
    fn build(cfg: &ModelConfig, t: &mut Tracer) -> Family {
        let model = t.span("modelzoo.build_family", |_| cfg.build_family_training());
        let stats = t.span("cgraph.stats_interned", |_| model.graph.stats_interned());
        let mut uniq_elems: Vec<ExprId> = Vec::new();
        let mut slot_of: HashMap<ExprId, u32> = HashMap::new();
        let elem_slot = model
            .graph
            .tensors()
            .iter()
            .map(|tensor| {
                let e = tensor.shape.elements_id();
                let slot = *slot_of.entry(e).or_insert_with(|| {
                    uniq_elems.push(e);
                    (uniq_elems.len() - 1) as u32
                });
                (slot, tensor.dtype.size_bytes())
            })
            .collect();
        let plan = t.span("cgraph.footprint_plan", |_| {
            FootprintPlan::new(&model.graph)
        });
        Family {
            stats,
            uniq_elems,
            elem_slot,
            plan,
            seq_len: model.seq_len,
        }
    }
}

fn digest_points(d: &mut Digest, points: &[CharacterizationPoint]) {
    for p in points {
        d.add(format!("{p:?}").as_bytes());
    }
}

/// Run `ops` grid re-prices. `ready` is called once set-up is done, right
/// before the first timed op.
pub fn run(
    seed: u64,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
    ready: impl FnOnce(),
) -> Outcome {
    let jobs = gen::sweep_jobs(seed);
    let replica = tracer.as_deref_mut().map(|t| Replica::build(&jobs, t));
    let engine = FamilyEngine::new();
    // The cold call builds every family and instance.
    let reference = engine.characterize_many(&jobs);
    ready();

    let before = intern_stats();
    let mut lat_us = Vec::with_capacity(ops);
    let mut pacer = Pacer::new(Workload::SweepWarm, ops);
    let mut failed = 0u64;
    let mut digest = Digest::default();
    let (mut sim_ops, mut greedy_wins) = (0u64, 0u64);
    for op in 0..ops {
        pacer.before(op);
        let start = Instant::now();
        let points = match (tracer.as_deref_mut(), &replica) {
            (Some(t), Some(replica)) => {
                t.set_op(op as u64);
                t.span("op", |t| {
                    let public = t.span("analysis.characterize_many", |_| {
                        engine.characterize_many(&jobs)
                    });
                    let (replayed, o, w) = replica.characterize(&jobs, t);
                    sim_ops += o;
                    greedy_wins += w;
                    failed += u64::from(replayed != public);
                    public
                })
            }
            _ => engine.characterize_many(&jobs),
        };
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(points != reference);
        digest_points(&mut digest, &points);
    }
    let rss_mb = peak_rss_mb();
    let after = intern_stats();

    let sample = gen::sample_indices(seed, jobs.len(), BRUTE_SAMPLE);
    for &i in &sample {
        let (cfg, subbatch) = &jobs[i];
        failed += u64::from(analysis::characterize(cfg, *subbatch) != reference[i]);
    }

    let mut metrics = interner_growth(&before, &after);
    if let Some(t) = tracer {
        let n = ops.max(1) as f64;
        let points = (ops * jobs.len()).max(1) as f64;
        let public = t.mean_us("analysis.characterize_many");
        // The replayed layers of one op: the public call's children.
        let children: f64 = [
            "symath.batch_compile",
            "symath.eval_grid",
            "cgraph.footprint_program_order",
            "cgraph.footprint_greedy",
        ]
        .iter()
        .map(|name| t.mean_self_us(name) * jobs.len() as f64)
        .sum();
        metrics.extend([
            Metric::new("analysis.characterize_many_us", public, "us"),
            Metric::new("analysis.self_us", public - children, "us"),
            Metric::new("cgraph.footprint_ops", sim_ops as f64 / n, "count"),
            Metric::new(
                "cgraph.greedy_win_share",
                greedy_wins as f64 / points,
                "share",
            ),
        ]);
    }
    Outcome {
        lat_us,
        rss_mb,
        attempted: (ops + sample.len()) as u64,
        failed,
        digest: digest.value(),
        metrics,
    }
}
