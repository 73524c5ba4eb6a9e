//! Per-layer measurements of the traced runs.
//!
//! Layers are timed from outside, through their public functions: a
//! decomposed replay re-runs each task's plan stage by stage and matcher
//! by matcher, and checks that the pieces reproduce the one-call result.

use crate::batch::{materialize, Env, PlanKind, Task};
use crate::report::Report;
use crate::trace::Tracer;
use coma_bench::alloc_track;
use coma_core::cube::{SimCube, SimMatrix};
use coma_core::process::combine_cube_with_feedback;
use coma_core::{
    plans, schema_fingerprint, shard_ranges, CombinationStrategy, EngineConfig, MatchContext,
    MatchPlan, MatchResult, PairMask, PlanAnalyzer, PlanEngine, ReuseResolver, TaskStats, TopKPer,
    VocabIndex,
};
use coma_graph::PathSet;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Samples per metric name, reduced when the run ends.
#[derive(Debug, Default)]
pub struct Acc {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Stages the replay could not reproduce through public calls.
    pub unreproduced: BTreeSet<String>,
}

impl Acc {
    /// Adds one sample.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn values(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.values(name).iter().sum()
    }

    /// Mean of the samples (0 without samples).
    pub fn mean(&self, name: &str) -> f64 {
        let v = self.values(name);
        if v.is_empty() {
            0.0
        } else {
            self.sum(name) / v.len() as f64
        }
    }

    /// Largest sample (0 without samples).
    pub fn max(&self, name: &str) -> f64 {
        self.values(name).iter().copied().fold(0.0, f64::max)
    }

    /// Smallest sample (0 without samples).
    pub fn min(&self, name: &str) -> f64 {
        self.values(name)
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The matcher-time metric of a library matcher.
fn matcher_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "Name" => "matchers.Name_ms",
        "NamePath" => "matchers.NamePath_ms",
        "TypeName" => "matchers.TypeName_ms",
        "Children" => "matchers.Children_ms",
        "Leaves" => "matchers.Leaves_ms",
        _ => return None,
    })
}

/// Shards the engine would plan for an unrestricted compute over `rows`.
fn planned_shards(rows: usize, cfg: &EngineConfig) -> usize {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    workers.min(rows.div_ceil(cfg.min_shard_rows)).max(1)
}

/// Replays one `Matchers` leaf: every matcher's `compute` (and, for
/// unrestricted row-shardable ones, its `compute_rows` shards assembled
/// by `SimMatrix::from_row_shards`), then `combine_cube_with_feedback`.
fn replay_leaf(
    env: &Env,
    ctx: &MatchContext<'_>,
    names: &[String],
    combination: &CombinationStrategy,
    mask: Option<&PairMask>,
    cfg: &EngineConfig,
    acc: &mut Acc,
) -> MatchResult {
    let mut cube = SimCube::new();
    let (rows, cols) = (ctx.rows(), ctx.cols());
    for name in names {
        let matcher = env.lib.get(name).expect("plans name library matchers");
        let started = Instant::now();
        let slice = match mask {
            None => matcher.compute(ctx),
            Some(mask) => {
                let raw = matcher.compute(&ctx.with_restriction(mask));
                if cfg.sparse && mask.density() <= cfg.sparse_density_cutoff {
                    mask.masked_sparse(&raw)
                } else {
                    mask.masked_clone(&raw)
                }
            }
        };
        let single_ms = ms_since(started);
        if let Some(metric) = matcher_metric(name) {
            acc.add(metric, single_ms);
        }
        acc.add("matchers.compute_ms", single_ms);
        acc.add(
            "matchers.cells",
            mask.map_or((rows * cols) as f64, |m| m.allowed_count() as f64),
        );
        let shards = planned_shards(rows, cfg);
        if mask.is_none() && matcher.row_shardable() && shards > 1 {
            let ranges = shard_ranges(rows, shards);
            let sharded_start = Instant::now();
            let parts: Vec<(SimMatrix, f64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|r| {
                        let (r, m) = (r.clone(), &matcher);
                        scope.spawn(move || {
                            let t = Instant::now();
                            let part = m.compute_rows(ctx, r);
                            (part, ms_since(t))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread"))
                    .collect()
            });
            let shard_max = parts.iter().map(|p| p.1).fold(0.0, f64::max);
            let assemble_start = Instant::now();
            let assembled =
                SimMatrix::from_row_shards(cols, parts.into_iter().map(|p| p.0).collect());
            acc.add("cube.assemble_ms", ms_since(assemble_start));
            acc.add("cube.shard_max_ms", shard_max);
            acc.add("cube.single_shard_ms", single_ms);
            acc.add("cube.sharded_ms", ms_since(sharded_start));
            if assembled != slice {
                acc.unreproduced.insert(format!("{name} row shards"));
            }
        }
        cube.push(name.clone(), slice);
    }
    let started = Instant::now();
    let result = combine_cube_with_feedback(&cube, ctx, combination, &ctx.aux.feedback);
    acc.add("combine.ms", ms_since(started));
    result
}

/// The `Matchers` leaf under a plan node (through `TopK`/`Filter`).
fn leaf_of(plan: &MatchPlan) -> Option<(&[String], &CombinationStrategy)> {
    match plan {
        MatchPlan::Matchers {
            matchers,
            combination,
        } => Some((matchers, combination)),
        MatchPlan::TopK { input, .. } | MatchPlan::Filter { input, .. } => leaf_of(input),
        _ => None,
    }
}

fn pairs(result: &MatchResult) -> BTreeSet<(usize, usize)> {
    result
        .candidates
        .iter()
        .map(|c| (c.source.index(), c.target.index()))
        .collect()
}

/// Replays one task layer by layer into `acc`.
pub fn replay(env: &Env, task: &Task, cfg: &EngineConfig, acc: &mut Acc) -> Result<(), String> {
    let pair = materialize(&task.sides)?;
    let (s, t) = (&pair.0, &pair.1);
    let sp = PathSet::new(s).map_err(|e| e.to_string())?;
    let tp = PathSet::new(t).map_err(|e| e.to_string())?;
    let mut ctx = MatchContext::new(s, t, &sp, &tp, &env.aux);
    if let Some(repo) = &task.repo {
        ctx = ctx.with_repository(repo);
    }
    let (rows, cols) = (ctx.rows(), ctx.cols());
    let engine = PlanEngine::with_config(&env.lib, cfg.clone());
    let plan = task.plan.plan();

    let started = Instant::now();
    std::hint::black_box((schema_fingerprint(s, &sp), schema_fingerprint(t, &tp)));
    acc.add("graph.fingerprint_ms", ms_since(started));
    let started = Instant::now();
    for i in 0..rows {
        std::hint::black_box(coma_strings::tokenize(ctx.source_name(i)));
    }
    for j in 0..cols {
        std::hint::black_box(coma_strings::tokenize(ctx.target_name(j)));
    }
    acc.add("strings.tokenize_ms", ms_since(started));

    // The one-call execution, with its measured peak beside the
    // analyzer's predicted bound.
    let analysis =
        PlanAnalyzer::new(&env.lib, cfg.clone()).analyze(&plan, &TaskStats::gather(&ctx));
    let (peak, one_call) = alloc_track::measure_peak(|| engine.execute(&ctx, &plan));
    let one_call = one_call.map_err(|e| format!("{}: {e}", task.label))?;
    acc.add("engine.peak_mib", peak as f64 / (1u64 << 20) as f64);
    if peak > 0 {
        acc.add(
            "analyze.peak_headroom",
            analysis.peak_bytes as f64 / peak as f64,
        );
    }
    acc.add(
        "engine.shards",
        one_call.stages.iter().map(|s| s.shards).max().unwrap_or(1) as f64,
    );
    acc.add(
        "engine.fused_stages",
        one_call.stages.iter().filter(|s| s.fused).count() as f64,
    );
    if let Some(cube) = one_call.final_cube() {
        acc.add("cube.stored_entries", cube.stored_entries() as f64);
    }

    let reproduced = match (task.plan, &plan) {
        (
            PlanKind::Flat,
            MatchPlan::Matchers {
                matchers,
                combination,
            },
        ) => replay_leaf(env, &ctx, matchers, combination, None, cfg, acc) == one_call.result,
        (PlanKind::TopK | PlanKind::CandidateIndex, MatchPlan::Seq { filter, refine }) => {
            // The first stage on its own, then its survivors as the mask.
            let started = Instant::now();
            let first = engine.execute(&ctx, filter).map_err(|e| e.to_string())?;
            let mask = PairMask::from_result(rows, cols, &first.result);
            acc.add("engine.prefilter_ms", ms_since(started));
            acc.add(
                "engine.prefilter_density",
                mask.allowed_count() as f64 / (rows * cols).max(1) as f64,
            );
            // Its matcher leaf: unrestricted for TopK, restricted to the
            // index's retrieval for CandidateIndex. The TopK pruning and
            // the retrieval itself have no public entry point.
            let (names, combination) = leaf_of(match &**filter {
                MatchPlan::Seq { refine, .. } => refine,
                other => other,
            })
            .ok_or("first stage has a matcher leaf")?;
            if task.plan == PlanKind::CandidateIndex {
                acc.unreproduced
                    .insert("CandidateIndex retrieval (from StageOutcome counts)".into());
                let index_stage = &one_call.stages[0];
                let retrieved = PairMask::from_result(rows, cols, &index_stage.result);
                replay_leaf(env, &ctx, names, combination, Some(&retrieved), cfg, acc);
                replay_index(env, &ctx, &engine, index_stage, acc)?;
            } else {
                replay_leaf(env, &ctx, names, combination, None, cfg, acc);
            }
            acc.unreproduced
                .insert("TopK pruning (from StageOutcome counts)".into());
            // The refine stage on the survivors.
            let started = Instant::now();
            let restricted = ctx.with_restriction(&mask);
            let refined = engine
                .execute(&restricted, refine)
                .map_err(|e| e.to_string())?;
            acc.add("engine.refine_ms", ms_since(started));
            let (names, combination) = leaf_of(refine).ok_or("refine is a matcher leaf")?;
            let replayed = replay_leaf(env, &ctx, names, combination, Some(&mask), cfg, acc);
            refined.result == one_call.result && replayed == one_call.result
        }
        (PlanKind::Reuse, _) => {
            let repo = task.repo.as_ref().ok_or("reuse task has a repository")?;
            let started = Instant::now();
            let resolution = ReuseResolver::new(None, 3).resolve(repo, s.name(), t.name());
            acc.add("reuse.resolve_ms", ms_since(started));
            let paths = &resolution.stats.paths;
            acc.add("reuse.paths_found", paths.len() as f64);
            if let Some(min_hops) = paths.iter().map(|p| p.hops).min() {
                let accepted = paths.iter().filter(|p| p.hops == min_hops).count();
                acc.add(
                    "reuse.paths_accepted_ratio",
                    accepted as f64 / paths.len() as f64,
                );
            }
            let merged = one_call.stages[0].reuse_stats.as_ref();
            merged.map(|r| r.merged_correspondences)
                == Some(resolution.mapping.correspondences.len())
        }
        _ => false,
    };
    acc.add("engine.replay_reproduced", f64::from(u8::from(reproduced)));
    if !reproduced {
        acc.unreproduced
            .insert(format!("{} final result", task.label));
    }
    Ok(())
}

/// The candidate-index layer: both per-side `VocabIndex::build`s, and the
/// share of the exact budget-matched prefilter's pairs the retrieval
/// stage kept.
fn replay_index(
    env: &Env,
    ctx: &MatchContext<'_>,
    engine: &PlanEngine<'_>,
    index_stage: &coma_core::StageOutcome,
    acc: &mut Acc,
) -> Result<(), String> {
    let started = Instant::now();
    let source = VocabIndex::build((0..ctx.rows()).map(|i| ctx.source_name(i)), &env.aux, 3);
    let target = VocabIndex::build((0..ctx.cols()).map(|j| ctx.target_name(j)), &env.aux, 3);
    acc.add("index.build_ms", ms_since(started));
    acc.add(
        "index.postings",
        (source.token_posting_entries()
            + source.gram_posting_entries()
            + target.token_posting_entries()
            + target.gram_posting_entries()) as f64,
    );
    acc.add("index.retrieved_pairs", index_stage.result.len() as f64);
    let exact_stage = plans::liberal_name_stage()
        .top_k(5, TopKPer::Both)
        .map_err(|e| e.to_string())?;
    let exact = pairs(
        &engine
            .execute(ctx, &exact_stage)
            .map_err(|e| e.to_string())?
            .result,
    );
    let retrieved = pairs(&index_stage.result);
    if !exact.is_empty() {
        let kept = exact.intersection(&retrieved).count();
        acc.add("index.recall_vs_exact", kept as f64 / exact.len() as f64);
    }
    Ok(())
}

/// Reduces a batch workload's spans and replay samples into per-layer
/// metrics.
pub fn finish_batch(report: &mut Report, tracer: &Tracer, acc: Acc, tasks: &[Task]) {
    let totals = tracer.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    report.set("import.ms", mean("import"));
    if let Some(t) = totals.get("import") {
        let nodes: usize = tasks
            .iter()
            .filter_map(|t| materialize(&t.sides).ok())
            .map(|p| p.0.node_count() + p.1.node_count())
            .sum();
        // Every unit imports its task's two schemas.
        let nodes_per_unit = nodes as f64 / tasks.len().max(1) as f64;
        report.set(
            "import.nodes_per_ms",
            nodes_per_unit * t.count as f64 / (t.total_ns as f64 / 1e6),
        );
    }
    report.set("graph.pathset_ms", mean("graph.pathset"));
    report.set("analyze.ms", mean("analyze"));
    report.set("engine.execute_ms", mean("engine.execute"));
    for name in [
        "graph.fingerprint_ms",
        "strings.tokenize_ms",
        "engine.prefilter_ms",
        "engine.refine_ms",
        "engine.prefilter_density",
        "engine.shards",
        "engine.fused_stages",
        "engine.replay_reproduced",
        "cube.stored_entries",
        "cube.shard_max_ms",
        "cube.assemble_ms",
        "index.build_ms",
        "index.postings",
        "index.retrieved_pairs",
        "index.recall_vs_exact",
        "reuse.resolve_ms",
        "reuse.paths_found",
        "reuse.paths_accepted_ratio",
    ] {
        report.set(name, acc.mean(name));
    }
    let replayed = tasks.len().max(1) as f64;
    for name in [
        "matchers.Name_ms",
        "matchers.NamePath_ms",
        "matchers.TypeName_ms",
        "matchers.Children_ms",
        "matchers.Leaves_ms",
        "combine.ms",
    ] {
        report.set(name, acc.sum(name) / replayed);
    }
    let compute_s = acc.sum("matchers.compute_ms") / 1e3;
    if compute_s > 0.0 {
        report.set(
            "matchers.cells_per_s",
            acc.sum("matchers.cells") / compute_s,
        );
    }
    if acc.sum("cube.sharded_ms") > 0.0 {
        report.set(
            "cube.shard_speedup",
            acc.sum("cube.single_shard_ms") / acc.sum("cube.sharded_ms"),
        );
    }
    report.set("engine.peak_mib", acc.max("engine.peak_mib"));
    report.set("analyze.peak_headroom", acc.min("analyze.peak_headroom"));
    for stage in &acc.unreproduced {
        report.note(format!("replay: not reproduced by public calls: {stage}"));
    }
}
