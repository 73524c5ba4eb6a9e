//! Soundness properties of the static plan analyzer
//! ([`coma::core::PlanAnalyzer`]): across seeded generated workloads and
//! engine configurations, every definite (`Yes`/`No`) prediction the
//! pre-execution analysis makes must agree with what the engine then
//! actually does —
//!
//! * a stage predicted sparse executes with CSR storage (and one
//!   predicted dense stays dense),
//! * a stage predicted fusable lands with `StageOutcome::fused == true`
//!   (and a predicted-unfusable one materializes),
//! * the measured peak allocation of the execution (counting global
//!   allocator, the same instrument the perf gate uses) never exceeds
//!   the predicted `peak_bytes` upper bound.
//!
//! `Maybe` predictions are vacuously compatible — the lattice exists so
//! the analyzer can decline to guess — so these tests also assert the
//! canonical plans produce *definite* predictions where the engine's
//! decision is statically known.

use coma::core::plans::{
    candidate_index_plan, fused_filter_plan, liberal_name_stage, topk_pruned_plan,
};
use coma::core::{
    schema_fingerprint, Coma, CombinationStrategy, EngineCache, EngineConfig, MatchContext,
    MatchPlan, MatchStrategy, PairMask, PlanAnalyzer, PlanEngine, Selection, TaskStats, TopKPer,
    Tri,
};
use coma::eval::{Corpus, TASKS};
use coma::graph::{PathSet, Schema};
use coma_bench::alloc_track::{measure_peak, CountingAllocator};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};

/// Register the counting allocator so [`measure_peak`] reports real
/// numbers (without it every window reads 0 and the peak-bound property
/// would pass vacuously).
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `measure_peak` windows must not overlap across threads, and the test
/// harness runs sibling `#[test]`s concurrently — every test holding a
/// window takes this lock first.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One analyzed-then-executed configuration point.
struct Executed {
    analysis: coma::core::PlanAnalysis,
    outcome: coma::core::PlanOutcome,
    measured_peak: usize,
}

/// Analyzes `plan` for the workload, executes it under `cfg`, and
/// returns both sides plus the measured peak of the execution window.
/// The context, path sets and analysis are built *outside* the
/// measurement window: the predicted bound covers one plan execution,
/// not task preparation.
fn analyze_and_execute(spec: &WorkloadSpec, plan: &MatchPlan, cfg: EngineConfig) -> Executed {
    let (source, target) = generate_task(spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).expect("generated schema is well-formed");
    let target_paths = PathSet::new(&target).expect("generated schema is well-formed");
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    let analysis = PlanAnalyzer::new(coma.library(), cfg.clone()).analyze(plan, &stats);
    assert!(
        !analysis.has_errors(),
        "{}: canonical plan must analyze clean, got:\n{}",
        spec.label(),
        analysis.render()
    );
    let engine = PlanEngine::with_config(coma.library(), cfg);
    let (measured_peak, outcome) = measure_peak(|| engine.execute(&ctx, plan));
    let outcome = outcome.expect("canonical plan executes");
    Executed {
        analysis,
        outcome,
        measured_peak,
    }
}

/// Asserts every definite prediction against the executed stages and the
/// measured peak. Returns the stage labels seen, so callers can make
/// definiteness assertions on specific stages.
fn assert_sound(which: &str, run: &Executed) {
    for stage in &run.outcome.stages {
        let storage = run.analysis.storage_prediction(&stage.label);
        assert!(
            storage.agrees_with(stage.cube.all_sparse()),
            "{which}: stage `{}` predicted storage {storage:?} but all_sparse = {}",
            stage.label,
            stage.cube.all_sparse()
        );
        let fused = run.analysis.fused_prediction(&stage.label);
        assert!(
            fused.agrees_with(stage.fused),
            "{which}: stage `{}` predicted fused {fused:?} but fused = {}",
            stage.label,
            stage.fused
        );
    }
    assert!(
        (run.measured_peak as u64) <= run.analysis.peak_bytes,
        "{which}: measured peak {} exceeds predicted bound {}",
        run.measured_peak,
        run.analysis.peak_bytes
    );
}

/// The workload × configuration × plan sweep. One `#[test]` on purpose:
/// `measure_peak` windows must not overlap across threads, and the test
/// harness runs sibling tests concurrently.
#[test]
fn predictions_agree_with_execution_across_workloads_and_configs() {
    let _window = WINDOW.lock().unwrap();
    let specs = [
        WorkloadSpec::new(WorkloadShape::Star, 160, 11),
        WorkloadSpec::new(WorkloadShape::Deep, 200, 23),
        WorkloadSpec::new(WorkloadShape::Wide, 160, 37),
    ];
    let configs: [(&str, EngineConfig); 4] = [
        ("default", EngineConfig::default()),
        ("sharded", EngineConfig::default().with_shards(2)),
        ("serial", EngineConfig::default().with_parallel(false)),
        ("dense", EngineConfig::default().with_sparse(false)),
    ];
    let plans = [
        ("topk_pruned", topk_pruned_plan(5)),
        ("candidate_index", candidate_index_plan(5)),
        ("fused_filter", fused_filter_plan()),
    ];
    for spec in &specs {
        for (cfg_name, cfg) in &configs {
            for (plan_name, plan) in &plans {
                let which = format!("{}/{cfg_name}/{plan_name}", spec.label());
                let run = analyze_and_execute(spec, plan, cfg.clone());
                assert_sound(&which, &run);

                // Where the engine's decision is statically known the
                // analyzer must commit, not hide behind `Maybe`:
                // * under `with_sparse(false)` nothing stores sparse and
                //   nothing fuses — every materialized stage is a
                //   definite `No` on both axes;
                // * under any sparse config the two pruning plans'
                //   prune-over-Matchers stage is definitely fused.
                if *cfg_name == "dense" {
                    for stage in &run.outcome.stages {
                        assert_eq!(
                            run.analysis.storage_prediction(&stage.label),
                            Tri::No,
                            "{which}: stage `{}`",
                            stage.label
                        );
                        assert_eq!(
                            run.analysis.fused_prediction(&stage.label),
                            Tri::No,
                            "{which}: stage `{}`",
                            stage.label
                        );
                    }
                } else if *plan_name != "candidate_index" {
                    let fused_stage = run
                        .outcome
                        .stages
                        .iter()
                        .find(|s| s.fused)
                        .unwrap_or_else(|| panic!("{which}: no fused stage"));
                    assert_eq!(
                        run.analysis.fused_prediction(&fused_stage.label),
                        Tri::Yes,
                        "{which}"
                    );
                }
            }
        }
    }
}

/// The predicted peak bound stays sound when the measurement window
/// *includes* repeated executions — the bound is per execution, and
/// repeated runs free their buffers, so even N sequential executions
/// must stay under the single-execution bound plus nothing.
#[test]
fn peak_bound_covers_repeated_execution() {
    let _window = WINDOW.lock().unwrap();
    let spec = WorkloadSpec::new(WorkloadShape::Deep, 200, 5);
    let (source, target) = generate_task(&spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).unwrap();
    let target_paths = PathSet::new(&target).unwrap();
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    let plan = topk_pruned_plan(5);
    let analysis =
        PlanAnalyzer::new(coma.library(), EngineConfig::default()).analyze(&plan, &stats);
    let engine = PlanEngine::new(coma.library());
    for round in 0..3 {
        let (peak, outcome) = measure_peak(|| engine.execute(&ctx, &plan));
        outcome.unwrap();
        assert!(
            (peak as u64) <= analysis.peak_bytes,
            "round {round}: measured {} > predicted {}",
            peak,
            analysis.peak_bytes
        );
    }
}

/// Regression: the masked refine stage of a generated deep task reads
/// `TypeName` through its keyed distinct-profile table, so the whole
/// stage — every matcher, the keyed table, aggregation and selection —
/// peaks below a single dense `8 · m · n` matrix (a dense leaf table
/// alone would be exactly that).
#[test]
fn masked_refine_stage_peaks_below_one_dense_matrix() {
    let _window = WINDOW.lock().unwrap();
    let spec = WorkloadSpec::new(WorkloadShape::Deep, 2000, 3);
    let (source, target) = generate_task(&spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).unwrap();
    let target_paths = PathSet::new(&target).unwrap();
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux());
    let engine = PlanEngine::new(coma.library());
    let filter = liberal_name_stage().top_k(5, TopKPer::Both).unwrap();
    let survivors = engine.execute(&ctx, &filter).unwrap().result;
    let mask = PairMask::from_result(ctx.rows(), ctx.cols(), &survivors);
    let refine = MatchPlan::from(&MatchStrategy::paper_default());
    let restricted = ctx.with_restriction(&mask);
    let (peak, outcome) = measure_peak(|| engine.execute(&restricted, &refine));
    assert!(!outcome.unwrap().result.is_empty());
    let dense = 8 * ctx.rows() * ctx.cols();
    assert!(
        peak < dense,
        "{}: masked refine peaked at {peak} bytes, not below one dense matrix ({dense})",
        spec.label()
    );
}

/// A fused `TypeName`-only prune stage on a catalog task, where nearly
/// every (name, datatype) profile is distinct: each row shard builds the
/// keyed table of its own rows only, never the whole task's table (which
/// alone would be about one dense `8 · m · n` matrix). The execution
/// stays within the predicted bound, and with a fuse budget that admits
/// one shard in flight it peaks below one dense matrix.
#[test]
fn fused_typename_stage_on_catalog_task_peaks_below_one_dense_matrix() {
    let _window = WINDOW.lock().unwrap();
    let spec = WorkloadSpec::new(WorkloadShape::Catalog, 1200, 5);
    let mut liberal = CombinationStrategy::paper_default();
    liberal.selection = Selection::max_n(10).with_threshold(0.3);
    let plan = MatchPlan::matchers_with(["TypeName"], liberal)
        .top_k(5, TopKPer::Both)
        .unwrap();
    let one_in_flight = EngineConfig::default()
        .with_shards(8)
        .with_fuse_budget_bytes(1);
    let configs = [
        ("default", EngineConfig::default()),
        ("sharded", EngineConfig::default().with_shards(4)),
        ("one_in_flight", one_in_flight),
    ];
    for (cfg_name, cfg) in configs {
        let which = format!("{}/{cfg_name}/typename_topk", spec.label());
        let run = analyze_and_execute(&spec, &plan, cfg);
        assert!(
            run.outcome.stages.iter().any(|s| s.fused),
            "{which}: no fused stage"
        );
        assert_sound(&which, &run);
        if cfg_name == "one_in_flight" {
            let dense = 8 * run.analysis.stats.cells() as usize;
            assert!(
                run.measured_peak < dense,
                "{which}: peaked at {} bytes, not below one dense matrix ({dense})",
                run.measured_peak
            );
        }
    }
}

/// The flat paper-default `All` plan — `Name`, `NamePath` and `TypeName`
/// over one shared token table, plus the structural matchers — on
/// `star400` and on the corpus task with the most cells, through
/// `execute_cached` with a shared `EngineCache`: the cold execution
/// (which builds the token table) and the warm repeat both stay within
/// the predicted bound, which charges that table once.
#[test]
fn flat_paper_default_through_a_shared_cache_stays_within_bound() {
    let _window = WINDOW.lock().unwrap();
    let coma = Coma::new();
    let plan = MatchPlan::from(&MatchStrategy::paper_default());
    let star = generate_task(&WorkloadSpec::new(WorkloadShape::Star, 400, 42));
    let corpus = Corpus::load();
    let &(ci, cj) = TASKS
        .iter()
        .max_by_key(|&&(i, j)| corpus.path_set(i).len() * corpus.path_set(j).len())
        .unwrap();
    let tasks: [(&str, &Schema, &Schema); 2] = [
        ("star400", &star.0, &star.1),
        ("corpus", corpus.schema(ci), corpus.schema(cj)),
    ];
    for (label, source, target) in tasks {
        let source_paths = PathSet::new(source).unwrap();
        let target_paths = PathSet::new(target).unwrap();
        let ctx = MatchContext::new(source, target, &source_paths, &target_paths, coma.aux())
            .with_repository(coma.repository());
        let stats = TaskStats::gather(&ctx);
        let cache = std::sync::Arc::new(EngineCache::new());
        let analysis = PlanAnalyzer::new(coma.library(), EngineConfig::default())
            .analyze_with_cache(
                &plan,
                &stats,
                &cache,
                schema_fingerprint(source, &source_paths),
                schema_fingerprint(target, &target_paths),
            );
        let engine = PlanEngine::new(coma.library());
        for round in ["cold", "warm"] {
            let (peak, outcome) = measure_peak(|| engine.execute_cached(&ctx, &plan, &cache));
            assert!(!outcome.unwrap().result.is_empty(), "{label}/{round}");
            assert!(
                (peak as u64) <= analysis.peak_bytes,
                "{label}/{round}: measured peak {peak} exceeds predicted bound {}",
                analysis.peak_bytes
            );
        }
        assert_eq!(cache.stats().token_tables, 1, "{label}: one token table");
    }
}

/// Every materialized stage of a fresh execution (each `Matchers` leaf
/// and every `Filter`/`TopK`/`CandidateIndex` stage) reports exactly the
/// shard count the analyzer predicted for it — serial, forced to four
/// shards, and automatically sized on this machine. The plans cover a
/// leaf that is not row-shardable, a prune that cannot fuse over it, a
/// two-matcher leaf sharing the workers, a masked `TopK` and both a
/// leading and a masked `CandidateIndex`, plus the fused canonical plans.
#[test]
fn shard_predictions_equal_executed_shards() {
    let _window = WINDOW.lock().unwrap();
    let spec = WorkloadSpec::new(WorkloadShape::Deep, 400, 42);
    let (source, target) = generate_task(&spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).unwrap();
    let target_paths = PathSet::new(&target).unwrap();
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    assert!(
        stats.rows > 2 * 192,
        "automatic sizing must be able to shard"
    );
    let mut capped = CombinationStrategy::paper_default();
    capped.selection = Selection::max_n(5);
    let plans = [
        ("children", MatchPlan::matchers(["Children"])),
        (
            "children_topk",
            MatchPlan::matchers_with(["Children"], capped)
                .top_k(5, TopKPer::Both)
                .unwrap(),
        ),
        ("name_namepath", MatchPlan::matchers(["Name", "NamePath"])),
        ("candidate_index", candidate_index_plan(5)),
        (
            "masked_candidate_index",
            MatchPlan::seq(
                liberal_name_stage().top_k(5, TopKPer::Both).unwrap(),
                MatchPlan::candidate_index(1, 0.0).unwrap(),
            ),
        ),
        ("topk_pruned", topk_pruned_plan(5)),
        ("fused_filter", fused_filter_plan()),
    ];
    let configs = [
        ("serial", EngineConfig::default().with_parallel(false)),
        ("sharded", EngineConfig::default().with_shards(4)),
        ("default", EngineConfig::default()),
    ];
    for (cfg_name, cfg) in &configs {
        for (plan_name, plan) in &plans {
            let which = format!("{}/{cfg_name}/{plan_name}", spec.label());
            let analysis = PlanAnalyzer::new(coma.library(), cfg.clone()).analyze(plan, &stats);
            let outcome = PlanEngine::with_config(coma.library(), cfg.clone())
                .execute(&ctx, plan)
                .unwrap();
            for stage in &outcome.stages {
                let predicted: Vec<usize> = analysis
                    .nodes
                    .iter()
                    .filter(|f| f.label == stage.label && f.materialized != Tri::No)
                    .map(|f| f.shards_estimate)
                    .collect();
                assert!(
                    !predicted.is_empty(),
                    "{which}: no facts for `{}`",
                    stage.label
                );
                for shards in predicted {
                    assert_eq!(
                        shards, stage.shards,
                        "{which}: stage `{}` predicted {shards} shards, executed {}",
                        stage.label, stage.shards
                    );
                }
            }
        }
    }
}
