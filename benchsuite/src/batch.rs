//! The batch workloads — `large-batch` and `paper-corpus` — run by one
//! caller, one match task at a time (closed loop).
//!
//! A *unit* is one match task: (import,) path unfolding, static
//! analysis and the one-call `PlanEngine::execute`. The timed window runs
//! whole passes over the workload's fixed task list, in a seeded order,
//! until `--seconds` have elapsed. Output checks run after it.

use crate::layers::{self, Acc};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{stats, Args};
use coma_bench::alloc_track;
use coma_bench::workload::{generate_task, SplitMix64, WorkloadShape, WorkloadSpec};
use coma_core::{
    plans, Auxiliary, ComposeCombine, EngineConfig, MatchContext, MatchPlan, MatchResult,
    MatchStrategy, MatcherLibrary, PlanAnalyzer, PlanEngine, PlanOutcome, TaskStats,
};
use coma_eval::{fresh_task_mappings, reuse_repository, Corpus, MatchQuality, SCHEMA_NAMES, TASKS};
use coma_graph::{PathSet, Schema};
use coma_repo::Repository;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// The plan a task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// `plans::topk_pruned_plan(5)`: liberal Name → TopK(5) → All refine.
    TopK,
    /// `plans::candidate_index_plan(5)`: index retrieval → rerank → refine.
    CandidateIndex,
    /// The flat paper-default strategy: one dense five-matcher stage.
    Flat,
    /// Leave-one-out reuse over the stored results of the other tasks.
    Reuse,
}

impl PlanKind {
    /// The executable plan.
    pub fn plan(self) -> MatchPlan {
        match self {
            PlanKind::TopK => plans::topk_pruned_plan(5),
            PlanKind::CandidateIndex => plans::candidate_index_plan(5),
            PlanKind::Flat => MatchPlan::from(&MatchStrategy::paper_default()),
            PlanKind::Reuse => {
                MatchPlan::reuse_chains(None, ComposeCombine::Average, 3).expect("max_hops >= 2")
            }
        }
    }

    /// A short label.
    pub fn label(self) -> &'static str {
        match self {
            PlanKind::TopK => "topk5",
            PlanKind::CandidateIndex => "cidx5",
            PlanKind::Flat => "flat",
            PlanKind::Reuse => "reuse",
        }
    }
}

/// Where a task's two schemas come from.
pub enum Sides {
    /// Generated in memory (no import on the unit's path).
    Generated(Rc<(Schema, Schema)>),
    /// Imported from XSD text by every unit: `(name, text)` per side.
    Xsd([(&'static str, &'static str); 2]),
}

/// One entry of a workload's task list.
pub struct Task {
    /// e.g. `deep5000/topk5`.
    pub label: String,
    /// The schemas.
    pub sides: Sides,
    /// The plan.
    pub plan: PlanKind,
    /// The repository a reuse task composes over.
    pub repo: Option<Rc<Repository>>,
    /// Gold correspondences by full path name, when known.
    pub gold: Option<Rc<BTreeSet<(String, String)>>>,
}

/// The shared, immutable matching environment (built during setup).
pub struct Env {
    /// The matcher library.
    pub lib: MatcherLibrary,
    /// The auxiliary tables.
    pub aux: Auxiliary,
}

impl Env {
    /// The standard library and auxiliary tables; with `purchase_order`,
    /// the corpus's purchase-order synonym table.
    pub fn build(purchase_order: bool) -> Env {
        let mut aux = Auxiliary::standard();
        if purchase_order {
            aux.synonyms = coma_core::matchers::synonym::SynonymTable::purchase_order();
        }
        Env {
            lib: MatcherLibrary::standard(),
            aux,
        }
    }
}

/// Fresh processes the batch set-up time is averaged over.
const SETUP_PROCESSES: usize = 9;

/// `setup-probe [po]`: prints the median time, in seconds, of 201
/// environment builds in this process.
pub fn setup_probe(argv: &[String]) -> std::process::ExitCode {
    let purchase_order = argv.first().map(String::as_str) == Some("po");
    println!("{}", median_secs(201, || Env::build(purchase_order)));
    std::process::ExitCode::SUCCESS
}

/// Batch set-up time: building the library and auxiliary tables takes
/// microseconds, and its timing differs between processes by more than
/// between repetitions in one, so it is the mean over several fresh
/// processes of each one's median build time.
fn probe_setup(purchase_order: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for _ in 0..SETUP_PROCESSES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("setup-probe");
        if purchase_order {
            cmd.arg("po");
        }
        let out = cmd.output().map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        total += text
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("setup probe printed {text:?}: {e}"))?;
    }
    Ok(total / SETUP_PROCESSES as f64)
}

/// What one unit produced.
pub struct UnitOut {
    /// Wall time of the unit, ms.
    pub ms: f64,
    /// Hash of the result's exact bits.
    pub hash: u64,
    /// F-measure against gold, when the task has gold.
    pub f1: Option<f64>,
    /// Pivot paths found, for reuse tasks.
    pub reuse_paths: Option<usize>,
}

/// FNV-1a over a result's candidates (indices and similarity bits): equal
/// hashes mean bit-identical results.
pub fn result_hash(result: &MatchResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(result.candidates.len() as u64);
    for c in &result.candidates {
        eat(c.source.index() as u64);
        eat(c.target.index() as u64);
        eat(c.similarity.to_bits());
    }
    h
}

/// The task's schemas, imported from text for XSD sides.
pub fn materialize(sides: &Sides) -> Result<Rc<(Schema, Schema)>, String> {
    match sides {
        Sides::Generated(pair) => Ok(Rc::clone(pair)),
        Sides::Xsd([(sn, st), (tn, tt)]) => {
            let s = coma_xml::import_xsd(st, sn).map_err(|e| format!("import {sn}: {e}"))?;
            let t = coma_xml::import_xsd(tt, tn).map_err(|e| format!("import {tn}: {e}"))?;
            Ok(Rc::new((s, t)))
        }
    }
}

/// Runs one unit under `cfg`, recording spans into `tracer`.
pub fn run_unit(
    env: &Env,
    task: &Task,
    cfg: &EngineConfig,
    tracer: &mut Tracer,
    unit: u64,
) -> Result<UnitOut, String> {
    let start = Instant::now();
    tracer.span("unit", unit, |tr| {
        let pair = match &task.sides {
            Sides::Generated(_) => materialize(&task.sides)?,
            Sides::Xsd(_) => tr.span("import", unit, |_| materialize(&task.sides))?,
        };
        let (s, t) = (&pair.0, &pair.1);
        let (sp, tp) = tr.span("graph.pathset", unit, |_| {
            (PathSet::new(s), PathSet::new(t))
        });
        let (sp, tp) = (
            sp.map_err(|e| e.to_string())?,
            tp.map_err(|e| e.to_string())?,
        );
        let mut ctx = MatchContext::new(s, t, &sp, &tp, &env.aux);
        if let Some(repo) = &task.repo {
            ctx = ctx.with_repository(repo);
        }
        let plan = task.plan.plan();
        let analysis = tr.span("analyze", unit, |_| {
            PlanAnalyzer::new(&env.lib, cfg.clone()).analyze(&plan, &TaskStats::gather(&ctx))
        });
        if analysis.has_errors() {
            return Err(format!("{}: plan analysis reported errors", task.label));
        }
        let outcome = tr.span("engine.execute", unit, |_| {
            PlanEngine::with_config(&env.lib, cfg.clone()).execute(&ctx, &plan)
        });
        let outcome = outcome.map_err(|e| format!("{}: {e}", task.label))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(UnitOut {
            ms,
            hash: result_hash(&outcome.result),
            f1: task.gold.as_ref().map(|g| f_measure(&ctx, &outcome, g)),
            reuse_paths: outcome
                .stages
                .last()
                .and_then(|s| s.reuse_stats.as_ref())
                .map(|r| r.paths.len()),
        })
    })
}

fn f_measure(
    ctx: &MatchContext<'_>,
    outcome: &PlanOutcome,
    gold: &BTreeSet<(String, String)>,
) -> f64 {
    let found: BTreeSet<(String, String)> = outcome
        .result
        .candidates
        .iter()
        .map(|c| {
            (
                ctx.source_full_name(c.source.index()),
                ctx.target_full_name(c.target.index()),
            )
        })
        .collect();
    MatchQuality::compare(gold, &found).f_measure()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// The `large-batch` task list: (shape, nodes, plans). Deep and catalog
/// pairs run under both staged plans.
const LARGE_BATCH: [(WorkloadShape, usize, &[PlanKind]); 5] = [
    (
        WorkloadShape::Deep,
        5000,
        &[PlanKind::TopK, PlanKind::CandidateIndex],
    ),
    (
        WorkloadShape::Catalog,
        3000,
        &[PlanKind::TopK, PlanKind::CandidateIndex],
    ),
    (WorkloadShape::Wide, 3000, &[PlanKind::TopK]),
    (WorkloadShape::Star, 2000, &[PlanKind::TopK]),
    (WorkloadShape::Star, 400, &[PlanKind::Flat]),
];

/// Generator seed of the `large-batch` schemas. The content is fixed and
/// the run seed orders the work: between generator seeds one task's time
/// moves by up to 70% on a 2-CPU machine (a wide task: 0.73 s or 1.26 s),
/// which changes which task sits at the median of the 21 samples.
const LARGE_BATCH_CONTENT_SEED: u64 = 2002;

fn large_batch_tasks(args: &Args) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (k, &(shape, nodes, plans)) in LARGE_BATCH.iter().enumerate() {
        let nodes = args.scaled(nodes);
        let spec = WorkloadSpec::new(shape, nodes, LARGE_BATCH_CONTENT_SEED + k as u64);
        let pair = Rc::new(generate_task(&spec));
        for &plan in plans {
            tasks.push(Task {
                label: format!("{}{}/{}", shape.label(), nodes, plan.label()),
                sides: Sides::Generated(Rc::clone(&pair)),
                plan,
                repo: None,
                gold: None,
            });
        }
    }
    tasks
}

/// The mean F-measure each corpus plan must reach (measured: the corpus
/// and the plans are deterministic). A result below its floor means the
/// change lost matches.
const CORPUS_F1_FLOORS: [(PlanKind, f64); 4] = [
    (PlanKind::Flat, 0.7233),
    (PlanKind::TopK, 0.7235),
    (PlanKind::CandidateIndex, 0.7215),
    (PlanKind::Reuse, 0.6981),
];

fn corpus_tasks(corpus: &Corpus) -> Vec<Task> {
    let mappings = fresh_task_mappings(corpus);
    let mut tasks = Vec::new();
    for &(i, j) in &TASKS {
        let gold = Rc::new(corpus.gold_names(i, j));
        let repo = Rc::new(reuse_repository(corpus, &mappings, (i, j)));
        for plan in [
            PlanKind::Flat,
            PlanKind::TopK,
            PlanKind::CandidateIndex,
            PlanKind::Reuse,
        ] {
            tasks.push(Task {
                label: format!("{}<->{}/{}", i + 1, j + 1, plan.label()),
                sides: Sides::Xsd([
                    (SCHEMA_NAMES[i], coma_eval::corpus::xsd_source(i)),
                    (SCHEMA_NAMES[j], coma_eval::corpus::xsd_source(j)),
                ]),
                plan,
                repo: (plan == PlanKind::Reuse).then(|| Rc::clone(&repo)),
                gold: Some(Rc::clone(&gold)),
            });
        }
    }
    tasks
}

/// Runs `large-batch` (`corpus == false`) or `paper-corpus`.
pub fn run(args: &Args, corpus: bool) -> Result<Report, String> {
    let mut report = Report::default();
    // Inputs (untimed): generated schema pairs, or the corpus with its
    // gold standard and the stored results reuse composes over.
    let loaded = corpus.then(Corpus::load);
    let mut tasks = match &loaded {
        Some(c) => corpus_tasks(c),
        None => large_batch_tasks(args),
    };
    if corpus && args.tiny {
        tasks.truncate(8);
    }
    let purchase_order = loaded.is_some();
    // Setup: the library and auxiliary tables, median of several builds.
    let setup_s = probe_setup(purchase_order)?;
    let env = Env::build(purchase_order);
    report.set("setup_s", setup_s);

    let cfg = EngineConfig::default();
    let mut rng = SplitMix64::new(args.seed ^ 0xB5AD_4ECE_DA1C_E2A9);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut latencies = Vec::new();
    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
    let mut first_hash: HashMap<usize, u64> = HashMap::new();
    let mut f1s: HashMap<usize, f64> = HashMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut unit = 0u64;
    let started = Instant::now();
    let (peak, passes) = alloc_track::measure_peak(|| {
        // Whole passes until the window has elapsed, and enough passes
        // that the tail percentile rule has 20 samples to work with.
        let min_passes = (20usize.div_ceil(tasks.len().max(1))) as u64;
        let mut passes = 0u64;
        while passes < min_passes || started.elapsed().as_secs_f64() < args.seconds {
            for t in shuffled(tasks.len(), &mut rng) {
                unit += 1;
                let out = match run_unit(&env, &tasks[t], &cfg, &mut tracer, unit) {
                    Ok(out) => out,
                    Err(e) => {
                        failures.push(e);
                        continue;
                    }
                };
                latencies.push(out.ms);
                per_task[t].push(out.ms);
                if *first_hash.entry(t).or_insert(out.hash) != out.hash {
                    failures.push(format!("{}: result differs between passes", tasks[t].label));
                } else if out.reuse_paths == Some(0) {
                    failures.push(format!("{}: no pivot path found", tasks[t].label));
                }
                if let Some(f) = out.f1 {
                    f1s.insert(t, f);
                }
            }
            passes += 1;
        }
        passes
    });
    let elapsed = started.elapsed().as_secs_f64();
    report.attempted = unit;
    for why in failures {
        report.fail_check(1, why);
    }
    set_latency_metrics(&mut report, &latencies, elapsed);
    report.set("peak_mem_mib", peak as f64 / (1u64 << 20) as f64);
    report.note(format!(
        "workload {} seed {}: {passes} passes over {} tasks, {} units in {elapsed:.2} s",
        args.workload,
        args.seed,
        tasks.len(),
        unit
    ));

    for (task, ms) in tasks.iter().zip(&per_task) {
        report.note(format!(
            "  {:<28} median {:>10.2} ms over {}",
            task.label,
            stats::median(ms),
            ms.len()
        ));
    }

    // Output checks, outside the timed window.
    if corpus {
        check_corpus_quality(&mut report, &tasks, &f1s, passes);
    } else {
        check_against_serial(&mut report, &env, &tasks, &first_hash, passes)?;
    }
    report.set("failed_ratio", report.failed as f64 / unit.max(1) as f64);
    report.note(format!(
        "sent {unit}, succeeded {}, failed {}",
        unit - report.failed.min(unit),
        report.failed
    ));

    if args.trace {
        let mut acc = Acc::default();
        for task in &tasks {
            layers::replay(&env, task, &cfg, &mut acc)?;
        }
        layers::finish_batch(&mut report, &tracer, acc, &tasks);
        report.set("traced.latency_p50_ms", stats::median(&latencies));
        report.set("traced.throughput_per_s", latencies.len() as f64 / elapsed);
        report.note(format!("{} spans recorded", tracer.spans().len()));
        crate::write_trace(args, &tracer);
    }
    Ok(report)
}

/// Sets `latency_p50_ms`, `latency_tail_ms` and `throughput_per_s`.
pub fn set_latency_metrics(report: &mut Report, latencies: &[f64], elapsed: f64) {
    report.set("latency_p50_ms", stats::median(latencies));
    if let Some(t) = stats::tail(latencies) {
        report.set("latency_tail_ms", t.value);
        report.note(format!(
            "latency_tail_ms is p{} of {} samples ({} beyond it)",
            t.percentile,
            latencies.len(),
            t.beyond
        ));
    }
    report.set("throughput_per_s", latencies.len() as f64 / elapsed);
}

/// `large-batch` check: every task's result is bit-identical to a serial,
/// unfused execution of the same task.
fn check_against_serial(
    report: &mut Report,
    env: &Env,
    tasks: &[Task],
    hashes: &HashMap<usize, u64>,
    passes: u64,
) -> Result<(), String> {
    let serial = EngineConfig::default()
        .with_parallel(false)
        .with_fuse_pruning(false);
    let mut off = Tracer::new(false, Instant::now());
    for (t, task) in tasks.iter().enumerate() {
        let reference = run_unit(env, task, &serial, &mut off, 0)?;
        if hashes.get(&t) != Some(&reference.hash) {
            report.fail_check(
                passes,
                format!(
                    "{}: result differs from serial unfused execution",
                    task.label
                ),
            );
        }
    }
    Ok(())
}

/// `paper-corpus` check: each plan's mean F-measure against gold reaches
/// its floor (reuse tasks already failed above if no pivot path existed).
fn check_corpus_quality(
    report: &mut Report,
    tasks: &[Task],
    f1s: &HashMap<usize, f64>,
    passes: u64,
) {
    let mut all = Vec::new();
    for (kind, floor) in CORPUS_F1_FLOORS {
        let fs: Vec<f64> = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.plan == kind)
            .filter_map(|(i, _)| f1s.get(&i).copied())
            .collect();
        if fs.is_empty() {
            continue;
        }
        let mean = fs.iter().sum::<f64>() / fs.len() as f64;
        report.note(format!(
            "quality: {} mean F {mean:.6} (floor {floor})",
            kind.label()
        ));
        if mean < floor && fs.len() == TASKS.len() {
            report.fail_check(
                fs.len() as u64 * passes,
                format!("{}: mean F {mean:.4} below floor {floor}", kind.label()),
            );
        }
        all.extend(fs);
    }
    report.set(
        "quality.f1",
        all.iter().sum::<f64>() / all.len().max(1) as f64,
    );
}
