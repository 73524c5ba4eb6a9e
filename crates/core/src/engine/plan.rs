//! The composable match-plan operator tree.
//!
//! A [`MatchPlan`] generalizes the flat [`MatchStrategy`] ("run these
//! matchers, combine once") into a tree of operators, the shape Peukert &
//! Rahm later formalized as rule-constructed matching processes:
//!
//! ```text
//! plan ::= Matchers(name, …; combination)          leaf fan-out
//!        | CandidateIndex(min_tok, min_score; q, cap)   inverted-index retrieval leaf
//!        | Seq(plan → plan)                        filter, then refine
//!        | Par(plan ∥ plan ∥ …; combination)       aggregate sub-plans
//!        | Filter(plan; direction, selection)      re-select mid-pipeline
//!        | TopK(plan; k, per)                      top-k pruning
//!        | Iterate(plan; max_rounds, epsilon)      refine to a fixpoint
//!        | Reuse(kind; compose; max_hops; combination)  repository pivot chains
//! ```
//!
//! Flat strategies convert losslessly: `MatchPlan::from(strategy)` is a
//! one-stage `Matchers` plan that the engine executes with results
//! identical to the legacy sequential path.

use crate::combine::{Aggregation, CombinationStrategy, CombinedSim, Direction, Selection};
use crate::error::{CoreError, Result};
use crate::matchers::MatcherLibrary;
use crate::process::MatchStrategy;
use crate::reuse::ComposeCombine;
use coma_repo::MappingKind;
use std::fmt;

/// Which side of the pair space a [`MatchPlan::TopK`] node prunes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopKPer {
    /// Keep the `k` best candidates of every source element (per row).
    Row,
    /// Keep the `k` best candidates of every target element (per column).
    Col,
    /// Keep a pair if it is among the `k` best of its row **or** its
    /// column — every element of either schema keeps its `k` best, so
    /// pruning never strands a node without candidates.
    Both,
}

impl fmt::Display for TopKPer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopKPer::Row => f.write_str("Row"),
            TopKPer::Col => f.write_str("Col"),
            TopKPer::Both => f.write_str("Both"),
        }
    }
}

/// The kind of structural defect a [`PlanError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanErrorKind {
    /// A `Matchers` leaf with an empty matcher list: no cube to aggregate.
    EmptyMatchers,
    /// A `Par` node with no sub-plans: no slices to aggregate.
    EmptyPar,
    /// A `TopK` node with `k == 0`: it would disallow every pair.
    ZeroTopK,
    /// An `Iterate` node with `max_rounds == 0`: it would never run its
    /// sub-plan, leaving no result.
    ZeroIterations,
    /// An `Iterate` node with a negative or non-finite epsilon.
    InvalidEpsilon,
    /// A `CandidateIndex` leaf with `min_shared_tokens == 0`: every pair
    /// would qualify, silently reintroducing the O(m×n) scan the leaf
    /// exists to avoid.
    ZeroMinSharedTokens,
    /// A `CandidateIndex` leaf with a negative, non-finite or > 1
    /// `min_score`.
    InvalidMinScore,
    /// A `CandidateIndex` leaf with `per_element == Some(0)`: it would
    /// drop every candidate.
    ZeroCandidateCap,
    /// A `Reuse` leaf with `max_hops < 2`: a chain needs at least two
    /// stored mappings (source→pivot→target) to compose anything.
    InvalidReuseHops,
    /// A `Weighted` aggregation that cannot weigh its node's slices: a
    /// weight count other than the slice count (`Matchers`: one per
    /// matcher, `Par`: one per sub-plan, `Reuse`: one), a negative or
    /// non-finite weight, or weights summing to zero or less.
    InvalidWeights,
}

impl PlanErrorKind {
    /// Stable diagnostic code, shared with the analyzer's
    /// [`PlanDiagnostic`](super::PlanDiagnostic)s and the server's wire
    /// frames.
    pub fn code(self) -> &'static str {
        match self {
            PlanErrorKind::EmptyMatchers => "E_EMPTY_MATCHERS",
            PlanErrorKind::EmptyPar => "E_EMPTY_PAR",
            PlanErrorKind::ZeroTopK => "E_TOPK_ZERO",
            PlanErrorKind::ZeroIterations => "E_ITERATE_ZERO_ROUNDS",
            PlanErrorKind::InvalidEpsilon => "E_ITERATE_EPSILON",
            PlanErrorKind::ZeroMinSharedTokens => "E_CIDX_MIN_TOKENS",
            PlanErrorKind::InvalidMinScore => "E_CIDX_MIN_SCORE",
            PlanErrorKind::ZeroCandidateCap => "E_CIDX_ZERO_CAP",
            PlanErrorKind::InvalidReuseHops => "E_REUSE_HOPS",
            PlanErrorKind::InvalidWeights => "E_WEIGHTS",
        }
    }
}

impl fmt::Display for PlanErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanErrorKind::EmptyMatchers => {
                f.write_str("`Matchers` node has an empty matcher list")
            }
            PlanErrorKind::EmptyPar => f.write_str("`Par` node has no sub-plans"),
            PlanErrorKind::ZeroTopK => f.write_str("`TopK` node has k = 0 (would drop every pair)"),
            PlanErrorKind::ZeroIterations => f.write_str("`Iterate` node has max_rounds = 0"),
            PlanErrorKind::InvalidEpsilon => {
                f.write_str("`Iterate` node has a negative or non-finite epsilon")
            }
            PlanErrorKind::ZeroMinSharedTokens => f.write_str(
                "`CandidateIndex` leaf has min_shared_tokens = 0 (would admit every pair)",
            ),
            PlanErrorKind::InvalidMinScore => {
                f.write_str("`CandidateIndex` leaf has a min_score outside [0, 1]")
            }
            PlanErrorKind::ZeroCandidateCap => f.write_str(
                "`CandidateIndex` leaf has per_element = Some(0) (would drop every candidate)",
            ),
            PlanErrorKind::InvalidReuseHops => {
                f.write_str("`Reuse` leaf has max_hops < 2 (a chain needs source→pivot→target)")
            }
            PlanErrorKind::InvalidWeights => f.write_str(
                "`Weighted` aggregation needs one finite, non-negative weight per slice, \
                 summing to more than 0",
            ),
        }
    }
}

/// A structurally degenerate plan shape, rejected at construction /
/// validation time instead of panicking or silently no-op'ing inside
/// [`PlanEngine::execute`](super::PlanEngine::execute).
///
/// Every error carries the **path** of the offending node in the tree
/// (e.g. `Seq[1].TopK`: the `TopK` node that is child 1 of the root
/// `Seq`), so CLI and server diagnostics point at the node, not just the
/// kind. Errors produced by the builder constructors use the node's own
/// kind as the path (the node is the root of what was being built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    kind: PlanErrorKind,
    path: String,
}

impl PlanError {
    /// An error of `kind` located at `path` in the plan tree.
    pub fn new(kind: PlanErrorKind, path: impl Into<String>) -> PlanError {
        PlanError {
            kind,
            path: path.into(),
        }
    }

    /// What is wrong.
    pub fn kind(&self) -> PlanErrorKind {
        self.kind
    }

    /// Where in the tree, e.g. `Seq[1].TopK` (root node: its bare kind).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Stable diagnostic code (delegates to [`PlanErrorKind::code`]).
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at `{}`: {}", self.path, self.kind)
    }
}

impl std::error::Error for PlanError {}

/// A composable match plan: an operator tree executed by
/// [`PlanEngine`](super::PlanEngine).
#[derive(Debug, Clone, PartialEq)]
pub enum MatchPlan {
    /// Leaf fan-out: execute the named library matchers (in parallel when
    /// possible) and combine their cube with `combination`.
    Matchers {
        /// Library names of the matchers to execute.
        matchers: Vec<String>,
        /// Aggregation + direction + selection + combined similarity.
        combination: CombinationStrategy,
    },
    /// Inverted-index retrieval leaf: generate the candidate pairs from
    /// shared token/q-gram postings of the per-side vocabulary indexes
    /// (see [`VocabIndex`](super::VocabIndex)) instead of scoring the
    /// m×n cross product. As the filter side of a [`MatchPlan::Seq`],
    /// the emitted pairs become the [`PairMask`](super::PairMask) that
    /// restricts the refine stage — the only first-stage operator whose
    /// cost is proportional to posting traffic, not to m×n.
    ///
    /// With `min_shared_tokens = 1`, `min_score = 0` and no cap, the
    /// candidates are a superset of every pair the paper-default `Name`
    /// matcher scores above zero (recall guarantee; see the engine's
    /// candidate-generation docs).
    CandidateIndex {
        /// Minimum shared (synonym-expanded) tokens to qualify via the
        /// token channel; a shared q-gram qualifies a pair regardless.
        /// Must be ≥ 1.
        min_shared_tokens: usize,
        /// Candidates scoring below this (IDF-weighted token cosine vs.
        /// q-gram Dice, whichever is higher) are dropped.
        min_score: f64,
        /// Gram length of the fuzzy channel (0 disables it; 3 is the
        /// `Trigram`-compatible default).
        q: usize,
        /// When set, each element of either side keeps only its best
        /// `cap` candidates (union, like [`TopKPer::Both`]), bounding
        /// the mask at O(cap·(m+n)) pairs.
        per_element: Option<usize>,
    },
    /// Staged refinement: execute `filter`, then execute `refine` with the
    /// search space restricted to the pairs `filter` selected. User
    /// feedback pins survive the restriction (accepted matches resurface
    /// even if the filter dropped them).
    Seq {
        /// The earlier, typically cheap stage.
        filter: Box<MatchPlan>,
        /// The later, typically expensive stage, run on the survivors.
        refine: Box<MatchPlan>,
    },
    /// Parallel sub-plans: each sub-plan's selected pairs become one slice
    /// of a plan-level cube that `combination` aggregates and re-selects.
    /// Slices are ordered by sub-plan label, so the order in `plans` never
    /// affects the result — except under `Weighted` aggregation, whose
    /// weights pair with sub-plans positionally: there, declaration order
    /// is kept (and meaningful).
    Par {
        /// The independent sub-plans.
        plans: Vec<MatchPlan>,
        /// The combination applied across the sub-plan slices.
        combination: CombinationStrategy,
    },
    /// Mid-pipeline re-selection: re-ranks the pairs `input` selected
    /// under a (typically stricter) direction + selection.
    ///
    /// When `input` is a [`MatchPlan::Matchers`] leaf of row-shardable
    /// matchers, the context is unrestricted and `selection` carries a
    /// threshold or cap, the engine fuses compute→prune per row shard
    /// (see [`EngineConfig::fuse_pruning`](super::EngineConfig)) — the
    /// inner leaf's full matrix is never materialized.
    Filter {
        /// The plan whose result is filtered.
        input: Box<MatchPlan>,
        /// Match direction for the re-selection.
        direction: Direction,
        /// The selection criteria applied to the input's pairs.
        selection: Selection,
        /// Recomputes the schema similarity of the filtered result.
        combined_sim: CombinedSim,
    },
    /// Top-k pruning: keep only the `k` best candidates per source/target
    /// element of `input`'s result. Used as the filter side of a
    /// [`MatchPlan::Seq`], the surviving pairs materialize as a
    /// [`PairMask`](super::PairMask) restriction for the downstream
    /// stages, which the engine then executes on its sparse path.
    ///
    /// Like [`MatchPlan::Filter`], a `TopK` over an unrestricted
    /// [`MatchPlan::Matchers`] leaf of row-shardable matchers executes
    /// streaming-fused: pruning runs inside each row shard and the
    /// inner leaf's dense matrix is never allocated (see
    /// [`EngineConfig::fuse_pruning`](super::EngineConfig)).
    TopK {
        /// The plan whose result is pruned.
        input: Box<MatchPlan>,
        /// How many candidates each element keeps.
        k: usize,
        /// Prune per source element, per target element, or both.
        per: TopKPer,
    },
    /// Iterative refinement (COMA's iterate-until-stable loop): re-run
    /// `plan`, each round restricted to the previous round's survivors,
    /// until the selected-pair similarity matrix changes by less than
    /// `epsilon` (max-norm) or `max_rounds` rounds have run.
    Iterate {
        /// The sub-plan executed every round.
        plan: Box<MatchPlan>,
        /// Upper bound on the number of rounds (termination guarantee).
        max_rounds: usize,
        /// Convergence tolerance on the max-norm of the round-over-round
        /// matrix delta.
        epsilon: f64,
    },
    /// Reuse leaf: compose stored mappings over repository pivot schemas
    /// (the paper's `Schema` reuse matcher) and combine the resulting
    /// similarity slice.
    Reuse {
        /// Restricts which stored mappings qualify (`None` = all).
        kind: Option<MappingKind>,
        /// Transitive-similarity combination along `S1↔S↔S2` chains.
        compose: ComposeCombine,
        /// Maximum stored mappings per pivot chain (≥ 2; 2 = the paper's
        /// single-pivot `Schema` matcher).
        max_hops: usize,
        /// The combination applied to the reuse slice.
        combination: CombinationStrategy,
    },
}

impl MatchPlan {
    /// A leaf plan executing `matchers` with the paper-default combination.
    pub fn matchers<S: Into<String>>(matchers: impl IntoIterator<Item = S>) -> MatchPlan {
        MatchPlan::Matchers {
            matchers: matchers.into_iter().map(Into::into).collect(),
            combination: CombinationStrategy::paper_default(),
        }
    }

    /// A leaf plan with an explicit combination.
    pub fn matchers_with<S: Into<String>>(
        matchers: impl IntoIterator<Item = S>,
        combination: CombinationStrategy,
    ) -> MatchPlan {
        MatchPlan::Matchers {
            matchers: matchers.into_iter().map(Into::into).collect(),
            combination,
        }
    }

    /// An inverted-index candidate-generation leaf with the recall-safe
    /// defaults: trigram fuzzy channel (`q = 3`), no per-element cap.
    /// Fails with [`PlanErrorKind::ZeroMinSharedTokens`] for
    /// `min_shared_tokens == 0` and [`PlanErrorKind::InvalidMinScore`] for a
    /// `min_score` outside `[0, 1]`.
    pub fn candidate_index(
        min_shared_tokens: usize,
        min_score: f64,
    ) -> std::result::Result<MatchPlan, PlanError> {
        MatchPlan::candidate_index_with(min_shared_tokens, min_score, 3, None)
    }

    /// An inverted-index leaf with an explicit gram length (`q = 0`
    /// disables the fuzzy channel) and optional per-element candidate cap
    /// (rejected when `Some(0)`, which would drop everything).
    pub fn candidate_index_with(
        min_shared_tokens: usize,
        min_score: f64,
        q: usize,
        per_element: Option<usize>,
    ) -> std::result::Result<MatchPlan, PlanError> {
        let plan = MatchPlan::CandidateIndex {
            min_shared_tokens,
            min_score,
            q,
            per_element,
        };
        plan.validate_shape()?;
        Ok(plan)
    }

    /// A two-stage `filter → refine` plan.
    pub fn seq(filter: MatchPlan, refine: MatchPlan) -> MatchPlan {
        MatchPlan::Seq {
            filter: Box::new(filter),
            refine: Box::new(refine),
        }
    }

    /// A parallel aggregation of sub-plans.
    pub fn par(
        plans: impl IntoIterator<Item = MatchPlan>,
        combination: CombinationStrategy,
    ) -> MatchPlan {
        MatchPlan::Par {
            plans: plans.into_iter().collect(),
            combination,
        }
    }

    /// Wraps a plan in a mid-pipeline re-selection.
    pub fn filtered(self, direction: Direction, selection: Selection) -> MatchPlan {
        MatchPlan::Filter {
            input: Box::new(self),
            direction,
            selection,
            combined_sim: CombinedSim::Average,
        }
    }

    /// Wraps a plan in a top-k pruning step: every source/target element
    /// (per `per`) keeps only its `k` best candidates. Fails with
    /// [`PlanErrorKind::ZeroTopK`] for `k == 0` — a plan that drops every
    /// pair is a construction bug, not a useful pipeline.
    pub fn top_k(self, k: usize, per: TopKPer) -> std::result::Result<MatchPlan, PlanError> {
        if k == 0 {
            return Err(PlanError::new(PlanErrorKind::ZeroTopK, "TopK"));
        }
        Ok(MatchPlan::TopK {
            input: Box::new(self),
            k,
            per,
        })
    }

    /// Wraps a plan in an iterate-until-stable loop: re-run it (each round
    /// restricted to the previous round's survivors) until the result
    /// matrix moves by less than `epsilon` or `max_rounds` rounds have
    /// run. Fails with [`PlanErrorKind::ZeroIterations`] for `max_rounds == 0`
    /// and [`PlanErrorKind::InvalidEpsilon`] for a negative or non-finite
    /// tolerance.
    pub fn iterate(
        self,
        max_rounds: usize,
        epsilon: f64,
    ) -> std::result::Result<MatchPlan, PlanError> {
        if max_rounds == 0 {
            return Err(PlanError::new(PlanErrorKind::ZeroIterations, "Iterate"));
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(PlanError::new(PlanErrorKind::InvalidEpsilon, "Iterate"));
        }
        Ok(MatchPlan::Iterate {
            plan: Box::new(self),
            max_rounds,
            epsilon,
        })
    }

    /// A reuse leaf with the paper's defaults (Average compose, default
    /// combination, single-pivot chains) over mappings of the given kind.
    pub fn reuse(kind: Option<MappingKind>) -> MatchPlan {
        MatchPlan::Reuse {
            kind,
            compose: ComposeCombine::Average,
            max_hops: 2,
            combination: CombinationStrategy::paper_default(),
        }
    }

    /// A reuse leaf composing stored-mapping chains up to `max_hops`
    /// mappings long. Fails with [`PlanErrorKind::InvalidReuseHops`] for
    /// `max_hops < 2` (a chain needs at least source→pivot→target).
    pub fn reuse_chains(
        kind: Option<MappingKind>,
        compose: ComposeCombine,
        max_hops: usize,
    ) -> std::result::Result<MatchPlan, PlanError> {
        if max_hops < 2 {
            return Err(PlanError::new(PlanErrorKind::InvalidReuseHops, "Reuse"));
        }
        Ok(MatchPlan::Reuse {
            kind,
            compose,
            max_hops,
            combination: CombinationStrategy::paper_default(),
        })
    }

    /// The canonical two-stage shape a flat strategy cannot express: a
    /// cheap name-based filter whose survivors restrict the expensive
    /// refine stage.
    ///
    /// `filter_matchers` run under a liberal selection (`selection` decides
    /// which pairs survive); the `refine` strategy then re-scores only the
    /// surviving pairs and makes the final selection.
    pub fn two_stage<S: Into<String>>(
        filter_matchers: impl IntoIterator<Item = S>,
        filter_selection: Selection,
        refine: &MatchStrategy,
    ) -> MatchPlan {
        let mut filter_combination = CombinationStrategy::paper_default();
        filter_combination.selection = filter_selection;
        MatchPlan::seq(
            MatchPlan::matchers_with(filter_matchers, filter_combination),
            MatchPlan::from(refine.clone()),
        )
    }

    /// All matcher names referenced anywhere in the tree, in first-use
    /// order (duplicates removed).
    pub fn matcher_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        self.collect_names(&mut names);
        names
    }

    fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            MatchPlan::Matchers { matchers, .. } => {
                for m in matchers {
                    if !out.contains(&m.as_str()) {
                        out.push(m);
                    }
                }
            }
            MatchPlan::Seq { filter, refine } => {
                filter.collect_names(out);
                refine.collect_names(out);
            }
            MatchPlan::Par { plans, .. } => {
                for p in plans {
                    p.collect_names(out);
                }
            }
            MatchPlan::Filter { input, .. } => input.collect_names(out),
            MatchPlan::TopK { input, .. } => input.collect_names(out),
            MatchPlan::Iterate { plan, .. } => plan.collect_names(out),
            MatchPlan::Reuse { .. } | MatchPlan::CandidateIndex { .. } => {}
        }
    }

    /// The node's operator kind, as used in error/diagnostic node paths.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MatchPlan::Matchers { .. } => "Matchers",
            MatchPlan::CandidateIndex { .. } => "CandidateIndex",
            MatchPlan::Seq { .. } => "Seq",
            MatchPlan::Par { .. } => "Par",
            MatchPlan::Filter { .. } => "Filter",
            MatchPlan::TopK { .. } => "TopK",
            MatchPlan::Iterate { .. } => "Iterate",
            MatchPlan::Reuse { .. } => "Reuse",
        }
    }

    /// The node's direct sub-plans, in child-index order (`Seq` = `[filter,
    /// refine]`). Node paths index into this order: `Seq[1].TopK` is the
    /// `TopK` node at `self.children()[1]` of a root `Seq`.
    pub fn children(&self) -> Vec<&MatchPlan> {
        match self {
            MatchPlan::Matchers { .. }
            | MatchPlan::CandidateIndex { .. }
            | MatchPlan::Reuse { .. } => Vec::new(),
            MatchPlan::Seq { filter, refine } => vec![filter, refine],
            MatchPlan::Par { plans, .. } => plans.iter().collect(),
            MatchPlan::Filter { input, .. } => vec![input],
            MatchPlan::TopK { input, .. } => vec![input],
            MatchPlan::Iterate { plan, .. } => vec![plan],
        }
    }

    /// The node-local shape defect, if any — the single-node check behind
    /// [`MatchPlan::validate_shape`] and the analyzer's error diagnostics
    /// (which keep walking to report *every* defect, not just the first).
    pub fn local_shape_defect(&self) -> Option<PlanErrorKind> {
        match self {
            MatchPlan::Matchers { matchers, .. } if matchers.is_empty() => {
                Some(PlanErrorKind::EmptyMatchers)
            }
            MatchPlan::Par { plans, .. } if plans.is_empty() => Some(PlanErrorKind::EmptyPar),
            MatchPlan::TopK { k: 0, .. } => Some(PlanErrorKind::ZeroTopK),
            MatchPlan::Iterate { max_rounds: 0, .. } => Some(PlanErrorKind::ZeroIterations),
            MatchPlan::Iterate { epsilon, .. } if !epsilon.is_finite() || *epsilon < 0.0 => {
                Some(PlanErrorKind::InvalidEpsilon)
            }
            MatchPlan::CandidateIndex {
                min_shared_tokens: 0,
                ..
            } => Some(PlanErrorKind::ZeroMinSharedTokens),
            MatchPlan::CandidateIndex { min_score, .. }
                if !min_score.is_finite() || *min_score < 0.0 || *min_score > 1.0 =>
            {
                Some(PlanErrorKind::InvalidMinScore)
            }
            MatchPlan::CandidateIndex {
                per_element: Some(0),
                ..
            } => Some(PlanErrorKind::ZeroCandidateCap),
            MatchPlan::Reuse { max_hops, .. } if *max_hops < 2 => {
                Some(PlanErrorKind::InvalidReuseHops)
            }
            _ if self.misweighted() => Some(PlanErrorKind::InvalidWeights),
            _ => None,
        }
    }

    /// Whether this node's `Weighted` aggregation cannot weigh its slices
    /// (one per matcher, one per sub-plan, or the reuse slice): a
    /// different weight count, a negative or non-finite weight, or
    /// weights summing to zero or less.
    fn misweighted(&self) -> bool {
        let (combination, slices) = match self {
            MatchPlan::Matchers {
                matchers,
                combination,
            } => (combination, matchers.len()),
            MatchPlan::Par { plans, combination } => (combination, plans.len()),
            MatchPlan::Reuse { combination, .. } => (combination, 1),
            _ => return false,
        };
        let Aggregation::Weighted(weights) = &combination.aggregation else {
            return false;
        };
        weights.len() != slices
            || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
            || weights.iter().sum::<f64>() <= 0.0
    }

    /// Checks the tree for degenerate shapes (empty `Matchers`/`Par`
    /// nodes, `TopK` with `k = 0`, `Iterate` with `max_rounds = 0` or a
    /// bad epsilon). The builder constructors reject these up front;
    /// hand-assembled trees are caught here — and by
    /// [`PlanEngine::execute`](super::PlanEngine::execute), which
    /// validates before running — instead of panicking mid-execution. The
    /// first defect found (preorder) is returned, with the offending
    /// node's path.
    pub fn validate_shape(&self) -> std::result::Result<(), PlanError> {
        self.validate_shape_at(self.kind_name())
    }

    fn validate_shape_at(&self, path: &str) -> std::result::Result<(), PlanError> {
        if let Some(kind) = self.local_shape_defect() {
            return Err(PlanError::new(kind, path));
        }
        for (i, child) in self.children().into_iter().enumerate() {
            child.validate_shape_at(&format!("{path}[{i}].{}", child.kind_name()))?;
        }
        Ok(())
    }

    /// Checks the tree shape and every referenced matcher against the
    /// library.
    pub fn validate(&self, library: &MatcherLibrary) -> Result<()> {
        self.validate_shape()?;
        for name in self.matcher_names() {
            if library.get(name).is_none() {
                return Err(CoreError::UnknownMatcher(name.to_string()));
            }
        }
        Ok(())
    }

    /// Number of result-producing stages the engine will materialize. For
    /// `Iterate` this is an upper bound (the loop may converge early).
    pub fn stage_count(&self) -> usize {
        match self {
            MatchPlan::Matchers { .. }
            | MatchPlan::Reuse { .. }
            | MatchPlan::CandidateIndex { .. } => 1,
            MatchPlan::Seq { filter, refine } => filter.stage_count() + refine.stage_count(),
            MatchPlan::Par { plans, .. } => {
                plans.iter().map(MatchPlan::stage_count).sum::<usize>() + 1
            }
            MatchPlan::Filter { input, .. } => input.stage_count() + 1,
            MatchPlan::TopK { input, .. } => input.stage_count() + 1,
            MatchPlan::Iterate {
                plan, max_rounds, ..
            } => plan
                .stage_count()
                .saturating_mul(*max_rounds)
                .saturating_add(1),
        }
    }

    /// A human-readable label in the plan grammar, e.g.
    /// `Seq(Matchers(Name)[…] -> Matchers(Leaves)[…])`. The label is
    /// complete: two plans with equal labels are equal (the engine's `Par`
    /// canonicalization relies on this).
    pub fn label(&self) -> String {
        match self {
            MatchPlan::Matchers {
                matchers,
                combination,
            } => format!("Matchers({})[{}]", matchers.join("+"), combination.label()),
            MatchPlan::CandidateIndex {
                min_shared_tokens,
                min_score,
                q,
                per_element,
            } => {
                let cap = per_element.map_or("uncapped".to_string(), |c| format!("cap{c}"));
                format!("CandidateIndex({min_shared_tokens}/{min_score}/q{q}/{cap})")
            }
            MatchPlan::Seq { filter, refine } => {
                format!("Seq({} -> {})", filter.label(), refine.label())
            }
            MatchPlan::Par { plans, combination } => {
                let inner: Vec<String> = plans.iter().map(MatchPlan::label).collect();
                format!("Par({})[{}]", inner.join(" || "), combination.label())
            }
            MatchPlan::Filter {
                input,
                direction,
                selection,
                combined_sim,
            } => format!(
                "Filter({} | {}/{}/{})",
                input.label(),
                direction,
                selection,
                combined_sim
            ),
            MatchPlan::TopK { input, k, per } => {
                format!("TopK({} | {k}/{per})", input.label())
            }
            MatchPlan::Iterate {
                plan,
                max_rounds,
                epsilon,
            } => format!("Iterate({} | {max_rounds}/{epsilon})", plan.label()),
            MatchPlan::Reuse {
                kind,
                compose,
                max_hops,
                combination,
            } => format!(
                "Reuse({}, {:?}, {max_hops}hop)[{}]",
                match kind {
                    Some(MappingKind::Manual) => "Manual",
                    Some(MappingKind::Automatic) => "Automatic",
                    None => "Any",
                },
                compose,
                combination.label()
            ),
        }
    }
}

impl From<MatchStrategy> for MatchPlan {
    /// A flat strategy is a one-stage `Matchers` plan.
    fn from(strategy: MatchStrategy) -> MatchPlan {
        MatchPlan::Matchers {
            matchers: strategy.matchers,
            combination: strategy.combination,
        }
    }
}

impl From<&MatchStrategy> for MatchPlan {
    fn from(strategy: &MatchStrategy) -> MatchPlan {
        MatchPlan::from(strategy.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_converts_to_flat_plan() {
        let strategy = MatchStrategy::paper_default();
        let plan = MatchPlan::from(&strategy);
        match &plan {
            MatchPlan::Matchers {
                matchers,
                combination,
            } => {
                assert_eq!(matchers, &strategy.matchers);
                assert_eq!(combination, &strategy.combination);
            }
            other => panic!("expected Matchers leaf, got {}", other.label()),
        }
        assert_eq!(plan.stage_count(), 1);
    }

    #[test]
    fn validation_finds_unknown_matchers() {
        let lib = MatcherLibrary::standard();
        let ok = MatchPlan::seq(
            MatchPlan::matchers(["Name"]),
            MatchPlan::matchers(["Leaves", "Children"]),
        );
        assert!(ok.validate(&lib).is_ok());
        let bad = MatchPlan::par(
            [MatchPlan::matchers(["Name"]), MatchPlan::matchers(["Nope"])],
            CombinationStrategy::paper_default(),
        );
        assert!(matches!(
            bad.validate(&lib),
            Err(CoreError::UnknownMatcher(name)) if name == "Nope"
        ));
    }

    #[test]
    fn constructors_reject_degenerate_shapes() {
        let base = MatchPlan::matchers(["Name"]);
        let err = base.clone().top_k(0, TopKPer::Row).unwrap_err();
        assert_eq!(err.kind(), PlanErrorKind::ZeroTopK);
        assert_eq!(err.path(), "TopK");
        assert_eq!(err.code(), "E_TOPK_ZERO");
        assert_eq!(
            base.clone().iterate(0, 0.01).unwrap_err().kind(),
            PlanErrorKind::ZeroIterations
        );
        assert_eq!(
            base.clone().iterate(3, -0.5).unwrap_err().kind(),
            PlanErrorKind::InvalidEpsilon
        );
        assert_eq!(
            base.clone().iterate(3, f64::NAN).unwrap_err().kind(),
            PlanErrorKind::InvalidEpsilon
        );
        assert!(base.clone().top_k(1, TopKPer::Both).is_ok());
        assert!(base.iterate(1, 0.0).is_ok());
    }

    #[test]
    fn candidate_index_constructors_enforce_their_domain() {
        assert_eq!(
            MatchPlan::candidate_index(0, 0.0).unwrap_err().kind(),
            PlanErrorKind::ZeroMinSharedTokens
        );
        assert_eq!(
            MatchPlan::candidate_index(1, -0.1).unwrap_err().kind(),
            PlanErrorKind::InvalidMinScore
        );
        assert_eq!(
            MatchPlan::candidate_index(1, f64::NAN).unwrap_err().kind(),
            PlanErrorKind::InvalidMinScore
        );
        assert_eq!(
            MatchPlan::candidate_index(1, 1.5).unwrap_err().kind(),
            PlanErrorKind::InvalidMinScore
        );
        assert_eq!(
            MatchPlan::candidate_index_with(1, 0.0, 3, Some(0))
                .unwrap_err()
                .kind(),
            PlanErrorKind::ZeroCandidateCap
        );
        let ok = MatchPlan::candidate_index(1, 0.0).unwrap();
        assert!(ok.validate_shape().is_ok());
        assert!(ok.matcher_names().is_empty());
        assert_eq!(ok.stage_count(), 1);
        // Hand-assembled degenerate leaves are caught by validate_shape too.
        let bad = MatchPlan::CandidateIndex {
            min_shared_tokens: 0,
            min_score: 0.0,
            q: 3,
            per_element: None,
        };
        assert_eq!(
            bad.validate_shape(),
            Err(PlanError::new(
                PlanErrorKind::ZeroMinSharedTokens,
                "CandidateIndex"
            ))
        );
    }

    #[test]
    fn candidate_index_labels_are_complete() {
        let uncapped = MatchPlan::candidate_index(1, 0.0).unwrap();
        assert_eq!(uncapped.label(), "CandidateIndex(1/0/q3/uncapped)");
        let capped = MatchPlan::candidate_index_with(2, 0.25, 4, Some(5)).unwrap();
        assert_eq!(capped.label(), "CandidateIndex(2/0.25/q4/cap5)");
        assert_ne!(uncapped.label(), capped.label());
        let staged = MatchPlan::seq(uncapped, MatchPlan::matchers(["Name"]));
        assert!(
            staged.label().starts_with("Seq(CandidateIndex("),
            "{}",
            staged.label()
        );
        assert_eq!(staged.stage_count(), 2);
    }

    #[test]
    fn shape_validation_walks_the_whole_tree() {
        let lib = MatcherLibrary::standard();
        // A degenerate node buried under healthy operators is still found.
        let buried = MatchPlan::seq(
            MatchPlan::matchers(["Name"]),
            MatchPlan::par(
                [
                    MatchPlan::matchers(["Leaves"]),
                    MatchPlan::Matchers {
                        matchers: Vec::new(),
                        combination: CombinationStrategy::paper_default(),
                    },
                ],
                CombinationStrategy::paper_default(),
            ),
        );
        let err = buried.validate_shape().unwrap_err();
        assert_eq!(err.kind(), PlanErrorKind::EmptyMatchers);
        // The path pins the defect to the node: child 1 of the root Seq is
        // the Par, whose child 1 is the empty Matchers leaf.
        assert_eq!(err.path(), "Seq[1].Par[1].Matchers");
        assert_eq!(
            err.to_string(),
            "at `Seq[1].Par[1].Matchers`: `Matchers` node has an empty matcher list"
        );
        assert!(matches!(
            buried.validate(&lib),
            Err(CoreError::Plan(e)) if e.kind() == PlanErrorKind::EmptyMatchers
        ));
        // Healthy trees with the new operators pass.
        let healthy = MatchPlan::matchers(["Name"])
            .top_k(3, TopKPer::Both)
            .unwrap()
            .iterate(4, 1e-6)
            .unwrap();
        assert!(healthy.validate(&lib).is_ok());
        assert_eq!(healthy.matcher_names(), vec!["Name"]);
    }

    #[test]
    fn new_operator_labels_and_stage_counts() {
        let plan = MatchPlan::matchers(["Name"])
            .top_k(5, TopKPer::Row)
            .unwrap();
        assert!(
            plan.label().starts_with("TopK(Matchers(Name)["),
            "{}",
            plan.label()
        );
        assert!(plan.label().ends_with("| 5/Row)"), "{}", plan.label());
        assert_eq!(plan.stage_count(), 2);

        let looped = plan.clone().iterate(3, 0.01).unwrap();
        assert!(
            looped.label().starts_with("Iterate(TopK("),
            "{}",
            looped.label()
        );
        assert!(looped.label().ends_with("| 3/0.01)"), "{}", looped.label());
        // Upper bound: 2 stages per round × 3 rounds + the Iterate stage.
        assert_eq!(looped.stage_count(), 7);

        // Labels stay complete: different k / per / rounds ⇒ different labels.
        let other = MatchPlan::matchers(["Name"])
            .top_k(5, TopKPer::Col)
            .unwrap();
        assert_ne!(plan.label(), other.label());
    }

    #[test]
    fn matcher_names_deduplicate_in_first_use_order() {
        let plan = MatchPlan::seq(
            MatchPlan::matchers(["Name", "TypeName"]),
            MatchPlan::matchers(["TypeName", "Leaves"]),
        );
        assert_eq!(plan.matcher_names(), vec!["Name", "TypeName", "Leaves"]);
    }

    #[test]
    fn labels_follow_the_grammar() {
        let plan = MatchPlan::seq(
            MatchPlan::matchers(["Name"]),
            MatchPlan::matchers(["Leaves"]),
        );
        let label = plan.label();
        assert!(label.starts_with("Seq(Matchers(Name)["), "{label}");
        assert!(label.contains("-> Matchers(Leaves)["), "{label}");
        let reuse = MatchPlan::reuse(Some(MappingKind::Manual));
        assert_eq!(
            reuse.label(),
            "Reuse(Manual, Average, 2hop)[Average/Both/Thr(0.5)+Delta(0.02)/Average]"
        );
        let chains = MatchPlan::reuse_chains(None, ComposeCombine::Average, 3).unwrap();
        assert_eq!(
            chains.label(),
            "Reuse(Any, Average, 3hop)[Average/Both/Thr(0.5)+Delta(0.02)/Average]"
        );
        assert_eq!(
            MatchPlan::reuse_chains(None, ComposeCombine::Average, 1)
                .unwrap_err()
                .kind(),
            PlanErrorKind::InvalidReuseHops
        );
        // Labels are complete: plans differing only in combination get
        // distinct labels (the engine's Par canonicalization relies on
        // label equality implying plan equality).
        let mut other = MatchPlan::reuse(Some(MappingKind::Manual));
        if let MatchPlan::Reuse { combination, .. } = &mut other {
            combination.selection = Selection::max_n(2);
        }
        assert_ne!(reuse.label(), other.label());
        let filtered = MatchPlan::matchers(["Name"]).filtered(Direction::Both, Selection::max_n(1));
        assert!(filtered.label().starts_with("Filter(Matchers(Name)["));
        assert_eq!(filtered.stage_count(), 2);
    }

    /// A plan whose `Weighted` aggregation holds `weights` at every
    /// aggregating node kind: a two-matcher leaf, a two-way `Par` and a
    /// `Reuse` leaf — each node's slice count is 2, 2 and 1.
    fn weighted_nodes(weights: &[f64]) -> [MatchPlan; 3] {
        let weighted = CombinationStrategy {
            aggregation: Aggregation::Weighted(weights.to_vec()),
            ..CombinationStrategy::paper_default()
        };
        [
            MatchPlan::matchers_with(["Name", "NamePath"], weighted.clone()),
            MatchPlan::par(
                [
                    MatchPlan::matchers(["Name"]),
                    MatchPlan::matchers(["Leaves"]),
                ],
                weighted.clone(),
            ),
            MatchPlan::Reuse {
                kind: None,
                compose: ComposeCombine::Average,
                max_hops: 2,
                combination: weighted,
            },
        ]
    }

    fn weight_defect(plan: &MatchPlan) -> Option<PlanErrorKind> {
        plan.validate_shape().err().map(|e| e.kind())
    }

    #[test]
    fn weighted_count_must_match_the_slice_count() {
        let [leaf, par, reuse] = weighted_nodes(&[1.0]);
        let err = leaf.validate_shape().unwrap_err();
        assert_eq!(err.kind(), PlanErrorKind::InvalidWeights);
        assert_eq!(err.code(), "E_WEIGHTS");
        assert_eq!(err.path(), "Matchers");
        assert_eq!(weight_defect(&par), Some(PlanErrorKind::InvalidWeights));
        assert_eq!(weight_defect(&reuse), None);
        let [leaf, par, reuse] = weighted_nodes(&[1.0, 2.0]);
        assert_eq!(weight_defect(&leaf), None);
        assert_eq!(weight_defect(&par), None);
        assert_eq!(weight_defect(&reuse), Some(PlanErrorKind::InvalidWeights));
    }

    #[test]
    fn weighted_rejects_negative_and_non_finite_weights() {
        for weights in [[2.0, -1.0], [1.0, f64::NAN], [f64::INFINITY, 1.0]] {
            for plan in &weighted_nodes(&weights)[..2] {
                assert_eq!(
                    weight_defect(plan),
                    Some(PlanErrorKind::InvalidWeights),
                    "{weights:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_rejects_weights_summing_to_zero() {
        for plan in &weighted_nodes(&[0.0, 0.0])[..2] {
            assert_eq!(weight_defect(plan), Some(PlanErrorKind::InvalidWeights));
        }
        let [_, _, reuse] = weighted_nodes(&[0.0]);
        assert_eq!(weight_defect(&reuse), Some(PlanErrorKind::InvalidWeights));
        // A zero weight beside a positive one is a valid weighting.
        for plan in &weighted_nodes(&[0.0, 1.0])[..2] {
            assert_eq!(weight_defect(plan), None);
        }
    }
}
