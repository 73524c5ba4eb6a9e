//! The engine's physical decisions — storage, fusion, shard and worker
//! counts — as one rule set shared by [`PlanEngine`](super::PlanEngine)
//! and [`PlanAnalyzer`](super::PlanAnalyzer).
//!
//! Every rule is three-valued ([`Tri`]) over what its caller knows: the
//! engine passes exact facts (a mask's density, whether a stage is
//! restricted) and gets a definite `Yes` or `No`; the analyzer passes
//! bounds (a density upper bound, a restriction only `Maybe` present) and
//! gets `Maybe` where they straddle a threshold. Predictions agree with
//! executions by construction. Counts (shards, threads) are exact for
//! exact facts and the largest count the bounds admit otherwise.

use super::memo::matcher_identity;
use super::plan::MatchPlan;
use super::EngineConfig;
use crate::combine::CombinationStrategy;
use crate::matchers::{Matcher, MatcherLibrary};
use std::fmt;
use std::sync::Arc;

/// A three-valued fact: `Yes`/`No` are commitments the execution must
/// honor, `Maybe` means the fact depends on runtime densities the caller
/// does not know (see the analyzer's module docs: the facts lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    /// The fact definitely holds.
    Yes,
    /// The fact definitely does not hold.
    No,
    /// Statically undecidable; either outcome is sound.
    Maybe,
}

impl Tri {
    /// Whether an executed boolean is consistent with this prediction —
    /// the soundness check the perf gate and property tests apply.
    pub fn agrees_with(self, actual: bool) -> bool {
        match self {
            Tri::Yes => actual,
            Tri::No => !actual,
            Tri::Maybe => true,
        }
    }

    /// Lattice join: equal values keep, conflicting ones become `Maybe`.
    pub fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Maybe
        }
    }

    pub(crate) fn from_bool(b: bool) -> Tri {
        if b {
            Tri::Yes
        } else {
            Tri::No
        }
    }

    /// Three-valued conjunction: `No` if either side is, `Yes` if both are.
    pub(crate) fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::No, _) | (_, Tri::No) => Tri::No,
            (Tri::Yes, Tri::Yes) => Tri::Yes,
            _ => Tri::Maybe,
        }
    }

    /// Three-valued disjunction: `Yes` if either side is, `No` if both are.
    pub(crate) fn or(self, other: Tri) -> Tri {
        self.not().and(other.not()).not()
    }

    pub(crate) fn not(self) -> Tri {
        match self {
            Tri::Yes => Tri::No,
            Tri::No => Tri::Yes,
            Tri::Maybe => Tri::Maybe,
        }
    }

    /// The definite answer a rule gives over exact facts.
    pub(crate) fn holds(self) -> bool {
        debug_assert_ne!(self, Tri::Maybe, "exact facts decide every rule");
        self == Tri::Yes
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tri::Yes => f.write_str("yes"),
            Tri::No => f.write_str("no"),
            Tri::Maybe => f.write_str("maybe"),
        }
    }
}

/// `pairs` over the pair space `cells`, capped at 1 (0 when empty).
pub(crate) fn density(pairs: u64, cells: u64) -> f64 {
    if cells == 0 {
        0.0
    } else {
        (pairs as f64 / cells as f64).min(1.0)
    }
}

/// A density the engine knows exactly and the analyzer only bounds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Density {
    Exact(f64),
    AtMost(f64),
}

impl Density {
    /// The bound of at most `pairs_hi` pairs in `cells`.
    pub(crate) fn at_most(pairs_hi: u64, cells: u64) -> Density {
        Density::AtMost(density(pairs_hi, cells))
    }

    fn within(self, cutoff: f64) -> Tri {
        match self {
            Density::Exact(d) => Tri::from_bool(d <= cutoff),
            Density::AtMost(hi) if hi <= cutoff => Tri::Yes,
            Density::AtMost(_) => Tri::Maybe,
        }
    }
}

/// Sparse (CSR) storage for matrices restricted to `density` of the pair
/// space (a stage mask, a `TopK` keep mask): the sparse path is on and the
/// density is at most [`EngineConfig::sparse_density_cutoff`].
pub(crate) fn sparse_at(cfg: &EngineConfig, density: Density) -> Tri {
    Tri::from_bool(cfg.sparse).and(density.within(cfg.sparse_density_cutoff))
}

/// Storage of a `Matchers` or `Reuse` stage's slices: dense unless the
/// stage is `masked` and [`sparse_at`] its mask's `density`.
pub(crate) fn stage_sparse(cfg: &EngineConfig, masked: Tri, density: Density) -> Tri {
    masked.and(sparse_at(cfg, density))
}

/// Storage of the `m × n` matrix of a result's selected pairs (`Par`
/// slices, `Filter`/`TopK` inputs, `Iterate` rounds): [`sparse_at`] the
/// selected pairs' density, dense for an empty pair space.
pub(crate) fn pair_matrix_sparse(cfg: &EngineConfig, pairs: Density, cells: u64) -> Tri {
    Tri::from_bool(cells > 0).and(sparse_at(cfg, pairs))
}

/// Storage of a `CandidateIndex` leaf's candidate matrix: CSR whenever
/// the sparse path is on.
pub(crate) fn candidate_sparse(cfg: &EngineConfig) -> Tri {
    Tri::from_bool(cfg.sparse)
}

/// Whether `matcher` honors a stage restriction itself instead of
/// computing (and memoizing) its full matrix and masking a copy:
/// cell-local matchers always do, sparse-capable ones when the stage
/// stores `sparse` — only then does the mask prune enough to beat a full,
/// memoizable compute.
pub(crate) fn honors_restriction(matcher: &dyn Matcher, sparse: Tri) -> Tri {
    Tri::from_bool(matcher.cell_local()).or(Tri::from_bool(matcher.sparse_capable()).and(sparse))
}

/// Worker threads the engine may occupy: the machine's available
/// parallelism, or 1 with [`EngineConfig::parallel`] off.
pub(crate) fn workers(cfg: &EngineConfig) -> usize {
    if cfg.parallel {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    } else {
        1
    }
}

/// Row shards of one fresh unrestricted compute over `rows` rows (a
/// matcher's full matrix, a `CandidateIndex` scan): the forced
/// [`EngineConfig::shards`], else the worker `budget` capped so each
/// shard keeps [`EngineConfig::min_shard_rows`] rows. 1 with parallelism
/// off or for a matcher that is not row-shardable; never above `rows`.
pub(crate) fn unrestricted_shards(
    cfg: &EngineConfig,
    rows: usize,
    row_shardable: bool,
    budget: usize,
) -> usize {
    if !cfg.parallel || rows == 0 || !row_shardable {
        return 1;
    }
    match cfg.shards {
        Some(forced) => forced.clamp(1, rows),
        None => budget.min(rows.div_ceil(cfg.min_shard_rows)).max(1),
    }
}

/// How a `Matchers` leaf spreads its matchers over the workers.
pub(crate) struct LeafFanOut {
    /// Threads computing slices, each a contiguous chunk of matchers.
    pub(crate) threads: usize,
    /// Matchers computed before the fan-out: in a stage that may run
    /// unrestricted, those another matcher of the stage reads as its leaf
    /// matcher (`TypeName` under `All`), so their dense slices are
    /// memoized before a structural reader asks for the keyed table and
    /// the readers key that matrix by identity instead of building a
    /// second table.
    pub(crate) first: Vec<bool>,
    /// Each matcher's worker budget for its row shards: the whole machine
    /// when computed first, the remainder after the fan-out otherwise.
    pub(crate) budgets: Vec<usize>,
}

/// The fan-out of a leaf's `matchers` on `workers` threads under a
/// restriction that is `masked`.
pub(crate) fn leaf_fan_out(
    workers: usize,
    matchers: &[Arc<dyn Matcher>],
    masked: Tri,
) -> LeafFanOut {
    let threads = if matchers.len() > 1 {
        workers.min(matchers.len())
    } else {
        1
    };
    let leaf_ids: Vec<usize> = matchers
        .iter()
        .filter_map(|m| m.leaf_matcher())
        .map(|leaf| matcher_identity(&**leaf))
        .collect();
    let first: Vec<bool> = matchers
        .iter()
        .map(|m| masked != Tri::Yes && leaf_ids.contains(&matcher_identity(&**m)))
        .collect();
    let shared = (workers / threads).max(1);
    let budgets = first
        .iter()
        .map(|&f| if f { workers } else { shared })
        .collect();
    LeafFanOut {
        threads,
        first,
        budgets,
    }
}

/// The shard count a fresh, memo-cold `Matchers` stage reports on
/// `workers` threads: its largest fresh full compute. A slice computes
/// full unless the stage is restricted and the matcher honors the
/// restriction.
pub(crate) fn leaf_shards(
    cfg: &EngineConfig,
    workers: usize,
    rows: usize,
    resolved: &[Option<Arc<dyn Matcher>>],
    masked: Tri,
    density: Density,
) -> usize {
    let matchers: Vec<Arc<dyn Matcher>> = resolved.iter().flatten().cloned().collect();
    let fan_out = leaf_fan_out(workers, &matchers, masked);
    let sparse = sparse_at(cfg, density);
    matchers
        .iter()
        .zip(&fan_out.budgets)
        .filter(|(m, _)| masked.and(honors_restriction(&***m, sparse)) != Tri::Yes)
        .map(|(m, &budget)| unrestricted_shards(cfg, rows, m.row_shardable(), budget))
        .max()
        .unwrap_or(1)
}

/// Row shards of the fused pipeline over `rows` rows: the forced count or
/// [`EngineConfig::min_shard_rows`]-row shards, parallel or not — shards
/// are its granularity and peak-memory unit, threads its parallelism.
pub(crate) fn fused_shards(cfg: &EngineConfig, rows: usize) -> usize {
    cfg.shards
        .unwrap_or_else(|| rows.div_ceil(cfg.min_shard_rows))
        .clamp(1, rows.max(1))
}

/// The sizing of one fused pipeline.
pub(crate) struct FusedSizing {
    pub(crate) shards: usize,
    /// One worker's in-flight bytes: a shard's dense slice per matcher
    /// plus their aggregate.
    pub(crate) inflight_bytes: u64,
    /// Workers, each running a contiguous chunk of shards in turn.
    pub(crate) threads: usize,
}

/// Sizes the fused pipeline of a `matchers`-slice leaf over `rows × cols`:
/// threads are bounded by `workers`, the shards and
/// [`EngineConfig::fuse_budget_bytes`] (over all threads' in-flight
/// bytes, never below one thread), so peak memory does not scale with
/// the core count. `workers: None` sizes for any machine — as many
/// threads as the budget and the shards admit.
pub(crate) fn fused_sizing(
    cfg: &EngineConfig,
    workers: Option<usize>,
    rows: usize,
    cols: usize,
    matchers: usize,
) -> FusedSizing {
    let shards = fused_shards(cfg, rows);
    let inflight_bytes = (rows.div_ceil(shards) as u64)
        .saturating_mul(cols as u64)
        .saturating_mul(8)
        .saturating_mul(matchers as u64 + 1);
    let workers = workers.map_or(u64::MAX, |w| w as u64);
    let budget_cap = match inflight_bytes {
        0 => workers,
        b => (cfg.fuse_budget_bytes as u64 / b).max(1),
    };
    let threads = workers.min(budget_cap).min(shards as u64).max(1) as usize;
    FusedSizing {
        shards,
        inflight_bytes,
        threads,
    }
}

/// The fused in-flight budget, when `bytes` of dense slices exceed it.
pub(crate) fn fuse_budget_exceeded(cfg: &EngineConfig, bytes: u64) -> Option<u64> {
    let budget = cfg.fuse_budget_bytes as u64;
    (bytes > budget).then_some(budget)
}

/// The static half of the fusion decision for a `Filter`/`TopK` input:
/// a fusable leaf, or why the input cannot take the streaming-fused path.
pub(crate) enum Fusion<'p> {
    /// Every static precondition holds.
    Leaf {
        matchers: Vec<(String, Arc<dyn Matcher>)>,
        combination: &'p CombinationStrategy,
    },
    /// The input is not a `Matchers` leaf.
    NotALeaf,
    /// [`EngineConfig::fuse_pruning`] or the sparse path is off.
    Disabled,
    /// Pinned feedback (this many pins) must resurface in the full
    /// combination.
    Feedback(usize),
    /// The leaf has no matchers.
    Empty,
    /// The leaf's selection neither caps nor thresholds: nothing to prune.
    Unpruned,
    /// These matchers are not row-shardable (or not in the library).
    Unshardable(Vec<String>),
}

impl Fusion<'_> {
    /// Whether the stage fuses: a fusable leaf fuses exactly when the
    /// stage runs unrestricted.
    pub(crate) fn fused(&self, masked: Tri) -> Tri {
        match self {
            Fusion::Leaf { .. } => masked.not(),
            _ => Tri::No,
        }
    }
}

/// Checks the static fusion preconditions of a prunable stage over
/// `input`: a non-empty `Matchers` leaf whose selection prunes and whose
/// matchers are all row-shardable, the sparse path and fusion on, and no
/// feedback pinned.
pub(crate) fn fusion<'p>(
    cfg: &EngineConfig,
    library: &MatcherLibrary,
    input: &'p MatchPlan,
    feedback_pins: usize,
) -> Fusion<'p> {
    let MatchPlan::Matchers {
        matchers,
        combination,
    } = input
    else {
        return Fusion::NotALeaf;
    };
    let selection = &combination.selection;
    if !(cfg.fuse_pruning && cfg.sparse) {
        Fusion::Disabled
    } else if feedback_pins > 0 {
        Fusion::Feedback(feedback_pins)
    } else if matchers.is_empty() {
        Fusion::Empty
    } else if selection.max_n.is_none() && selection.threshold.is_none() {
        Fusion::Unpruned
    } else {
        let shardable = |name: &String| library.get(name).filter(|m| m.row_shardable());
        let unshardable: Vec<String> = matchers
            .iter()
            .filter(|name| shardable(name).is_none())
            .cloned()
            .collect();
        if !unshardable.is_empty() {
            return Fusion::Unshardable(unshardable);
        }
        let matchers = matchers
            .iter()
            .filter_map(|name| Some((name.clone(), shardable(name)?)))
            .collect();
        Fusion::Leaf {
            matchers,
            combination,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_connectives_follow_kleene_logic() {
        use Tri::{Maybe, No, Yes};
        assert_eq!(Yes.and(Maybe), Maybe);
        assert_eq!(No.and(Maybe), No);
        assert_eq!(Yes.or(Maybe), Yes);
        assert_eq!(No.or(Maybe), Maybe);
        assert_eq!(Maybe.not(), Maybe);
        assert_eq!(Yes.not(), No);
    }

    /// An exact density decides the storage rule; an upper bound at or
    /// under the cutoff commits to sparse, one above it cannot decide.
    #[test]
    fn storage_is_definite_for_exact_densities() {
        let cfg = EngineConfig::default();
        assert_eq!(sparse_at(&cfg, Density::Exact(0.6)), Tri::No);
        assert_eq!(sparse_at(&cfg, Density::Exact(0.5)), Tri::Yes);
        assert_eq!(sparse_at(&cfg, Density::at_most(60, 100)), Tri::Maybe);
        assert_eq!(sparse_at(&cfg, Density::at_most(40, 100)), Tri::Yes);
        let dense = EngineConfig::default().with_sparse(false);
        assert_eq!(sparse_at(&dense, Density::at_most(40, 100)), Tri::No);
        assert_eq!(pair_matrix_sparse(&cfg, Density::Exact(0.0), 0), Tri::No);
        assert_eq!(
            stage_sparse(&cfg, Tri::Maybe, Density::Exact(0.1)),
            Tri::Maybe
        );
    }

    /// A forced shard count of zero (reachable through a struct literal)
    /// runs as one shard on both the fused and the unrestricted path.
    #[test]
    fn shard_counts_never_reach_zero_or_exceed_rows() {
        let cfg = EngineConfig {
            shards: Some(0),
            ..EngineConfig::default()
        };
        assert_eq!(fused_shards(&cfg, 10), 1);
        assert_eq!(unrestricted_shards(&cfg, 10, true, 4), 1);
        let many = EngineConfig::default().with_shards(50);
        assert_eq!(fused_shards(&many, 10), 10);
        assert_eq!(unrestricted_shards(&many, 10, true, 1), 10);
        assert_eq!(fused_shards(&EngineConfig::default(), 0), 1);
    }

    /// Sized for any machine, the fused pipeline runs as many threads as
    /// the budget admits; a given machine never runs more.
    #[test]
    fn fused_threads_respect_the_budget() {
        let cfg = EngineConfig::default()
            .with_shards(8)
            .with_fuse_budget_bytes(3 * 100 * 100 * 8 * 2);
        let any = fused_sizing(&cfg, None, 800, 100, 1);
        assert_eq!((any.shards, any.threads), (8, 3));
        assert_eq!(any.inflight_bytes, 100 * 100 * 8 * 2);
        assert_eq!(fused_sizing(&cfg, Some(2), 800, 100, 1).threads, 2);
        assert_eq!(fused_sizing(&cfg, Some(1), 0, 100, 1).threads, 1);
    }
}
