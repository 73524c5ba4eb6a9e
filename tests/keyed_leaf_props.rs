//! Property tests for the keyed leaf table: `Children` and `Leaves` read
//! their leaf matcher through a [`KeyedSims`] table (distinct-profile
//! keys for `TypeName`, identity keys over the dense matrix for a leaf
//! matcher without a keyed form), and must stay bit-identical to an
//! independent oracle that evaluates the paper's definitions over the
//! leaf matcher's full dense `m × n` matrix — masked and unmasked, with
//! and without a plan-execution memo, for the default and for custom
//! leaf matchers and combination settings.

use coma::core::matchers::hybrid::TypeNameMatcher;
use coma::core::matchers::simple::SimpleNameMatcher;
use coma::core::matchers::structural::{ChildrenMatcher, LeavesMatcher};
use coma::core::plans::liberal_name_stage;
use coma::core::{
    Coma, CombinedSim, DirectedCandidates, Direction, KeyedSims, MatchContext, MatchMemo, Matcher,
    PairMask, PlanEngine, Selection, SimMatrix, TopKPer,
};
use coma::graph::{PathId, PathSet};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const SHAPES: [WorkloadShape; 4] = [
    WorkloadShape::Star,
    WorkloadShape::Deep,
    WorkloadShape::Wide,
    WorkloadShape::Catalog,
];

/// The leaf matcher of case `which`: the paper default (`TypeName`,
/// keyed by profile), `TypeName` with custom weights (keyed), or
/// `Trigram` (no keyed form: identity keys over its dense matrix).
fn leaf_matcher(which: usize) -> Arc<dyn Matcher> {
    match which {
        0 => Arc::new(TypeNameMatcher::new()),
        1 => Arc::new(TypeNameMatcher::with_weights(0.5, 0.5)),
        _ => Arc::new(SimpleNameMatcher::ngram(3)),
    }
}

/// The `|set1| × |set2|` sub-matrix of pairwise similarities.
fn sub_matrix(set1: &[PathId], set2: &[PathId], sim: impl Fn(PathId, PathId) -> f64) -> SimMatrix {
    let mut sub = SimMatrix::new(set1.len(), set2.len());
    for (a, &p) in set1.iter().enumerate() {
        for (b, &q) in set2.iter().enumerate() {
            sub.set(a, b, sim(p, q));
        }
    }
    sub
}

/// Steps 2+3 over an explicit sub-matrix: the generic select-then-combine
/// pipeline (`Both` direction), never the allocation-free fast path.
fn combine(sub: &SimMatrix, selection: &Selection, combined: CombinedSim) -> f64 {
    let (n1, n2) = (sub.rows(), sub.cols());
    if n1 == 0 && n2 == 0 {
        return 1.0;
    }
    if n1 == 0 || n2 == 0 {
        return 0.0;
    }
    let candidates = DirectedCandidates::select(sub, Direction::Both, selection);
    combined.compute(&candidates, n1, n2)
}

/// `Leaves` by definition: the combined similarity of the two leaf sets,
/// over the dense leaf matrix.
fn leaves_oracle(
    ctx: &MatchContext<'_>,
    dense: &SimMatrix,
    selection: &Selection,
    combined: CombinedSim,
) -> SimMatrix {
    let tgt_leaves: Vec<Vec<PathId>> = (0..ctx.cols())
        .map(|j| ctx.target_paths.leaves_under(ctx.target_elem(j)))
        .collect();
    let mut out = SimMatrix::new(ctx.rows(), ctx.cols());
    for i in 0..ctx.rows() {
        let l1 = ctx.source_paths.leaves_under(ctx.source_elem(i));
        for (j, l2) in tgt_leaves.iter().enumerate() {
            let sub = sub_matrix(&l1, l2, |p, q| dense.get(p.index(), q.index()));
            out.set(i, j, combine(&sub, selection, combined));
        }
    }
    out
}

/// `Children` by definition: inner × inner pairs recurse into the
/// combined similarity of their child sets; any pair with a leaf falls
/// back to the dense leaf matrix.
fn children_oracle(
    ctx: &MatchContext<'_>,
    dense: &SimMatrix,
    selection: &Selection,
    combined: CombinedSim,
) -> SimMatrix {
    struct Oracle<'a, 'c> {
        ctx: &'a MatchContext<'c>,
        dense: &'a SimMatrix,
        selection: &'a Selection,
        combined: CombinedSim,
        memo: HashMap<(PathId, PathId), f64>,
    }
    impl Oracle<'_, '_> {
        fn sim(&mut self, p: PathId, q: PathId) -> f64 {
            let (sp, tp) = (self.ctx.source_paths, self.ctx.target_paths);
            if sp.is_leaf(p) || tp.is_leaf(q) {
                return self.dense.get(p.index(), q.index());
            }
            if let Some(&v) = self.memo.get(&(p, q)) {
                return v;
            }
            let (c1, c2) = (sp.children(p), tp.children(q));
            let mut sub = SimMatrix::new(c1.len(), c2.len());
            for (a, &x) in c1.iter().enumerate() {
                for (b, &y) in c2.iter().enumerate() {
                    let v = self.sim(x, y);
                    sub.set(a, b, v);
                }
            }
            let v = combine(&sub, self.selection, self.combined).clamp(0.0, 1.0);
            self.memo.insert((p, q), v);
            v
        }
    }
    let mut oracle = Oracle {
        ctx,
        dense,
        selection,
        combined,
        memo: HashMap::new(),
    };
    let mut out = SimMatrix::new(ctx.rows(), ctx.cols());
    for i in 0..ctx.rows() {
        for j in 0..ctx.cols() {
            let v = oracle.sim(ctx.source_elem(i), ctx.target_elem(j));
            out.set(i, j, v);
        }
    }
    out
}

/// Cell-by-cell bit equality (stronger than `SimMatrix`'s value `==`).
fn assert_bits(which: &str, got: &SimMatrix, want: &SimMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            prop_assert!(
                got.get(i, j).to_bits() == want.get(i, j).to_bits(),
                "{}: cell ({}, {}) = {} but oracle {}",
                which,
                i,
                j,
                got.get(i, j),
                want.get(i, j)
            );
        }
    }
    Ok(())
}

proptest! {
    /// `Children` and `Leaves` over the keyed leaf table equal the
    /// dense-leaf-table oracle bit for bit, unmasked and masked, with and
    /// without a memo, for keyed and identity-keyed leaf matchers.
    #[test]
    fn structural_matchers_over_the_keyed_table_match_the_dense_oracle(
        shape in 0usize..4,
        nodes in 16usize..48,
        seed in 0u64..1000,
        config in (0usize..3, 1usize..3, 0usize..2),
        keep in 1u64..8,
    ) {
        let (leaf, max_n, dice) = config;
        let spec = WorkloadSpec::new(SHAPES[shape], nodes, seed);
        let (source, target) = generate_task(&spec);
        let coma = Coma::new();
        let sp = PathSet::new(&source).unwrap();
        let tp = PathSet::new(&target).unwrap();
        let ctx = MatchContext::new(&source, &target, &sp, &tp, coma.aux());
        let leaf_matcher = leaf_matcher(leaf);
        let selection = Selection::max_n(max_n);
        let combined = if dice == 1 { CombinedSim::Dice } else { CombinedSim::Average };
        let dense = leaf_matcher.compute(&ctx);
        prop_assert!(!dense.is_sparse());

        // The keyed table reads back the dense leaf matrix exactly.
        let keyed: Arc<KeyedSims> = ctx.keyed_table(&*leaf_matcher);
        assert_bits("keyed fan-out", &keyed.fan_out(0..ctx.rows()), &dense)?;

        let children = ChildrenMatcher::with_leaf_matcher(Arc::clone(&leaf_matcher))
            .with_selection(selection.clone())
            .with_combined(combined);
        let leaves = LeavesMatcher::with_leaf_matcher(Arc::clone(&leaf_matcher))
            .with_selection(selection.clone())
            .with_combined(combined);
        let want_children = children_oracle(&ctx, &dense, &selection, combined);
        let want_leaves = leaves_oracle(&ctx, &dense, &selection, combined);

        // A pseudo-random mask keeping roughly `keep` in 8 pairs, always
        // including the root pair (structural reads reach every leaf).
        let mut mask = PairMask::new(ctx.rows(), ctx.cols());
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..ctx.rows() {
            for j in 0..ctx.cols() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if (i, j) == (0, 0) || state % 8 < keep {
                    mask.allow(i, j);
                }
            }
        }

        for memoized in [false, true] {
            let memo = MatchMemo::new();
            let base = if memoized { ctx.with_memo(&memo) } else { ctx };
            let which = |m: &str, masked: &str| {
                format!("{} leaf={leaf} {m} {masked} memo={memoized}", spec.label())
            };
            assert_bits(&which("Children", "full"), &children.compute(&base), &want_children)?;
            assert_bits(&which("Leaves", "full"), &leaves.compute(&base), &want_leaves)?;
            let restricted = base.with_restriction(&mask);
            let got = children.compute(&restricted);
            prop_assert!(got.is_sparse());
            assert_bits(&which("Children", "masked"), &got, &mask.masked_clone(&want_children))?;
            let got = leaves.compute(&restricted);
            prop_assert!(got.is_sparse());
            assert_bits(&which("Leaves", "masked"), &got, &mask.masked_clone(&want_leaves))?;
        }
    }
}

/// The large shapes the proptest above never draws: a catalog whose
/// categories hold more than 100 leaf children each, and a wide schema
/// whose root pair's `Children` closure covers every container pair.
/// `Children` and `Leaves` (paper-default `TypeName` leaf matcher) equal
/// the dense oracle bit for bit, unmasked and masked by the `TopK(5)`
/// prefilter's survivors, for Average and Dice.
#[test]
fn large_catalog_and_wide_shapes_match_the_dense_oracle() {
    for (shape, nodes) in [(WorkloadShape::Catalog, 380), (WorkloadShape::Wide, 320)] {
        let spec = WorkloadSpec::new(shape, nodes, 7);
        let (source, target) = generate_task(&spec);
        let coma = Coma::new();
        let sp = PathSet::new(&source).unwrap();
        let tp = PathSet::new(&target).unwrap();
        let ctx = MatchContext::new(&source, &target, &sp, &tp, coma.aux());
        let widest = |ps: &PathSet| ps.iter().map(|p| ps.children(p).len()).max().unwrap();
        match shape {
            WorkloadShape::Catalog => assert!(widest(&sp) > 100 && widest(&tp) > 100),
            _ => assert!(sp.inner_paths().len() > 50 && tp.inner_paths().len() > 50),
        }

        let prefilter = liberal_name_stage().top_k(5, TopKPer::Both).unwrap();
        let survivors = PlanEngine::new(coma.library())
            .execute(&ctx, &prefilter)
            .unwrap()
            .result;
        let mask = PairMask::from_result(ctx.rows(), ctx.cols(), &survivors);
        let restricted = ctx.with_restriction(&mask);

        let leaf_matcher = leaf_matcher(0);
        let dense = leaf_matcher.compute(&ctx);
        let selection = Selection::max_n(1);
        for combined in [CombinedSim::Average, CombinedSim::Dice] {
            let which = |m: &str, masked: &str| format!("{} {m} {masked} {combined}", spec.label());
            let children = ChildrenMatcher::with_leaf_matcher(Arc::clone(&leaf_matcher))
                .with_combined(combined);
            let leaves =
                LeavesMatcher::with_leaf_matcher(Arc::clone(&leaf_matcher)).with_combined(combined);
            let want_children = children_oracle(&ctx, &dense, &selection, combined);
            let want_leaves = leaves_oracle(&ctx, &dense, &selection, combined);
            let checks = [
                ("Children", &children as &dyn Matcher, &want_children),
                ("Leaves", &leaves, &want_leaves),
            ];
            for (name, matcher, want) in checks {
                assert_bits(&which(name, "full"), &matcher.compute(&ctx), want).unwrap();
                let got = matcher.compute(&restricted);
                assert!(got.is_sparse());
                assert_bits(&which(name, "masked"), &got, &mask.masked_clone(want)).unwrap();
            }
        }
    }
}
