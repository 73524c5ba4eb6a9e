//! Property tests for the name matchers' token table: every cell of
//! `Name`, `NamePath` and `TypeName` — unrestricted, in `compute_rows`
//! row shards, masked, and through streaming-fused execution, with and
//! without a plan-execution memo, for the paper-default engine and for
//! non-default ones — must equal an independent oracle bit for bit: the
//! paper's definitions evaluated through [`NameEngine::similarity`] on
//! the cell's element names (`Name`, `TypeName`) or on its two long path
//! names, the element names along each path joined by a space
//! (`NamePath`).

use coma::core::matchers::hybrid::{NameMatcher, NamePathMatcher, TypeNameMatcher};
use coma::core::matchers::name_engine::{NameEngine, TokenMatcher};
use coma::core::{
    shard_ranges, Aggregation, Auxiliary, Coma, CombinationStrategy, CombinedSim, Direction,
    EngineConfig, MatchContext, MatchMemo, MatchPlan, Matcher, MatcherLibrary, PairMask,
    PlanEngine, Selection, SimMatrix, TopKPer,
};
use coma::graph::{Node, PathSet, Schema, SchemaBuilder};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

const SHAPES: [WorkloadShape; 4] = [
    WorkloadShape::Star,
    WorkloadShape::Deep,
    WorkloadShape::Wide,
    WorkloadShape::Catalog,
];

/// The engine of case `which`: the paper default (`Both`/`Max1`, the
/// allocation-free fold), `Max2` selection with `Dice`, or a `Weighted`
/// three-matcher aggregation with `LargeSmall` direction (both through
/// the generic select-and-combine pipeline).
fn engine(which: usize) -> NameEngine {
    match which {
        0 => NameEngine::paper_default(),
        1 => NameEngine {
            selection: Selection::max_n(2),
            combined: CombinedSim::Dice,
            ..NameEngine::paper_default()
        },
        _ => NameEngine {
            token_matchers: vec![
                TokenMatcher::NGram(3),
                TokenMatcher::Synonym,
                TokenMatcher::EditDistance,
            ],
            aggregation: Aggregation::Weighted(vec![2.0, 1.0, 1.0]),
            direction: Direction::LargeSmall,
            ..NameEngine::paper_default()
        },
    }
}

/// The three name matchers over one engine (`TypeName` with non-default
/// weights, so the weighting is exercised too).
fn matchers(engine: &NameEngine) -> [Arc<dyn Matcher>; 3] {
    [
        Arc::new(NameMatcher::with_engine(engine.clone())),
        Arc::new(NamePathMatcher::with_engine(engine.clone())),
        Arc::new(TypeNameMatcher {
            engine: engine.clone(),
            name_weight: 0.6,
            type_weight: 0.4,
        }),
    ]
}

/// The oracle matrix of `matcher` (by name) from the definitions: each
/// cell is [`NameEngine::similarity`] of its names, i.e. the token-set
/// similarity of their token sets (tokenized once per name here).
fn oracle(ctx: &MatchContext<'_>, matcher: &str, engine: &NameEngine) -> SimMatrix {
    let (aux, rows, cols) = (ctx.aux, 0..ctx.rows(), 0..ctx.cols());
    let tokens = |name: &str| engine.token_set(name, aux);
    let long = |schema: &Schema, paths: &PathSet, id| tokens(&paths.join_names(schema, id, " "));
    let (src, tgt): (Vec<_>, Vec<_>) = if matcher == "NamePath" {
        (
            rows.map(|i| long(ctx.source, ctx.source_paths, ctx.source_elem(i)))
                .collect(),
            cols.map(|j| long(ctx.target, ctx.target_paths, ctx.target_elem(j)))
                .collect(),
        )
    } else {
        (
            rows.map(|i| tokens(ctx.source_name(i))).collect(),
            cols.map(|j| tokens(ctx.target_name(j))).collect(),
        )
    };
    let datatype = |schema: &Schema, paths: &PathSet, id| schema.node(paths.node_of(id)).datatype;
    let mut out = SimMatrix::new(ctx.rows(), ctx.cols());
    for (i, t1) in src.iter().enumerate() {
        for (j, t2) in tgt.iter().enumerate() {
            let sim = engine.token_set_similarity(t1, t2, aux);
            let v = if matcher == "TypeName" {
                let types = aux.type_compat.similarity_opt(
                    datatype(ctx.source, ctx.source_paths, ctx.source_elem(i)),
                    datatype(ctx.target, ctx.target_paths, ctx.target_elem(j)),
                );
                (0.6 * sim.clamp(0.0, 1.0) + 0.4 * types) / (0.6 + 0.4)
            } else {
                sim
            };
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

/// A pseudo-random mask keeping roughly `keep` in 8 pairs.
fn mask(rows: usize, cols: usize, seed: u64, keep: u64) -> PairMask {
    let mut mask = PairMask::new(rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in 0..rows {
        for j in 0..cols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 8 < keep {
                mask.allow(i, j);
            }
        }
    }
    mask
}

/// Checks every compute form of engine `which`'s matchers `picked`
/// (indices into [`matchers`]) against the oracle.
fn check(
    label: &str,
    ctx: &MatchContext<'_>,
    which: usize,
    picked: &[usize],
    shards: usize,
    mask: &PairMask,
) -> Result<(), TestCaseError> {
    let engine = engine(which);
    let all = matchers(&engine);
    let cases: Vec<(&Arc<dyn Matcher>, SimMatrix)> = picked
        .iter()
        .map(|&k| (&all[k], oracle(ctx, all[k].name(), &engine)))
        .collect();
    let label = format!("{label} engine={which}");
    check_direct(&label, ctx, &cases, shards, mask)?;
    check_fused(&label, ctx, &cases, shards)
}

/// Every direct compute form of each matcher against its oracle matrix:
/// unrestricted, row shards, masked and masked row shards, each with and
/// without a memo (the memoized runs share one memo across matchers, so
/// they also share one token table when the engines agree). Without a
/// memo every call builds its own table, so those runs check one row
/// shard per form rather than all of them.
fn check_direct(
    label: &str,
    ctx: &MatchContext<'_>,
    cases: &[(&Arc<dyn Matcher>, SimMatrix)],
    shards: usize,
    mask: &PairMask,
) -> Result<(), TestCaseError> {
    let ranges = shard_ranges(ctx.rows(), shards);
    for memoized in [false, true] {
        let memo = MatchMemo::new();
        let base = if memoized { ctx.with_memo(&memo) } else { *ctx };
        let blocks = if memoized {
            &ranges[..]
        } else {
            &ranges[ranges.len() / 2..][..1]
        };
        for (matcher, want) in cases {
            let name = matcher.name();
            let which = |form: &str| format!("{label} {name} {form} memo={memoized}");
            let full = matcher.compute(&base);
            prop_assert!(!full.is_sparse());
            assert_bits(&which("full"), &full, want)?;
            for range in blocks {
                let rows = matcher.compute_rows(&base, range.clone());
                assert_bits(&which("rows"), &rows, &want.row_range(range.clone()))?;
            }
            let restricted = base.with_restriction(mask);
            let want_masked = mask.masked_clone(want);
            let got = matcher.compute(&restricted);
            prop_assert!(got.is_sparse());
            assert_bits(&which("masked"), &got, &want_masked)?;
            for range in blocks {
                let rows = matcher.compute_rows(&restricted, range.clone());
                let want_rows = want_masked.row_range(range.clone());
                assert_bits(&which("masked rows"), &rows, &want_rows)?;
            }
        }
    }
    Ok(())
}

/// Each matcher alone under a fused `TopK` over a `Max`-aggregated leaf
/// (so a selected pair's similarity is the matcher's cell): the fused
/// run equals the unfused one, and every selected similarity equals the
/// oracle's cell bit for bit.
fn check_fused(
    label: &str,
    ctx: &MatchContext<'_>,
    cases: &[(&Arc<dyn Matcher>, SimMatrix)],
    shards: usize,
) -> Result<(), TestCaseError> {
    let mut liberal = CombinationStrategy::paper_default();
    liberal.aggregation = Aggregation::Max;
    liberal.selection = Selection::max_n(4).with_threshold(0.05);
    for (matcher, want) in cases {
        let name = matcher.name();
        let mut library = MatcherLibrary::new();
        library.register(Arc::clone(matcher));
        let plan = MatchPlan::matchers_with([name], liberal.clone())
            .top_k(3, TopKPer::Both)
            .unwrap();
        let cfg = EngineConfig::default().with_shards(shards);
        let fused = PlanEngine::with_config(&library, cfg.clone())
            .execute(ctx, &plan)
            .unwrap();
        let unfused = PlanEngine::with_config(&library, cfg.with_fuse_pruning(false))
            .execute(ctx, &plan)
            .unwrap();
        prop_assert!(fused.stages[0].fused, "{} {}: no fused stage", label, name);
        prop_assert_eq!(&fused.result, &unfused.result);
        for c in &fused.result.candidates {
            let (i, j) = (c.source.index(), c.target.index());
            let cell = want.get(i, j);
            prop_assert!(
                c.similarity.to_bits() == cell.to_bits(),
                "{} {} fused: ({}, {}) = {} but oracle {}",
                label,
                name,
                i,
                j,
                c.similarity,
                cell
            );
        }
    }
    Ok(())
}

proptest! {
    /// Each name matcher equals the oracle on generated tasks in every
    /// compute form and under fused execution.
    #[test]
    fn name_matchers_over_the_token_table_match_the_oracle(
        shape in 0usize..4,
        nodes in 12usize..32,
        seed in 0u64..1000,
        case in (0usize..3, 0usize..3),
        shards in 1usize..5,
        keep in 1u64..8,
    ) {
        let spec = WorkloadSpec::new(SHAPES[shape], nodes, seed);
        let (source, target) = generate_task(&spec);
        let mut coma = Coma::new();
        coma.aux_mut().synonyms = coma::core::matchers::synonym::SynonymTable::purchase_order();
        let sp = PathSet::new(&source).unwrap();
        let tp = PathSet::new(&target).unwrap();
        let ctx = MatchContext::new(&source, &target, &sp, &tp, coma.aux());
        let mask = mask(ctx.rows(), ctx.cols(), seed, keep);
        let (which, matcher) = case;
        check(&spec.label(), &ctx, which, &[matcher], shards, &mask)?;
    }
}

/// A schema whose element names stress tokenization at name boundaries:
/// acronyms, digits, separators, abbreviations, repeated tokens along a
/// path, and names without any token.
fn odd_schema(name: &str, names: &[&[&str]]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    for chain in names {
        let mut parent = root;
        for element in *chain {
            let node = b.add_node(Node::new(*element));
            b.add_child(parent, node).unwrap();
            parent = node;
        }
    }
    b.build().unwrap()
}

/// Boundary names on both sides, every engine: the token table's long
/// name lists are exactly the token sets of the joined names.
#[test]
fn boundary_names_match_the_oracle() {
    let source = odd_schema(
        "PO1",
        &[
            &["POShipTo", "shipToShipTo", "ZIP"],
            &["cust_No", "--", "custNo2Go"],
            &["", "URLValue", "qty"],
            &["ship to", "Ship", "to"],
        ],
    );
    let target = odd_schema(
        "PO2",
        &[
            &["PurchaseOrder", "DeliverTo", "Zip"],
            &["customer", "number2go", "Number"],
            &["__", "urlValue", "Quantity"],
            &["Ship", "to", "shipTo"],
        ],
    );
    let aux = {
        let mut aux = Auxiliary::standard();
        aux.synonyms = coma::core::matchers::synonym::SynonymTable::purchase_order();
        aux
    };
    let sp = PathSet::new(&source).unwrap();
    let tp = PathSet::new(&target).unwrap();
    let ctx = MatchContext::new(&source, &target, &sp, &tp, &aux);
    let mask = mask(ctx.rows(), ctx.cols(), 7, 4);
    for which in 0..3 {
        check("boundary", &ctx, which, &[0, 1, 2], 3, &mask).unwrap();
    }
}
