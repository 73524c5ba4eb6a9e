//! The hybrid structural matchers of Section 4.2: `Children` and `Leaves`.
//! Both derive the similarity of inner elements from the similarity of
//! element sets below them, computed by a configurable **leaf matcher**
//! (default `TypeName`, Table 4) and combined with steps 2+3 of the
//! combination scheme (`Both`/`Max1`, `Average`).
//!
//! Both matchers are [`sparse_capable`](Matcher::sparse_capable): under a
//! search-space restriction they compute set similarities only for the
//! allowed pairs (plus, for `Children`, the recursively needed child
//! pairs) instead of the full cross-product, with results bit-identical
//! to the masked dense computation.
//!
//! Both read the leaf matcher through its keyed table
//! ([`MatchContext::keyed_table`]): one table over distinct (name,
//! datatype) profiles for `TypeName`, identity keys over the dense matrix
//! for a leaf matcher without a keyed form — memoized once per task and
//! shared by every reader, and never fanned out into an `m × n` buffer
//! on the masked path.
//!
//! Each set similarity reads each value once: the paper-default
//! `Both`/`Max1` combination runs the one-pass kernel
//! ([`max1_both_one_pass`](crate::combine)) over one row iterator per
//! element of the first set. For `Leaves` that row is the leaf's keyed
//! table row indexed by the other set's column keys. For `Children` it
//! is a row of its dense output, or on the sparse path a keyed table row
//! in which only inner × inner child pairs are read from the overlay of
//! computed pairs.

use crate::combine::{CombinedSim, DirectedCandidates, Direction, Selection};
use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::PairMask;
use crate::keyed::KeyedSims;
use crate::matchers::context::MatchContext;
use crate::matchers::hybrid::TypeNameMatcher;
use crate::matchers::Matcher;
use coma_graph::{PathId, PathSet};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Shared configuration of the two structural matchers.
#[derive(Clone)]
struct StructuralConfig {
    leaf_matcher: Arc<dyn Matcher>,
    direction: Direction,
    selection: Selection,
    combined: CombinedSim,
}

impl StructuralConfig {
    fn paper_default() -> StructuralConfig {
        StructuralConfig {
            leaf_matcher: Arc::new(TypeNameMatcher::new()),
            direction: Direction::Both,
            selection: Selection::max_n(1),
            combined: CombinedSim::Average,
        }
    }

    /// The leaf matcher's keyed table for the whole task, computed fresh
    /// or taken from the plan-execution memo (keyed by instance identity,
    /// so the standard library's shared `TypeName` table is computed once
    /// per task — and shared by reference between `Children`, `Leaves`
    /// and `TypeName` itself). Structural set similarities read leaf
    /// pairs outside any search-space restriction, so the table covers
    /// the full task; the engine masks the *output* instead.
    fn leaf_table(&self, ctx: &MatchContext<'_>) -> Arc<KeyedSims> {
        ctx.keyed_table(&*self.leaf_matcher)
    }

    /// Combined similarity of two element sets of sizes `n1` and `n2`,
    /// where `row(a)` yields the similarities of the `a`-th element of the
    /// first set to every element of the second, in order — a keyed leaf
    /// table row indexed by column key, or (for `Children`) computed
    /// inner pairs.
    fn set_similarity_rows<I: Iterator<Item = f64>>(
        &self,
        n1: usize,
        n2: usize,
        mut row: impl FnMut(usize) -> I,
    ) -> f64 {
        if n1 == 0 && n2 == 0 {
            return 1.0;
        }
        if n1 == 0 || n2 == 0 {
            return 0.0;
        }
        // The paper-default configuration (`Both`/`Max1`) is the per-cell
        // inner loop of every structural similarity: take the one-pass
        // kernel that reads each value once and folds candidate sums
        // directly instead of materializing a sub-matrix plus
        // per-element candidate lists. Value-identical to the generic
        // path (unit-tested below): the same strict-greater best
        // candidate per row and column, the same clamping (mirroring the
        // `SimMatrix::set` the materialized path performs), the same
        // summation order.
        if self.direction == Direction::Both && self.selection == Selection::max_n(1) {
            return crate::combine::max1_both_one_pass(
                n1,
                n2,
                |a| row(a).map(|v| v.clamp(0.0, 1.0)),
                self.combined,
            );
        }
        let mut sub = SimMatrix::new(n1, n2);
        for a in 0..n1 {
            for (b, v) in row(a).enumerate() {
                sub.set(a, b, v);
            }
        }
        let candidates = DirectedCandidates::select(&sub, self.direction, &self.selection);
        self.combined.compute(&candidates, n1, n2)
    }

    /// [`StructuralConfig::set_similarity_rows`] over a pairwise lookup
    /// `lookup(a, b)`.
    #[cfg(test)]
    fn set_similarity_by(&self, n1: usize, n2: usize, lookup: impl Fn(usize, usize) -> f64) -> f64 {
        let lookup = &lookup;
        self.set_similarity_rows(n1, n2, |a| (0..n2).map(move |b| lookup(a, b)))
    }

    /// The `Both`/`Max1` kernel of [`StructuralConfig::set_similarity_rows`]
    /// over a pairwise lookup, whatever the configured selection.
    #[cfg(test)]
    fn set_similarity_max1(
        &self,
        n1: usize,
        n2: usize,
        lookup: impl Fn(usize, usize) -> f64,
    ) -> f64 {
        let lookup = &lookup;
        crate::combine::max1_both_one_pass(
            n1,
            n2,
            |a| (0..n2).map(move |b| lookup(a, b).clamp(0.0, 1.0)),
            self.combined,
        )
    }

    /// Combined similarity of two leaf-key sets over the keyed leaf table:
    /// one table row per source key, indexed by the target keys.
    fn keyed_set_similarity(&self, keys1: &[u32], keys2: &[u32], leaf: &KeyedSims) -> f64 {
        self.set_similarity_rows(keys1.len(), keys2.len(), |a| {
            let row = leaf.key_row(keys1[a] as usize);
            keys2.iter().map(move |&k| row[k as usize])
        })
    }
}

/// The leaf-table keys of the leaves under `p`, given the keys of its
/// side (row keys for the source, column keys for the target).
fn leaf_keys(ps: &PathSet, p: PathId, keys: &[u32]) -> Vec<u32> {
    ps.leaves_under(p).iter().map(|l| keys[l.index()]).collect()
}

/// The `Children` matcher: "determines the similarity between two inner
/// elements based on the combined similarity between their child elements,
/// which in turn can be both inner and leaf elements. The similarity
/// between the inner elements needs to be recursively computed from the
/// similarity between their respective children" (Section 4.2).
///
/// Pairs where either element is a leaf fall back to the leaf matcher
/// (the paper leaves mixed pairs unspecified; the fallback keeps `Children`
/// consistent with its leaf matcher on leaf-level pairs).
pub struct ChildrenMatcher {
    config: StructuralConfig,
}

impl ChildrenMatcher {
    /// `Children` with the paper's defaults (leaf matcher `TypeName`).
    pub fn new() -> ChildrenMatcher {
        ChildrenMatcher {
            config: StructuralConfig::paper_default(),
        }
    }

    /// `Children` with a custom leaf matcher.
    pub fn with_leaf_matcher(leaf_matcher: Arc<dyn Matcher>) -> ChildrenMatcher {
        ChildrenMatcher {
            config: StructuralConfig {
                leaf_matcher,
                ..StructuralConfig::paper_default()
            },
        }
    }

    /// Overrides the step-3 combined-similarity strategy (Average/Dice).
    pub fn with_combined(mut self, combined: CombinedSim) -> ChildrenMatcher {
        self.config.combined = combined;
        self
    }

    /// Overrides the step-2 selection strategy.
    pub fn with_selection(mut self, selection: Selection) -> ChildrenMatcher {
        self.config.selection = selection;
        self
    }
}

impl Default for ChildrenMatcher {
    fn default() -> Self {
        ChildrenMatcher::new()
    }
}

impl ChildrenMatcher {
    /// The dense path: every inner × inner cell, bottom-up by source
    /// subtree height so children similarities exist before their parents'.
    fn fill_dense(&self, ctx: &MatchContext<'_>, out: &mut SimMatrix) {
        let src_by_height = paths_by_height(ctx, true);
        let tgt_inner: Vec<PathId> = ctx.target_paths.inner_paths();
        for &p in &src_by_height {
            if ctx.source_paths.is_leaf(p) {
                continue;
            }
            let c1 = ctx.source_paths.children(p);
            for &q in &tgt_inner {
                let c2 = ctx.target_paths.children(q);
                let sim = self.config.set_similarity_rows(c1.len(), c2.len(), |a| {
                    let row = out.row(c1[a].index());
                    c2.iter().map(move |y| row[y.index()])
                });
                out.set(p.index(), q.index(), sim);
            }
            // Inner × leaf pairs keep the leaf matcher's value (fallback).
        }
    }

    /// The sparse path: only the allowed inner × inner cells plus the
    /// child pairs they transitively depend on, processed bottom-up into a
    /// sparse overlay over the keyed leaf table — no dense `m × n` buffer
    /// is built or written. The output holds exactly the allowed cells
    /// (computed inner values, leaf values elsewhere), which is what the
    /// dense path's engine-masked result keeps too.
    fn compute_sparse(
        &self,
        ctx: &MatchContext<'_>,
        mask: &PairMask,
        leaf: &KeyedSims,
    ) -> SimMatrix {
        let cols = ctx.cols();
        let sp = ctx.source_paths;
        let tp = ctx.target_paths;

        // Transitive dependency closure: an allowed inner pair (p, q)
        // needs every inner child pair in children(p) × children(q).
        let mut needed: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(PathId, PathId)> = Vec::new();
        for i in 0..ctx.rows() {
            let p = ctx.source_elem(i);
            if sp.is_leaf(p) {
                continue;
            }
            for j in mask.allowed_in_row(i) {
                let q = ctx.target_elem(j);
                if !tp.is_leaf(q) && needed.insert(i * cols + j) {
                    stack.push((p, q));
                }
            }
        }
        let mut order: Vec<(PathId, PathId)> = Vec::new();
        while let Some((p, q)) = stack.pop() {
            order.push((p, q));
            for &c1 in sp.children(p) {
                if sp.is_leaf(c1) {
                    continue;
                }
                for &c2 in tp.children(q) {
                    let cell = c1.index() * cols + c2.index();
                    if !tp.is_leaf(c2) && needed.insert(cell) {
                        stack.push((c1, c2));
                    }
                }
            }
        }

        // Bottom-up: a pair's dependencies have strictly smaller source
        // subtree height, so ordering by it computes children first. The
        // computed inner × inner values land in the overlay, and only
        // inner × inner pairs read it; a pair with a leaf reads its row
        // of the (shared, read-only) keyed leaf table directly.
        let height = subtree_heights(sp);
        order.sort_by_key(|&(p, _)| height[p.index()]);
        let (row_keys, col_keys) = (leaf.row_keys(), leaf.col_keys());
        let mut overlay: HashMap<usize, f64> = HashMap::with_capacity(order.len());
        for (p, q) in order {
            let (c1, c2) = (sp.children(p), tp.children(q));
            let sim = self.config.set_similarity_rows(c1.len(), c2.len(), |a| {
                let (overlay, x) = (&overlay, c1[a].index());
                let (row, x_inner) = (leaf.key_row(row_keys[x] as usize), !sp.is_leaf(c1[a]));
                c2.iter().map(move |&y| {
                    if x_inner && !tp.is_leaf(y) {
                        overlay[&(x * cols + y.index())]
                    } else {
                        row[col_keys[y.index()] as usize]
                    }
                })
            });
            overlay.insert(p.index() * cols + q.index(), sim.clamp(0.0, 1.0));
        }

        // Materialize the allowed cells straight into CSR storage.
        let mut b = SparseBuilder::new(ctx.rows(), cols);
        for i in 0..ctx.rows() {
            let p_inner = !sp.is_leaf(ctx.source_elem(i));
            for j in mask.allowed_in_row(i) {
                let v = if p_inner && !tp.is_leaf(ctx.target_elem(j)) {
                    overlay[&(i * cols + j)]
                } else {
                    leaf.get(i, j)
                };
                b.push(i, j, v);
            }
        }
        b.finish()
    }
}

impl Matcher for ChildrenMatcher {
    fn name(&self) -> &str {
        "Children"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let leaf = self.config.leaf_table(ctx);
        match ctx.restriction {
            Some(mask) => self.compute_sparse(ctx, mask, &leaf),
            None => {
                let mut out = leaf.fan_out(0..ctx.rows());
                self.fill_dense(ctx, &mut out);
                out
            }
        }
    }

    fn sparse_capable(&self) -> bool {
        true
    }

    fn leaf_matcher(&self) -> Option<&Arc<dyn Matcher>> {
        Some(&self.config.leaf_matcher)
    }
}

/// The `Leaves` matcher: "only considers the leaf elements to estimate the
/// similarity between two inner elements. This strategy aims at more
/// stable similarity in cases of structural conflicts" (Section 4.2) —
/// e.g. it can identify ShipTo ↔ DeliverTo even though the address leaves
/// sit one level deeper in PO2.
pub struct LeavesMatcher {
    config: StructuralConfig,
}

impl LeavesMatcher {
    /// `Leaves` with the paper's defaults (leaf matcher `TypeName`).
    pub fn new() -> LeavesMatcher {
        LeavesMatcher {
            config: StructuralConfig::paper_default(),
        }
    }

    /// `Leaves` with a custom leaf matcher.
    pub fn with_leaf_matcher(leaf_matcher: Arc<dyn Matcher>) -> LeavesMatcher {
        LeavesMatcher {
            config: StructuralConfig {
                leaf_matcher,
                ..StructuralConfig::paper_default()
            },
        }
    }

    /// Overrides the step-3 combined-similarity strategy (Average/Dice).
    pub fn with_combined(mut self, combined: CombinedSim) -> LeavesMatcher {
        self.config.combined = combined;
        self
    }

    /// Overrides the step-2 selection strategy.
    pub fn with_selection(mut self, selection: Selection) -> LeavesMatcher {
        self.config.selection = selection;
        self
    }
}

impl Default for LeavesMatcher {
    fn default() -> Self {
        LeavesMatcher::new()
    }
}

impl Matcher for LeavesMatcher {
    fn name(&self) -> &str {
        "Leaves"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        // A leaf's leaf-set is itself, so every pair is handled uniformly:
        // sim(p, q) = combined similarity of leaves_under(p) × leaves_under(q).
        if let Some(mask) = ctx.restriction {
            let leaf = self.config.leaf_table(ctx);
            // Sparse path: each cell depends only on the (full) keyed
            // leaf table, so only the allowed pairs are computed — built
            // straight into CSR storage, row by row.
            let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
            let mut tgt_keys: Vec<Option<Vec<u32>>> = vec![None; ctx.cols()];
            for i in 0..ctx.rows() {
                let mut allowed = mask.allowed_in_row(i).peekable();
                if allowed.peek().is_none() {
                    continue;
                }
                let k1 = leaf_keys(ctx.source_paths, ctx.source_elem(i), leaf.row_keys());
                for j in allowed {
                    let k2 = tgt_keys[j].get_or_insert_with(|| {
                        leaf_keys(ctx.target_paths, ctx.target_elem(j), leaf.col_keys())
                    });
                    b.push(i, j, self.config.keyed_set_similarity(&k1, k2, &leaf));
                }
            }
            b.finish()
        } else {
            self.compute_rows(ctx, 0..ctx.rows())
        }
    }

    /// A contiguous block of rows of the dense matrix. Every cell is a
    /// set similarity over the *shared* keyed leaf table (memoized when
    /// the engine attaches a memo), so rows are independent of each other
    /// and a block is bit-identical to the same rows of
    /// [`Matcher::compute`] — this is what makes `Leaves` row-shardable
    /// while `Children` (whose inner-pair recursion reads other rows'
    /// results) is not.
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let leaf = self.config.leaf_table(ctx);
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        let src_keys: Vec<Vec<u32>> = rows
            .map(|i| leaf_keys(ctx.source_paths, ctx.source_elem(i), leaf.row_keys()))
            .collect();
        let tgt_keys: Vec<Vec<u32>> = ctx
            .target_paths
            .iter()
            .map(|q| leaf_keys(ctx.target_paths, q, leaf.col_keys()))
            .collect();
        for (i, k1) in src_keys.iter().enumerate() {
            for (j, k2) in tgt_keys.iter().enumerate() {
                out.set(i, j, self.config.keyed_set_similarity(k1, k2, &leaf));
            }
        }
        out
    }

    fn sparse_capable(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }

    fn leaf_matcher(&self) -> Option<&Arc<dyn Matcher>> {
        Some(&self.config.leaf_matcher)
    }
}

/// The subtree height of every path (leaves are 0).
fn subtree_heights(ps: &PathSet) -> Vec<usize> {
    let mut height = vec![0usize; ps.len()];
    // DFS preorder guarantees children appear after parents, so a reverse
    // sweep computes heights in one pass.
    for p in ps.iter().collect::<Vec<_>>().into_iter().rev() {
        let h = ps
            .children(p)
            .iter()
            .map(|c| height[c.index()] + 1)
            .max()
            .unwrap_or(0);
        height[p.index()] = h;
    }
    height
}

/// All paths of one side ordered by increasing subtree height (leaves
/// first, root last).
fn paths_by_height(ctx: &MatchContext<'_>, source: bool) -> Vec<PathId> {
    let ps = if source {
        ctx.source_paths
    } else {
        ctx.target_paths
    };
    let height = subtree_heights(ps);
    let mut order: Vec<PathId> = ps.iter().collect();
    order.sort_by_key(|p| height[p.index()]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use crate::matchers::synonym::SynonymTable;
    use coma_graph::{PathSet, Schema};
    use proptest::prelude::*;

    fn po1() -> Schema {
        coma_sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (
                 shipToStreet VARCHAR(200), shipToCity VARCHAR(200), shipToZip VARCHAR(20));
             CREATE TABLE PO1.Customer (custNo INT, custName VARCHAR(200));",
            "PO1",
        )
        .unwrap()
    }

    fn po2() -> Schema {
        coma_xml::import_xsd(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="PO2">
    <xsd:sequence>
      <xsd:element name="DeliverTo" type="Address"/>
      <xsd:element name="BillTo" type="Address"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Address">
    <xsd:sequence>
      <xsd:element name="Street" type="xsd:string"/>
      <xsd:element name="City" type="xsd:string"/>
      <xsd:element name="Zip" type="xsd:decimal"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#,
            "PO2",
        )
        .unwrap()
    }

    fn aux() -> Auxiliary {
        let mut a = Auxiliary::standard();
        a.synonyms = SynonymTable::purchase_order();
        a
    }

    fn run(
        matcher: &dyn Matcher,
        s1: &Schema,
        s2: &Schema,
        aux: &Auxiliary,
    ) -> (SimMatrix, PathSet, PathSet) {
        let p1 = PathSet::new(s1).unwrap();
        let p2 = PathSet::new(s2).unwrap();
        let ctx = MatchContext::new(s1, s2, &p1, &p2, aux);
        (matcher.compute(&ctx), p1, p2)
    }

    fn cell(
        s1: &Schema,
        s2: &Schema,
        m: &SimMatrix,
        p1: &PathSet,
        p2: &PathSet,
        a: &str,
        b: &str,
    ) -> f64 {
        let i = p1.find_by_full_name(s1, a).unwrap().index();
        let j = p2.find_by_full_name(s2, b).unwrap().index();
        m.get(i, j)
    }

    /// Section 4.2's key contrast: "Children will therefore only find a
    /// correspondence between ShipTo and Address, while Leaves can also
    /// identify a correspondence between ShipTo and DeliverTo."
    #[test]
    fn leaves_bridges_the_structural_conflict_children_cannot() {
        let (s1, s2, aux) = (po1(), po2(), aux());

        let (ch, p1, p2) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        let ch_address = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        let ch_deliver = cell(&s1, &s2, &ch, &p1, &p2, "PO1.ShipTo", "PO2.DeliverTo");
        assert!(
            ch_address > ch_deliver,
            "Children: Address {ch_address} vs DeliverTo {ch_deliver}"
        );

        let (lv, p1, p2) = run(&LeavesMatcher::new(), &s1, &s2, &aux);
        let lv_deliver = cell(&s1, &s2, &lv, &p1, &p2, "PO1.ShipTo", "PO2.DeliverTo");
        let lv_address = cell(
            &s1,
            &s2,
            &lv,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        // Leaves sees identical leaf sets for DeliverTo and its Address.
        assert!(
            (lv_deliver - lv_address).abs() < 1e-12,
            "Leaves: DeliverTo {lv_deliver} vs Address {lv_address}"
        );
        assert!(lv_deliver > 0.5, "Leaves ShipTo↔DeliverTo: {lv_deliver}");
        assert!(lv_deliver > ch_deliver);
    }

    #[test]
    fn leaf_pairs_fall_back_to_the_leaf_matcher() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let tn = TypeNameMatcher::new();
        let (tn_m, p1, p2) = run(&tn, &s1, &s2, &aux);
        let (ch, _, _) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        let (lv, _, _) = run(&LeavesMatcher::new(), &s1, &s2, &aux);
        let pairs = [
            ("PO1.ShipTo.shipToCity", "PO2.DeliverTo.Address.City"),
            ("PO1.Customer.custName", "PO2.BillTo.Address.Zip"),
        ];
        for (a, b) in pairs {
            let want = cell(&s1, &s2, &tn_m, &p1, &p2, a, b);
            assert!((cell(&s1, &s2, &ch, &p1, &p2, a, b) - want).abs() < 1e-12);
            assert!((cell(&s1, &s2, &lv, &p1, &p2, a, b) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn children_scores_matching_child_sets_high() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let (ch, p1, p2) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        // ShipTo's children (street, city, zip) match Address's children.
        let sim = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        assert!(sim > 0.5, "{sim}");
        // Customer's children (custNo, custName) match Address poorly.
        let bad = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.Customer",
            "PO2.DeliverTo.Address",
        );
        assert!(bad < sim, "{bad} vs {sim}");
    }

    /// The allocation-free `Both`/`Max1` fast path of `set_similarity`
    /// computes exactly what the generic sub-matrix + select + combine
    /// pipeline computes, for Average and Dice alike.
    #[test]
    fn max1_fast_path_matches_the_generic_pipeline() {
        // Pseudo-random but deterministic similarity table over path ids,
        // with plenty of zeros and exact ties to stress the tie-breaking.
        let table = |p: PathId, q: PathId| -> f64 {
            let h = (p.index() * 31 + q.index() * 17) % 13;
            match h {
                0..=4 => 0.0,
                5..=8 => 0.5,
                _ => h as f64 / 13.0,
            }
        };
        let ids: Vec<PathId> = {
            // Borrow real path ids from a small schema.
            let s = po1();
            let ps = PathSet::new(&s).unwrap();
            ps.iter().collect()
        };
        for m in 1..5usize {
            for n in 1..5usize {
                let set1 = &ids[..m];
                let set2 = &ids[ids.len() - n..];
                for combined in [CombinedSim::Average, CombinedSim::Dice] {
                    let config = StructuralConfig {
                        combined,
                        ..StructuralConfig::paper_default()
                    };
                    let lookup = |a: usize, b: usize| table(set1[a], set2[b]);
                    let fast = config.set_similarity_max1(m, n, lookup);
                    // The generic pipeline, spelled out by hand.
                    let mut sub = SimMatrix::new(m, n);
                    for (a, &p) in set1.iter().enumerate() {
                        for (b, &q) in set2.iter().enumerate() {
                            sub.set(a, b, table(p, q));
                        }
                    }
                    let cands =
                        DirectedCandidates::select(&sub, config.direction, &config.selection);
                    let generic = config.combined.compute(&cands, m, n);
                    assert_eq!(fast, generic, "m={m} n={n} {combined:?}");
                    // And set_similarity_by routes Max1/Both onto the fast
                    // path without changing the value.
                    assert_eq!(config.set_similarity_by(m, n, lookup), generic);
                }
            }
        }
    }

    proptest! {
        /// The one-pass `Both`/`Max1` kernel — in its lookup form, its
        /// keyed-row form (leaf-table rows indexed by column key, as
        /// `Leaves` and `Children` read them) and the name engine's
        /// two-pass form — equals select + compute bit for bit, over
        /// sets drawn from a small distinct-key table so that exact ties
        /// and zeros are dense, including `1 × n` and `m × 1` sets.
        #[test]
        fn one_pass_kernel_matches_select_and_compute(
            shape in 0usize..3,
            sizes in (1usize..64, 1usize..64),
            distinct in (1usize..8, 1usize..8),
            seed in 0u64..u64::MAX,
            dice in 0usize..2,
        ) {
            let (m, n) = match shape {
                0 => (1, sizes.1),
                1 => (sizes.0, 1),
                _ => sizes,
            };
            let mut state = seed | 1;
            let mut next = move |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let mut table = SimMatrix::new(distinct.0, distinct.1);
            for k in 0..distinct.0 {
                for l in 0..distinct.1 {
                    const VALUES: [f64; 7] = [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.25];
                    let v = match next(8) {
                        7 => next(1000) as f64 / 1000.0,
                        pick => VALUES[pick],
                    };
                    table.set(k, l, v);
                }
            }
            let keys1: Vec<u32> = (0..m).map(|_| next(distinct.0) as u32).collect();
            let keys2: Vec<u32> = (0..n).map(|_| next(distinct.1) as u32).collect();
            let value = |a: usize, b: usize| table.get(keys1[a] as usize, keys2[b] as usize);
            let config = StructuralConfig {
                combined: if dice == 1 { CombinedSim::Dice } else { CombinedSim::Average },
                ..StructuralConfig::paper_default()
            };

            let mut sub = SimMatrix::new(m, n);
            for a in 0..m {
                for b in 0..n {
                    sub.set(a, b, value(a, b));
                }
            }
            let cands = DirectedCandidates::select(&sub, Direction::Both, &Selection::max_n(1));
            let want = config.combined.compute(&cands, m, n).to_bits();

            let leaf = KeyedSims::new(
                (0..distinct.0 as u32).collect(),
                (0..distinct.1 as u32).collect(),
                table.clone(),
            );
            let keyed = config.keyed_set_similarity(&keys1, &keys2, &leaf);
            prop_assert_eq!(keyed.to_bits(), want, "keyed rows {}x{}", m, n);
            let lookup = config.set_similarity_by(m, n, value);
            prop_assert_eq!(lookup.to_bits(), want, "lookup {}x{}", m, n);
            let two_pass = crate::combine::max1_both_combined(m, n, value, config.combined);
            prop_assert_eq!(two_pass.to_bits(), want, "two-pass {}x{}", m, n);
        }
    }

    #[test]
    fn roots_get_a_defined_similarity() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        for matcher in [
            &ChildrenMatcher::new() as &dyn Matcher,
            &LeavesMatcher::new(),
        ] {
            let (m, _, _) = run(matcher, &s1, &s2, &aux);
            let root_sim = m.get(0, 0);
            assert!((0.0..=1.0).contains(&root_sim));
        }
    }
}
