//! The hybrid element-level matchers of Section 4.2: `Name`, `NamePath`
//! and `TypeName`. (The hybrid structural matchers `Children` and `Leaves`
//! live in [`super::structural`].)
//!
//! All three read one token table per task: the distinct tokens of both
//! sides, their token-pair similarities, and token-id lists per element
//! name and per path (`NamePath`'s long name). Names come from a bounded
//! vocabulary, so the table is small; every cell — dense, sharded, fused
//! or masked — folds [`NameEngine::combine_token_sims_by`] over it,
//! value-identical to [`NameEngine::similarity`] on the cell's (long)
//! names. A plan execution memoizes the table per task and token-pair
//! function ([`MatchMemo`](crate::MatchMemo)).

use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::{matcher_identity, TaskStats};
use crate::keyed::KeyedSims;
use crate::matchers::context::MatchContext;
use crate::matchers::name_engine::NameEngine;
use crate::matchers::Matcher;
use coma_graph::{DataType, PathId, PathSet, Schema};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

/// Deduplicates the per-row/column keys of one schema side: returns the
/// key id of every element plus the distinct keys in first-use order.
/// Real schemas repeat element names heavily across paths (a 1000-path
/// schema often has only a few hundred distinct names), so the name
/// matchers compute their similarity tables over distinct keys and fan
/// the values out.
fn distinct_keys<K: Eq + Hash + Clone>(keys: impl Iterator<Item = K>) -> (Vec<u32>, Vec<K>) {
    let mut ids = Vec::new();
    let mut order: Vec<K> = Vec::new();
    let mut seen: HashMap<K, u32> = HashMap::new();
    for key in keys {
        let id = *seen.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            u32::try_from(order.len() - 1).expect("more than u32::MAX distinct keys")
        });
        ids.push(id);
    }
    (ids, order)
}

/// Token-id lists in one flat buffer: list `k` is
/// `ids[offsets[k]..offsets[k + 1]]`.
pub(crate) struct IdLists {
    offsets: Vec<usize>,
    pub(crate) ids: Vec<u32>,
}

impl IdLists {
    fn get(&self, k: usize) -> &[u32] {
        &self.ids[self.offsets[k]..self.offsets[k + 1]]
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The token ids of every path's long name (all element names along the
/// path, joined) given each path's own element-name ids `own(p)`: the
/// parent's list followed by the own ids it lacks, in one preorder sweep
/// (parents precede their children). Tokenization splits at the joining
/// separator and abbreviation expansion is per token, so this is exactly
/// the token set of the joined name — without building or tokenizing a
/// single long string.
pub(crate) fn long_name_ids<'a>(paths: &PathSet, own: impl Fn(usize) -> &'a [u32]) -> IdLists {
    let mut lists = IdLists {
        offsets: vec![0],
        ids: Vec::new(),
    };
    for p in paths.iter() {
        let start = lists.ids.len();
        if let Some(parent) = paths.parent(p) {
            let (from, to) = (
                lists.offsets[parent.index()],
                lists.offsets[parent.index() + 1],
            );
            lists.ids.extend_from_within(from..to);
        }
        for &t in own(p.index()) {
            if !lists.ids[start..].contains(&t) {
                lists.ids.push(t);
            }
        }
        lists.offsets.push(lists.ids.len());
    }
    lists
}

/// One schema side of a [`TokenTable`].
struct Side {
    /// Per path: the id of its element name among `names`.
    name_of: Vec<u32>,
    /// Per distinct element name: its token ids.
    names: IdLists,
    /// Per path: the token ids of its long name.
    paths: IdLists,
}

impl Side {
    /// The token ids of path `i`'s element name.
    fn name(&self, i: usize) -> &[u32] {
        self.names.get(self.name_of[i] as usize)
    }
}

/// One side's distinct element names (the name id of every path), each
/// distinct name's token ids, and the side's distinct tokens in
/// first-use order.
fn side_tokens(
    ctx: &MatchContext<'_>,
    engine: &NameEngine,
    schema: &Schema,
    paths: &PathSet,
) -> (Vec<u32>, IdLists, Vec<String>) {
    let (name_of, names) = distinct_keys(paths.iter().map(|p| paths.name(schema, p)));
    let sets: Vec<_> = names.iter().map(|n| ctx.token_set(engine, n)).collect();
    let (ids, tokens) = distinct_keys(sets.iter().flat_map(|set| set.iter()));
    let ends = sets.iter().scan(0, |end, set| {
        *end += set.len();
        Some(*end)
    });
    let offsets = std::iter::once(0).chain(ends).collect();
    let tokens = tokens.into_iter().cloned().collect();
    (name_of, IdLists { offsets, ids }, tokens)
}

/// One task's token table for one token-pair function (module docs).
///
/// Token ids are per side; `same` maps every source token to the id of
/// the equal target token (`u32::MAX` if none), so two lists spell the
/// same token sequence exactly when they map onto each other pairwise.
pub(crate) struct TokenTable {
    src: Side,
    tgt: Side,
    same: Vec<u32>,
    /// Target token count (the row stride of `sims`).
    cols: usize,
    /// Row-major source-token × target-token pair similarities.
    sims: Vec<f64>,
}

impl TokenTable {
    /// Builds the table over every path of both sides.
    fn build(ctx: &MatchContext<'_>, engine: &NameEngine) -> TokenTable {
        let (src_name_of, src_names, src_tokens) =
            side_tokens(ctx, engine, ctx.source, ctx.source_paths);
        let (tgt_name_of, tgt_names, tgt_tokens) =
            side_tokens(ctx, engine, ctx.target, ctx.target_paths);
        let tgt_ids: HashMap<&str, u32> = tgt_tokens.iter().map(String::as_str).zip(0..).collect();
        let same = src_tokens
            .iter()
            .map(|t| tgt_ids.get(t.as_str()).copied().unwrap_or(u32::MAX))
            .collect();
        let sims = src_tokens
            .iter()
            .flat_map(|a| {
                let row = tgt_tokens.iter();
                row.map(move |b| engine.token_pair_similarity(a, b, ctx.aux))
            })
            .collect();
        let side = |name_of: Vec<u32>, names: IdLists, paths: &PathSet| {
            let long = long_name_ids(paths, |p| names.get(name_of[p] as usize));
            Side {
                name_of,
                names,
                paths: long,
            }
        };
        TokenTable {
            src: side(src_name_of, src_names, ctx.source_paths),
            tgt: side(tgt_name_of, tgt_names, ctx.target_paths),
            same,
            cols: tgt_tokens.len(),
            sims,
        }
    }

    /// The combined similarity of source token list `a` and target token
    /// list `b`: steps 2+3 over table lookups, value-identical to
    /// [`NameEngine::token_set_similarity`] of the token sets they spell.
    fn combine(&self, engine: &NameEngine, a: &[u32], b: &[u32]) -> f64 {
        let identical =
            a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| self.same[x as usize] == y);
        engine.combine_token_sims_by((a.len(), b.len()), identical, |x, y| {
            self.sims[a[x] as usize * self.cols + b[y] as usize]
        })
    }

    /// The name similarity of source path `i` and target path `j`.
    fn name_sim(&self, engine: &NameEngine, i: usize, j: usize) -> f64 {
        self.combine(engine, self.src.name(i), self.tgt.name(j))
    }

    /// The long-name similarity of source path `i` and target path `j`.
    fn path_sim(&self, engine: &NameEngine, i: usize, j: usize) -> f64 {
        self.combine(engine, self.src.paths.get(i), self.tgt.paths.get(j))
    }

    /// The row-major `src_names × (every target name)` table of name
    /// similarities, for source name ids `src_names`.
    fn name_pairs(&self, engine: &NameEngine, src_names: &[u32]) -> Vec<f64> {
        let tgt = &self.tgt.names;
        let mut table = Vec::with_capacity(src_names.len() * tgt.len());
        for &a in src_names {
            let a = self.src.names.get(a as usize);
            // Clamped like `cells` and `SparseBuilder::push`, so the
            // sparse==dense bit-identity holds even for exotic engines.
            table.extend(
                (0..tgt.len()).map(|b| self.combine(engine, a, tgt.get(b)).clamp(0.0, 1.0)),
            );
        }
        table
    }
}

/// The task's [`TokenTable`] for `engine`: the memo's (built at most once
/// per task and token-pair function) when one is attached, else one
/// built for this call.
fn token_table(ctx: &MatchContext<'_>, engine: &NameEngine) -> Arc<TokenTable> {
    match ctx.memo {
        Some(memo) => memo.token_table(engine, || TokenTable::build(ctx, engine)),
        None => Arc::new(TokenTable::build(ctx, engine)),
    }
}

/// Source rows `rows` of a cell-local matcher, cell `(i, j)` valued
/// `cell(i, j)`: every column into dense storage when the context is
/// unrestricted, only the allowed cells straight into CSR storage (never
/// an `m × n` buffer) under a restriction.
fn cells(
    ctx: &MatchContext<'_>,
    rows: Range<usize>,
    cell: impl Fn(usize, usize) -> f64,
) -> SimMatrix {
    let n = ctx.cols();
    let Some(mask) = ctx.restriction else {
        let mut out = SimMatrix::new(rows.len(), n);
        for (li, i) in rows.enumerate() {
            for (j, dst) in out.row_mut(li).iter_mut().enumerate() {
                *dst = cell(i, j).clamp(0.0, 1.0);
            }
        }
        return out;
    };
    let mut out = SparseBuilder::new(rows.len(), n);
    for (li, i) in rows.enumerate() {
        for j in mask.allowed_in_row(i) {
            out.push(li, j, cell(i, j));
        }
    }
    out.finish()
}

/// The hybrid `Name` matcher: tokenization, abbreviation expansion and a
/// combination of simple matchers over the token sets (Table 4 defaults:
/// Trigram + Synonym, Max aggregation, Both/Max1, Average).
#[derive(Debug, Clone, Default)]
pub struct NameMatcher {
    /// The token-set engine (constituents + combination strategy).
    pub engine: NameEngine,
}

impl NameMatcher {
    /// `Name` with the paper's default engine.
    pub fn new() -> NameMatcher {
        NameMatcher::default()
    }

    /// `Name` with a custom engine.
    pub fn with_engine(engine: NameEngine) -> NameMatcher {
        NameMatcher { engine }
    }
}

impl Matcher for NameMatcher {
    fn name(&self) -> &str {
        "Name"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        self.compute_rows(ctx, 0..ctx.rows())
    }

    /// A contiguous block of rows. Masked: each allowed cell folds the
    /// token table. Dense: one similarity per distinct name pair of these
    /// rows, fanned out to every cell that shares it. Each cell depends
    /// only on its own (name, name) pair, so the block is bit-identical
    /// to the same rows of [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        let table = token_table(ctx, &self.engine);
        if ctx.restriction.is_some() {
            return cells(ctx, rows, |i, j| table.name_sim(&self.engine, i, j));
        }
        let (src_keys, src_names) = distinct_keys(rows.clone().map(|i| table.src.name_of[i]));
        let names = table.name_pairs(&self.engine, &src_names);
        let stride = table.tgt.names.len();
        let start = rows.start;
        cells(ctx, rows, |i, j| {
            names[src_keys[i - start] as usize * stride + table.tgt.name_of[j] as usize]
        })
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

/// The hybrid `NamePath` matcher: concatenates all element names along the
/// path into a long name and applies `Name` to it. "Considering the
/// complete name path of an element provides additional tokens […] it is
/// possible to distinguish between different contexts of the same element,
/// e.g. ShipTo.Street and BillTo.Street" (Section 4.2).
#[derive(Debug, Clone, Default)]
pub struct NamePathMatcher {
    /// The token-set engine applied to the concatenated path names.
    pub engine: NameEngine,
}

impl NamePathMatcher {
    /// `NamePath` with the paper's default engine.
    pub fn new() -> NamePathMatcher {
        NamePathMatcher::default()
    }

    /// `NamePath` with a custom engine.
    pub fn with_engine(engine: NameEngine) -> NamePathMatcher {
        NamePathMatcher { engine }
    }
}

impl Matcher for NamePathMatcher {
    fn name(&self) -> &str {
        "NamePath"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        self.compute_rows(ctx, 0..ctx.rows())
    }

    /// A contiguous block of rows: long path names never repeat, but
    /// their tokens come from a bounded vocabulary, so every allowed cell
    /// (every cell, when unrestricted) folds the token table over its two
    /// paths' long-name token lists. Each cell depends only on its own
    /// pair, so the block is bit-identical to the same rows of
    /// [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        let table = token_table(ctx, &self.engine);
        cells(ctx, rows, |i, j| table.path_sim(&self.engine, i, j))
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

/// The hybrid `TypeName` matcher: a weighted combination of `DataType` and
/// `Name` similarity. "The default weights of the name and data type
/// similarity, 0.7 and 0.3, respectively, permit to match attributes with
/// similar names but different data types" (Section 6.4, Table 4).
#[derive(Debug, Clone)]
pub struct TypeNameMatcher {
    /// The name engine used for the `Name` constituent.
    pub engine: NameEngine,
    /// Weight of the name similarity (default 0.7).
    pub name_weight: f64,
    /// Weight of the data-type similarity (default 0.3).
    pub type_weight: f64,
}

impl TypeNameMatcher {
    /// `TypeName` with the paper's defaults.
    pub fn new() -> TypeNameMatcher {
        TypeNameMatcher::default()
    }

    /// `TypeName` with custom weights (normalized internally).
    pub fn with_weights(name_weight: f64, type_weight: f64) -> TypeNameMatcher {
        assert!(name_weight >= 0.0 && type_weight >= 0.0 && name_weight + type_weight > 0.0);
        TypeNameMatcher {
            engine: NameEngine::paper_default(),
            name_weight,
            type_weight,
        }
    }
}

impl Default for TypeNameMatcher {
    fn default() -> Self {
        TypeNameMatcher {
            engine: NameEngine::paper_default(),
            name_weight: 0.7,
            type_weight: 0.3,
        }
    }
}

impl Matcher for TypeNameMatcher {
    fn name(&self) -> &str {
        "TypeName"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        self.compute_rows(ctx, 0..ctx.rows())
    }

    /// A contiguous block of rows. Masked: each allowed cell weighs its
    /// token-table name similarity with its datatype compatibility.
    /// Dense: a fan-out of the keyed (name, datatype)-profile table — the
    /// task's memoized one when a reader (`Children`/`Leaves`) already
    /// built it, else one over only these rows, so a row shard never
    /// builds (or waits on) the whole task's table. Each cell depends
    /// only on its own pair of profiles, so the block is bit-identical to
    /// the same rows of [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            let table = token_table(ctx, &self.engine);
            return cells(ctx, rows, |i, j| {
                let a_type = datatype(ctx.source, ctx.source_paths, ctx.source_elem(i));
                let b_type = datatype(ctx.target, ctx.target_paths, ctx.target_elem(j));
                let type_sim = ctx.aux.type_compat.similarity_opt(a_type, b_type);
                self.weigh(table.name_sim(&self.engine, i, j), type_sim)
            });
        }
        let cached = ctx
            .memo
            .and_then(|memo| memo.cached_keyed(self.name(), matcher_identity(self)));
        match cached {
            Some(keyed) => keyed.fan_out(rows),
            None => self.profile_table(ctx, rows.clone()).fan_out(0..rows.len()),
        }
    }

    /// The keyed form: one weighted similarity per distinct (name,
    /// datatype) profile pair, never fanned out to the `m × n` cells.
    fn compute_keyed(&self, ctx: &MatchContext<'_>) -> Option<KeyedSims> {
        Some(self.profile_table(ctx, 0..ctx.rows()))
    }

    /// Distinct source profiles × distinct target profiles.
    fn keyed_table_cells(&self, stats: &TaskStats) -> u64 {
        (stats.source_profiles as u64).saturating_mul(stats.target_profiles as u64)
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

/// The datatype of the node path `id` ends at.
fn datatype(schema: &Schema, paths: &PathSet, id: PathId) -> Option<DataType> {
    schema.node(paths.node_of(id)).datatype
}

impl TypeNameMatcher {
    /// The number of distinct (name, datatype) profiles among `paths` —
    /// the row (source) or column (target) count of the keyed table.
    pub fn profile_count(schema: &Schema, paths: &PathSet) -> usize {
        distinct_keys(
            paths
                .iter()
                .map(|id| (paths.name(schema, id), datatype(schema, paths, id))),
        )
        .1
        .len()
    }

    /// The weighted combination of a name and a datatype similarity.
    fn weigh(&self, name_sim: f64, type_sim: f64) -> f64 {
        (self.name_weight * name_sim.clamp(0.0, 1.0) + self.type_weight * type_sim)
            / (self.name_weight + self.type_weight)
    }

    /// The keyed table of source rows `rows` against every target column:
    /// one weighted similarity per distinct (name, datatype) profile
    /// pair, keyed by each path's profile. Each source profile first
    /// scores its datatype against every distinct target datatype (one
    /// short type row), so the cell loop only indexes two rows — the
    /// profile's name-pair row by target name, its type row by target
    /// datatype — and never probes the type-compatibility map.
    fn profile_table(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> KeyedSims {
        let table = token_table(ctx, &self.engine);
        // Every value depends on its two paths only through their
        // (element name, datatype) profiles.
        let profile = |side: &Side, schema: &Schema, paths: &PathSet, id: PathId| {
            (side.name_of[id.index()], datatype(schema, paths, id))
        };
        let src = ctx.source_paths.iter().skip(rows.start).take(rows.len());
        let (src_keys, src_profiles) =
            distinct_keys(src.map(|id| profile(&table.src, ctx.source, ctx.source_paths, id)));
        let tgt = ctx.target_paths.iter();
        let (tgt_keys, tgt_profiles) =
            distinct_keys(tgt.map(|id| profile(&table.tgt, ctx.target, ctx.target_paths, id)));
        // Name similarities deduplicate one level further (profiles
        // with different datatypes share their name's value).
        let (src_name_keys, src_names) = distinct_keys(src_profiles.iter().map(|&(name, _)| name));
        let names = table.name_pairs(&self.engine, &src_names);
        let stride = table.tgt.names.len();
        let (tgt_type_keys, tgt_types) = distinct_keys(tgt_profiles.iter().map(|&(_, t)| t));
        let mut type_row = vec![0.0; tgt_types.len()];
        let mut keyed = SimMatrix::new(src_profiles.len(), tgt_profiles.len());
        for (a, &(_, a_type)) in src_profiles.iter().enumerate() {
            for (type_sim, &b_type) in type_row.iter_mut().zip(&tgt_types) {
                *type_sim = ctx.aux.type_compat.similarity_opt(a_type, b_type);
            }
            let name_row = &names[src_name_keys[a] as usize * stride..];
            let tgt = tgt_profiles.iter().zip(&tgt_type_keys);
            for (dst, (&(b_name, _), &b_type)) in keyed.row_mut(a).iter_mut().zip(tgt) {
                *dst = self
                    .weigh(name_row[b_name as usize], type_row[b_type as usize])
                    .clamp(0.0, 1.0);
            }
        }
        KeyedSims::new(src_keys, tgt_keys, keyed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use crate::matchers::synonym::SynonymTable;
    use coma_graph::{PathSet, Schema};

    fn po1() -> Schema {
        coma_sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (poNo INT, shipToStreet VARCHAR(200), shipToCity VARCHAR(200));
             CREATE TABLE PO1.Customer (custNo INT, custCity VARCHAR(200));",
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

    fn sim_of(
        matcher: &dyn Matcher,
        s1: &Schema,
        s2: &Schema,
        aux: &Auxiliary,
        src: &str,
        tgt: &str,
    ) -> f64 {
        let p1 = PathSet::new(s1).unwrap();
        let p2 = PathSet::new(s2).unwrap();
        let ctx = MatchContext::new(s1, s2, &p1, &p2, aux);
        let m = matcher.compute(&ctx);
        let i = p1.find_by_full_name(s1, src).unwrap().index();
        let j = p2.find_by_full_name(s2, tgt).unwrap().index();
        m.get(i, j)
    }

    /// The Table 1 scenario: TypeName and NamePath similarities of three
    /// PO1 elements against PO2.DeliverTo.Address.City. We reproduce the
    /// *ordering* structure, not the exact decimals (the paper's matcher
    /// internals differ in unspecified details).
    #[test]
    fn table_1_orderings_hold() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let tn = TypeNameMatcher::new();
        let np = NamePathMatcher::new();
        let city = "PO2.DeliverTo.Address.City";

        // TypeName: custCity > shipToCity > shipToStreet (Table 1).
        let tn_ship_city = sim_of(&tn, &s1, &s2, &aux, "PO1.ShipTo.shipToCity", city);
        let tn_cust_city = sim_of(&tn, &s1, &s2, &aux, "PO1.Customer.custCity", city);
        let tn_ship_street = sim_of(&tn, &s1, &s2, &aux, "PO1.ShipTo.shipToStreet", city);
        assert!(
            tn_cust_city > tn_ship_street,
            "{tn_cust_city} vs {tn_ship_street}"
        );
        assert!(
            tn_ship_city > tn_ship_street,
            "{tn_ship_city} vs {tn_ship_street}"
        );

        // NamePath: shipToCity > shipToStreet > custCity (Table 1): the
        // path context (ShipTo ≈ DeliverTo via synonym) outweighs.
        let np_ship_city = sim_of(&np, &s1, &s2, &aux, "PO1.ShipTo.shipToCity", city);
        let np_ship_street = sim_of(&np, &s1, &s2, &aux, "PO1.ShipTo.shipToStreet", city);
        let np_cust_city = sim_of(&np, &s1, &s2, &aux, "PO1.Customer.custCity", city);
        assert!(
            np_ship_city > np_ship_street,
            "{np_ship_city} vs {np_ship_street}"
        );
        assert!(
            np_ship_city > np_cust_city,
            "{np_ship_city} vs {np_cust_city}"
        );
    }

    #[test]
    fn namepath_distinguishes_contexts_of_shared_elements() {
        // ShipTo.Street should be closer to DeliverTo.Address.Street than
        // to BillTo.Address.Street.
        let (s1, s2, aux) = (po1(), po2(), aux());
        let np = NamePathMatcher::new();
        let deliver = sim_of(
            &np,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToStreet",
            "PO2.DeliverTo.Address.Street",
        );
        let bill = sim_of(
            &np,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToStreet",
            "PO2.BillTo.Address.Street",
        );
        assert!(deliver > bill, "{deliver} vs {bill}");
    }

    #[test]
    fn name_matcher_ignores_context() {
        // Name sees only the last element name, so the two City paths are
        // indistinguishable — the instability Section 7.3 reports.
        let (s1, s2, aux) = (po1(), po2(), aux());
        let nm = NameMatcher::new();
        let a = sim_of(
            &nm,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToCity",
            "PO2.DeliverTo.Address.City",
        );
        let b = sim_of(
            &nm,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToCity",
            "PO2.BillTo.Address.City",
        );
        assert_eq!(a, b);
        assert!(a > 0.4);
    }

    #[test]
    fn typename_prefers_compatible_datatypes_on_name_ties() {
        // Section 6.4: "When several attributes exhibit about the same name
        // similarity, candidates with higher data type compatibility are
        // preferred."
        let s1 = coma_sql::import_ddl("CREATE TABLE T.a (amount DECIMAL(10,2));", "S1").unwrap();
        let s2 = coma_sql::import_ddl(
            "CREATE TABLE T.b (amount DECIMAL(12,2), amounts VARCHAR(99));",
            "S2",
        )
        .unwrap();
        let aux = Auxiliary::standard();
        let tn = TypeNameMatcher::new();
        let same_type = sim_of(&tn, &s1, &s2, &aux, "S1.a.amount", "S2.b.amount");
        let diff_type = sim_of(&tn, &s1, &s2, &aux, "S1.a.amount", "S2.b.amounts");
        assert!(same_type > diff_type, "{same_type} vs {diff_type}");
    }

    /// `TypeName`'s keyed form is the distinct (name, datatype) profile
    /// table the analyzer sizes from `TaskStats`, and fans out to exactly
    /// the dense matrix.
    #[test]
    fn typename_keyed_table_is_the_distinct_profile_table() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux);
        let tn = TypeNameMatcher::new();
        let keyed = tn.compute_keyed(&ctx).unwrap();
        let stats = TaskStats::gather(&ctx);
        let table = keyed.table();
        assert_eq!(
            (table.rows(), table.cols()),
            (stats.source_profiles, stats.target_profiles)
        );
        assert_eq!(
            tn.keyed_table_cells(&stats),
            (table.rows() * table.cols()) as u64
        );
        // PO2 repeats Street/City/Zip under DeliverTo and BillTo.
        assert!(stats.target_profiles < ctx.cols());
        assert_eq!(keyed.fan_out(0..ctx.rows()), tn.compute(&ctx));
    }

    /// One memoized token table per token-pair function: engines that
    /// differ only in selection or combination share it, a different
    /// aggregation gets its own.
    #[test]
    fn token_tables_key_on_the_token_pair_function() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let (p1, p2) = (PathSet::new(&s1).unwrap(), PathSet::new(&s2).unwrap());
        let memo = crate::MatchMemo::new();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux).with_memo(&memo);
        let dice = NameEngine {
            combined: crate::CombinedSim::Dice,
            ..NameEngine::paper_default()
        };
        NameMatcher::new().compute(&ctx);
        NamePathMatcher::with_engine(dice).compute(&ctx);
        assert_eq!(memo.cache().stats().token_tables, 1);
        let min = NameEngine {
            aggregation: crate::combine::Aggregation::Min,
            ..NameEngine::paper_default()
        };
        NameMatcher::with_engine(min).compute(&ctx);
        assert_eq!(memo.cache().stats().token_tables, 2);
    }

    #[test]
    #[should_panic]
    fn typename_rejects_zero_weights() {
        let _ = TypeNameMatcher::with_weights(0.0, 0.0);
    }
}
