//! The hybrid element-level matchers of Section 4.2: `Name`, `NamePath`
//! and `TypeName`. (The hybrid structural matchers `Children` and `Leaves`
//! live in [`super::structural`].)

use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::{matcher_identity, TaskStats};
use crate::keyed::KeyedSims;
use crate::matchers::context::MatchContext;
use crate::matchers::name_engine::NameEngine;
use crate::matchers::Matcher;
use coma_graph::{DataType, PathId, PathSet, Schema};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Deduplicates the per-row/column keys of one schema side: returns the
/// key id of every element plus the distinct keys in first-use order.
/// Real schemas repeat element names heavily across paths (a 1000-path
/// schema often has only a few hundred distinct names), so `Name` and
/// `TypeName` compute their similarity tables over distinct keys and fan
/// the values out, instead of paying a cache lookup per matrix cell.
fn distinct_keys<K: Eq + Hash + Clone>(keys: impl Iterator<Item = K>) -> (Vec<usize>, Vec<K>) {
    let mut ids = Vec::new();
    let mut order: Vec<K> = Vec::new();
    let mut seen: HashMap<K, usize> = HashMap::new();
    for key in keys {
        let id = *seen.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            order.len() - 1
        });
        ids.push(id);
    }
    (ids, order)
}

/// Per-set token ids plus the distinct tokens in first-use order.
fn index_tokens(sets: &[Arc<Vec<String>>]) -> (Vec<Vec<usize>>, Vec<&str>) {
    let mut names: Vec<&str> = Vec::new();
    let mut map: HashMap<&str, usize> = HashMap::new();
    let per_set = sets
        .iter()
        .map(|ts| {
            ts.iter()
                .map(|t| {
                    *map.entry(t.as_str()).or_insert_with(|| {
                        names.push(t.as_str());
                        names.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    (per_set, names)
}

/// Token-pair similarities over the distinct tokens of two lists of
/// token sets, computed once per distinct token pair (schemas draw names
/// from a bounded vocabulary, so this is small and independent of schema
/// size), plus each set's token ids. A set pair's steps-2+3 combination
/// then folds over table lookups
/// ([`NameEngine::combine_token_sims_by`] — no per-pair allocation for
/// the default `Both`/`Max1` engine), value-identical to
/// [`NameEngine::token_set_similarity`].
struct TokenTable {
    src_ids: Vec<Vec<usize>>,
    tgt_ids: Vec<Vec<usize>>,
    tgt_tokens: usize,
    sims: Vec<f64>,
}

impl TokenTable {
    fn new(
        ctx: &MatchContext<'_>,
        engine: &NameEngine,
        src_sets: &[Arc<Vec<String>>],
        tgt_sets: &[Arc<Vec<String>>],
    ) -> TokenTable {
        let (src_ids, src_tokens) = index_tokens(src_sets);
        let (tgt_ids, tgt_tokens) = index_tokens(tgt_sets);
        let tt = tgt_tokens.len();
        let mut sims = vec![0.0; src_tokens.len() * tt];
        for (a, &ta) in src_tokens.iter().enumerate() {
            for (b, &tb) in tgt_tokens.iter().enumerate() {
                sims[a * tt + b] = engine.token_pair_similarity(ta, tb, ctx.aux);
            }
        }
        TokenTable {
            src_ids,
            tgt_ids,
            tgt_tokens: tt,
            sims,
        }
    }

    /// The combined similarity of source set `a` (tokens `t1`) and target
    /// set `b` (tokens `t2`).
    fn similarity(
        &self,
        engine: &NameEngine,
        a: usize,
        b: usize,
        t1: &[String],
        t2: &[String],
    ) -> f64 {
        let (ids1, ids2) = (&self.src_ids[a], &self.tgt_ids[b]);
        engine.combine_token_sims_by(t1, t2, |x, y| {
            self.sims[ids1[x] * self.tgt_tokens + ids2[y]]
        })
    }
}

/// The row-major `src_names × tgt_names` table of name similarities,
/// computed in two deduplicated levels: a [`TokenTable`] over the names'
/// distinct tokens, then one steps-2+3 combination per distinct name
/// pair. The combination is cheap enough that routing it through the
/// shared name-pair cache would cost more in key allocations and hashing
/// than it saves — the table is computed directly.
fn name_sim_table(
    ctx: &MatchContext<'_>,
    engine: &NameEngine,
    src_names: &[&str],
    tgt_names: &[&str],
) -> Vec<f64> {
    let src_tokens: Vec<Arc<Vec<String>>> =
        src_names.iter().map(|a| ctx.token_set(engine, a)).collect();
    let tgt_tokens: Vec<Arc<Vec<String>>> =
        tgt_names.iter().map(|b| ctx.token_set(engine, b)).collect();
    let tokens = TokenTable::new(ctx, engine, &src_tokens, &tgt_tokens);
    let mut table = vec![0.0; src_names.len() * tgt_names.len()];
    for (a, t1) in src_tokens.iter().enumerate() {
        for (b, t2) in tgt_tokens.iter().enumerate() {
            // Clamped like the restricted path's `SimMatrix::set`, so the
            // sparse==dense bit-identity holds even for exotic engines.
            table[a * tgt_names.len() + b] =
                tokens.similarity(engine, a, b, t1, t2).clamp(0.0, 1.0);
        }
    }
    table
}

/// The token sets of the long (dotted-path) names of source rows `rows`
/// (`source` true) or of every target column, each paired with its long
/// name.
fn long_name_tokens(
    ctx: &MatchContext<'_>,
    engine: &NameEngine,
    source: bool,
    rows: std::ops::Range<usize>,
) -> Vec<(String, Arc<Vec<String>>)> {
    rows.map(|i| {
        let long = if source {
            ctx.source_paths
                .join_names(ctx.source, ctx.source_elem(i), " ")
        } else {
            ctx.target_paths
                .join_names(ctx.target, ctx.target_elem(i), " ")
        };
        let tokens = ctx.token_set(engine, &long);
        (long, tokens)
    })
    .collect()
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
        let mut cache = ctx.name_sim_cache(&self.engine);
        if let Some(mask) = ctx.restriction {
            // Sparse: only the allowed cells, straight through the cache,
            // built directly into CSR storage (never an m × n buffer).
            let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
            for i in 0..ctx.rows() {
                let a = ctx.source_name(i);
                for j in mask.allowed_in_row(i) {
                    let t = ctx.target_name(j);
                    let sim = cache.get_or_compute(a, t, || self.engine.similarity(a, t, ctx.aux));
                    b.push(i, j, sim);
                }
            }
            b.finish()
        } else {
            // Dense: one similarity per distinct name pair, fanned out to
            // every cell that shares it.
            self.compute_rows(ctx, 0..ctx.rows())
        }
    }

    /// A contiguous block of rows of the dense matrix, doing only the
    /// tokenization and similarity-table work those rows need. Each cell
    /// depends only on its own (name, name) pair, so the block is
    /// bit-identical to the same rows of [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        let (src_ids, src_names) = distinct_keys(rows.clone().map(|i| ctx.source_name(i)));
        let (tgt_ids, tgt_names) = distinct_keys((0..ctx.cols()).map(|j| ctx.target_name(j)));
        let table = name_sim_table(ctx, &self.engine, &src_names, &tgt_names);
        for (i, &a_id) in src_ids.iter().enumerate() {
            let base = a_id * tgt_names.len();
            let row = out.row_mut(i);
            for (dst, &b_id) in row.iter_mut().zip(&tgt_ids) {
                *dst = table[base + b_id];
            }
        }
        out
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

impl NamePathMatcher {
    fn token_table(
        &self,
        ctx: &MatchContext<'_>,
        src: &[(String, Arc<Vec<String>>)],
        tgt: &[(String, Arc<Vec<String>>)],
    ) -> TokenTable {
        let sets = |side: &[(String, Arc<Vec<String>>)]| -> Vec<Arc<Vec<String>>> {
            side.iter().map(|(_, t)| Arc::clone(t)).collect()
        };
        TokenTable::new(ctx, &self.engine, &sets(src), &sets(tgt))
    }
}

impl Matcher for NamePathMatcher {
    fn name(&self) -> &str {
        "NamePath"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let Some(mask) = ctx.restriction else {
            return self.compute_rows(ctx, 0..ctx.rows());
        };
        // Sparse: allowed cells only, straight into CSR storage. Long
        // path names never repeat, but their *tokens* come from a
        // bounded vocabulary — so token-pair similarities are computed
        // once per distinct token pair (like the dense `Name` path) and each
        // allowed cell only pays the steps-2+3 combination over table
        // lookups, through the shared name-pair cache.
        let src = long_name_tokens(ctx, &self.engine, true, 0..ctx.rows());
        let tgt = long_name_tokens(ctx, &self.engine, false, 0..ctx.cols());
        let tokens = self.token_table(ctx, &src, &tgt);
        let mut cache = ctx.name_sim_cache(&self.engine);
        let mut builder = SparseBuilder::new(ctx.rows(), ctx.cols());
        for (i, (a, t1)) in src.iter().enumerate() {
            for j in mask.allowed_in_row(i) {
                let (b, t2) = &tgt[j];
                let sim =
                    cache.get_or_compute(a, b, || tokens.similarity(&self.engine, i, j, t1, t2));
                builder.push(i, j, sim);
            }
        }
        builder.finish()
    }

    /// A contiguous block of rows of the dense matrix: the long names and
    /// token sets of only those source paths, against every target path.
    /// Each cell's similarity is a pure function of its two long names
    /// (the shared name-pair cache merely avoids recomputation), so the
    /// block is bit-identical to the same rows of [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let src = long_name_tokens(ctx, &self.engine, true, rows);
        let tgt = long_name_tokens(ctx, &self.engine, false, 0..ctx.cols());
        let mut cache = ctx.name_sim_cache(&self.engine);
        let mut out = SimMatrix::new(src.len(), ctx.cols());
        for (i, (a, t1)) in src.iter().enumerate() {
            for (j, (b, t2)) in tgt.iter().enumerate() {
                let sim = cache
                    .get_or_compute(a, b, || self.engine.token_set_similarity(t1, t2, ctx.aux));
                out.set(i, j, sim);
            }
        }
        out
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
        let total = self.name_weight + self.type_weight;
        let mut cache = ctx.name_sim_cache(&self.engine);
        if let Some(mask) = ctx.restriction {
            // Sparse: only the allowed cells, straight through the cache,
            // built directly into CSR storage.
            let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
            for i in 0..ctx.rows() {
                let a_name = ctx.source_name(i);
                let a_type = ctx
                    .source
                    .node(ctx.source_paths.node_of(ctx.source_elem(i)))
                    .datatype;
                for j in mask.allowed_in_row(i) {
                    let b_name = ctx.target_name(j);
                    let b_type = ctx
                        .target
                        .node(ctx.target_paths.node_of(ctx.target_elem(j)))
                        .datatype;
                    let name_sim = cache
                        .get_or_compute(a_name, b_name, || {
                            self.engine.similarity(a_name, b_name, ctx.aux)
                        })
                        .clamp(0.0, 1.0);
                    let type_sim = ctx.aux.type_compat.similarity_opt(a_type, b_type);
                    b.push(
                        i,
                        j,
                        (self.name_weight * name_sim + self.type_weight * type_sim) / total,
                    );
                }
            }
            b.finish()
        } else {
            self.compute_rows(ctx, 0..ctx.rows())
        }
    }

    /// A contiguous block of rows of the dense matrix: a fan-out of the
    /// keyed (name, datatype)-profile table — the task's memoized one
    /// when a reader (`Children`/`Leaves`) already built it, else one
    /// over only these rows, so a row shard never builds (or waits on)
    /// the whole task's table. Each cell depends only on its own pair of
    /// profiles, so the block is bit-identical to the same rows of
    /// [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
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

/// The (element name, datatype) profile of path `id`: every `TypeName`
/// value depends on its two paths only through their profiles.
fn profile<'s>(schema: &'s Schema, paths: &'s PathSet, id: PathId) -> (&'s str, Option<DataType>) {
    (
        paths.name(schema, id),
        schema.node(paths.node_of(id)).datatype,
    )
}

impl TypeNameMatcher {
    /// The number of distinct (name, datatype) profiles among `paths` —
    /// the row (source) or column (target) count of the keyed table.
    pub fn profile_count(schema: &Schema, paths: &PathSet) -> usize {
        distinct_keys(paths.iter().map(|id| profile(schema, paths, id)))
            .1
            .len()
    }

    /// The keyed table of source rows `rows` against every target column:
    /// one weighted similarity per distinct (name, datatype) profile
    /// pair, keyed by each path's profile.
    fn profile_table(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> KeyedSims {
        let total = self.name_weight + self.type_weight;
        let (src_ids, src_profiles) =
            distinct_keys(rows.map(|i| profile(ctx.source, ctx.source_paths, ctx.source_elem(i))));
        let (tgt_ids, tgt_profiles) = distinct_keys(
            (0..ctx.cols()).map(|j| profile(ctx.target, ctx.target_paths, ctx.target_elem(j))),
        );
        // Name similarities deduplicate one level further (profiles
        // with different datatypes share their name's value).
        let (src_name_ids, src_names) = distinct_keys(src_profiles.iter().map(|&(name, _)| name));
        let (tgt_name_ids, tgt_names) = distinct_keys(tgt_profiles.iter().map(|&(name, _)| name));
        let names = name_sim_table(ctx, &self.engine, &src_names, &tgt_names);
        let mut table = SimMatrix::new(src_profiles.len(), tgt_profiles.len());
        for (a_id, &(_, a_type)) in src_profiles.iter().enumerate() {
            let name_row = &names[src_name_ids[a_id] * tgt_names.len()..];
            let row = table.row_mut(a_id);
            for ((dst, &(_, b_type)), &b_name) in
                row.iter_mut().zip(&tgt_profiles).zip(&tgt_name_ids)
            {
                let type_sim = ctx.aux.type_compat.similarity_opt(a_type, b_type);
                *dst = ((self.name_weight * name_row[b_name] + self.type_weight * type_sim)
                    / total)
                    .clamp(0.0, 1.0);
            }
        }
        let keys = |ids: Vec<usize>| -> Vec<u32> {
            ids.into_iter()
                .map(|k| u32::try_from(k).expect("more than u32::MAX profiles"))
                .collect()
        };
        KeyedSims::new(keys(src_ids), keys(tgt_ids), table)
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

    #[test]
    #[should_panic]
    fn typename_rejects_zero_weights() {
        let _ = TypeNameMatcher::with_weights(0.0, 0.0);
    }
}
