//! The token-set similarity engine behind the hybrid name matchers.

use crate::combine::{Aggregation, CombinedSim, DirectedCandidates, Direction, Selection};
use crate::cube::SimMatrix;
use crate::matchers::context::Auxiliary;
use coma_strings::{
    affix_similarity, edit_distance_similarity, ngram_similarity, soundex_similarity, tokenize,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A token-level simple matcher usable inside the hybrid `Name` matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenMatcher {
    /// Common prefix/suffix similarity.
    Affix,
    /// n-gram similarity with the given n (Digram = 2, Trigram = 3).
    NGram(usize),
    /// Levenshtein similarity.
    EditDistance,
    /// Phonetic similarity via Soundex.
    Soundex,
    /// Dictionary lookup in the synonym table.
    Synonym,
}

impl TokenMatcher {
    /// Similarity of two tokens under this matcher.
    pub fn similarity(self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        match self {
            TokenMatcher::Affix => affix_similarity(a, b),
            TokenMatcher::NGram(n) => ngram_similarity(a, b, n),
            TokenMatcher::EditDistance => edit_distance_similarity(a, b),
            TokenMatcher::Soundex => soundex_similarity(a, b),
            TokenMatcher::Synonym => aux.synonyms.similarity(a, b),
        }
    }
}

impl fmt::Display for TokenMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenMatcher::Affix => f.write_str("Affix"),
            TokenMatcher::NGram(2) => f.write_str("Digram"),
            TokenMatcher::NGram(3) => f.write_str("Trigram"),
            TokenMatcher::NGram(n) => write!(f, "{n}-gram"),
            TokenMatcher::EditDistance => f.write_str("EditDistance"),
            TokenMatcher::Soundex => f.write_str("Soundex"),
            TokenMatcher::Synonym => f.write_str("Synonym"),
        }
    }
}

/// The token-set similarity engine shared by the hybrid `Name` and
/// `NamePath` matchers (paper, Sections 4.2 and 6.4).
///
/// A name is tokenized and abbreviation-expanded into a token set; multiple
/// token matchers produce a token-level similarity cube that is combined
/// with the usual three steps. The paper's default (Table 4):
/// constituents `Trigram` + `Synonym`, aggregation `Max`, direction `Both`
/// with selection `Max1`, combined similarity `Average`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameEngine {
    /// Token-level constituent matchers.
    pub token_matchers: Vec<TokenMatcher>,
    /// Step 1 over the token cube.
    pub aggregation: Aggregation,
    /// Step 2a over the token matrix (the paper presupposes `Both`).
    pub direction: Direction,
    /// Step 2b over the token matrix.
    pub selection: Selection,
    /// Step 3: combined similarity over the token sets.
    pub combined: CombinedSim,
}

impl NameEngine {
    /// The paper's default configuration (Table 4, row `Name`).
    pub fn paper_default() -> NameEngine {
        NameEngine {
            token_matchers: vec![TokenMatcher::NGram(3), TokenMatcher::Synonym],
            aggregation: Aggregation::Max,
            direction: Direction::Both,
            selection: Selection::max_n(1),
            combined: CombinedSim::Average,
        }
    }

    /// Tokenizes and abbreviation-expands a name into its token set
    /// (duplicates removed, first occurrence order kept).
    pub fn token_set(&self, name: &str, aux: &Auxiliary) -> Vec<String> {
        let expanded = aux.abbreviations.expand(&tokenize(name));
        let mut seen = Vec::with_capacity(expanded.len());
        for t in expanded {
            if !seen.contains(&t) {
                seen.push(t);
            }
        }
        seen
    }

    /// The aggregated constituent similarity of one token pair: every
    /// token matcher's (clamped) similarity folded with the engine's
    /// aggregation — the cell the cube-based formulation produces, without
    /// materializing a per-pair cube.
    ///
    /// # Panics
    /// Panics if the engine has no token matchers (nothing to aggregate).
    pub fn token_pair_similarity(&self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        assert!(
            !self.token_matchers.is_empty(),
            "cannot aggregate an empty token-matcher list"
        );
        let sims: Vec<f64> = self
            .token_matchers
            .iter()
            .map(|tm| tm.similarity(a, b, aux).clamp(0.0, 1.0))
            .collect();
        let value = match &self.aggregation {
            Aggregation::Max => sims.iter().copied().fold(f64::MIN, f64::max),
            Aggregation::Min => sims.iter().copied().fold(f64::MAX, f64::min),
            Aggregation::Average => sims.iter().sum::<f64>() / sims.len() as f64,
            Aggregation::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    sims.len(),
                    "Weighted aggregation needs one weight per token matcher"
                );
                let total: f64 = weights.iter().sum();
                assert!(total > 0.0, "weights must not sum to zero");
                sims.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / total
            }
        };
        value.clamp(0.0, 1.0)
    }

    /// Steps 2+3 over a token-pair similarity lookup for two token sets
    /// of `lens.0` and `lens.1` tokens (`lookup(i, j)` =
    /// [`NameEngine::token_pair_similarity`] of the `i`-th and `j`-th
    /// token), e.g. reads of a distinct-token table; `identical` says
    /// whether the two sets are the same token sequence. The
    /// paper-default `Both`/`Max1` combination folds the lookups through
    /// the shared allocation-free pipeline (value-identical to select +
    /// compute); other configurations fill a token matrix and select
    /// from it.
    pub fn combine_token_sims_by(
        &self,
        (n1, n2): (usize, usize),
        identical: bool,
        lookup: impl Fn(usize, usize) -> f64,
    ) -> f64 {
        if let Some(trivial) = trivial_combination(n1, n2, identical) {
            return trivial;
        }
        if self.is_both_max1() {
            return crate::combine::max1_both_combined(n1, n2, lookup, self.combined);
        }
        let mut sims = SimMatrix::new(n1, n2);
        for i in 0..n1 {
            for (j, dst) in sims.row_mut(i).iter_mut().enumerate() {
                *dst = lookup(i, j);
            }
        }
        self.combine_matrix(&sims)
    }

    /// Combined similarity of two pre-computed token sets. Each token
    /// pair is scored once into a matrix (the `Both`/`Max1` fold reads
    /// every cell twice), then combined.
    pub fn token_set_similarity(&self, t1: &[String], t2: &[String], aux: &Auxiliary) -> f64 {
        if let Some(trivial) = trivial_combination(t1.len(), t2.len(), t1 == t2) {
            return trivial;
        }
        let mut sims = SimMatrix::new(t1.len(), t2.len());
        for (i, a) in t1.iter().enumerate() {
            for (j, b) in t2.iter().enumerate() {
                sims.set(i, j, self.token_pair_similarity(a, b, aux));
            }
        }
        self.combine_matrix(&sims)
    }

    fn is_both_max1(&self) -> bool {
        self.direction == Direction::Both && self.selection == Selection::max_n(1)
    }

    /// Steps 2+3 over a dense token-pair matrix of two non-empty sets.
    fn combine_matrix(&self, sims: &SimMatrix) -> f64 {
        let (m, n) = (sims.rows(), sims.cols());
        if self.is_both_max1() {
            let values = sims.values();
            return crate::combine::max1_both_combined(
                m,
                n,
                |i, j| values[i * n + j],
                self.combined,
            );
        }
        let candidates = DirectedCandidates::select(sims, self.direction, &self.selection);
        self.combined.compute(&candidates, m, n)
    }

    /// Name-level similarity (tokenize + expand + combine).
    pub fn similarity(&self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        let t1 = self.token_set(a, aux);
        let t2 = self.token_set(b, aux);
        self.token_set_similarity(&t1, &t2, aux)
    }
}

/// The early outs of every token-set combination of an `n1`- and an
/// `n2`-token set: two empty sets match fully, one empty set not at all,
/// and identical sets fully.
fn trivial_combination(n1: usize, n2: usize, identical: bool) -> Option<f64> {
    if n1 == 0 && n2 == 0 {
        return Some(1.0);
    }
    if n1 == 0 || n2 == 0 {
        return Some(0.0);
    }
    identical.then_some(1.0)
}

impl Default for NameEngine {
    fn default() -> Self {
        NameEngine::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::synonym::SynonymTable;

    fn aux() -> Auxiliary {
        let mut a = Auxiliary::standard();
        a.synonyms = SynonymTable::purchase_order();
        a
    }

    #[test]
    fn identical_names_score_1() {
        let e = NameEngine::paper_default();
        assert_eq!(e.similarity("shipToCity", "shipToCity", &aux()), 1.0);
    }

    #[test]
    fn ship_to_matches_deliver_to_via_synonym() {
        // Section 6.4's motivating case: Trigram finds nothing for
        // Ship/Deliver, Synonym does; Max aggregation lets it through.
        let e = NameEngine::paper_default();
        let sim = e.similarity("ShipTo", "DeliverTo", &aux());
        assert!(sim > 0.9, "ShipTo vs DeliverTo: {sim}");
        // Without the synonym table the similarity collapses.
        let plain = Auxiliary::standard();
        let sim_plain = e.similarity("ShipTo", "DeliverTo", &plain);
        assert!(sim_plain < 0.6, "without synonyms: {sim_plain}");
    }

    #[test]
    fn po_expansion_helps() {
        // PO → Purchase Order (abbreviation expansion, Section 4.2).
        let e = NameEngine::paper_default();
        let sim = e.similarity("POShipTo", "PurchaseOrderShipTo", &aux());
        assert!(sim > 0.95, "{sim}");
    }

    #[test]
    fn partial_token_overlap_scores_between_0_and_1() {
        let e = NameEngine::paper_default();
        let sim = e.similarity("shipToCity", "custCity", &aux());
        assert!(sim > 0.2 && sim < 0.8, "{sim}");
    }

    #[test]
    fn unrelated_names_score_low() {
        let e = NameEngine::paper_default();
        let sim = e.similarity("poNo", "street", &aux());
        assert!(sim < 0.3, "{sim}");
    }

    #[test]
    fn token_sets_dedup_and_expand() {
        let e = NameEngine::paper_default();
        let toks = e.token_set("shipToShipDate", &aux());
        assert_eq!(toks, vec!["ship", "to", "date"]);
    }

    /// The `Both`/`Max1` fast path inside `combine_token_sims_by` computes
    /// exactly what the generic select + compute pipeline computes.
    #[test]
    fn combine_fast_path_matches_generic_pipeline() {
        use crate::combine::DirectedCandidates;
        // Tokens (ship, to, city) against (deliver, town).
        let mut sims = SimMatrix::new(3, 2);
        sims.set(0, 0, 1.0); // ship ↔ deliver (synonym)
        sims.set(2, 1, 0.5); // city ↔ town
        sims.set(1, 1, 0.5); // exact tie: first index must win
        for combined in [CombinedSim::Average, CombinedSim::Dice] {
            let engine = NameEngine {
                combined,
                ..NameEngine::paper_default()
            };
            let fast = engine.combine_token_sims_by((3, 2), false, |i, j| sims.get(i, j));
            let cands = DirectedCandidates::select(&sims, engine.direction, &engine.selection);
            let generic = engine.combined.compute(&cands, 3, 2);
            assert_eq!(fast, generic, "{combined:?}");
        }
    }

    #[test]
    fn empty_name_conventions() {
        let e = NameEngine::paper_default();
        assert_eq!(e.similarity("", "", &aux()), 1.0);
        assert_eq!(e.similarity("", "x", &aux()), 0.0);
    }
}
