//! Step 3 of the combination scheme: one combined similarity for two
//! element sets ([`CombinedSim`]), plus the `Both`/`Max1` kernels that
//! compute it without materializing candidates: a two-pass form over a
//! lookup (each value read twice, no buffer: the name engine's token
//! sets) and a one-pass form over row iterators (each value read once,
//! bests in a reused per-thread buffer: the structural matchers' leaf
//! and child sets). Both fold their bests with the same [`fold_bests`],
//! bit-identical to [`DirectedCandidates::select`] +
//! [`CombinedSim::compute`].

use super::selection::DirectedCandidates;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;

/// Step 3: computation of a single combined similarity for two element sets
/// from their directional match candidates (paper, Section 6.3, Figure 7).
///
/// Used by hybrid matchers (token sets, child sets, leaf sets) and for the
/// schema similarity of complete match results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CombinedSim {
    /// "The average similarity is determined by dividing the sum of the
    /// similarity values of all match candidates of both sets S1 and S2 by
    /// the total number of set elements, |S1|+|S2|."
    Average,
    /// "The ratio of the number of elements which can be matched over the
    /// total number of set elements" — the Dice coefficient; more
    /// optimistic because individual similarities do not matter.
    Dice,
}

impl CombinedSim {
    /// Computes the combined similarity from directional candidates over
    /// sets of `m` source and `n` target elements.
    ///
    /// Both directional lists contribute (Figure 7 sums three candidates
    /// from S1→S2 and three from S2→S1 over |S1|+|S2| = 7). For a
    /// directional selection where only one side was computed, the present
    /// side simply contributes alone.
    pub fn compute(self, candidates: &DirectedCandidates, m: usize, n: usize) -> f64 {
        if m + n == 0 {
            return 1.0;
        }
        match self {
            CombinedSim::Average => {
                let mut sum = 0.0;
                if let Some(ft) = &candidates.for_targets {
                    sum += ft.iter().flatten().map(|&(_, s)| s).sum::<f64>();
                }
                if let Some(fs) = &candidates.for_sources {
                    sum += fs.iter().flatten().map(|&(_, s)| s).sum::<f64>();
                }
                (sum / (m + n) as f64).clamp(0.0, 1.0)
            }
            CombinedSim::Dice => {
                let mut matched_sources: BTreeSet<usize> = BTreeSet::new();
                let mut matched_targets: BTreeSet<usize> = BTreeSet::new();
                if let Some(ft) = &candidates.for_targets {
                    for (j, cands) in ft.iter().enumerate() {
                        if !cands.is_empty() {
                            matched_targets.insert(j);
                        }
                        for &(i, _) in cands {
                            matched_sources.insert(i);
                        }
                    }
                }
                if let Some(fs) = &candidates.for_sources {
                    for (i, cands) in fs.iter().enumerate() {
                        if !cands.is_empty() {
                            matched_sources.insert(i);
                        }
                        for &(j, _) in cands {
                            matched_targets.insert(j);
                        }
                    }
                }
                ((matched_sources.len() + matched_targets.len()) as f64 / (m + n) as f64)
                    .clamp(0.0, 1.0)
            }
        }
    }
}

/// The allocation-free two-pass `Both`/`Max1` pipeline over an `m × n`
/// similarity lookup: per column the best row, per row the best column
/// (each a strict-greater maximum, [`best_of`]'s rule), folded by
/// [`fold_bests`] into the combined similarity with exactly the
/// accumulation order of [`DirectedCandidates::select`] +
/// [`CombinedSim::compute`]. Every cell is read twice, so this form
/// suits a cheap lookup over small sets — the name engine's token-set
/// combination; set similarities over larger sets take the one-pass
/// [`max1_both_one_pass`]. Callers pass pre-clamped lookups (mirroring
/// the `SimMatrix::set` clamp of the materialized formulation).
///
/// [`best_of`]: super::selection
#[inline]
pub(crate) fn max1_both_combined(
    m: usize,
    n: usize,
    lookup: impl Fn(usize, usize) -> f64,
    combined: CombinedSim,
) -> f64 {
    let col_best = |j: usize| (0..m).fold(NO_CANDIDATE, |best, i| max_strict(best, lookup(i, j)));
    let row_best = |i: usize| (0..n).fold(NO_CANDIDATE, |best, j| max_strict(best, lookup(i, j)));
    fold_bests(combined, (m, n), col_best, row_best)
}

thread_local! {
    /// The one-pass kernel's best-value buffer, reused across calls so a
    /// set similarity never allocates once the buffer has grown to the
    /// largest `m + n` seen on the thread.
    static BESTS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// The one-pass `Both`/`Max1` pipeline: `row(a)` yields the `n`
/// similarities of the `a`-th source element in target order, and one
/// sweep over the `m` rows keeps both the row bests and the running
/// column bests, so every cell is read exactly once — e.g. straight from
/// a keyed table row indexed by column key. Bit-identical to
/// [`max1_both_combined`] over the same values: maxima are exact, and
/// both forms fold their bests with [`fold_bests`] in the same order.
/// Callers yield pre-clamped values.
pub(crate) fn max1_both_one_pass<I: Iterator<Item = f64>>(
    m: usize,
    n: usize,
    mut row: impl FnMut(usize) -> I,
    combined: CombinedSim,
) -> f64 {
    BESTS.with(|buffer| {
        let mut bests = buffer.take();
        bests.clear();
        bests.resize(m + n, NO_CANDIDATE);
        let (col_bests, row_bests) = bests.split_at_mut(n);
        for (a, row_best) in row_bests.iter_mut().enumerate() {
            let mut best = NO_CANDIDATE;
            for (col_best, v) in col_bests.iter_mut().zip(row(a)) {
                best = max_strict(best, v);
                *col_best = max_strict(*col_best, v);
            }
            *row_best = best;
        }
        let value = fold_bests(combined, (m, n), |j| col_bests[j], |i| row_bests[i]);
        buffer.set(bests);
        value
    })
}

/// The best value of an element without any candidate yet.
const NO_CANDIDATE: f64 = f64::NEG_INFINITY;

/// The running maximum under [`best_of`]'s strict-greater rule.
///
/// [`best_of`]: super::selection
#[inline]
fn max_strict(best: f64, v: f64) -> f64 {
    if v > best {
        v
    } else {
        best
    }
}

/// Step 3 over the `Max1` bests of both directions of an `m × n` set
/// pair (`col_best(j)` for target `j`, `row_best(i)` for source `i`); a
/// best selects a candidate iff it is positive. Average sums the
/// targets' candidates and the sources' candidates in two accumulators,
/// in index order, then adds them — the fold shape of
/// [`CombinedSim::compute`]. Dice counts the elements with a candidate:
/// an element that is only *some other* element's best has a positive
/// cell, so its own best is a candidate too, and the matched sets are
/// exactly the elements with a positive best — no per-element flags
/// needed. Indexed closures rather than iterators: the name engine calls
/// this once per name pair on sets of a few tokens, where an iterator
/// chain measured twice as slow.
#[inline]
fn fold_bests(
    combined: CombinedSim,
    (m, n): (usize, usize),
    col_best: impl Fn(usize) -> f64,
    row_best: impl Fn(usize) -> f64,
) -> f64 {
    let value = match combined {
        CombinedSim::Average => {
            let mut ft_sum = 0.0;
            for j in 0..n {
                let v = col_best(j);
                if v > 0.0 {
                    ft_sum += v;
                }
            }
            let mut fs_sum = 0.0;
            for i in 0..m {
                let v = row_best(i);
                if v > 0.0 {
                    fs_sum += v;
                }
            }
            (ft_sum + fs_sum) / (m + n) as f64
        }
        CombinedSim::Dice => {
            let matched = (0..n).filter(|&j| col_best(j) > 0.0).count()
                + (0..m).filter(|&i| row_best(i) > 0.0).count();
            matched as f64 / (m + n) as f64
        }
    };
    value.clamp(0.0, 1.0)
}

impl fmt::Display for CombinedSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombinedSim::Average => f.write_str("Average"),
            CombinedSim::Dice => f.write_str("Dice"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{Direction, Selection};
    use crate::cube::SimMatrix;

    /// Figure 7 of the paper: S1 = {s11..s14}, S2 = {s21..s23};
    /// S1→S2 candidates: (s13,s21,1.0), (s12,s22,0.8), (s11,s23,0.8);
    /// S2→S1 the mirror image. Average = 5.2/7 ≈ 0.74, Dice = 6/7 ≈ 0.86.
    fn figure7() -> DirectedCandidates {
        // 4 sources × 3 targets; build the matrix realizing those matches.
        let mut m = SimMatrix::new(4, 3);
        m.set(2, 0, 1.0); // s13 ↔ s21
        m.set(1, 1, 0.8); // s12 ↔ s22
        m.set(0, 2, 0.8); // s11 ↔ s23
        DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1))
    }

    #[test]
    fn figure_7_average() {
        let got = CombinedSim::Average.compute(&figure7(), 4, 3);
        assert!((got - 5.2 / 7.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn figure_7_dice() {
        let got = CombinedSim::Dice.compute(&figure7(), 4, 3);
        assert!((got - 6.0 / 7.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn dice_is_at_least_average() {
        // "Dice returns a higher similarity value than Average and thus is
        // more optimistic."
        let c = figure7();
        assert!(CombinedSim::Dice.compute(&c, 4, 3) >= CombinedSim::Average.compute(&c, 4, 3));
    }

    #[test]
    fn all_similarities_one_makes_them_equal() {
        // Footnote 1: with all element similarities 1.0, Average and Dice
        // yield the same schema similarity.
        let mut m = SimMatrix::new(2, 2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        let c = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1));
        let avg = CombinedSim::Average.compute(&c, 2, 2);
        let dice = CombinedSim::Dice.compute(&c, 2, 2);
        assert_eq!(avg, dice);
        assert_eq!(avg, 1.0);
    }

    #[test]
    fn empty_sets_are_fully_similar() {
        let c = DirectedCandidates {
            for_targets: Some(Vec::new()),
            for_sources: Some(Vec::new()),
        };
        assert_eq!(CombinedSim::Average.compute(&c, 0, 0), 1.0);
    }

    #[test]
    fn no_matches_gives_zero() {
        let m = SimMatrix::new(2, 2);
        let c = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1));
        assert_eq!(CombinedSim::Average.compute(&c, 2, 2), 0.0);
        assert_eq!(CombinedSim::Dice.compute(&c, 2, 2), 0.0);
    }
}
