//! Keyed similarity tables: a logical `m × n` matrix stored as one key id
//! per row, one key id per column, and a table over the distinct keys.
//!
//! Leaf matchers whose cells depend on a coarser profile than the path
//! pair — `TypeName` depends only on the (name, datatype) profiles of its
//! two elements — have far fewer distinct values than cells: real and
//! generated schemas repeat element names and types across thousands of
//! paths. A [`KeyedSims`] keeps exactly that distinct-profile table plus
//! two key arrays, so the structural matchers (`Children`, `Leaves`) read
//! the leaf similarities they need without ever fanning them out into a
//! dense `m × n` buffer. A matcher without a keyed form is wrapped with
//! identity keys over its dense matrix ([`KeyedSims::identity`]), which
//! makes the keyed table the one shape every consumer reads.
//!
//! ```
//! use coma_core::{KeyedSims, SimMatrix};
//!
//! // Rows 0 and 2 share key 0; columns 1 and 2 share key 1.
//! let mut table = SimMatrix::new(2, 2);
//! table.set(0, 1, 0.5);
//! table.set(1, 0, 0.25);
//! let keyed = KeyedSims::new(vec![0, 1, 0], vec![0, 1, 1], table);
//! assert_eq!(keyed.get(2, 2), 0.5);
//! assert_eq!(keyed.get(1, 0), 0.25);
//! // Fanning rows out yields the logical matrix, dense.
//! assert_eq!(keyed.fan_out(0..3).get(0, 2), 0.5);
//! ```

use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::PairMask;
use std::sync::Arc;

/// A logical `m × n` similarity matrix in keyed form (module docs): cell
/// `(i, j)` reads `table[row_key(i)][col_key(j)]`. The table is stored
/// dense, so a row key's values are one slice.
#[derive(Debug, Clone)]
pub struct KeyedSims {
    row_keys: Vec<u32>,
    col_keys: Vec<u32>,
    table: Arc<SimMatrix>,
}

impl KeyedSims {
    /// A keyed table: `row_keys[i]` / `col_keys[j]` index the rows and
    /// columns of `table` (densified if sparse).
    ///
    /// # Panics
    /// Panics if a key is out of the table's bounds.
    pub fn new(row_keys: Vec<u32>, col_keys: Vec<u32>, table: SimMatrix) -> KeyedSims {
        assert!(
            row_keys.iter().all(|&k| (k as usize) < table.rows())
                && col_keys.iter().all(|&k| (k as usize) < table.cols()),
            "keys must index the distinct-key table"
        );
        KeyedSims {
            row_keys,
            col_keys,
            table: Arc::new(table.into_dense()),
        }
    }

    /// Identity keys over a full `m × n` matrix (shared, not copied, if
    /// dense): the keyed form of a matcher that has no coarser profile.
    pub fn identity(matrix: Arc<SimMatrix>) -> KeyedSims {
        let matrix = if matrix.is_sparse() {
            Arc::new(matrix.to_dense())
        } else {
            matrix
        };
        let key_range = |len: usize| {
            (0..len)
                .map(|k| u32::try_from(k).expect("more than u32::MAX elements"))
                .collect()
        };
        KeyedSims {
            row_keys: key_range(matrix.rows()),
            col_keys: key_range(matrix.cols()),
            table: matrix,
        }
    }

    /// Number of rows of the logical matrix (`m`).
    pub fn rows(&self) -> usize {
        self.row_keys.len()
    }

    /// Number of columns of the logical matrix (`n`).
    pub fn cols(&self) -> usize {
        self.col_keys.len()
    }

    /// The key id of every row.
    pub fn row_keys(&self) -> &[u32] {
        &self.row_keys
    }

    /// The key id of every column.
    pub fn col_keys(&self) -> &[u32] {
        &self.col_keys
    }

    #[inline]
    fn row_key(&self, i: usize) -> usize {
        self.row_keys[i] as usize
    }

    #[inline]
    fn col_key(&self, j: usize) -> usize {
        self.col_keys[j] as usize
    }

    /// The table over distinct keys (`distinct rows × distinct columns`).
    pub fn table(&self) -> &SimMatrix {
        &self.table
    }

    /// The values of row key `row_key` against every column key.
    #[inline]
    pub(crate) fn key_row(&self, row_key: usize) -> &[f64] {
        self.table.row(row_key)
    }

    /// The value of the key pair `(row key, column key)`.
    #[inline]
    pub fn by_keys(&self, row_key: usize, col_key: usize) -> f64 {
        self.table.get(row_key, col_key)
    }

    /// The value of cell `(i, j)` of the logical matrix.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.by_keys(self.row_key(i), self.col_key(j))
    }

    /// Rows `rows` of the logical matrix, fanned out into dense storage.
    pub fn fan_out(&self, rows: std::ops::Range<usize>) -> SimMatrix {
        let mut out = SimMatrix::new(rows.len(), self.cols());
        for (i, src) in rows.enumerate() {
            let key_row = self.key_row(self.row_key(src));
            for (dst, &k) in out.row_mut(i).iter_mut().zip(&self.col_keys) {
                *dst = key_row[k as usize];
            }
        }
        out
    }

    /// The cells `mask` allows, everything else zero — sparse-stored when
    /// `sparse`, dense otherwise. Value-identical to masking the fanned-out
    /// matrix, without materializing it in the sparse case.
    pub fn masked(&self, mask: &PairMask, sparse: bool) -> SimMatrix {
        if !sparse {
            let mut out = self.fan_out(0..self.rows());
            mask.apply(&mut out);
            return out;
        }
        let mut b = SparseBuilder::new(self.rows(), self.cols());
        for i in 0..self.rows() {
            let key = self.row_key(i);
            for j in mask.allowed_in_row(i) {
                b.push(i, j, self.by_keys(key, self.col_key(j)));
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed() -> KeyedSims {
        let mut table = SimMatrix::new(2, 3);
        for (k, v) in [0.1, 0.0, 0.3, 0.4, 0.5, 0.0].into_iter().enumerate() {
            table.set(k / 3, k % 3, v);
        }
        KeyedSims::new(vec![1, 0, 1, 0], vec![2, 0, 1, 2, 0], table)
    }

    #[test]
    fn fan_out_and_masked_agree_with_cell_reads() {
        let keyed = keyed();
        let dense = keyed.fan_out(0..keyed.rows());
        for i in 0..keyed.rows() {
            for j in 0..keyed.cols() {
                assert_eq!(dense.get(i, j), keyed.get(i, j));
            }
        }
        assert_eq!(keyed.fan_out(1..3), dense.row_range(1..3));
        let mut mask = PairMask::new(4, 5);
        for cell in (0..20).filter(|c| c % 3 != 1) {
            mask.allow(cell / 5, cell % 5);
        }
        let sparse = keyed.masked(&mask, true);
        assert!(sparse.is_sparse());
        assert_eq!(sparse, mask.masked_clone(&dense));
        assert_eq!(keyed.masked(&mask, false), mask.masked_clone(&dense));
        assert!(!keyed.masked(&mask, false).is_sparse());
    }

    #[test]
    fn identity_keys_share_the_matrix() {
        let matrix = Arc::new(keyed().fan_out(0..4));
        let ident = KeyedSims::identity(Arc::clone(&matrix));
        assert!(std::ptr::eq(ident.table(), &*matrix));
        assert_eq!(ident.fan_out(0..4), *matrix);
        assert_eq!(ident.get(3, 4), matrix.get(3, 4));
    }
}
