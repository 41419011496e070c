//! Flat, row-major storage for the attribute vectors of a vertex set.
//!
//! The search hot loops (`score()` in the peel, the half-space construction
//! of the global search, the priority functions of the local search) read
//! attribute rows millions of times per query. A `Vec<Vec<f64>>` scatters
//! those rows across the heap — one allocation and one pointer chase per
//! vertex. [`AttrMatrix`] packs all rows into a single `Vec<f64>`, so row
//! access is an index computation into one contiguous buffer and construction
//! is a single allocation.

use std::ops::Index;

/// Row-major `n × dim` attribute matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttrMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl AttrMatrix {
    /// An empty matrix with `dim` columns.
    pub fn new(dim: usize) -> Self {
        AttrMatrix {
            data: Vec::new(),
            dim,
        }
    }

    /// An empty matrix with `dim` columns and capacity for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        AttrMatrix {
            data: Vec::with_capacity(dim * rows),
            dim,
        }
    }

    /// Builds the matrix from per-vertex rows (all of length `dim`; an empty
    /// slice yields an empty matrix with `dim` columns).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut matrix = AttrMatrix::with_capacity(dim, rows.len());
        for row in rows {
            matrix.push_row(row);
        }
        matrix
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length must equal dim");
        self.data.extend_from_slice(row);
    }

    /// Number of rows (vertices).
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Number of columns (attribute dimensionality `d`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Memory footprint of the buffer in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.data.len() * std::mem::size_of::<f64>()
    }
}

impl Index<usize> for AttrMatrix {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_rows() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = AttrMatrix::from_rows(&rows);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(&m[0], &[1.0, 2.0, 3.0][..]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0][..]);
        assert!(m.rows().eq(rows.iter().map(Vec::as_slice)));
        assert!(!m.is_empty());
        assert!(m.memory_bytes() >= 6 * 8);
    }

    #[test]
    fn push_grows_and_flat_layout_is_contiguous() {
        let mut m = AttrMatrix::new(2);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.data, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row length must equal dim")]
    fn ragged_rows_rejected() {
        let mut m = AttrMatrix::new(3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = AttrMatrix::from_rows(&[]);
        assert_eq!(m.num_rows(), 0);
        assert_eq!(m.dim(), 0);
        assert!(m.is_empty());
    }
}
