//! Feature matrices and labelled datasets.
//!
//! The matrix is dense `f32`, row-major, with `NaN` as the missing-value
//! marker. That representation matches the problem: the paper's line
//! measurements are dense (25 metrics per test) but individual records are
//! missing whenever the modem was off during the Saturday test.

use serde::{Deserialize, Serialize};

/// How a feature should be treated by learners and selection criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Real-valued feature; stumps search thresholds over its range.
    Continuous,
    /// 0/1 indicator (categorical variables are binary-expanded upstream, per
    /// the paper's footnote 2).
    Binary,
}

/// Metadata describing one column of a [`FeatureMatrix`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureMeta {
    /// Human-readable feature name (e.g. `ts:dnnmr` or `prod:dnbr*looplength`).
    pub name: String,
    /// Continuous or binary treatment.
    pub kind: FeatureKind,
}

impl FeatureMeta {
    /// Convenience constructor for a continuous feature.
    pub fn continuous(name: impl Into<String>) -> Self {
        Self { name: name.into(), kind: FeatureKind::Continuous }
    }

    /// Convenience constructor for a binary feature.
    pub fn binary(name: impl Into<String>) -> Self {
        Self { name: name.into(), kind: FeatureKind::Binary }
    }
}

/// Dense row-major feature matrix with `NaN` missing values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureMatrix {
    n_rows: usize,
    n_cols: usize,
    values: Vec<f32>,
    meta: Vec<FeatureMeta>,
}

impl FeatureMatrix {
    /// Creates a matrix from row-major values.
    ///
    /// # Panics
    /// Panics if `values.len() != n_rows * meta.len()`.
    pub fn new(n_rows: usize, meta: Vec<FeatureMeta>, values: Vec<f32>) -> Self {
        let n_cols = meta.len();
        assert_eq!(
            values.len(),
            n_rows * n_cols,
            "FeatureMatrix::new: {} values for {} rows x {} cols",
            values.len(),
            n_rows,
            n_cols
        );
        Self { n_rows, n_cols, values, meta }
    }

    /// Creates an all-missing matrix to be filled in by the caller.
    pub fn filled_missing(n_rows: usize, meta: Vec<FeatureMeta>) -> Self {
        let n_cols = meta.len();
        Self { n_rows, n_cols, values: vec![f32::NAN; n_rows * n_cols], meta }
    }

    /// Number of rows (examples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Column metadata.
    pub fn meta(&self) -> &[FeatureMeta] {
        &self.meta
    }

    /// Index of the column with the given name, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.meta.iter().position(|m| m.name == name)
    }

    /// Value at `(row, col)`; `NaN` means missing.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        self.values[row * self.n_cols + col]
    }

    /// Sets the value at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        self.values[row * self.n_cols + col] = value;
    }

    /// A full row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        let start = row * self.n_cols;
        &self.values[start..start + self.n_cols]
    }

    /// Iterator over a column's values (row order).
    pub fn column(&self, col: usize) -> impl Iterator<Item = f32> + '_ {
        (0..self.n_rows).map(move |r| self.get(r, col))
    }

    /// Copies a column into a `Vec<f64>` (useful for statistics helpers).
    pub fn column_f64(&self, col: usize) -> Vec<f64> {
        self.column(col).map(f64::from).collect()
    }

    /// Builds a new matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> FeatureMatrix {
        let meta: Vec<FeatureMeta> = cols.iter().map(|&c| self.meta[c].clone()).collect();
        let mut values = Vec::with_capacity(self.n_rows * cols.len());
        for r in 0..self.n_rows {
            for &c in cols {
                values.push(self.get(r, c));
            }
        }
        FeatureMatrix::new(self.n_rows, meta, values)
    }

    /// Builds a new matrix keeping only the listed rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> FeatureMatrix {
        let mut values = Vec::with_capacity(rows.len() * self.n_cols);
        for &r in rows {
            values.extend_from_slice(self.row(r));
        }
        FeatureMatrix::new(rows.len(), self.meta.clone(), values)
    }
}

/// A labelled dataset: features plus binary labels.
///
/// Labels follow the paper's convention: `true` = the line registered a
/// customer ticket within the prediction horizon (a *positive* example).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, one row per example.
    pub x: FeatureMatrix,
    /// Binary labels, one per row of `x`.
    pub y: Vec<bool>,
}

impl Dataset {
    /// Creates a dataset, checking that labels align with rows.
    ///
    /// # Panics
    /// Panics if `y.len() != x.n_rows()`.
    pub fn new(x: FeatureMatrix, y: Vec<bool>) -> Self {
        assert_eq!(x.n_rows(), y.len(), "Dataset::new: label/row count mismatch");
        Self { x, y }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of positive examples.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&v| v).count()
    }

    /// Sub-dataset with the given rows.
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let y = rows.iter().map(|&r| self.y[r]).collect();
        Dataset::new(self.x.select_rows(rows), y)
    }

    /// Sub-dataset with the given feature columns.
    pub fn select_columns(&self, cols: &[usize]) -> Dataset {
        Dataset::new(self.x.select_columns(cols), self.y.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> FeatureMatrix {
        FeatureMatrix::new(
            3,
            vec![FeatureMeta::continuous("a"), FeatureMeta::binary("b")],
            vec![1.0, 0.0, f32::NAN, 1.0, 3.0, 0.0],
        )
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = toy();
        assert_eq!(m.get(0, 0), 1.0);
        assert!(m.get(1, 0).is_nan());
        m.set(1, 0, 2.0);
        assert_eq!(m.get(1, 0), 2.0);
    }

    #[test]
    fn row_and_column_access() {
        let m = toy();
        assert_eq!(m.row(2), &[3.0, 0.0]);
        let col: Vec<f32> = m.column(1).collect();
        assert_eq!(col, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn select_columns_preserves_order_and_meta() {
        let m = toy();
        let s = m.select_columns(&[1]);
        assert_eq!(s.n_cols(), 1);
        assert_eq!(s.meta()[0].name, "b");
        assert_eq!(s.row(2), &[0.0]);
    }

    #[test]
    fn select_rows_subsets() {
        let m = toy();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), &[3.0, 0.0]);
        assert_eq!(s.row(1)[0], 1.0);
    }

    #[test]
    fn column_index_by_name() {
        let m = toy();
        assert_eq!(m.column_index("b"), Some(1));
        assert_eq!(m.column_index("zzz"), None);
    }

    #[test]
    fn dataset_stats() {
        let d = Dataset::new(toy(), vec![true, false, true]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_positive(), 2);
    }

    #[test]
    fn dataset_row_selection_aligns_labels() {
        let d = Dataset::new(toy(), vec![true, false, true]);
        let s = d.select_rows(&[1, 2]);
        assert_eq!(s.y, vec![false, true]);
        assert_eq!(s.x.row(1)[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "label/row count mismatch")]
    fn dataset_rejects_misaligned_labels() {
        let _ = Dataset::new(toy(), vec![true]);
    }

    #[test]
    fn filled_missing_is_all_nan() {
        let m = FeatureMatrix::filled_missing(2, vec![FeatureMeta::continuous("a")]);
        assert!(m.get(0, 0).is_nan());
        assert!(m.get(1, 0).is_nan());
    }
}
