//! A minimal dense 2-D tensor in `f64`.
//!
//! Everything the VMR2L models need is expressible with row-major
//! matrices: a batch of entities is the row dimension, features the
//! column dimension. `f64` keeps the finite-difference gradient checks in
//! the test suite tight and training numerically boring.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`; shape bugs are programmer
    /// errors, not runtime conditions.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds a 1×n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Tensor { rows: 1, cols: data.len(), data }
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Elements the backing buffer has reserved (arena-growth checks).
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Grows the backing buffer to hold at least `elems` elements, to
    /// exactly that many when it has to grow.
    pub(crate) fn reserve_total(&mut self, elems: usize) {
        self.data.reserve_exact(elems.saturating_sub(self.data.len()));
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other` (dense).
    ///
    /// Dense inputs take the branch-free i-k-j kernel; matrices that are
    /// known to be mostly exact zeros (masked attention probabilities)
    /// should use [`Tensor::matmul_sparse`] instead — the per-element
    /// zero test that used to live here pays real cost on dense weight
    /// matrices (see the `policy_forward/matmul_*` benches).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernels::matmul_into(self, other, &mut out);
        out
    }

    /// Matrix product `self · other` skipping exact-zero multiplicands of
    /// `self`. Bit-identical to [`Tensor::matmul`] when `other` is finite;
    /// faster only when `self` is genuinely sparse.
    pub fn matmul_sparse(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernels::matmul_sparse_into(self, other, &mut out);
        out
    }

    /// Transpose (cache-blocked).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        crate::kernels::transpose_into(self, &mut out);
        out
    }

    /// Reshapes in place to `rows × cols`, reusing the existing buffer.
    /// New elements (if the tensor grows) are zero; no allocation happens
    /// while `rows * cols` fits the buffer's capacity. The prior contents
    /// are *not* meaningful afterwards — this is the arena-reuse primitive
    /// behind [`crate::infer::FwdCtx`].
    pub fn reshape_reuse(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites this tensor with the shape and contents of `src`,
    /// reusing the existing buffer where capacity allows.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise binary zip.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.rows, other.rows, "zip row mismatch");
        assert_eq!(self.cols, other.cols, "zip col mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Tensor) {
        assert_eq!(self.rows, other.rows, "axpy row mismatch");
        assert_eq!(self.cols, other.cols, "axpy col mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Concatenates two tensors horizontally (same row count).
    pub fn hcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row_slice(r));
            data.extend_from_slice(other.row_slice(r));
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Vertically stacks two tensors (same column count).
    pub fn vcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Extracts the given rows into a new tensor.
    pub fn select_rows(&self, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            assert!(r < self.rows, "row index {r} out of range");
            data.extend_from_slice(self.row_slice(r));
        }
        Tensor { rows: idx.len(), cols: self.cols, data }
    }

    /// Extracts a contiguous block of columns.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "column slice out of range");
        let mut data = Vec::with_capacity(self.rows * len);
        for r in 0..self.rows {
            let row = self.row_slice(r);
            data.extend_from_slice(&row[start..start + len]);
        }
        Tensor { rows: self.rows, cols: len, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f64).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        // Not all identical.
        assert!(t.data().iter().any(|&v| v != t.data()[0]));
    }

    #[test]
    fn hcat_vcat_shapes() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![5.0, 6.0]);
        let h = a.hcat(&b);
        assert_eq!((h.rows(), h.cols()), (2, 3));
        assert_eq!(h.row_slice(0), &[1.0, 2.0, 5.0]);
        let v = a.vcat(&a);
        assert_eq!((v.rows(), v.cols()), (4, 2));
    }

    #[test]
    fn select_rows_and_slice_cols() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
        let c = a.slice_cols(1, 1);
        assert_eq!(c.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        let b = Tensor::row(vec![1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Tensor::from_vec(2, 2, vec![1.5, -2.0, 0.0, 3.25]);
        let json = serde_json::to_string(&a).unwrap();
        let b: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
