//! Single-precision row-major matrix for the f32 inference fast path.
//!
//! [`Tensor32`] is the deliberately small f32 sibling of
//! [`crate::tensor::Tensor`]: just enough surface for the tape-free
//! [`crate::infer32::FwdCtx32`] arena and the weight-cast-once layer
//! mirrors. It never participates in training — checkpoints, gradients,
//! and the autodiff graph stay f64 — so it carries no xavier init, no
//! serde, and no linear-algebra convenience methods beyond what the f32
//! kernels consume.

use crate::tensor::Tensor;

/// Row-major f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor32 {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor32 { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Tensor32 { rows, cols, data }
    }

    /// Casts an f64 tensor down (round-to-nearest per element). This is
    /// the weight-conversion entry point: call once at load, never per
    /// forward.
    pub fn from_tensor(t: &Tensor) -> Self {
        Tensor32 {
            rows: t.rows(),
            cols: t.cols(),
            data: t.data().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Casts back up to an f64 tensor (tests and tolerance comparisons).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.rows, self.cols, self.data.iter().map(|&v| v as f64).collect())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
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

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place for arena reuse, growing the backing buffer only
    /// when the new shape needs more elements (mirrors
    /// [`Tensor::reshape_reuse`]). Contents are unspecified afterwards.
    pub fn reshape_reuse(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        } else {
            self.data.truncate(need);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Copies another tensor's shape and contents into this one.
    pub fn copy_from(&mut self, other: &Tensor32) {
        self.reshape_reuse(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Copies an f64 tensor in, casting each element down (the arena
    /// input path: features stay f64 upstream).
    pub fn copy_from_f64(&mut self, other: &Tensor) {
        self.reshape_reuse(other.rows(), other.cols());
        for (d, &s) in self.data.iter_mut().zip(other.data()) {
            *d = s as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_roundtrip_preserves_f32_values() {
        let t = Tensor::from_vec(2, 2, vec![1.5, -0.25, 3.0, 0.0]);
        let t32 = Tensor32::from_tensor(&t);
        assert_eq!(t32.to_tensor(), t, "exactly representable values survive the round trip");
        assert_eq!(t32.get(1, 0), 3.0);
    }

    #[test]
    fn reshape_reuse_keeps_capacity() {
        let mut t = Tensor32::zeros(4, 4);
        let cap = t.data.capacity();
        t.reshape_reuse(2, 3);
        assert_eq!((t.rows(), t.cols(), t.len()), (2, 3, 6));
        t.reshape_reuse(4, 4);
        assert_eq!(t.data.capacity(), cap, "shrinking then growing must not reallocate");
    }

    #[test]
    fn copy_from_f64_casts() {
        let mut t = Tensor32::zeros(1, 1);
        t.copy_from_f64(&Tensor::from_vec(1, 3, vec![1.0, 2.0, f64::MIN_POSITIVE]));
        assert_eq!(t.data(), &[1.0, 2.0, 0.0], "subnormal f64 underflows to 0.0f32");
    }
}
