//! A minimal dense 2-D tensor.
//!
//! Everything the VMR2L models need is expressible with row-major
//! matrices: a batch of entities is the row dimension, features the
//! column dimension. The element type defaults to `f64`, which keeps the
//! finite-difference gradient checks in the test suite tight and training
//! numerically boring; `Tensor<f32>` exists for the fast inference tier
//! only — it never trains, never serializes, and is built by one cast
//! ([`Tensor::from_f64`]).

use rand::Rng;
use serde::__private::{Error, Value};
use serde::{Deserialize, Serialize};

use crate::scalar::Scalar;

/// Row-major dense matrix.
///
/// The buffer may be longer than `rows × cols`: an arena slot reused for
/// a smaller shape ([`Tensor::reuse_as`]) keeps its longest length, so a
/// later, larger shape is zero-filled only past that. Everything that
/// reads the tensor — [`Tensor::data`], [`Tensor::len`], `==`, `clone`,
/// `Debug` and serialization — sees the `rows × cols` prefix only.
pub struct Tensor<S = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S> Tensor<S> {
    /// The `rows × cols` prefix of the buffer: the tensor's elements.
    #[inline]
    fn view(&self) -> &[S] {
        &self.data[..self.rows * self.cols]
    }
}

impl<S: Clone> Clone for Tensor<S> {
    fn clone(&self) -> Self {
        Tensor { rows: self.rows, cols: self.cols, data: self.view().to_vec() }
    }
}

impl<S: PartialEq> PartialEq for Tensor<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.view() == other.view()
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Tensor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.view())
            .finish()
    }
}

// Hand-written for the one serialized instantiation (the derive shim
// takes no generic types): the derive's object, `rows`/`cols`/`data` in
// that order, so checkpoints stay byte-identical.
impl Serialize for Tensor {
    fn __write_json(&self, out: &mut String) {
        out.push_str("{\"rows\":");
        self.rows.__write_json(out);
        out.push_str(",\"cols\":");
        self.cols.__write_json(out);
        out.push_str(",\"data\":");
        self.data().__write_json(out);
        out.push('}');
    }
}

/// A stored tensor is outside input (a checkpoint file): it is refused
/// here unless it holds exactly `rows × cols` finite values, so a shape
/// check on `rows` and `cols` afterwards covers the whole tensor.
impl Deserialize for Tensor {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let m = v.as_object().ok_or_else(|| Error::custom("expected object for Tensor"))?;
        let field = |name: &str| {
            m.get(name).ok_or_else(|| Error::custom(format!("missing field `{name}` in Tensor")))
        };
        let rows = usize::__deserialize(field("rows")?)?;
        let cols = usize::__deserialize(field("cols")?)?;
        let data: Vec<f64> = Vec::__deserialize(field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(Error::custom(format!(
                "Tensor of {rows} x {cols} holds {} values",
                data.len()
            )));
        }
        if let Some(i) = data.iter().position(|x| !x.is_finite()) {
            return Err(Error::custom(format!("Tensor value {i} is not finite")));
        }
        Ok(Tensor { rows, cols, data })
    }
}

impl Tensor {
    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        Tensor { rows, cols, data }
    }
}

impl<S: Scalar> Tensor<S> {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![S::ZERO; rows * cols] }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: S) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`; shape bugs are programmer
    /// errors, not runtime conditions.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds a 1×n row vector.
    pub fn row(data: Vec<S>) -> Self {
        Tensor { rows: 1, cols: data.len(), data }
    }

    /// Casts an f64 tensor to this element type (round-to-nearest per
    /// element; a copy for `f64`). This is the weight-conversion entry
    /// point: call once at load, never per forward.
    pub fn from_f64(t: &Tensor) -> Self {
        Tensor {
            rows: t.rows,
            cols: t.cols,
            data: t.data().iter().map(|&v| S::from_f64(v)).collect(),
        }
    }

    /// Widens to an f64 tensor (exact; tests and tolerance comparisons).
    pub fn to_f64(&self) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data().iter().map(|&v| v.to_f64()).collect(),
        }
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
        self.rows * self.cols
    }

    /// Elements the backing buffer has reserved (arena-growth checks).
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Elements the backing buffer has been filled to: its longest
    /// `rows × cols` so far (arena zero-fill checks).
    pub(crate) fn filled(&self) -> usize {
        self.data.len()
    }

    /// Grows the backing buffer to hold at least `elems` elements, to
    /// exactly that many when it has to grow.
    pub(crate) fn reserve_total(&mut self, elems: usize) {
        self.data.reserve_exact(elems.saturating_sub(self.data.len()));
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[S] {
        self.view()
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data[..self.rows * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> S {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[S] {
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
    pub fn matmul(&self, other: &Tensor<S>) -> Tensor<S> {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernels::matmul_into(self, other, &mut out);
        out
    }

    /// Matrix product `self · other` skipping exact-zero multiplicands of
    /// `self`. Bit-identical to [`Tensor::matmul`] when `other` is finite;
    /// faster only when `self` is genuinely sparse.
    pub fn matmul_sparse(&self, other: &Tensor<S>) -> Tensor<S> {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::kernels::matmul_sparse_into(self, other, &mut out);
        out
    }

    /// Transpose (cache-blocked).
    pub fn transpose(&self) -> Tensor<S> {
        let mut out = Tensor::zeros(self.cols, self.rows);
        crate::kernels::transpose_into(self, &mut out);
        out
    }

    /// Makes this tensor a `rows × cols` view of its own buffer — the
    /// arena-reuse primitive behind [`crate::infer::FwdCtx`]. The buffer
    /// keeps its longest length: only elements past it are written
    /// (zero) and, past the capacity, allocated. The contents are *not*
    /// meaningful afterwards; every user overwrites them.
    pub fn reuse_as(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if n > self.data.len() {
            self.data.resize(n, S::ZERO);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites this tensor with the shape of an f64 tensor and its
    /// contents cast to this element type (the arena input path: features
    /// stay f64 upstream).
    pub fn copy_from_f64(&mut self, src: &Tensor) {
        self.reuse_as(src.rows, src.cols);
        for (d, &s) in self.data_mut().iter_mut().zip(src.data()) {
            *d = S::from_f64(s);
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(S) -> S) -> Tensor<S> {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data().iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise binary zip.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor<S>, f: impl Fn(S, S) -> S) -> Tensor<S> {
        assert_eq!(self.rows, other.rows, "zip row mismatch");
        assert_eq!(self.cols, other.cols, "zip col mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: S, other: &Tensor<S>) {
        assert_eq!(self.rows, other.rows, "axpy row mismatch");
        assert_eq!(self.cols, other.cols, "axpy col mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> S {
        self.data().iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> S {
        self.data().iter().map(|&v| v * v).sum::<S>().sqrt()
    }

    /// Concatenates two tensors horizontally (same row count).
    pub fn hcat(&self, other: &Tensor<S>) -> Tensor<S> {
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
    pub fn vcat(&self, other: &Tensor<S>) -> Tensor<S> {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(self.data());
        data.extend_from_slice(other.data());
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Extracts the given rows into a new tensor.
    pub fn select_rows(&self, idx: &[usize]) -> Tensor<S> {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            assert!(r < self.rows, "row index {r} out of range");
            data.extend_from_slice(self.row_slice(r));
        }
        Tensor { rows: idx.len(), cols: self.cols, data }
    }

    /// Extracts a contiguous block of columns.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor<S> {
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
        let a = Tensor::<f64>::zeros(2, 3);
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

    #[test]
    fn json_form_is_pinned() {
        // The hand-written impls must keep the derive's form: checkpoints
        // written before them load, and re-serialize byte for byte.
        let a = Tensor::from_vec(2, 2, vec![1.5, -2.0, 0.0, 3.25]);
        let json = r#"{"rows":2,"cols":2,"data":[1.5,-2.0,0.0,3.25]}"#;
        assert_eq!(serde_json::to_string(&a).unwrap(), json);
        let b: Tensor = serde_json::from_str(json).unwrap();
        assert_eq!(b, a);
        assert_eq!(serde_json::to_string(&b).unwrap(), json);
        let missing = serde_json::from_str::<Tensor>(r#"{"rows":2,"cols":2}"#).unwrap_err();
        assert!(missing.to_string().contains("missing field `data`"), "{missing}");
    }

    #[test]
    fn deserialize_refuses_data_that_does_not_fill_the_shape_or_is_not_finite() {
        for (json, why) in [
            (r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#, "holds 3 values"),
            (r#"{"rows":1,"cols":2,"data":[1.0,2.0,3.0]}"#, "holds 3 values"),
            (r#"{"rows":0,"cols":2,"data":[1.0]}"#, "holds 1 values"),
            (r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#, "holds 0 values"),
            (r#"{"rows":1,"cols":2,"data":[1.0,1e999]}"#, "value 1 is not finite"),
            (r#"{"rows":1,"cols":2,"data":[-1e999,0.0]}"#, "value 0 is not finite"),
            (r#"{"rows":1,"cols":1,"data":[null]}"#, "expected number"),
        ] {
            let err = serde_json::from_str::<Tensor>(json).unwrap_err().to_string();
            assert!(err.contains(why), "{json}: {err}");
        }
        let empty: Tensor = serde_json::from_str(r#"{"rows":0,"cols":3,"data":[]}"#).unwrap();
        assert_eq!((empty.rows(), empty.cols(), empty.len()), (0, 3, 0));
    }

    #[test]
    fn cast_roundtrip_preserves_f32_values() {
        let t = Tensor::from_vec(2, 2, vec![1.5, -0.25, 3.0, 0.0]);
        let t32 = Tensor::<f32>::from_f64(&t);
        assert_eq!(t32.to_f64(), t, "exactly representable values survive the round trip");
        assert_eq!(t32.get(1, 0), 3.0);
    }

    #[test]
    fn reuse_as_keeps_capacity() {
        let mut t = Tensor::<f32>::zeros(4, 4);
        let cap = t.data.capacity();
        t.reuse_as(2, 3);
        assert_eq!((t.rows(), t.cols(), t.len()), (2, 3, 6));
        t.reuse_as(4, 4);
        assert_eq!(t.data.capacity(), cap, "shrinking then growing must not reallocate");
    }

    #[test]
    fn reuse_as_refills_nothing_below_the_longest_length() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.reuse_as(1, 2);
        assert_eq!(t.filled(), 6, "a shorter view keeps the buffer's length");
        assert_eq!(t.data(), &[1.0, 2.0], "the view is the prefix, not refilled");
        t.reuse_as(3, 1);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0], "growing within the length writes nothing");
        t.reuse_as(2, 4);
        assert_eq!(t.filled(), 8);
        assert_eq!(&t.data()[6..], &[0.0, 0.0], "only elements past the length are zeroed");
    }

    #[test]
    fn a_view_reads_as_its_prefix() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.reuse_as(2, 1);
        let fresh = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        assert_eq!(t, fresh);
        assert_eq!(t.len(), 2);
        assert_eq!(t.clone().filled(), 2, "a clone holds the view only");
        assert_eq!(format!("{t:?}"), format!("{fresh:?}"));
        assert_eq!(serde_json::to_string(&t).unwrap(), r#"{"rows":2,"cols":1,"data":[1.0,2.0]}"#);
        assert_eq!(t.sum(), 3.0);
        assert_eq!(t.vcat(&fresh).data(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn copy_from_f64_casts() {
        let mut t = Tensor::<f32>::zeros(1, 1);
        t.copy_from_f64(&Tensor::from_vec(1, 3, vec![1.0, 2.0, f64::MIN_POSITIVE]));
        assert_eq!(t.data(), &[1.0, 2.0, 0.0], "subnormal f64 underflows to 0.0f32");
    }
}
