// T001 fixture: one GEMM row.
// Lines cut verbatim from the parent of a023415, the commit that
// deleted them. Not a cargo target: tests/fixtures.rs analyzes it
// under a path in each row's scope.

// git show a023415^:crates/nn/src/kernels.rs, lines 95-107
        return match n {
            8 => matmul_narrow::<S, 8>(a, k, bd, out),
            12 => matmul_narrow::<S, 12>(a, k, bd, out),
            16 => matmul_narrow::<S, 16>(a, k, bd, out),
            _ => matmul_narrow_dyn(a, k, bd, n, out),
        };
    }
    S::matmul_wide_rows(a, k, bd, n, out);
}

/// Wide-output matmul rows, plain i-k-j: streams rows of `b` and is
/// auto-vectorizable (the f64 shape).
pub(crate) fn matmul_wide_plain<S: Scalar>(a: &[S], k: usize, bd: &[S], n: usize, out: &mut [S]) {

// git show a023415^:crates/nn/src/kernels.rs, line 123
pub(crate) fn matmul_wide_blocked<S: Scalar>(a: &[S], k: usize, bd: &[S], n: usize, out: &mut [S]) {

// git show a023415^:crates/nn/src/kernels.rs, line 177
fn matmul_narrow_dyn<S: Scalar>(a: &[S], k: usize, bd: &[S], n: usize, out: &mut [S]) {
