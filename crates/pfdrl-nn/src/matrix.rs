//! Dense row-major matrix used by every layer in the library.
//!
//! The networks in PFDRL are small (at most a few hundred units per layer)
//! but their forward/backward kernels run millions of times per simulated
//! day, so the hot products come in two flavors: allocating wrappers
//! (`matmul`, `t_matmul`, `matmul_t`) and non-allocating `_into` variants
//! that write into a caller-owned buffer. At every output width the
//! `_into` kernels hold output rows in const-width register accumulators
//! across the whole reduction, but keep the per-element `k`-accumulation
//! order of the original scalar `ikj` loops, and their `a == 0.0` skip
//! wherever dropping it could move a bit (see [`Matrix::matmul_into`]),
//! so results are **bit-identical** to the retained `*_reference` oracles
//! — a hard requirement, since checkpoint resume is verified bit-for-bit.

use serde::{Deserialize, Serialize};

/// Column-tile width for output widths without a dedicated kernel (see
/// [`run_acc_kernel`]): two 24-wide accumulators still fit the vector
/// register file, so tiles keep the row-pairing of narrow widths.
const TILE: usize = 24;

/// A register-accumulator product over `N`-wide row views: `b_rows` are
/// the rows of the right operand's column tile (re-streamed per output
/// row or row pair), `out_rows` the output rows of the same tile.
trait AccKernel {
    fn run<'b, 'o, const N: usize>(
        &self,
        b_rows: impl Iterator<Item = &'b [f64; N]> + Clone,
        out_rows: impl Iterator<Item = &'o mut [f64; N]>,
    );
}

/// Sums `av * b_row` over `terms` into a fresh `[f64; N]` accumulator:
/// per column, in ascending term order from `0.0`, skipping `av == 0.0`
/// iff `SKIP` — the reference `ikj` order, bit for bit. The compiler maps
/// the accumulator to vector registers, so the row is stored once
/// instead of being reloaded per term.
#[inline(always)]
fn acc_row<'b, const N: usize, const SKIP: bool>(
    terms: impl Iterator<Item = (f64, &'b [f64; N])>,
) -> [f64; N] {
    let mut acc = [0.0f64; N];
    for (av, b_row) in terms {
        if SKIP && av == 0.0 {
            continue;
        }
        for (o, &bv) in acc.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
    acc
}

/// [`acc_row`] for two output rows sharing one stream of `B` rows, which
/// halves the `B` load traffic; the kernels pair rows at `N <= 27`, where
/// two accumulators still fit the vector register file. Each row's chain
/// is exactly its single-row chain: pairing only interleaves
/// *independent* sums.
#[inline(always)]
fn acc_pair<'b, const N: usize, const SKIP: bool>(
    terms: impl Iterator<Item = ((f64, f64), &'b [f64; N])>,
) -> ([f64; N], [f64; N]) {
    let mut acc0 = [0.0f64; N];
    let mut acc1 = [0.0f64; N];
    for ((av0, av1), b_row) in terms {
        let skip0 = SKIP && av0 == 0.0;
        let skip1 = SKIP && av1 == 0.0;
        if !skip0 && !skip1 {
            for ((o0, o1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(b_row) {
                *o0 += av0 * bv;
                *o1 += av1 * bv;
            }
        } else if !skip0 {
            for (o0, &bv) in acc0.iter_mut().zip(b_row) {
                *o0 += av0 * bv;
            }
        } else if !skip1 {
            for (o1, &bv) in acc1.iter_mut().zip(b_row) {
                *o1 += av1 * bv;
            }
        }
    }
    (acc0, acc1)
}

/// `A(m x k) * B(k x N)`: output row `i` sums `a[i][kk] * b[kk]` over
/// ascending `kk`, skipping `a == 0.0` iff `SKIP`.
struct MatMul<'a, const SKIP: bool> {
    a: &'a [f64],
    k: usize,
}

impl<const SKIP: bool> AccKernel for MatMul<'_, SKIP> {
    fn run<'b, 'o, const N: usize>(
        &self,
        b_rows: impl Iterator<Item = &'b [f64; N]> + Clone,
        mut out_rows: impl Iterator<Item = &'o mut [f64; N]>,
    ) {
        let k = self.k;
        let pairs = if N <= 27 { self.a.len() / k / 2 } else { 0 };
        let (a2, ar) = self.a.split_at(pairs * 2 * k);
        for a_pair in a2.chunks_exact(2 * k) {
            let (a0, a1) = a_pair.split_at(k);
            let terms = a0.iter().copied().zip(a1.iter().copied());
            let (acc0, acc1) = acc_pair::<N, SKIP>(terms.zip(b_rows.clone()));
            *out_rows.next().expect("output row") = acc0;
            *out_rows.next().expect("output row") = acc1;
        }
        for (a_row, out_row) in ar.chunks_exact(k).zip(out_rows) {
            *out_row = acc_row::<N, SKIP>(a_row.iter().copied().zip(b_rows.clone()));
        }
    }
}

/// `Aᵀ(k x m) * B(m x N)`: output row `ck` sums `a[r][ck] * b[r]` over
/// ascending rows `r`, skipping `a == 0.0` iff `SKIP`. `A` and `B` are
/// re-streamed once per output row pair; at the layer sizes here both
/// stay L1-resident.
struct TMatMul<'a, const SKIP: bool> {
    a: &'a [f64],
    k: usize,
}

impl<const SKIP: bool> AccKernel for TMatMul<'_, SKIP> {
    fn run<'b, 'o, const N: usize>(
        &self,
        b_rows: impl Iterator<Item = &'b [f64; N]> + Clone,
        mut out_rows: impl Iterator<Item = &'o mut [f64; N]>,
    ) {
        let a_rows = self.a.chunks_exact(self.k);
        let pairs = if N <= 27 { self.k / 2 } else { 0 };
        for ck in (0..2 * pairs).step_by(2) {
            let terms = a_rows.clone().map(|r| (r[ck], r[ck + 1]));
            let (acc0, acc1) = acc_pair::<N, SKIP>(terms.zip(b_rows.clone()));
            *out_rows.next().expect("output row") = acc0;
            *out_rows.next().expect("output row") = acc1;
        }
        for (ck, out_row) in (2 * pairs..).zip(out_rows) {
            let terms = a_rows.clone().map(|r| r[ck]);
            *out_row = acc_row::<N, SKIP>(terms.zip(b_rows.clone()));
        }
    }
}

/// Whether every element of `xs` is finite. The fold has no early exit,
/// so it vectorizes; `iter().all` stops at the first miss and stays
/// scalar.
fn all_finite(xs: &[f64]) -> bool {
    xs.iter().fold(true, |all, v| all & v.is_finite())
}

/// Runs `kern` over an `n`-wide right operand `b` and output `out`, both
/// non-empty, at any `n >= 1`. Every width up to 32, and the 48 and 100
/// of the BP forecaster and the paper Q-network, has a kernel over the
/// contiguous rows; any other width runs as strided column tiles of
/// [`TILE`] plus one exact-width remainder tile. Tiling splits the
/// *columns* only, and every output column is an independent sum, so
/// bits never depend on which arm runs.
fn run_acc_kernel(kern: &impl AccKernel, b: &[f64], n: usize, out: &mut [f64]) {
    macro_rules! contiguous {
        ($($w:literal)*) => {
            match n {
                $($w => return run_contiguous::<$w>(kern, b, out),)*
                _ => {}
            }
        };
    }
    contiguous!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        48 100
    );
    let tiles = n / TILE;
    for t in 0..tiles {
        run_tile::<TILE>(kern, b, n, out, t * TILE);
    }
    let c0 = tiles * TILE;
    macro_rules! remainder {
        ($($w:literal)*) => {
            match n - c0 {
                0 => {}
                $($w => run_tile::<$w>(kern, b, n, out, c0),)*
                _ => unreachable!("remainder below TILE"),
            }
        };
    }
    remainder!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23);
}

/// Runs `kern` on `N`-wide operands with contiguous rows.
fn run_contiguous<const N: usize>(kern: &impl AccKernel, b: &[f64], out: &mut [f64]) {
    kern.run::<N>(
        b.as_chunks::<N>().0.iter(),
        out.as_chunks_mut::<N>().0.iter_mut(),
    );
}

/// Runs `kern` on the `N`-wide column tile at column `c0` of the
/// `n`-wide operands: row `r` of the tile is `b[r * n + c0..][..N]`.
fn run_tile<const N: usize>(
    kern: &impl AccKernel,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    c0: usize,
) {
    let b_rows = b[c0..]
        .chunks(n)
        .map(|r| r.first_chunk::<N>().expect("tile row"));
    let out_rows = out[c0..]
        .chunks_mut(n)
        .map(|r| r.first_chunk_mut::<N>().expect("tile row"));
    kern.run::<N>(b_rows, out_rows);
}

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1 x n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows x cols` in place, reusing the existing
    /// allocation whenever capacity allows. Element values after the
    /// call are unspecified — callers must overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`. Delegates to [`Matrix::matmul_into`];
    /// bit-identical to [`Matrix::matmul_reference`].
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ * rhs` without materializing the transpose. Delegates to
    /// [`Matrix::t_matmul_into`].
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `self * rhsᵀ` without materializing the transpose. Delegates to
    /// [`Matrix::matmul_t_into`].
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// Non-allocating `self * rhs` into `out` (resized to fit, reusing
    /// its buffer). Bit-identical to [`Matrix::matmul_reference`].
    ///
    /// At every width, each output row — or, at widths without a
    /// contiguous kernel, each column tile of it (see `run_acc_kernel`)
    /// — is held in a const-width stack array across the whole `k` loop,
    /// so the compiler keeps it in vector registers and stores it
    /// exactly once: roughly half the memory traffic of a row-streaming
    /// SAXPY loop, which reloads and restores the output row for every
    /// `a[i][k]`. Each output column is an independent `k`-sum in
    /// ascending `k` order, and an accumulator starting from `0.0` is
    /// indistinguishable from a zero-filled output row.
    ///
    /// The reference loop skips `a == 0.0` terms. The kernel keeps that
    /// skip only when `rhs` holds a ±∞ or NaN (one scan per call
    /// decides): against a finite `b`, the skipped term `±0.0 * b` is a
    /// signed zero, and adding a signed zero changes no bit of a sum
    /// that starts at `+0.0`. Such a sum is never `-0.0`, since under
    /// round-to-nearest `x + y` is `-0.0` only when both are, and `+0.0`
    /// or any nonzero value plus `±0.0` is itself. Only a non-finite `b`
    /// turns the term into a NaN (`0 · ∞`). Without the skip, the ReLU
    /// zeros and one-hot states that fill the DQN's left operands cost a
    /// multiply-add instead of a mispredicted branch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        let (k, n) = (self.cols, rhs.cols);
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill_zero();
            return;
        }
        let a = &self.data;
        if all_finite(&rhs.data) {
            run_acc_kernel(&MatMul::<false> { a, k }, &rhs.data, n, &mut out.data);
        } else {
            run_acc_kernel(&MatMul::<true> { a, k }, &rhs.data, n, &mut out.data);
        }
    }

    /// Non-allocating `selfᵀ * rhs` into `out`. Bit-identical to
    /// [`Matrix::t_matmul_reference`].
    ///
    /// Each output row (one per column of `self`) accumulates in a
    /// const-width register tile over the shared row dimension; the
    /// summation order per output element (ascending row index) is
    /// exactly the reference loop's, and its `a == 0.0` skip is kept
    /// only when `rhs` holds a ±∞ or NaN, as in [`Matrix::matmul_into`].
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul_into: {}x{} ᵀ* {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.cols, rhs.cols);
        let (k, n) = (self.cols, rhs.cols);
        if out.is_empty() {
            return;
        }
        if self.rows == 0 {
            out.fill_zero();
            return;
        }
        let a = &self.data;
        if all_finite(&rhs.data) {
            run_acc_kernel(&TMatMul::<false> { a, k }, &rhs.data, n, &mut out.data);
        } else {
            run_acc_kernel(&TMatMul::<true> { a, k }, &rhs.data, n, &mut out.data);
        }
    }

    /// Non-allocating `self * rhsᵀ` into `out`. Bit-identical to
    /// [`Matrix::matmul_t_reference`].
    ///
    /// Unrolled by 4 over `rhs` rows: four independent dot products share
    /// one pass over `a_row`, giving instruction-level parallelism. Each
    /// dot still accumulates in ascending `k` order from 0.0 (no
    /// zero-skip — the reference loop has none), so bits match.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t_into: {}x{} * {}x{}ᵀ dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.rows);
        if self.cols == 0 {
            out.fill_zero();
            return;
        }
        let k = self.cols;
        for (a_row, out_row) in self
            .data
            .chunks_exact(k)
            .zip(out.data.chunks_exact_mut(rhs.rows.max(1)))
        {
            let mut b_rows = rhs.data.chunks_exact(k);
            let mut j = 0;
            while j + 4 <= rhs.rows {
                let b0 = b_rows.next().expect("rhs row");
                let b1 = b_rows.next().expect("rhs row");
                let b2 = b_rows.next().expect("rhs row");
                let b3 = b_rows.next().expect("rhs row");
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for (i, &a) in a_row.iter().enumerate() {
                    s0 += a * b0[i];
                    s1 += a * b1[i];
                    s2 += a * b2[i];
                    s3 += a * b3[i];
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            for o in &mut out_row[j..] {
                let b_row = b_rows.next().expect("rhs row");
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    }

    /// Non-allocating `self * rhsᵀ` given the **already transposed**
    /// right-hand side: `rhs_t` must equal `rhs.transpose()`. Bit-identical
    /// to `self.matmul_t(&rhs)` — each output element accumulates in the
    /// same ascending `k` order from 0.0 with no zero-skip (the direct
    /// kernel has none) — but on the register-accumulator kernel of
    /// [`Matrix::matmul_into`] over `rhs_t`, which vectorizes across
    /// output columns where the direct kernel's per-element dot products
    /// cannot. Layers cache the transposed weight and invalidate it
    /// whenever weights mutate.
    pub fn matmul_cached_t_into(&self, rhs_t: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs_t.rows,
            "matmul_cached_t_into: {}x{} * ({}x{})ᵀᵀ dimension mismatch",
            self.rows, self.cols, rhs_t.rows, rhs_t.cols
        );
        out.resize(self.rows, rhs_t.cols);
        let (k, n) = (self.cols, rhs_t.cols);
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill_zero();
            return;
        }
        let kern = MatMul::<false> { a: &self.data, k };
        run_acc_kernel(&kern, &rhs_t.data, n, &mut out.data);
    }

    /// The original scalar `ikj` matmul, kept verbatim as the
    /// bit-identity oracle the optimized kernels are proptested against.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_reference: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The original `selfᵀ * rhs` loop, kept as the bit-identity oracle.
    pub fn t_matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul_reference: {}x{} ᵀ* {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let b_row = &rhs.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The original `self * rhsᵀ` loop, kept as the bit-identity oracle.
    pub fn matmul_t_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t_reference: {}x{} * {}x{}ᵀ dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `rhs` elementwise in place.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add_assign shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Adds `scale * rhs` elementwise in place (axpy).
    pub fn add_scaled(&mut self, scale: f64, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add_scaled shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Adds the row vector `bias` to every row in place.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(self.cols, bias.len(), "add_row_broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Adds the row vector `bias` and applies `f`, in one traversal.
    /// Bit-identical to [`Matrix::add_row_broadcast`] followed by
    /// [`Matrix::map_inplace`]: the sum is rounded once before `f` is
    /// applied either way.
    pub fn add_row_broadcast_map(&mut self, bias: &[f64], f: impl Fn(f64) -> f64) {
        assert_eq!(self.cols, bias.len(), "add_row_broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v = f(*v + b);
            }
        }
    }

    /// Elementwise (Hadamard) product in place.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a *= b;
        }
    }

    /// Elementwise (Hadamard) product, allocating the result.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.hadamard_assign(rhs);
        out
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Sum of every column, returning a `cols`-length vector.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Non-allocating transpose into `out` (resized to fit).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Sum of every column into `out` (overwritten). Bit-identical to
    /// [`Matrix::col_sums`].
    ///
    /// # Panics
    /// Panics if `out.len() != self.cols`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "col_sums_into width mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `max |a - b|` over corresponding elements.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "max_abs_diff shape mismatch"
        );
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_has_right_shape_and_content() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 0), 10.0);
        assert_eq!(a.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_panics_on_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_to_every_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn col_sums_sums_down_columns() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn norm_of_3_4_vector_is_5() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_views_are_consistent() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = m(2, 2, &[1.5, -2.0, 0.0, 4.25]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
