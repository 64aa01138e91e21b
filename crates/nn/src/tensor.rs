//! Dense row-major 2-D matrix — the only tensor shape the library needs.
//!
//! All neural-network data in this crate is batched 2-D: `rows` = batch size
//! (or input dimension for weights), `cols` = feature dimension. Keeping a
//! single concrete shape keeps every operation allocation-explicit and easy
//! to audit, which matters more here than n-d generality.
//!
//! The product has two forms: an allocating method (`matmul`) and an
//! `*_into` variant writing into a caller-owned buffer whose allocation is
//! reused across calls. There is **one** product kernel,
//! [`Matrix::matmul_into`], and it is one loop: every output row of every
//! product — a single-row decision, the 14 rows of a served wave, the 32
//! rows of a learn step, the Q-value layer's 10 columns — is cut into
//! column *strips* (`strip`) of up to 128 lanes that hold their
//! accumulators in registers across the whole contraction, visit only the
//! row's non-zero inputs and store every output element exactly once.
//! Rows share nothing, so a batched product costs its rows' single-row
//! products. Every left operand this repository multiplies is more than
//! half zeros (encoder states, ReLU activations and the gradients masked
//! by them), which is why no dense kernel sits beside the strips
//! (`docs/perf.md` has the measurement, and the one case a dense tile
//! won). The transposed products (`aᵀ·b`, `a·bᵀ`) are *pack-transpose +
//! that kernel*: the transposed operand is first made row-major with the
//! blocked [`Matrix::transpose_into`]. The copy is not free: a training
//! step's five transposes (the layers' inputs for the cache, two weight
//! matrices for the backward) take 11–13 µs of a ~55 µs headline
//! forward and backward when timed alone, so a block moves through a
//! stack tile whole rows at a time. It is still far cheaper than what it saves: a
//! transpose-free loop over the same accumulators is compiled (rustc
//! 1.95, AVX-512, `target-cpu=native`) to accumulators on the stack with
//! a gather and a scatter per contraction step, and runs an order of
//! magnitude slower than the copy. The per-output-element accumulation order and zero-skip
//! rule are those of the historical naive loops (kept in
//! [`mod@reference`]), so results are bit-identical to them for every
//! shape and every input, non-finite weights included.
//!
//! Every non-empty matrix keeps its floats on a 64-byte boundary: one cache
//! line, and one `zmm` load. A 128-wide row is 512 bytes, so a weight row
//! that starts off a line makes every 64-byte load of it touch two lines; a
//! plain `Vec<f32>` promises only 4-byte alignment, and where the allocator
//! puts it is decided by the process's allocation history. The storage is a
//! `Vec<f32>` over-allocated by up to 15 floats, with the data starting at
//! the offset `align_offset` reports; the offset is found again whenever
//! the allocation is replaced, and only growth replaces it. Should
//! `align_offset` ever decline to answer, the data starts at offset 0:
//! slower, never wrong, since no kernel depends on the alignment for its
//! results.

/// Contraction indices [`strip`] takes at a time: the non-zero positions of
/// one chunk of the input row are the set bits of one `u64`.
const NZ_CHUNK: usize = 64;

/// Edge of the square blocks [`Matrix::transpose_into`] copies: one block
/// is 16 cache lines read and 16 written, so neither side of the copy
/// walks the whole matrix at a power-of-two stride.
const TRANSPOSE_BLOCK: usize = 16;

/// Transposes `tile` in place (`spare` is scratch) by four perfect
/// shuffles. One round makes row `2i` of the first halves of rows `i` and
/// `i + 8` interleaved, and row `2i + 1` of their second halves: it moves
/// the float at row `r`, column `c` to the position whose 8-bit row-column
/// index is `(r, c)`'s rotated left by one bit. Four rotations swap the
/// row and column halves of the index, which is the transpose. Each output
/// row is a fixed two-source permutation of two input rows, so no index
/// is computed and no float is gathered one at a time.
#[inline]
fn shuffle_rounds(
    tile: &mut [[f32; TRANSPOSE_BLOCK]; TRANSPOSE_BLOCK],
    spare: &mut [[f32; TRANSPOSE_BLOCK]; TRANSPOSE_BLOCK],
) {
    const HALF: usize = TRANSPOSE_BLOCK / 2;
    #[inline(always)]
    fn round(
        from: &[[f32; TRANSPOSE_BLOCK]; TRANSPOSE_BLOCK],
        to: &mut [[f32; TRANSPOSE_BLOCK]; TRANSPOSE_BLOCK],
    ) {
        for i in 0..HALF {
            let (a, b) = (&from[i], &from[i + HALF]);
            for k in 0..HALF {
                to[2 * i][2 * k] = a[k];
                to[2 * i][2 * k + 1] = b[k];
                to[2 * i + 1][2 * k] = a[HALF + k];
                to[2 * i + 1][2 * k + 1] = b[HALF + k];
            }
        }
    }
    round(tile, spare);
    round(spare, tile);
    round(tile, spare);
    round(spare, tile);
}

/// One strip of one output row: `out[t] = store(Σₖ a_row[k] · b[k][j + t])`
/// for the `out.len() <= W` columns starting at `j`. The `W` accumulators
/// stay in registers across the whole contraction and each output element
/// is stored once, by `store(out, acc, j)` (which reads the first
/// `out.len()` accumulators).
///
/// Only the row's non-zero `a` are visited, in ascending `k`: each chunk of
/// the row is compared against zero into a bit mask (a vector compare, no
/// branch) and the loop walks the set bits. Encoder states are
/// one-hot-heavy and ReLU activations are half zeros, so a
/// compare-and-skip inside the accumulation loop would be an
/// unpredictable branch per `k`. Skipping is bit-safe: adding `±0·b`
/// changes no accumulator for finite `b`, and `0·±inf`/`0·NaN` terms are
/// skipped rather than propagated, exactly as [`reference::matmul`] skips
/// them. Per output element the surviving terms accumulate from `+0.0` in
/// ascending `k`, so the result is bit-identical to that oracle.
///
/// A row's last strip may be narrower than its `W` lanes. Its loads still
/// take `W` floats from each `b` row — the extra ones belong to the start
/// of the next `b` row, feed lanes nobody stores, and keep the inner loop
/// at a constant width — except where that would run past the end of `b`
/// (its last row or so), which goes through [`padded_strip`].
#[inline]
fn strip<const W: usize>(
    a_row: &[f32],
    b: &Matrix,
    j: usize,
    out: &mut [f32],
    store: &impl Fn(&mut [f32], &[f32], usize),
) {
    let n = b.cols;
    let mut acc = [0.0f32; W];
    for (chunk, a_chunk) in a_row.chunks(NZ_CHUNK).enumerate() {
        let mut nz = 0u64;
        for (t, &a) in a_chunk.iter().enumerate() {
            nz |= u64::from(a != 0.0) << t;
        }
        while nz != 0 {
            let kk = nz.trailing_zeros() as usize;
            nz &= nz - 1;
            let a = a_chunk[kk];
            let start = (chunk * NZ_CHUNK + kk) * n + j;
            let padded;
            let b_strip: &[f32; W] = match b.data.get(start..start + W) {
                Some(full) => full.try_into().expect("strip width is W"),
                None => {
                    padded = padded_strip(&b.data[start..]);
                    &padded
                }
            };
            for (acc, &bv) in acc.iter_mut().zip(b_strip) {
                *acc += a * bv;
            }
        }
    }
    store(out, &acc, j);
}

/// The last `rest.len() < W` floats of a matrix, zero-padded to a strip's
/// width. Out of line and cold so that [`strip`]'s loop, which needs it for
/// at most the last row or so of a narrow strip, carries only the call.
#[cold]
#[inline(never)]
fn padded_strip<const W: usize>(rest: &[f32]) -> [f32; W] {
    let mut padded = [0.0f32; W];
    padded[..rest.len()].copy_from_slice(rest);
    padded
}

/// The boundary, in bytes, that every non-empty [`Matrix`] buffer starts on.
const ALIGN_BYTES: usize = 64;

/// The most pad floats a buffer can need in front of its data to get from
/// an `f32`'s own 4-byte alignment to [`ALIGN_BYTES`].
const MAX_PAD: usize = ALIGN_BYTES / std::mem::size_of::<f32>() - 1;

/// A matrix's floats, starting on a 64-byte boundary: `buf[..pad]` is
/// padding and `buf[pad..]` the data, which is what the storage derefs to.
/// Every way the data can grow goes through [`Aligned::reserve`], so `buf`
/// never reallocates by itself: an allocation that runs out of room is
/// replaced by a new one, at least twice as large (as a `Vec` grows), and
/// aligned afresh. Equality and `Debug` see the data only.
#[derive(Default)]
struct Aligned {
    buf: Vec<f32>,
    pad: usize,
}

impl Aligned {
    /// No data, and room for `capacity` floats after the padding.
    fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::default();
        }
        let mut buf: Vec<f32> = Vec::with_capacity(capacity + MAX_PAD);
        // `align_offset` may decline (`usize::MAX`); the data then starts
        // unaligned at 0, which costs speed, not correctness.
        let pad = match buf.as_ptr().align_offset(ALIGN_BYTES) {
            pad if pad <= MAX_PAD => pad,
            _ => 0,
        };
        buf.resize(pad, 0.0);
        Self { buf, pad }
    }

    fn from_slice(data: &[f32]) -> Self {
        let mut out = Self::with_capacity(data.len());
        out.buf.extend_from_slice(data);
        out
    }

    /// Makes room for `additional` more floats, moving the data to a new
    /// aligned allocation only when the current one is too small. The new
    /// one is asked for at least twice the floats the old one was asked
    /// for: doubling `room`, which includes the unused padding, would
    /// double that slack on every growth too.
    fn reserve(&mut self, additional: usize) {
        let room = self.buf.capacity() - self.pad;
        let needed = self.len() + additional;
        if needed > room {
            let asked = self.buf.capacity().saturating_sub(MAX_PAD);
            let mut grown = Self::with_capacity(needed.max(2 * asked));
            grown.buf.extend_from_slice(self);
            *self = grown;
        }
    }

    fn clear(&mut self) {
        self.buf.truncate(self.pad);
    }

    fn resize(&mut self, len: usize, value: f32) {
        self.reserve(len.saturating_sub(self.len()));
        self.buf.resize(self.pad + len, value);
    }

    fn extend_from_slice(&mut self, data: &[f32]) {
        self.reserve(data.len());
        self.buf.extend_from_slice(data);
    }

    fn push(&mut self, value: f32) {
        self.reserve(1);
        self.buf.push(value);
    }
}

impl std::ops::Deref for Aligned {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.pad..]
    }
}

impl std::ops::DerefMut for Aligned {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.pad..]
    }
}

impl Clone for Aligned {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for Aligned {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Aligned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl FromIterator<f32> for Aligned {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = Self::with_capacity(iter.size_hint().0);
        for value in iter {
            out.push(value);
        }
        out
    }
}

/// A dense row-major matrix of `f32`.
///
/// A non-empty matrix's data ([`Matrix::as_slice`]) starts on a 64-byte
/// boundary, whichever constructor or `*_into` kernel shaped it (the module
/// docs say why, and what happens should `align_offset` decline). The
/// `*_into` kernels keep the alignment without allocating once the matrix
/// has held its steady-state shape.
///
/// # Examples
///
/// ```
/// use nn::tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.as_slice().as_ptr() as usize % 64, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Aligned,
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the natural initial state for reusable
    /// scratch buffers, which take their shape on first write.
    fn default() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Aligned::default(),
        }
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = Aligned::default();
        data.resize(rows * cols, value);
        Self { rows, cols, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a generator called as `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Aligned::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major buffer, copied so that it starts
    /// on a 64-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            rows,
            cols,
            data: Aligned::from_slice(&data),
        }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Aligned::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: Aligned::from_slice(values),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `rows x cols` and zero-fills, reusing the existing
    /// allocation whenever capacity allows. The workhorse of the
    /// accumulating `*_into` kernels: a long-lived scratch matrix never
    /// reallocates once it has seen its steady-state shape.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes to `rows x cols` for a kernel that overwrites **every**
    /// element: when the element count already matches (the steady state)
    /// the stale contents are kept as-is, skipping `reset_zeroed`'s dead
    /// memset; on a size change it zero-extends like `reset_zeroed`.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites every element with `value` (shape unchanged).
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Becomes a copy of `other`, reusing the existing allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        self.rows = other.rows;
        self.cols = other.cols;
    }

    /// Becomes the `1 x n` row vector `values`, reusing the allocation.
    pub fn set_row_vector(&mut self, values: &[f32]) {
        self.data.clear();
        self.data.extend_from_slice(values);
        self.rows = 1;
        self.cols = values.len();
    }

    /// Clears to `0 x cols`, reserving room for `rows` rows of upcoming
    /// [`Matrix::push_row`] calls. Row-append assembly avoids the dead
    /// zero-fill of `reset_zeroed` when every row is about to be written
    /// (the replay minibatch gather).
    pub fn begin_rows(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.reserve(rows * cols);
        self.rows = 0;
        self.cols = cols;
    }

    /// Appends one row (started with [`Matrix::begin_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the rows at `indices` into a new matrix (gather).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Copies the rows at `indices` into `out` (gather), reusing `out`'s
    /// allocation — the batch-assembly primitive of the replay hot path.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &r in indices {
            out.data.extend_from_slice(self.row(r));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other` written into `out` (allocation-free
    /// once `out` has capacity).
    ///
    /// Every output row is cut into column strips (`strip` in this
    /// module's source) that skip the row's zero inputs, accumulate each
    /// output element from `+0.0` over ascending `k` and store it once:
    /// bit-identical to [`reference::matmul`] for every shape and every
    /// input, `0·±inf`/`0·NaN` terms skipped exactly as that oracle skips
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.product_into(other, out, |out, acc, _| {
            out.copy_from_slice(&acc[..out.len()])
        });
    }

    /// Fused inference product: `out = f(self * other + bias)`, with
    /// `bias` a `1 x n` row broadcast over output rows and `f` an
    /// element-wise epilogue (the layer activation). Exactly the
    /// arithmetic of [`Matrix::matmul_into`] followed by
    /// [`Matrix::add_row_broadcast_assign`] and an element-wise map —
    /// identical operations per element in identical order, so results
    /// are bit-identical — but the bias and the epilogue are applied at
    /// the one store of each element, while its strip is still in
    /// registers, sparing the forward two full read-modify-write passes
    /// over the output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `bias` is not `1 x n`.
    pub fn matmul_bias_map_into<F: Fn(f32) -> f32 + Copy>(
        &self,
        other: &Matrix,
        bias: &Matrix,
        f: F,
        out: &mut Matrix,
    ) {
        assert_eq!(
            bias.shape(),
            (1, other.cols),
            "bias must be 1x{}, got {}x{}",
            other.cols,
            bias.rows,
            bias.cols
        );
        let bias_row = bias.row(0);
        self.product_into(other, out, |out, acc, j| {
            let bias = &bias_row[j..j + out.len()];
            for (o, (&v, &b)) in out.iter_mut().zip(acc.iter().zip(bias)) {
                *o = f(v + b);
            }
        });
    }

    /// The product behind [`Matrix::matmul_into`] and
    /// [`Matrix::matmul_bias_map_into`]: one loop over the strips of every
    /// output row. `store(out, acc, j)` writes the `out.len()` finished
    /// elements of one output row that start at column `j` from the first
    /// `out.len()` accumulators; it is called exactly once per element,
    /// which is what lets `out` keep its stale contents until then.
    #[inline]
    fn product_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        store: impl Fn(&mut [f32], &[f32], usize),
    ) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reset_for_overwrite(m, n);
        // Strips, widest first, so a 128-column layer is one strip per row
        // and a row's non-zero mask is rebuilt as few times as its width
        // allows.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while n - j >= 128 {
                strip::<128>(a_row, other, j, &mut out_row[j..j + 128], &store);
                j += 128;
            }
            if n - j >= 64 {
                strip::<64>(a_row, other, j, &mut out_row[j..j + 64], &store);
                j += 64;
            }
            if n - j >= 32 {
                strip::<32>(a_row, other, j, &mut out_row[j..j + 32], &store);
                j += 32;
            }
            if n - j >= 16 {
                strip::<16>(a_row, other, j, &mut out_row[j..j + 16], &store);
                j += 16;
            }
            if j < n {
                strip::<16>(a_row, other, j, &mut out_row[j..], &store);
            }
        }
    }

    /// Matrix product `selfᵀ * other`: `self` packed row-major by
    /// [`Matrix::transpose`], then [`Matrix::matmul`]. Every output element
    /// still accumulates over ascending rows of `self` from `+0.0` and skips
    /// the zeros of `self`, so the result is bit-identical to
    /// [`reference::tmatmul`].
    /// A caller that repeats the product keeps the packed operand itself and
    /// calls `matmul_into` directly, as `Dense` does with its cached input.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn tmatmul(&self, other: &Matrix) -> Matrix {
        self.transpose().matmul(other)
    }

    /// Matrix product `self * otherᵀ`: `other` packed row-major by
    /// [`Matrix::transpose`], then [`Matrix::matmul`]. Each output element
    /// keeps a single accumulator over ascending `k`, so on finite inputs it
    /// is bit-identical to [`reference::matmul_t`]; the strips skip
    /// `0·±inf`/`0·NaN` terms rather than propagate them (a diverged network
    /// is caught by the `has_non_finite` tripwires, not by kernel NaN
    /// flow).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul(&other.transpose())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-owned buffer (allocation-free once warm) —
    /// the pack step that puts a transposed operand in front of
    /// [`Matrix::matmul_into`]. Copied in 16 x 16 blocks: a plain row walk
    /// writes one element per output row at a stride of `rows` floats,
    /// which for 128 rows lands every store of a sweep in the same few L1
    /// sets; a block touches 16 lines on each side and finishes them
    /// before moving on.
    ///
    /// A block goes through a stack tile: its rows are copied in whole,
    /// the tile is transposed by `shuffle_rounds` (whole-row moves the
    /// compiler turns into two-register permutes), and the tile's rows are
    /// copied out whole. A ragged edge block takes the same loop: the
    /// tile's rows and columns past the matrix hold whatever the last
    /// block left there, and no float of them is copied out. Every float
    /// is moved, never computed, so NaN payloads and `-0.0` are kept.
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (rows, cols) = (self.rows, self.cols);
        out.reset_for_overwrite(cols, rows);
        let mut tile = [[0.0f32; TRANSPOSE_BLOCK]; TRANSPOSE_BLOCK];
        let mut spare = tile;
        for r0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
            let height = TRANSPOSE_BLOCK.min(rows - r0);
            for c0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
                let width = TRANSPOSE_BLOCK.min(cols - c0);
                // Element loops, not `copy_from_slice`: a copy whose length
                // the compiler cannot see is a `memcpy` call, 32 per block.
                for (t, r) in tile[..height].iter_mut().zip(r0..) {
                    for (t, &x) in t.iter_mut().zip(&self.data[r * cols + c0..][..width]) {
                        *t = x;
                    }
                }
                shuffle_rounds(&mut tile, &mut spare);
                for (t, c) in tile[..width].iter().zip(c0..) {
                    for (o, &x) in out.data[c * rows + r0..][..height].iter_mut().zip(t) {
                        *o = x;
                    }
                }
            }
        }
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place element-wise `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Copy scaled by a scalar.
    pub fn scale(&self, factor: f32) -> Matrix {
        self.map(|v| v * factor)
    }

    /// In-place scale by a scalar.
    pub fn scale_assign(&mut self, factor: f32) {
        for v in self.data.iter_mut() {
            *v *= factor;
        }
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// In-place bias broadcast: adds a `1 x cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "broadcast bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "broadcast bias has {} cols, expected {}",
            bias.cols, self.cols
        );
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
    }

    /// Sums every row into a `1 x cols` vector.
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::default();
        self.col_sum_into(&mut out);
        out
    }

    /// Sums every row into `out` as a `1 x cols` vector, reusing `out`'s
    /// allocation. Rows accumulate in ascending order (bit-identical to
    /// [`Matrix::col_sum`]).
    pub fn col_sum_into(&self, out: &mut Matrix) {
        out.reset_zeroed(1, self.cols);
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Applies `f` element-wise into a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_assign<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Index and value of the maximum element of row `r`.
    ///
    /// Ties resolve to the lowest index; NaN entries are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or the matrix has no columns.
    pub fn row_argmax(&self, r: usize) -> (usize, f32) {
        let row = self.row(r);
        assert!(!row.is_empty(), "row_argmax on matrix with zero columns");
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, &v) in row.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        best
    }

    /// Maximum value of row `r` (skipping NaN).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or the matrix has no columns.
    pub fn row_max(&self, r: usize) -> f32 {
        self.row_argmax(r).1
    }

    /// Argmax of every row into a caller-owned buffer (cleared first):
    /// `out[r]` is the column index of row `r`'s maximum, ties resolving
    /// to the lowest index (the [`Matrix::row_argmax`] rule). The batched
    /// decision-selection form of the per-row call.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no columns.
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        assert!(
            self.cols > 0,
            "argmax_rows_into on matrix with zero columns"
        );
        out.clear();
        out.reserve(self.rows);
        for r in 0..self.rows {
            out.push(self.row_argmax(r).0);
        }
    }

    /// Argmax of every row under a row-major validity mask, into a
    /// caller-owned buffer (cleared first). `masks` holds `rows * cols`
    /// entries (`masks[r * cols + c]` gates element `(r, c)`); `out[r]` is
    /// `None` when row `r` is fully masked.
    ///
    /// Selection rule: masked entries are skipped; walking the row left to
    /// right, a value becomes the new best only when *strictly greater*
    /// than the current best, so ties resolve to the lowest valid index.
    /// This is exactly the rule single-state masked action selection uses,
    /// which is what makes batched and per-row selection bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != rows * cols`.
    pub fn masked_argmax_rows_into(&self, masks: &[bool], out: &mut Vec<Option<usize>>) {
        assert_eq!(
            masks.len(),
            self.rows * self.cols,
            "masks length {} != rows*cols {}",
            masks.len(),
            self.rows * self.cols
        );
        out.clear();
        out.reserve(self.rows);
        for best in self.masked_row_bests(masks) {
            out.push(best.map(|(i, _)| i));
        }
    }

    /// Maximum of every row under a row-major validity mask, into a
    /// caller-owned buffer (cleared first); `None` marks a fully-masked
    /// row. Same selection rule as [`Matrix::masked_argmax_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != rows * cols`.
    pub fn masked_max_rows_into(&self, masks: &[bool], out: &mut Vec<Option<f32>>) {
        assert_eq!(
            masks.len(),
            self.rows * self.cols,
            "masks length {} != rows*cols {}",
            masks.len(),
            self.rows * self.cols
        );
        out.clear();
        out.reserve(self.rows);
        for best in self.masked_row_bests(masks) {
            out.push(best.map(|(_, v)| v));
        }
    }

    /// [`masked_row_best`] of every row, in order; a row of width zero is
    /// fully masked. The callers push one row at a time: a fill of `None`s
    /// (a `resize` for zero columns, or an `extend`, whose zero-column case
    /// the compiler splits out) stores only each element's tag, at a
    /// stride, and was compiled to a scatter.
    fn masked_row_bests<'a>(
        &'a self,
        masks: &'a [bool],
    ) -> impl Iterator<Item = Option<(usize, f32)>> + 'a {
        let width = self.cols;
        (0..self.rows).map(move |r| {
            let span = r * width..(r + 1) * width;
            masked_row_best(&self.data[span.clone()], &masks[span])
        })
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Matrix, f: F) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op shape mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

/// Best `(index, value)` of one masked row: masked entries are skipped and
/// a value only displaces the incumbent when strictly greater, so ties
/// resolve to the lowest valid index. Shared by the batched row reductions
/// so the argmax and max variants cannot drift apart.
fn masked_row_best(row: &[f32], mask: &[bool]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, (&v, &ok)) in row.iter().zip(mask.iter()).enumerate() {
        if !ok {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// The pre-optimization kernels, preserved verbatim as the bit-exactness
/// oracle for the blocked kernels above.
///
/// The golden-equality tests build on these: they assert the optimized
/// kernels reproduce them bit for bit (naive i-k-j loops with the
/// dense-hostile `a == 0.0` skip branch, allocating per call).
pub mod reference {
    use super::Matrix;

    /// Naive `a * b` with the historical zero-skip branch.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k).to_vec();
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `aᵀ * b` with the historical zero-skip branch.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`.
    pub fn tmatmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "tmatmul shape mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            let a_row = a.row(r).to_vec();
            let b_row = b.row(r).to_vec();
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `a * bᵀ` as a row-by-row dot product.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for (&av, &bv) in a.row(i).iter().zip(b.row(j).iter()) {
                    acc += av * bv;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Allocating bias broadcast, as the pre-optimization forward pass
    /// performed it.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x a.cols()`.
    pub fn add_row_broadcast(a: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows(), 1, "broadcast bias must be a row vector");
        assert_eq!(bias.cols(), a.cols(), "broadcast bias width mismatch");
        let mut out = a.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = out.get(r, c) + bias.get(0, c);
                out.set(r, c, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn tmatmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 1.5, 0.0], &[-1.0, 1.0, 2.0]]);
        assert_eq!(a.tmatmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.5, 2.0, -1.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_into_matches_naive_loop_bitwise() {
        // Block-edge cases: single row, single column, one past the block
        // on both sides, exactly one block, several blocks, empty. One
        // `out` is reused throughout and starts larger than every later
        // shape but the learn step's own (128 x 128, 74 x 128, 32 x 128,
        // 128 x 11 for a Q-layer with a ragged width), so stale contents
        // would show. NaNs carry their element's index as payload and
        // every fifth element is `-0.0`; all compared through `to_bits`.
        let mut out = Matrix::full(64, 64, f32::NAN);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &(rows, cols) in &[
            (1usize, 37usize),
            (37, 1),
            (17, 33),
            (16, 16),
            (32, 74),
            (0, 0),
            (128, 128),
            (128, 11),
            (74, 128),
            (32, 128),
            (129, 17),
        ] {
            let a = Matrix::from_fn(rows, cols, |r, c| match (r * cols + c) % 5 {
                0 => -0.0,
                1 => f32::from_bits(0x7fc0_0000 | (r * cols + c) as u32),
                _ => (r * cols + c) as f32 - 0.5,
            });
            let mut expected = Matrix::zeros(cols, rows);
            for r in 0..rows {
                for c in 0..cols {
                    expected.set(c, r, a.get(r, c));
                }
            }
            a.transpose_into(&mut out);
            assert_eq!(out.shape(), (cols, rows));
            assert_eq!(bits(&out), bits(&expected), "transpose of {rows}x{cols}");
            let allocated = a.transpose();
            assert_eq!(
                bits(&allocated),
                bits(&expected),
                "allocating form, {rows}x{cols}"
            );
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(
            a.add(&b),
            Matrix::from_rows(&[&[11.0, 22.0], &[33.0, 44.0]])
        );
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[9.0, 18.0], &[27.0, 36.0]]));
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[&[10.0, 40.0], &[90.0, 160.0]])
        );
    }

    #[test]
    fn broadcast_and_col_sum() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Matrix::row_vector(&[10.0, 100.0]);
        assert_eq!(
            a.add_row_broadcast(&bias),
            Matrix::from_rows(&[&[11.0, 102.0], &[13.0, 104.0]])
        );
        assert_eq!(a.col_sum(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        let a = Matrix::from_rows(&[&[1.0, 5.0, 5.0, 0.0]]);
        assert_eq!(a.row_argmax(0), (1, 5.0));
    }

    #[test]
    fn argmax_rows_matches_per_row_argmax() {
        let a = Matrix::from_rows(&[&[1.0, 5.0, 5.0], &[9.0, 2.0, 3.0], &[0.0, 0.0, 7.0]]);
        let mut out = Vec::new();
        a.argmax_rows_into(&mut out);
        assert_eq!(out, vec![1, 0, 2]);
        // Buffer is cleared on reuse.
        a.argmax_rows_into(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn masked_argmax_rows_skips_invalid_and_ties_low() {
        let a = Matrix::from_rows(&[&[1.0, 9.0, 7.0], &[4.0, 4.0, 4.0], &[5.0, 6.0, 7.0]]);
        let masks = [
            true, false, true, // best valid: 7.0 at 2
            true, true, true, // tie -> lowest index
            false, false, false, // fully masked
        ];
        let mut out = Vec::new();
        a.masked_argmax_rows_into(&masks, &mut out);
        assert_eq!(out, vec![Some(2), Some(0), None]);
        let mut maxes = Vec::new();
        a.masked_max_rows_into(&masks, &mut maxes);
        assert_eq!(maxes, vec![Some(7.0), Some(4.0), None]);
    }

    #[test]
    fn masked_rows_of_width_zero_are_fully_masked() {
        // Stale entries in the reused buffers must go too.
        let mut out = vec![Some(7); 5];
        let mut maxes = vec![Some(7.0); 5];
        for rows in [0, 1, 3, 40] {
            let a = Matrix::zeros(rows, 0);
            a.masked_argmax_rows_into(&[], &mut out);
            a.masked_max_rows_into(&[], &mut maxes);
            assert_eq!(out, vec![None; rows]);
            assert_eq!(maxes, vec![None; rows]);
        }
    }

    #[test]
    #[should_panic(expected = "masks length")]
    fn masked_argmax_rows_rejects_bad_mask_length() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut out = Vec::new();
        a.masked_argmax_rows_into(&[true], &mut out);
    }

    #[test]
    fn gather_rows_copies_selected() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g, Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn norm_and_finiteness() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!(!a.has_non_finite());
        let bad = Matrix::from_rows(&[&[f32::NAN]]);
        assert!(bad.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(m.mean(), 0.0);
    }

    /// `from_vec` copies an input that the allocator put off a 64-byte
    /// boundary onto one.
    #[test]
    fn from_vec_aligns_a_misaligned_buffer() {
        // Every candidate stays alive, so no two share an address.
        let mut candidates: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32; 20]).collect();
        let Some(i) = candidates
            .iter()
            .position(|v| !(v.as_ptr() as usize).is_multiple_of(ALIGN_BYTES))
        else {
            panic!("the allocator put 64 buffers on 64-byte boundaries");
        };
        let data = candidates.swap_remove(i);
        let m = Matrix::from_vec(4, 5, data.clone());
        assert_eq!(m.as_slice(), data.as_slice());
        assert_eq!(m.as_slice().as_ptr() as usize % ALIGN_BYTES, 0);
    }

    /// Reshaping within the allocation, the steady state of every scratch
    /// matrix, moves nothing; `Debug` and equality see only the data.
    #[test]
    fn warm_reshapes_keep_the_allocation() {
        let mut m = Matrix::zeros(32, 128);
        let base = m.as_slice().as_ptr();
        for rows in [1, 32, 17, 5, 32] {
            m.reset_for_overwrite(rows, 128);
            assert_eq!(m.as_slice().as_ptr(), base);
            m.begin_rows(32, 128);
            for r in 0..rows {
                m.push_row(&[r as f32; 128]);
            }
            assert_eq!(m.as_slice().as_ptr(), base);
            m.reset_zeroed(rows, 128);
            assert_eq!(m.as_slice().as_ptr(), base);
        }
        let small = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(
            format!("{small:?}"),
            "Matrix { rows: 1, cols: 2, data: [1.0, 2.0] }"
        );
        let mut other = Matrix::zeros(8, 8);
        other.set_row_vector(&[1.0, 2.0]);
        assert_eq!(other, small);
    }

    #[test]
    fn scale_and_add_scaled_assign() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        let mut b = Matrix::from_rows(&[&[1.0, 1.0]]);
        b.add_scaled_assign(&a, 0.5);
        assert_eq!(b, Matrix::from_rows(&[&[1.5, 0.0]]));
    }
}
