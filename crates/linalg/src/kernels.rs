//! Cache-blocked batch kernels and a reusable allocation [`Workspace`].
//!
//! The Infl scoring path (chef-core) and the logistic-regression block
//! entry points (chef-model) bottom out here. Three design rules keep
//! the kernels both fast and reproducible:
//!
//! * **Whole-row dot products.** Every output element is one full
//!   [`vector::dot`] over the shared dimension `k`; blocking only
//!   reorders which *elements* are computed next, never how a single
//!   element's sum is associated. A blocked or parallel call is
//!   therefore bit-identical to the naive loop, which is what lets the
//!   selector's serial/parallel equivalence tests pin exact equality.
//! * **Row-major everything, `Bᵀ` implicit.** CHEF's GEMMs are all
//!   "samples × parameter-rows" products (`logits = X̃Wᵀ`, `U = X̃Vᵀ`),
//!   so the natural kernel is `C = A·Bᵀ` with both operands row-major —
//!   each output element is a contiguous-row dot, no transposition ever
//!   materialized.
//! * **No hidden allocation.** Kernels write into caller buffers;
//!   scratch comes from a [`Workspace`] that recycles `Vec`s across
//!   calls, so steady-state hot loops allocate nothing.
//!
//! With the `parallel` feature the dispatching entry points fan
//! row-blocks out over the thread pool (`rayon` shim: deterministic
//! chunking, chunk-ordered results); the `*_serial` twins are always
//! compiled and bit-identical.

use crate::vector;

/// Rows per cache block. 64 rows of a few-hundred-column operand keep
/// the streamed operand plus one output block comfortably inside L1/L2
/// while staying fine-grained enough to load-balance.
pub const ROW_BLOCK: usize = 64;

/// Minimum output rows before the dispatching kernels fan out over the
/// thread pool. Length-only, so the chosen code path is
/// machine-independent (same rule as chef-model's `PAR_GRAIN`).
#[cfg(feature = "parallel")]
const PAR_GRAIN_ROWS: usize = 256;

/// Most buffers the pool retains. Hot loops hold at
/// most a handful of panels at once, so anything past this is churn —
/// overflow evicts the smallest-capacity entry rather than growing
/// without bound.
const MAX_POOLED: usize = 16;

/// Pick the pooled buffer whose capacity fits `len` best: the smallest
/// capacity ≥ `len`, else the largest available (it is the cheapest to
/// grow). An empty pool hands back a fresh `Vec`.
fn best_fit(pool: &mut Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    if pool.is_empty() {
        return Vec::new();
    }
    let mut best: Option<usize> = None;
    let mut largest = 0;
    for i in 0..pool.len() {
        let cap = pool[i].capacity();
        if cap >= len && best.is_none_or(|j| cap < pool[j].capacity()) {
            best = Some(i);
        }
        if cap > pool[largest].capacity() {
            largest = i;
        }
    }
    pool.swap_remove(best.unwrap_or(largest))
}

/// Return `buf` to `pool`, evicting the smallest-capacity entry when the
/// pool is full (keep the larger of the two — large panels are the
/// expensive allocations the pool exists to retain).
fn put_back(pool: &mut Vec<Vec<f64>>, buf: Vec<f64>) {
    if pool.len() < MAX_POOLED {
        pool.push(buf);
        return;
    }
    let mut min = 0;
    for i in 1..pool.len() {
        if pool[i].capacity() < pool[min].capacity() {
            min = i;
        }
    }
    if pool[min].capacity() < buf.capacity() {
        pool[min] = buf;
    }
}

/// A pool of recycled buffers: `take` a buffer, use it, `put` it back.
/// After warm-up no call allocates: `take` picks the **best-fit**
/// pooled buffer (smallest capacity that already holds `len`), so a
/// small request cannot steal the one large-capacity buffer and force
/// the next GEMM panel to reallocate. The pool keeps at most
/// `MAX_POOLED` (16) buffers, evicting the smallest on overflow.
///
/// Buffers returned by [`Workspace::take`] are zero-filled, so callers
/// can accumulate into them directly.
///
/// ```
/// use chef_linalg::Workspace;
///
/// let mut ws = Workspace::new();
/// let buf = ws.take(8);
/// assert_eq!(buf, vec![0.0; 8]);
/// ws.put(buf); // recycled: the next take(≤ capacity) won't allocate
/// let again = ws.take(4);
/// assert_eq!(again.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zero-filled buffer of exactly `len` elements, reusing
    /// the best-fitting pooled allocation when one is available.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = best_fit(&mut self.pool, len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Borrow a buffer of exactly `len` elements whose contents are
    /// **unspecified** (recycled values from earlier uses). For hot
    /// paths that overwrite every element anyway — GEMM panels, gather
    /// targets — this skips [`Workspace::take`]'s O(len) zero-fill,
    /// which otherwise rivals the arithmetic it feeds on small blocks.
    pub fn take_uninit(&mut self, len: usize) -> Vec<f64> {
        let mut buf = best_fit(&mut self.pool, len);
        if buf.len() < len {
            buf.resize(len, 0.0);
        } else {
            buf.truncate(len);
        }
        buf
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        put_back(&mut self.pool, buf);
    }
}

/// Split `0..len` into consecutive blocks of at most `block` elements.
#[inline]
fn blocks(len: usize, block: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len.div_ceil(block.max(1))).map(move |b| (b * block, ((b + 1) * block).min(len)))
}

/// `C = A·Bᵀ` for row-major `A` (`m×k`) and `B` (`n×k`) into row-major
/// `out` (`m×n`): `out[i][j] = dot(a_i, b_j)`.
///
/// Dispatches to a thread-pool fan-out over row blocks of `A` when the
/// `parallel` feature is on, `m ≥ 256`, **and** the pool has more than
/// one worker — on a single-worker pool the fan-out's per-block
/// allocations and final copies are pure overhead, so it falls through
/// to the serial path (same gate as chef-model's `batch_grad` and
/// chef-core's bound pass). Bit-identical to [`matmul_nt_serial`]
/// either way (see the module docs).
///
/// # Panics
/// Panics if the slice lengths are not multiples of `k` or `out` has
/// the wrong length (`k = 0` is rejected).
pub fn matmul_nt(a: &[f64], b: &[f64], k: usize, out: &mut [f64]) {
    #[cfg(feature = "parallel")]
    {
        let (m, n) = check_nt_shapes(a, b, k, out);
        if m >= PAR_GRAIN_ROWS && rayon::current_num_threads() > 1 {
            use rayon::prelude::*;
            let nblocks = m.div_ceil(ROW_BLOCK);
            let parts: Vec<Vec<f64>> = (0..nblocks)
                .into_par_iter()
                .map(|bi| {
                    let lo = bi * ROW_BLOCK;
                    let hi = (lo + ROW_BLOCK).min(m);
                    let mut part = vec![0.0; (hi - lo) * n];
                    for i in lo..hi {
                        let arow = &a[i * k..(i + 1) * k];
                        let orow = &mut part[(i - lo) * n..(i - lo + 1) * n];
                        for (j, o) in orow.iter_mut().enumerate() {
                            *o = vector::dot(arow, &b[j * k..(j + 1) * k]);
                        }
                    }
                    part
                })
                .collect();
            for (bi, part) in parts.into_iter().enumerate() {
                let lo = bi * ROW_BLOCK * n;
                out[lo..lo + part.len()].copy_from_slice(&part);
            }
            return;
        }
    }
    matmul_nt_serial(a, b, k, out);
}

/// Single-threaded [`matmul_nt`]. Always compiled; the dispatching
/// entry point falls back to it below the parallel grain size.
pub fn matmul_nt_serial(a: &[f64], b: &[f64], k: usize, out: &mut [f64]) {
    let (m, n) = check_nt_shapes(a, b, k, out);
    // Block both row sets so the `B` rows a block touches stay cached
    // while the `A` block streams past them.
    for (ilo, ihi) in blocks(m, ROW_BLOCK) {
        for (jlo, jhi) in blocks(n, ROW_BLOCK) {
            for i in ilo..ihi {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for j in jlo..jhi {
                    orow[j] = vector::dot(arow, &b[j * k..(j + 1) * k]);
                }
            }
        }
    }
}

fn check_nt_shapes(a: &[f64], b: &[f64], k: usize, out: &[f64]) -> (usize, usize) {
    assert!(k > 0, "matmul_nt: k must be positive");
    assert_eq!(a.len() % k, 0, "matmul_nt: a length not a multiple of k");
    assert_eq!(b.len() % k, 0, "matmul_nt: b length not a multiple of k");
    let m = a.len() / k;
    let n = b.len() / k;
    assert_eq!(out.len(), m * n, "matmul_nt: out shape mismatch");
    (m, n)
}

/// Affine block product `out[i][c] = dot(x_i, wb_c[..d]) + wb_c[d]` for
/// row-major `x` (`rows×d`) against bias-folded parameter rows `wb`
/// (`c_rows×(d+1)`) — one call computes a whole block's logits `X̃Wᵀ`
/// (or `U = X̃Vᵀ`) without materializing the bias column of `X̃`.
///
/// Serial by construction: callers block and parallelize over sample
/// blocks one level up, so this primitive stays allocation-free and
/// deterministic.
///
/// # Panics
/// Panics on shape mismatches (`d = 0` is rejected).
pub fn affine_nt(x: &[f64], wb: &[f64], d: usize, out: &mut [f64]) {
    assert!(d > 0, "affine_nt: d must be positive");
    assert_eq!(x.len() % d, 0, "affine_nt: x length not a multiple of d");
    let cols = d + 1;
    assert_eq!(
        wb.len() % cols,
        0,
        "affine_nt: wb length not a multiple of d+1"
    );
    let rows = x.len() / d;
    let c_rows = wb.len() / cols;
    assert_eq!(out.len(), rows * c_rows, "affine_nt: out shape mismatch");
    for i in 0..rows {
        let xrow = &x[i * d..(i + 1) * d];
        let orow = &mut out[i * c_rows..(i + 1) * c_rows];
        for (c, o) in orow.iter_mut().enumerate() {
            let wrow = &wb[c * cols..(c + 1) * cols];
            *o = vector::dot(xrow, &wrow[..d]) + wrow[d];
        }
    }
}

/// Dot product with four independent accumulators.
///
/// [`vector::dot`] is a single sequential floating-point reduction, so
/// the CPU cannot overlap its multiply-adds — each one waits on the
/// previous sum. Splitting the reduction into four independent partial
/// sums (combined as `(s0 + s1) + (s2 + s3)` at the end) breaks that
/// dependency chain and lets the FMA pipeline fill.
///
/// The summation *association* is fixed by the code (lane `i % 4`,
/// remainder appended to `s0`'s tree), so results are deterministic and
/// machine-independent — but they are **not** bit-identical to
/// [`vector::dot`]. Use it only inside kernels whose contract is
/// "agrees to ≤1e-10 with the per-sample path", never where two code
/// paths must pin exact equality against `vector::dot`-built results.
#[inline]
pub fn dot_unrolled(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot_unrolled: length mismatch");
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    let xc = x.chunks_exact(4);
    let yc = y.chunks_exact(4);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        s0 += xs[0] * ys[0];
        s1 += xs[1] * ys[1];
        s2 += xs[2] * ys[2];
        s3 += xs[3] * ys[3];
    }
    for (a, b) in xr.iter().zip(yr) {
        s0 += a * b;
    }
    (s0 + s1) + (s2 + s3)
}

/// [`affine_nt`] with the inner dot replaced by [`dot_unrolled`]: same
/// shapes, same blocking (none — callers block one level up), different
/// (but fixed, deterministic) summation association. This is the
/// forward-panel kernel for throughput-critical batched paths such as
/// the logistic-regression `grad_block`, where the logits panel is the
/// dominant cost and the ≤1e-10 agreement contract applies.
///
/// # Panics
/// Panics on shape mismatches (`d = 0` is rejected).
pub fn affine_nt_unrolled(x: &[f64], wb: &[f64], d: usize, out: &mut [f64]) {
    assert!(d > 0, "affine_nt_unrolled: d must be positive");
    assert_eq!(
        x.len() % d,
        0,
        "affine_nt_unrolled: x length not a multiple of d"
    );
    let cols = d + 1;
    assert_eq!(
        wb.len() % cols,
        0,
        "affine_nt_unrolled: wb length not a multiple of d+1"
    );
    let rows = x.len() / d;
    let c_rows = wb.len() / cols;
    assert_eq!(
        out.len(),
        rows * c_rows,
        "affine_nt_unrolled: out shape mismatch"
    );
    for i in 0..rows {
        let xrow = &x[i * d..(i + 1) * d];
        let orow = &mut out[i * c_rows..(i + 1) * c_rows];
        for (c, o) in orow.iter_mut().enumerate() {
            let wrow = &wb[c * cols..(c + 1) * cols];
            *o = dot_unrolled(xrow, &wrow[..d]) + wrow[d];
        }
    }
}

/// Gathered block matvec: `out[r] = dot(a[rows[r]*k ..][..k], x)` — one
/// dot product per *selected* row of the row-major matrix `a`, without
/// copying the gathered rows. This is the Increm-Infl bound pass's
/// kernel: the provenance gradients live in one contiguous matrix and
/// each round dots the surviving pool's rows against the influence
/// vector.
///
/// Dispatches to a thread-pool fan-out over row blocks when the
/// `parallel` feature is on, `rows.len() ≥ 256`, and the pool has more
/// than one worker (single-worker pools take the serial path — the
/// fan-out would only add per-block allocation overhead); each output
/// element is a full-row dot, so the result is bit-identical to
/// [`gather_matvec_serial`].
///
/// # Panics
/// Panics on shape mismatches or an out-of-range row index (`k = 0` is
/// rejected).
pub fn gather_matvec(a: &[f64], k: usize, rows: &[usize], x: &[f64], out: &mut [f64]) {
    #[cfg(feature = "parallel")]
    if rows.len() >= PAR_GRAIN_ROWS && rayon::current_num_threads() > 1 {
        use rayon::prelude::*;
        check_gather_shapes(a, k, rows, x, out);
        let nblocks = rows.len().div_ceil(ROW_BLOCK);
        let parts: Vec<Vec<f64>> = (0..nblocks)
            .into_par_iter()
            .map(|bi| {
                let lo = bi * ROW_BLOCK;
                let hi = (lo + ROW_BLOCK).min(rows.len());
                rows[lo..hi]
                    .iter()
                    .map(|&r| vector::dot(&a[r * k..(r + 1) * k], x))
                    .collect()
            })
            .collect();
        let mut at = 0;
        for part in parts {
            out[at..at + part.len()].copy_from_slice(&part);
            at += part.len();
        }
        return;
    }
    gather_matvec_serial(a, k, rows, x, out);
}

/// Single-threaded [`gather_matvec`]. Always compiled; the dispatching
/// entry point falls back to it below the parallel grain size.
pub fn gather_matvec_serial(a: &[f64], k: usize, rows: &[usize], x: &[f64], out: &mut [f64]) {
    check_gather_shapes(a, k, rows, x, out);
    for (o, &r) in out.iter_mut().zip(rows) {
        *o = vector::dot(&a[r * k..(r + 1) * k], x);
    }
}

fn check_gather_shapes(a: &[f64], k: usize, rows: &[usize], x: &[f64], out: &[f64]) {
    assert!(k > 0, "gather_matvec: k must be positive");
    assert_eq!(
        a.len() % k,
        0,
        "gather_matvec: a length not a multiple of k"
    );
    assert_eq!(x.len(), k, "gather_matvec: x length mismatch");
    assert_eq!(out.len(), rows.len(), "gather_matvec: out length mismatch");
    let n = a.len() / k;
    for &r in rows {
        assert!(r < n, "gather_matvec: row {r} out of {n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut SmallRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Naive reference through the existing `Matrix` type: `A·Bᵀ`.
    fn naive_nt(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
        let m = a.len() / k;
        let n = b.len() / k;
        let am = Matrix::from_vec(m, k, a.to_vec());
        let bm = Matrix::from_vec(n, k, b.to_vec());
        am.matmul(&bm.transpose()).as_slice().to_vec()
    }

    #[test]
    fn workspace_recycles_and_zeroes() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(5);
        buf.iter_mut().for_each(|v| *v = 7.0);
        let cap = buf.capacity();
        ws.put(buf);
        let again = ws.take(3);
        assert_eq!(again, vec![0.0; 3]);
        assert!(again.capacity() >= cap.min(3));
    }

    #[test]
    fn workspace_take_uninit_has_right_length_without_zeroing() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(4);
        buf.iter_mut().for_each(|v| *v = 9.0);
        ws.put(buf);
        // Shrinking reuse keeps recycled contents (that's the point).
        let b = ws.take_uninit(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b, vec![9.0, 9.0]);
        ws.put(b);
        // Growth extends with zeros beyond the recycled prefix.
        let b = ws.take_uninit(6);
        assert_eq!(b.len(), 6);
        assert_eq!(&b[2..], &[0.0; 4]);
    }

    #[test]
    fn workspace_take_is_best_fit_not_pop() {
        // A small take must not steal the one large-capacity buffer.
        let mut ws = Workspace::new();
        let big = ws.take(1024);
        let big_cap = big.capacity();
        let small = ws.take(8);
        ws.put(small); // pool order: [small] …
        ws.put(big); // … then [small, big]: a naive pop would grab `big`.
        let again_small = ws.take(8);
        assert!(
            again_small.capacity() < big_cap,
            "take(8) stole the large buffer (cap {})",
            again_small.capacity()
        );
        let again_big = ws.take_uninit(1024);
        assert_eq!(again_big.capacity(), big_cap, "large buffer reallocated");
    }

    #[test]
    fn workspace_prefers_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        let a = ws.take(16);
        let b = ws.take(64);
        let b_cap = b.capacity();
        ws.put(a);
        ws.put(b);
        // Nothing holds 100 elements: grow the largest, not the smallest.
        let grown = ws.take(100);
        assert!(grown.capacity() >= b_cap);
        assert_eq!(ws.pool.len(), 1, "smaller buffer should still be pooled");
        assert!(ws.pool[0].capacity() < b_cap, "took the wrong buffer");
    }

    #[test]
    fn workspace_pool_growth_is_bounded() {
        let mut ws = Workspace::new();
        for len in 1..=(2 * MAX_POOLED) {
            ws.put(Vec::with_capacity(len));
        }
        assert_eq!(ws.pool.len(), MAX_POOLED);
        // Overflow keeps the largest capacities: the smallest retained
        // buffer must beat every evicted one.
        let min_cap = ws.pool.iter().map(Vec::capacity).min().unwrap();
        assert!(
            min_cap > MAX_POOLED,
            "evicted a large buffer (min {min_cap})"
        );
    }

    #[test]
    fn matmul_nt_known_values() {
        // A = [[1,2],[3,4],[5,6]], B = [[1,0],[0,1],[1,1]] → A·Bᵀ.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut out = vec![0.0; 9];
        matmul_nt(&a, &b, 2, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 3.0, 4.0, 7.0, 5.0, 6.0, 11.0]);
    }

    #[test]
    fn blocked_matches_naive_across_block_boundaries() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Shapes straddling ROW_BLOCK and the parallel grain.
        for (m, n, k) in [(1, 1, 3), (63, 65, 7), (64, 64, 1), (300, 5, 17)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut out = vec![0.0; m * n];
            matmul_nt(&a, &b, k, &mut out);
            let mut serial = vec![0.0; m * n];
            matmul_nt_serial(&a, &b, k, &mut serial);
            let naive = naive_nt(&a, &b, k);
            assert_eq!(out, serial, "dispatching vs serial ({m}x{n}x{k})");
            for (x, y) in out.iter().zip(&naive) {
                assert!((x - y).abs() < 1e-12, "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    proptest! {
        /// Property: the blocked kernel agrees with the naive `Matrix`
        /// product for arbitrary shapes and contents.
        #[test]
        fn prop_blocked_matmul_matches_naive(
            m in 1usize..40,
            n in 1usize..40,
            k in 1usize..12,
            seed in 0u64..1000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut out = vec![0.0; m * n];
            matmul_nt(&a, &b, k, &mut out);
            let naive = naive_nt(&a, &b, k);
            for (x, y) in out.iter().zip(&naive) {
                prop_assert!((x - y).abs() < 1e-12, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn affine_matches_explicit_bias_column() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (rows, c, d) = (70, 3, 5);
        let x = rand_vec(rows * d, &mut rng);
        let wb = rand_vec(c * (d + 1), &mut rng);
        let mut out = vec![0.0; rows * c];
        affine_nt(&x, &wb, d, &mut out);
        // Reference: append the all-ones column and run the plain kernel.
        let mut xt = Vec::with_capacity(rows * (d + 1));
        for r in 0..rows {
            xt.extend_from_slice(&x[r * d..(r + 1) * d]);
            xt.push(1.0);
        }
        let mut reference = vec![0.0; rows * c];
        matmul_nt_serial(&xt, &wb, d + 1, &mut reference);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn dot_unrolled_matches_dot_to_fp_tolerance() {
        let mut rng = SmallRng::seed_from_u64(8);
        for len in [0, 1, 3, 4, 5, 8, 17, 64, 257] {
            let x = rand_vec(len, &mut rng);
            let y = rand_vec(len, &mut rng);
            let plain = crate::vector::dot(&x, &y);
            let fast = dot_unrolled(&x, &y);
            assert!(
                (plain - fast).abs() <= 1e-12 * plain.abs().max(1.0),
                "len {len}: {plain} vs {fast}"
            );
        }
    }

    #[test]
    fn dot_unrolled_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(9);
        let x = rand_vec(103, &mut rng);
        let y = rand_vec(103, &mut rng);
        assert_eq!(
            dot_unrolled(&x, &y).to_bits(),
            dot_unrolled(&x, &y).to_bits()
        );
    }

    #[test]
    fn affine_unrolled_matches_affine_to_fp_tolerance() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (rows, c, d) in [(1, 2, 1), (33, 3, 5), (70, 4, 32), (9, 2, 65)] {
            let x = rand_vec(rows * d, &mut rng);
            let wb = rand_vec(c * (d + 1), &mut rng);
            let mut plain = vec![0.0; rows * c];
            let mut fast = vec![0.0; rows * c];
            affine_nt(&x, &wb, d, &mut plain);
            affine_nt_unrolled(&x, &wb, d, &mut fast);
            for (a, b) in plain.iter().zip(&fast) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn gather_matvec_matches_per_row_dots() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (n, k) = (400, 9);
        let a = rand_vec(n * k, &mut rng);
        let x = rand_vec(k, &mut rng);
        // A scattered, repeated row selection longer than the grain.
        let rows: Vec<usize> = (0..300).map(|i| (i * 7 + 3) % n).collect();
        let mut out = vec![0.0; rows.len()];
        gather_matvec(&a, k, &rows, &x, &mut out);
        let mut serial = vec![0.0; rows.len()];
        gather_matvec_serial(&a, k, &rows, &x, &mut serial);
        assert_eq!(out, serial, "dispatching vs serial must be bit-identical");
        for (o, &r) in out.iter().zip(&rows) {
            let expect = crate::vector::dot(&a[r * k..(r + 1) * k], &x);
            assert_eq!(*o, expect, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "out shape mismatch")]
    fn matmul_nt_rejects_bad_out() {
        let mut out = vec![0.0; 3];
        matmul_nt(&[1.0, 2.0], &[3.0, 4.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "row 4 out of 4")]
    fn gather_rejects_out_of_range_row() {
        let mut out = vec![0.0; 1];
        gather_matvec(&[0.0; 8], 2, &[4], &[1.0, 1.0], &mut out);
    }
}
