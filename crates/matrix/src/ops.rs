//! Low-level vector kernels: dot products, norms, axpy, fused rotations.
//!
//! These are the only kernels in the hot path of a Jacobi sweep, so they
//! are written over plain slices and structured for SIMD: every reduction
//! uses several *independent* accumulators (`chunks_exact` blocks of
//! [`UNROLL`] lanes), because a strict-left-to-right `f64` sum forms a
//! loop-carried dependency chain that LLVM is not allowed to vectorize.
//! With the accumulators independent, the compiler emits packed adds and
//! multiplies, and the dependency chain shrinks by the unroll factor even
//! in scalar code.
//!
//! The reassociated sums are *not* bitwise identical to the naive
//! left-to-right order; they are at least as accurate (shorter chains →
//! smaller worst-case rounding error). The original strict-order kernels
//! are kept in [`naive`] as the reference the property tests and the
//! benchmarks compare against.

/// Unroll width of the reduction kernels (independent accumulators).
pub const UNROLL: usize = 8;

/// Unroll width of the fused rotate kernel (it carries 2 accumulator
/// arrays plus 2 data streams, so a narrower unroll avoids register
/// spills).
const ROT_UNROLL: usize = 4;

/// Strict-order reference implementations of the unrolled kernels.
///
/// These are the textbook loops the optimized kernels are validated
/// against (property tests) and benchmarked against (`BENCH_kernels.json`).
/// They stay `pub` so the bench harness can time naive vs unrolled.
pub mod naive {
    /// Strict left-to-right dot product.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        acc
    }

    /// Strict-order squared Euclidean norm.
    #[inline]
    pub fn norm2_sq(x: &[f64]) -> f64 {
        dot(x, x)
    }

    /// Strict-order fused Gram entries `(a·a, b·b, a·b)`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn gram3(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
        assert_eq!(a.len(), b.len(), "gram3: length mismatch");
        let (mut aa, mut bb, mut ab) = (0.0, 0.0, 0.0);
        for (&x, &y) in a.iter().zip(b.iter()) {
            aa += x * x;
            bb += y * y;
            ab += x * y;
        }
        (aa, bb, ab)
    }

    /// Element-at-a-time `y += alpha * x`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    /// Unfused rotation apply + two separate norm passes, the sequence the
    /// fused kernel replaces. Reference for the fused-rotation benches and
    /// property tests.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn rotate_then_norms(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
        assert_eq!(a.len(), b.len(), "rotate_then_norms: length mismatch");
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (ax, bx) = (*x, *y);
            *x = c * ax - s * bx;
            *y = s * ax + c * bx;
        }
        (norm2_sq(a), norm2_sq(b))
    }
}

#[inline]
fn sum_unrolled(acc: [f64; UNROLL]) -> f64 {
    // pairwise tree sum: same depth the SIMD horizontal reduction has
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product of two equal-length slices (multi-accumulator, vectorizable).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let yc = y.chunks_exact(UNROLL);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        // fixed-size views: compile-time lengths, no per-element bounds
        // checks inside the unrolled body
        let cx: &[f64; UNROLL] = cx.try_into().expect("chunks_exact");
        let cy: &[f64; UNROLL] = cy.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            acc[k] += cx[k] * cy[k];
        }
    }
    let mut tail = 0.0;
    for (a, b) in xr.iter().zip(yr.iter()) {
        tail += a * b;
    }
    sum_unrolled(acc) + tail
}

/// Squared Euclidean norm (no overflow guard; used where magnitudes are
/// tame). Multi-accumulator, vectorizable.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let xr = xc.remainder();
    for cx in xc {
        let cx: &[f64; UNROLL] = cx.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            acc[k] += cx[k] * cx[k];
        }
    }
    let mut tail = 0.0;
    for &a in xr {
        tail += a * a;
    }
    sum_unrolled(acc) + tail
}

/// Euclidean norm with scaling to avoid overflow/underflow on extreme data.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale = 0.0_f64;
    for &v in x {
        scale = scale.max(v.abs());
    }
    if scale == 0.0 || !scale.is_finite() {
        return scale;
    }
    let inv = 1.0 / scale;
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let xr = xc.remainder();
    for cx in xc {
        for k in 0..UNROLL {
            let t = cx[k] * inv;
            acc[k] += t * t;
        }
    }
    let mut tail = 0.0;
    for &v in xr {
        let t = v * inv;
        tail += t * t;
    }
    scale * (sum_unrolled(acc) + tail).sqrt()
}

/// `y += alpha * x` (unrolled; no reduction, but the fixed-width blocks
/// remove the bounds checks and let the compiler emit packed FMAs).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let split = y.len() - y.len() % UNROLL;
    let (ym, yt) = y.split_at_mut(split);
    let (xm, xt) = x.split_at(split);
    for (cy, cx) in ym.chunks_exact_mut(UNROLL).zip(xm.chunks_exact(UNROLL)) {
        for k in 0..UNROLL {
            cy[k] += alpha * cx[k];
        }
    }
    for (yi, xi) in yt.iter_mut().zip(xt.iter()) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// The three Gram entries `(a·a, b·b, a·b)` of a column pair, in one pass.
///
/// One fused pass halves the memory traffic of the convergence test that
/// precedes every rotation; the three reductions run on independent
/// accumulator blocks so the whole pass vectorizes.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn gram3(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "gram3: length mismatch");
    let split = a.len() - a.len() % UNROLL;
    let (am, ar) = a.split_at(split);
    let (bm, br) = b.split_at(split);
    let (aa, bb, ab) = gram3_main(am, bm);
    let (mut taa, mut tbb, mut tab) = (0.0, 0.0, 0.0);
    for (&x, &y) in ar.iter().zip(br.iter()) {
        taa += x * x;
        tbb += y * y;
        tab += x * y;
    }
    (sum_unrolled(aa) + taa, sum_unrolled(bb) + tbb, sum_unrolled(ab) + tab)
}

/// Accumulator lanes of `gram3` over a length-multiple-of-[`UNROLL`]
/// prefix: lane `k` holds the partial sums over elements `j·UNROLL + k`.
///
/// Written with explicit AVX intrinsics on x86-64: LLVM's SLP pass pairs
/// the three reductions *across* the `a`/`b` streams (unpck shuffles at
/// 128-bit width) instead of across lanes, which runs slower than the
/// strict scalar loop. The intrinsic version is plain lane-wise
/// multiply-then-add — no FMA contraction — so its lanes are bitwise
/// identical to the scalar fallback below.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline]
fn gram3_main(a: &[f64], b: &[f64]) -> ([f64; UNROLL], [f64; UNROLL], [f64; UNROLL]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(a.len() % UNROLL, 0);
    debug_assert_eq!(a.len(), b.len());
    let mut aa = [0.0f64; UNROLL];
    let mut bb = [0.0f64; UNROLL];
    let mut ab = [0.0f64; UNROLL];
    // SAFETY: loads/stores stay within `a`/`b` (length checked to be a
    // multiple of UNROLL = 8, read in 4-lane halves) and within the
    // 8-lane accumulator arrays; AVX is a compile-time target feature.
    unsafe {
        let (mut aa_lo, mut aa_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut bb_lo, mut bb_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut ab_lo, mut ab_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < a.len() {
            let a_lo = _mm256_loadu_pd(pa.add(i));
            let a_hi = _mm256_loadu_pd(pa.add(i + 4));
            let b_lo = _mm256_loadu_pd(pb.add(i));
            let b_hi = _mm256_loadu_pd(pb.add(i + 4));
            aa_lo = _mm256_add_pd(aa_lo, _mm256_mul_pd(a_lo, a_lo));
            aa_hi = _mm256_add_pd(aa_hi, _mm256_mul_pd(a_hi, a_hi));
            bb_lo = _mm256_add_pd(bb_lo, _mm256_mul_pd(b_lo, b_lo));
            bb_hi = _mm256_add_pd(bb_hi, _mm256_mul_pd(b_hi, b_hi));
            ab_lo = _mm256_add_pd(ab_lo, _mm256_mul_pd(a_lo, b_lo));
            ab_hi = _mm256_add_pd(ab_hi, _mm256_mul_pd(a_hi, b_hi));
            i += UNROLL;
        }
        _mm256_storeu_pd(aa.as_mut_ptr(), aa_lo);
        _mm256_storeu_pd(aa.as_mut_ptr().add(4), aa_hi);
        _mm256_storeu_pd(bb.as_mut_ptr(), bb_lo);
        _mm256_storeu_pd(bb.as_mut_ptr().add(4), bb_hi);
        _mm256_storeu_pd(ab.as_mut_ptr(), ab_lo);
        _mm256_storeu_pd(ab.as_mut_ptr().add(4), ab_hi);
    }
    (aa, bb, ab)
}

/// Portable fallback: the same lane assignment in scalar code.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline]
fn gram3_main(a: &[f64], b: &[f64]) -> ([f64; UNROLL], [f64; UNROLL], [f64; UNROLL]) {
    debug_assert_eq!(a.len() % UNROLL, 0);
    let mut aa = [0.0f64; UNROLL];
    let mut bb = [0.0f64; UNROLL];
    let mut ab = [0.0f64; UNROLL];
    for (ca, cb) in a.chunks_exact(UNROLL).zip(b.chunks_exact(UNROLL)) {
        let ca: &[f64; UNROLL] = ca.try_into().expect("chunks_exact");
        let cb: &[f64; UNROLL] = cb.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            let (x, y) = (ca[k], cb[k]);
            aa[k] += x * x;
            bb[k] += y * y;
            ab[k] += x * y;
        }
    }
    (aa, bb, ab)
}

/// Fused plane rotation: apply `a' = c·a − s·b`, `b' = s·a + c·b` (or the
/// swapped form `a' = s·a + c·b`, `b' = c·a − s·b` when `SWAP`) while
/// accumulating the updated squared norms `(‖a'‖², ‖b'‖²)` in the same
/// pass. This is the executor's hot loop: it collapses the old
/// apply-then-renorm sequence (3 traversals of each column) into one.
#[inline]
fn rotate_fused_impl<const SWAP: bool>(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    let split = a.len() - a.len() % ROT_UNROLL;
    let (am, at) = a.split_at_mut(split);
    let (bm, bt) = b.split_at_mut(split);
    let (na, nb) = rotate_fused_main::<SWAP>(c, s, am, bm);
    let (mut tna, mut tnb) = (0.0, 0.0);
    for (x, y) in at.iter_mut().zip(bt.iter_mut()) {
        let (ax, bx) = (*x, *y);
        let xp = c * ax - s * bx;
        let yp = s * ax + c * bx;
        let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
        *x = da;
        *y = db;
        tna += da * da;
        tnb += db * db;
    }
    ((na[0] + na[1]) + (na[2] + na[3]) + tna, (nb[0] + nb[1]) + (nb[2] + nb[3]) + tnb)
}

/// Accumulator lanes of the fused rotation over a
/// length-multiple-of-[`ROT_UNROLL`] prefix.
///
/// Explicit AVX on x86-64 for the same reason as [`gram3_main`]: the plain
/// form auto-vectorizes, but for `SWAP = true` LLVM's SLP pass pairs the
/// updates *across* the `a`/`b` streams (scalar + `unpck` shuffles at
/// 128-bit width) and ran ~3× slower than the plain form. The intrinsic
/// version is lane-wise multiply/add/sub — no FMA contraction — and routes
/// both forms through the identical arithmetic (only the store destinations
/// and norm accumulators exchange roles), so its lanes are bitwise identical
/// to the scalar fallback below.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline]
fn rotate_fused_main<const SWAP: bool>(
    c: f64,
    s: f64,
    a: &mut [f64],
    b: &mut [f64],
) -> ([f64; ROT_UNROLL], [f64; ROT_UNROLL]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(a.len() % ROT_UNROLL, 0);
    debug_assert_eq!(a.len(), b.len());
    let mut na = [0.0f64; ROT_UNROLL];
    let mut nb = [0.0f64; ROT_UNROLL];
    // SAFETY: loads/stores stay within `a`/`b` (length checked to be a
    // multiple of ROT_UNROLL = 4, processed one 4-lane vector at a time)
    // and within the 4-lane accumulator arrays; AVX is a compile-time
    // target feature.
    unsafe {
        let vc = _mm256_set1_pd(c);
        let vs = _mm256_set1_pd(s);
        let mut acc_a = _mm256_setzero_pd();
        let mut acc_b = _mm256_setzero_pd();
        let (pa, pb) = (a.as_mut_ptr(), b.as_mut_ptr());
        let mut i = 0;
        while i < a.len() {
            let x = _mm256_loadu_pd(pa.add(i));
            let y = _mm256_loadu_pd(pb.add(i));
            let xp = _mm256_sub_pd(_mm256_mul_pd(vc, x), _mm256_mul_pd(vs, y));
            let yp = _mm256_add_pd(_mm256_mul_pd(vs, x), _mm256_mul_pd(vc, y));
            let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
            _mm256_storeu_pd(pa.add(i), da);
            _mm256_storeu_pd(pb.add(i), db);
            acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
            acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
            i += ROT_UNROLL;
        }
        _mm256_storeu_pd(na.as_mut_ptr(), acc_a);
        _mm256_storeu_pd(nb.as_mut_ptr(), acc_b);
    }
    (na, nb)
}

/// Portable fallback: the same lane assignment in scalar code.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline]
fn rotate_fused_main<const SWAP: bool>(
    c: f64,
    s: f64,
    a: &mut [f64],
    b: &mut [f64],
) -> ([f64; ROT_UNROLL], [f64; ROT_UNROLL]) {
    debug_assert_eq!(a.len() % ROT_UNROLL, 0);
    let mut na = [0.0f64; ROT_UNROLL];
    let mut nb = [0.0f64; ROT_UNROLL];
    for (ca, cb) in a.chunks_exact_mut(ROT_UNROLL).zip(b.chunks_exact_mut(ROT_UNROLL)) {
        for k in 0..ROT_UNROLL {
            let (x, y) = (ca[k], cb[k]);
            let xp = c * x - s * y;
            let yp = s * x + c * y;
            let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
            ca[k] = da;
            cb[k] = db;
            na[k] += da * da;
            nb[k] += db * db;
        }
    }
    (na, nb)
}

/// Fused rotation, plain form (equation (1)): returns the exact updated
/// squared norms `(‖a'‖², ‖b'‖²)` computed in the same pass as the update.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate_fused(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "rotate_fused: length mismatch");
    rotate_fused_impl::<false>(c, s, a, b)
}

/// Fused rotation, swapped form (equation (3) — rotation + column
/// interchange in one pass): returns the exact updated squared norms.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate_fused_swapped(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "rotate_fused_swapped: length mismatch");
    rotate_fused_impl::<true>(c, s, a, b)
}

/// Row-tile length (in elements) of the blocked panel kernels
/// [`panel_update`] / [`gemm_acc`]. The `square` plan (512×256 over two
/// lanes) meets `k = 128`-column unions, whose input tile is
/// `128 · 128 · 8 B = 128 KiB` — resident in L2 while each 4-column output
/// block streams over it.
pub const PANEL_TILE: usize = 128;

/// Column `i` of the union panel `[X Y]` (both column-major with `m` rows).
#[inline]
fn union_col<'a>(x: &'a [f64], y: &'a [f64], m: usize, i: usize) -> &'a [f64] {
    let off = i * m;
    if off < x.len() {
        &x[off..off + m]
    } else {
        &y[off - x.len()..off - x.len() + m]
    }
}

/// Lane count of the dot-block kernel: element `e` of every dot
/// accumulates into lane `e mod DOT_LANES`.
const DOT_LANES: usize = 8;

/// The `R×C` block of dot products `a[r]·b[c]` over the first `n`
/// elements (`n` a multiple of [`DOT_LANES`]), returned as `[c][r]`. Lane
/// `l` of dot `(r, c)` is the fused-multiply-add chain over elements
/// `j·DOT_LANES + l`, in order, starting from `+0`; the lanes are then
/// reduced by the pairwise tree of [`sum_unrolled`], operands in its
/// order.
///
/// This is the register-blocked heart of [`gram_block_lower`] and
/// [`gemm_tn`]. At `4×4` the AVX-512 body keeps the 16 dots in 16
/// registers and loads 8 vectors per 16 fmas, so every column load feeds
/// four reductions, and it reduces each dot's lanes in registers. All
/// three bodies compute the same exactly rounded per-lane chains
/// (`_mm512_fmadd_pd` / `_mm256_fmadd_pd` / [`f64::mul_add`]) and the
/// same tree, so they agree bitwise.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn dot_block_sums<const R: usize, const C: usize>(
    a: [&[f64]; R],
    b: [&[f64]; C],
    n: usize,
) -> [[f64; R]; C] {
    use core::arch::x86_64::*;
    assert!(n.is_multiple_of(DOT_LANES));
    let a: [&[f64]; R] = core::array::from_fn(|r| &a[r][..n]);
    let b: [&[f64]; C] = core::array::from_fn(|c| &b[c][..n]);
    let mut out = [[0.0f64; R]; C];
    // SAFETY: every load reads 8 lanes at an offset `i < n` with `n` a
    // multiple of 8, and every column was sliced to `n` above. AVX-512F
    // is a compile-time target feature.
    unsafe {
        let mut acc = [[_mm512_setzero_pd(); R]; C];
        let mut i = 0;
        while i < n {
            let va: [__m512d; R] = core::array::from_fn(|r| _mm512_loadu_pd(a[r].as_ptr().add(i)));
            let vb: [__m512d; C] = core::array::from_fn(|c| _mm512_loadu_pd(b[c].as_ptr().add(i)));
            for c in 0..C {
                for r in 0..R {
                    acc[c][r] = _mm512_fmadd_pd(va[r], vb[c], acc[c][r]);
                }
            }
            i += DOT_LANES;
        }
        for c in 0..C {
            for r in 0..R {
                // s1[2i] = l2i + l2i+1; s2[4i] = s1[4i] + s1[4i+2]; then
                // s2[0] + s2[4]
                let v = acc[c][r];
                let s1 = _mm512_add_pd(v, _mm512_permute_pd::<0b0101_0101>(v));
                let s2 = _mm512_add_pd(s1, _mm512_permutex_pd::<0b01_00_11_10>(s1));
                let lo = _mm512_castpd512_pd256(s2);
                out[c][r] = _mm256_cvtsd_f64(_mm256_add_pd(lo, _mm512_extractf64x4_pd::<1>(s2)));
            }
        }
    }
    out
}

/// AVX2+FMA body. Sixteen `ymm` registers hold one 2×2 block of 8-lane
/// dots (two halves each), so the `R×C` block (`R`, `C` even) is walked
/// as 2×2 sub-blocks, each one pass of eight accumulators.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
fn dot_block_sums<const R: usize, const C: usize>(
    a: [&[f64]; R],
    b: [&[f64]; C],
    n: usize,
) -> [[f64; R]; C] {
    use core::arch::x86_64::*;
    const { assert!(R.is_multiple_of(2) && C.is_multiple_of(2)) };
    assert!(n.is_multiple_of(DOT_LANES));
    let a: [&[f64]; R] = core::array::from_fn(|r| &a[r][..n]);
    let b: [&[f64]; C] = core::array::from_fn(|c| &b[c][..n]);
    let mut out = [[[0.0f64; DOT_LANES]; R]; C];
    for c0 in (0..C).step_by(2) {
        for r0 in (0..R).step_by(2) {
            let (pa, pb) =
                ([a[r0].as_ptr(), a[r0 + 1].as_ptr()], [b[c0].as_ptr(), b[c0 + 1].as_ptr()]);
            // SAFETY: every load reads 4 lanes at offset `i` or `i + 4`
            // with `i + 8 ≤ n` (`n` a multiple of 8, every column sliced
            // to `n` above); the stores write the two 4-lane
            // halves of 8-lane rows of `out`. FMA is a compile-time target
            // feature.
            unsafe {
                // acc[2·(2·dc + dr) + h]: half `h` of dot (r0 + dr, c0 + dc)
                let mut acc = [_mm256_setzero_pd(); 8];
                let mut i = 0;
                while i < n {
                    // x[2·dr + h] / y[2·dc + h]: half `h` of a column
                    let x: [__m256d; 4] =
                        core::array::from_fn(|s| _mm256_loadu_pd(pa[s / 2].add(i + 4 * (s % 2))));
                    let y: [__m256d; 4] =
                        core::array::from_fn(|s| _mm256_loadu_pd(pb[s / 2].add(i + 4 * (s % 2))));
                    for dc in 0..2 {
                        for dr in 0..2 {
                            for h in 0..2 {
                                let d = 2 * (2 * dc + dr) + h;
                                acc[d] = _mm256_fmadd_pd(x[2 * dr + h], y[2 * dc + h], acc[d]);
                            }
                        }
                    }
                    i += DOT_LANES;
                }
                for dc in 0..2 {
                    for dr in 0..2 {
                        let lanes = out[c0 + dc][r0 + dr].as_mut_ptr();
                        _mm256_storeu_pd(lanes, acc[2 * (2 * dc + dr)]);
                        _mm256_storeu_pd(lanes.add(4), acc[2 * (2 * dc + dr) + 1]);
                    }
                }
            }
        }
    }
    out.map(|col| col.map(sum_unrolled))
}

/// Portable body: the same lane chains with scalar fused multiply-adds.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn dot_block_sums<const R: usize, const C: usize>(
    a: [&[f64]; R],
    b: [&[f64]; C],
    n: usize,
) -> [[f64; R]; C] {
    debug_assert_eq!(n % DOT_LANES, 0);
    let mut out = [[[0.0f64; DOT_LANES]; R]; C];
    for e in 0..n {
        for c in 0..C {
            for r in 0..R {
                let lane = &mut out[c][r][e % DOT_LANES];
                *lane = a[r][e].mul_add(b[c][e], *lane);
            }
        }
    }
    out.map(|col| col.map(sum_unrolled))
}

/// The `R×C` block of dot products `a[r]·b[c]` of equal-length columns,
/// returned as `[c][r]`: [`dot_block_sums`] over the whole lane groups,
/// then the elements past them folded in one `mul_add` at a time.
#[inline]
fn dot_block<const R: usize, const C: usize>(a: [&[f64]; R], b: [&[f64]; C]) -> [[f64; R]; C] {
    let n = a[0].len();
    debug_assert!(a.iter().chain(&b).all(|s| s.len() == n));
    let split = n - n % DOT_LANES;
    let mut out = dot_block_sums(a, b, split);
    for (c, col) in out.iter_mut().enumerate() {
        for (r, s) in col.iter_mut().enumerate() {
            *s = (split..n).fold(*s, |s, e| a[r][e].mul_add(b[c][e], s));
        }
    }
    out
}

/// Store the dot block `a(i..i+R)ᵀ·b(j..j+C)` through `put(r, c, value)`
/// for `R, C ∈ {2, 4}` chosen at run time.
fn dot_block_dyn<'a>(
    col_a: impl Fn(usize) -> &'a [f64],
    i: usize,
    nr: usize,
    col_b: impl Fn(usize) -> &'a [f64],
    j: usize,
    nc: usize,
    mut put: impl FnMut(usize, usize, f64),
) {
    fn store<const R: usize, const C: usize>(
        d: [[f64; R]; C],
        put: &mut impl FnMut(usize, usize, f64),
    ) {
        for (c, col) in d.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                put(r, c, v);
            }
        }
    }
    let a2 = || [col_a(i), col_a(i + 1)];
    let a4 = || [col_a(i), col_a(i + 1), col_a(i + 2), col_a(i + 3)];
    let b2 = || [col_b(j), col_b(j + 1)];
    let b4 = || [col_b(j), col_b(j + 1), col_b(j + 2), col_b(j + 3)];
    match (nr, nc) {
        (4, 4) => store(dot_block(a4(), b4()), &mut put),
        (4, 2) => store(dot_block(a4(), b2()), &mut put),
        (2, 4) => store(dot_block(a2(), b4()), &mut put),
        (2, 2) => store(dot_block(a2(), b2()), &mut put),
        _ => unreachable!("dot blocks are 2 or 4 wide"),
    }
}

/// `G = [X Y]ᵀ[X Y]`: the `k×k` Gram matrix of the column union of two
/// column-major panels (`k = (x.len() + y.len()) / m`), written
/// column-major into `g` (both triangles).
///
/// [`gram_block_lower`] at leading dimension `k`, then the lower triangle
/// mirrored into the upper, so both triangles hold the same bits.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, or if `g.len() != k²`.
pub fn gram_block(x: &[f64], y: &[f64], m: usize, g: &mut [f64]) {
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert_eq!(g.len(), k * k, "gram_block: output must be k×k");
    gram_block_lower(x, y, m, g, k);
    for j in 0..k {
        for i in 0..j {
            g[i + k * j] = g[j + k * i];
        }
    }
}

/// The lower triangle (diagonal included) of `G = [X Y]ᵀ[X Y]`, written
/// column-major into `g` with leading dimension `ld`: `G(r, c)` for
/// `r ≥ c` lands in `g[r + ld·c]`, and nothing else in `g` is touched.
///
/// Columns are taken four at a time. Every off-diagonal `4×4` block is
/// one [`dot_block`] pass (16 reductions, every column load shared by
/// four of them); inside a diagonal `4×4` block the two `2×2` diagonal
/// blocks fall out of one fused [`gram3`] each and the remaining `2×2`
/// is a [`dot_block`]. When `k mod 4` leaves a pair it forms a final
/// `2`-wide block row, and with odd `k` the last row is plain [`dot`]s
/// plus one [`norm2_sq`]. Columns are walked at full length — the union
/// panels this serves are L2-resident, and each column is read `k/4`
/// times instead of the `k` times of unblocked dots. A leading dimension
/// off the power of two (`k + 1`) keeps the rows of a strided walk over
/// `g` out of each other's cache sets.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, if `ld < k`, or if
/// `g.len() < ld·k`.
pub fn gram_block_lower(x: &[f64], y: &[f64], m: usize, g: &mut [f64], ld: usize) {
    assert_eq!(x.len() % m.max(1), 0, "gram_block: x is not whole columns");
    assert_eq!(y.len() % m.max(1), 0, "gram_block: y is not whole columns");
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert!(ld >= k, "gram_block_lower: leading dimension below k");
    assert!(g.len() >= ld * k, "gram_block_lower: output shorter than ld·k");
    let col = |i: usize| union_col(x, y, m, i);
    let ke = k & !1;
    for jb in (0..ke).step_by(4) {
        let nj = (ke - jb).min(4);
        for p in (jb..jb + nj).step_by(2) {
            let (aa, bb, ab) = gram3(col(p), col(p + 1));
            g[p + ld * p] = aa;
            g[p + 1 + ld * (p + 1)] = bb;
            g[p + 1 + ld * p] = ab;
        }
        if nj == 4 {
            dot_block_dyn(col, jb, 2, col, jb + 2, 2, |r, c, v| g[jb + 2 + c + ld * (jb + r)] = v);
        }
        for ib in (0..jb).step_by(4) {
            dot_block_dyn(col, ib, 4, col, jb, nj, |r, c, v| g[jb + c + ld * (ib + r)] = v);
        }
    }
    if k != ke {
        let j = k - 1;
        let cj = col(j);
        for i in 0..j {
            g[j + ld * i] = dot(col(i), cj);
        }
        g[j + ld * j] = norm2_sq(cj);
    }
}

/// Checks the arguments of [`acc_block`] and returns the row count `n`:
/// every output is `n` long, there is one weight row per source, and
/// every source `src[i·ld ..][..n]` is in bounds.
fn acc_block_rows<const NC: usize>(
    src: &[f64],
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    out: &[&mut [f64]; NC],
) -> usize {
    let n = out[0].len();
    assert!(out.iter().all(|o| o.len() == n), "acc block: outputs of unequal length");
    assert_eq!(idx.len(), w.len(), "acc block: one weight row per source");
    assert!(idx.iter().all(|&i| i * ld + n <= src.len()), "acc block: source out of range");
    n
}

/// Rows `r0..` of [`acc_block`] in scalar code: per output element, the
/// `mul_add` chain over the sources in order. The portable body, and the
/// row tail of the vector bodies.
fn acc_rows_scalar<const NC: usize, const INIT: bool>(
    src: &[f64],
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    out: &mut [&mut [f64]; NC],
    r0: usize,
) {
    for r in r0..out[0].len() {
        for (c, o) in out.iter_mut().enumerate() {
            let base = if INIT { 0.0 } else { o[r] };
            o[r] =
                idx.iter().zip(w).fold(base, |acc, (&i, wi)| wi[c].mul_add(src[i * ld + r], acc));
        }
    }
}

/// `V·8` rows starting at `r` of [`acc_block`]'s AVX-512 body: `NC × V`
/// accumulators (16 at `NC = 4`, `V = 4`) held across every source.
///
/// # Safety
/// Rows `r..r + 8V` of every output pointer in `po` and of every source
/// `ps + idx[s]·ld` must be in bounds.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn acc_rows_avx512<const NC: usize, const V: usize, const INIT: bool>(
    ps: *const f64,
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    po: &[*mut f64; NC],
    r: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees rows r..r + 8V of every output and
    // source are in bounds; AVX-512F is a compile-time target feature.
    unsafe {
        let mut acc: [[__m512d; V]; NC] = core::array::from_fn(|c| {
            core::array::from_fn(|v| {
                if INIT {
                    _mm512_setzero_pd()
                } else {
                    _mm512_loadu_pd(po[c].add(r + 8 * v))
                }
            })
        });
        for (&i, wi) in idx.iter().zip(w) {
            let p = ps.add(i * ld + r);
            let x: [__m512d; V] = core::array::from_fn(|v| _mm512_loadu_pd(p.add(8 * v)));
            for c in 0..NC {
                let wc = _mm512_set1_pd(wi[c]);
                for v in 0..V {
                    acc[c][v] = _mm512_fmadd_pd(wc, x[v], acc[c][v]);
                }
            }
        }
        for (&pc, acc_c) in po.iter().zip(&acc) {
            for (v, &a) in acc_c.iter().enumerate() {
                _mm512_storeu_pd(pc.add(r + 8 * v), a);
            }
        }
    }
}

/// The accumulate-block kernel under [`panel_update`] and [`gemm_acc`]:
/// for each of `NC ≤ 4` output columns,
/// `out[c][r] = w[s_last][c]·src_last[r] + (… + (w[0][c]·src_0[r] + base))`
/// with `base = +0` when `INIT`, else the old `out[c][r]`, and source `s`
/// the rows `src[idx[s]·ld ..][..n]`. Every product is folded in with a
/// fused multiply-add, in source order.
///
/// The AVX-512 body keeps a 32-row × 4-column block of the outputs in 16
/// registers across all sources: per source it loads 4 vectors and 4
/// broadcast weights for 16 fmas, and the outputs are read and written
/// once per call instead of once per four sources. Each output element is
/// an independent exactly rounded fma chain, so the vector bodies, their
/// scalar row tail and the portable body agree bitwise.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn acc_block<const NC: usize, const INIT: bool>(
    src: &[f64],
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    out: &mut [&mut [f64]; NC],
) {
    let n = acc_block_rows(src, ld, idx, w, out);
    let po: [*mut f64; NC] = core::array::from_fn(|c| out[c].as_mut_ptr());
    let mut r = 0;
    while r + 32 <= n {
        // SAFETY: rows r..r + 32 ≤ n of every output (each `n` long) and
        // every source (in bounds by `acc_block_rows`).
        unsafe { acc_rows_avx512::<NC, 4, INIT>(src.as_ptr(), ld, idx, w, &po, r) };
        r += 32;
    }
    while r + 8 <= n {
        // SAFETY: rows r..r + 8 ≤ n, as above.
        unsafe { acc_rows_avx512::<NC, 1, INIT>(src.as_ptr(), ld, idx, w, &po, r) };
        r += 8;
    }
    acc_rows_scalar::<NC, INIT>(src, ld, idx, w, out, r);
}

/// `V·4` rows starting at `r` of [`acc_block`]'s AVX2 body: `NC × V`
/// accumulators (8 at `NC = 4`, `V = 2`, leaving room in the 16 `ymm`
/// registers for the source vectors and a broadcast weight).
///
/// # Safety
/// Rows `r..r + 4V` of every output pointer in `po` and of every source
/// `ps + idx[s]·ld` must be in bounds.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline(always)]
unsafe fn acc_rows_avx2<const NC: usize, const V: usize, const INIT: bool>(
    ps: *const f64,
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    po: &[*mut f64; NC],
    r: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: the caller guarantees rows r..r + 4V of every output and
    // source are in bounds; FMA is a compile-time target feature.
    unsafe {
        let mut acc: [[__m256d; V]; NC] = core::array::from_fn(|c| {
            core::array::from_fn(|v| {
                if INIT {
                    _mm256_setzero_pd()
                } else {
                    _mm256_loadu_pd(po[c].add(r + 4 * v))
                }
            })
        });
        for (&i, wi) in idx.iter().zip(w) {
            let p = ps.add(i * ld + r);
            let x: [__m256d; V] = core::array::from_fn(|v| _mm256_loadu_pd(p.add(4 * v)));
            for c in 0..NC {
                let wc = _mm256_set1_pd(wi[c]);
                for v in 0..V {
                    acc[c][v] = _mm256_fmadd_pd(wc, x[v], acc[c][v]);
                }
            }
        }
        for (&pc, acc_c) in po.iter().zip(&acc) {
            for (v, &a) in acc_c.iter().enumerate() {
                _mm256_storeu_pd(pc.add(r + 4 * v), a);
            }
        }
    }
}

/// AVX2+FMA body of [`acc_block`]: 8-row blocks, then 4, then scalar.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
fn acc_block<const NC: usize, const INIT: bool>(
    src: &[f64],
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    out: &mut [&mut [f64]; NC],
) {
    let n = acc_block_rows(src, ld, idx, w, out);
    let po: [*mut f64; NC] = core::array::from_fn(|c| out[c].as_mut_ptr());
    let mut r = 0;
    while r + 8 <= n {
        // SAFETY: rows r..r + 8 ≤ n of every output (each `n` long) and
        // every source (in bounds by `acc_block_rows`).
        unsafe { acc_rows_avx2::<NC, 2, INIT>(src.as_ptr(), ld, idx, w, &po, r) };
        r += 8;
    }
    while r + 4 <= n {
        // SAFETY: rows r..r + 4 ≤ n, as above.
        unsafe { acc_rows_avx2::<NC, 1, INIT>(src.as_ptr(), ld, idx, w, &po, r) };
        r += 4;
    }
    acc_rows_scalar::<NC, INIT>(src, ld, idx, w, out, r);
}

/// Portable body of [`acc_block`]: the scalar chains over every row.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn acc_block<const NC: usize, const INIT: bool>(
    src: &[f64],
    ld: usize,
    idx: &[usize],
    w: &[[f64; NC]],
    out: &mut [&mut [f64]; NC],
) {
    acc_block_rows(src, ld, idx, w, out);
    acc_rows_scalar::<NC, INIT>(src, ld, idx, w, out, 0);
}

/// Sources packed per [`acc_block`] call: a fixed-size stack chunk, so
/// any source count runs without heap scratch (longer sums carry on in
/// the outputs from one chunk to the next, which leaves the chains
/// unchanged).
const ACC_CHUNK: usize = 64;

/// `out_c = base + Σ_i (α·w[i + p·c])·src_i` for the next `NC` output
/// columns `out_c` of `outs`, with `w` their column-major `p×NC` weights
/// (source `i` is `src[i·ld ..]`, `base` is `+0` when `init`, else the
/// old `out_c`). A source is skipped only when all `NC` of its weights
/// are exactly zero, so a near-identity `W` stays cheap; the zero weights
/// it does keep are exact no-ops on a nonzero sum.
#[allow(clippy::needless_range_loop)] // `i` indexes all NC weight columns
fn acc_columns<'a, const NC: usize>(
    src: &[f64],
    ld: usize,
    w: &[f64],
    alpha: f64,
    init: bool,
    outs: &mut impl Iterator<Item = &'a mut [f64]>,
) {
    fn call<const NC: usize>(
        src: &[f64],
        ld: usize,
        idx: &[usize],
        w: &[[f64; NC]],
        init: bool,
        out: &mut [&mut [f64]; NC],
    ) {
        if init {
            acc_block::<NC, true>(src, ld, idx, w, out);
        } else {
            acc_block::<NC, false>(src, ld, idx, w, out);
        }
    }
    let p = w.len() / NC;
    let wcol: [&[f64]; NC] = core::array::from_fn(|c| &w[p * c..p * (c + 1)]);
    let mut out: [&mut [f64]; NC] =
        core::array::from_fn(|_| outs.next().expect("acc_columns: too few output columns"));
    let mut idx = [0usize; ACC_CHUNK];
    let mut ws = [[0.0f64; NC]; ACC_CHUNK];
    let (mut fill, mut init) = (0, init);
    for i in 0..p {
        let wi: [f64; NC] = core::array::from_fn(|c| alpha * wcol[c][i]);
        // all NC weights ±0: no bit set outside the sign bits
        if wi.iter().fold(0u64, |bits, v| bits | v.to_bits()) << 1 == 0 {
            continue;
        }
        idx[fill] = i;
        ws[fill] = wi;
        fill += 1;
        if fill == ACC_CHUNK {
            call(src, ld, &idx, &ws, init, &mut out);
            (fill, init) = (0, false);
        }
    }
    // an initializing call with no sources left still writes its zeros
    if fill > 0 || init {
        call(src, ld, &idx[..fill], &ws[..fill], init, &mut out);
    }
}

/// `out_j = base + Σ_i (α·w[i + p·j])·src_i` for the `q` output columns
/// yielded by `outs`, with `w` a column-major `p×q` weight block (see
/// [`acc_columns`]): four columns per [`acc_block`] pass, and one final
/// pass for the `q mod 4` left over.
#[allow(clippy::too_many_arguments)]
fn acc_all<'a>(
    src: &[f64],
    ld: usize,
    w: &[f64],
    p: usize,
    alpha: f64,
    init: bool,
    mut outs: impl Iterator<Item = &'a mut [f64]>,
    q: usize,
) {
    for j in (0..q).step_by(4) {
        let nc = (q - j).min(4);
        let (w, outs) = (&w[p * j..p * (j + nc)], &mut outs);
        match nc {
            4 => acc_columns::<4>(src, ld, w, alpha, init, outs),
            3 => acc_columns::<3>(src, ld, w, alpha, init, outs),
            2 => acc_columns::<2>(src, ld, w, alpha, init, outs),
            _ => acc_columns::<1>(src, ld, w, alpha, init, outs),
        }
    }
}

/// Blocked panel update `[X Y] ← [X Y] · W` where `W` is the `k×k`
/// column-major orthogonal update accumulated by a block meeting
/// (`k = (x.len() + y.len()) / m`).
///
/// Row-tiled by [`PANEL_TILE`]: each tile of the input union is
/// snapshotted into `tile` (caller scratch, length ≥ `k · PANEL_TILE`),
/// then the output columns are accumulated four at a time over the
/// cache-resident snapshot by the [`acc_block`] kernel — one read plus
/// one write of the panel total, against the O(k²·m) column traffic of
/// applying rotations one pair at a time. A source is skipped when its
/// weights in all four columns are exact zeros, so a near-identity `W`
/// (late sweeps) costs a few fmas per output element.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, `w.len() != k²`, or
/// `tile` is shorter than `k · PANEL_TILE`.
pub fn panel_update(x: &mut [f64], y: &mut [f64], m: usize, w: &[f64], tile: &mut [f64]) {
    assert_eq!(x.len() % m.max(1), 0, "panel_update: x is not whole columns");
    assert_eq!(y.len() % m.max(1), 0, "panel_update: y is not whole columns");
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert_eq!(w.len(), k * k, "panel_update: w must be k×k");
    if k == 0 {
        return;
    }
    assert!(tile.len() >= k * PANEL_TILE, "panel_update: tile scratch too short");
    let mut r0 = 0;
    while r0 < m {
        let tb = (m - r0).min(PANEL_TILE);
        for i in 0..k {
            let src = &union_col(x, y, m, i)[r0..r0 + tb];
            tile[i * PANEL_TILE..i * PANEL_TILE + tb].copy_from_slice(src);
        }
        let outs = x.chunks_exact_mut(m).chain(y.chunks_exact_mut(m)).map(|c| &mut c[r0..r0 + tb]);
        acc_all(tile, PANEL_TILE, w, k, 1.0, true, outs, k);
        r0 += tb;
    }
}

/// `out (ka×kb, column-major) = AᵀB` for two strided column-major
/// panels: column `j` of `A` is `a[j·lda .. j·lda + rows]` and likewise
/// for `B`. The panels may be sub-views of larger matrices (`lda`,
/// `ldb` ≥ `rows`), which is how the tall-skinny QR applies a block
/// reflector to a row-band of the trailing matrix without copying it.
///
/// Computed in `4×4` register blocks by the same [`dot_block`] kernel as
/// [`gram_block_lower`] (16 reductions per pass, every column load shared
/// by four of them), `2`-wide blocks where `ka` or `kb` leaves a pair,
/// and single-[`dot`] edges for odd `ka`/`kb`.
///
/// # Panics
/// Panics if a panel is too short for its `(rows, ld, k)` view, if a
/// leading dimension is smaller than `rows`, or if `out.len() != ka·kb`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub fn gemm_tn(
    rows: usize,
    a: &[f64],
    lda: usize,
    ka: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
    out: &mut [f64],
) {
    assert!(lda >= rows && ldb >= rows, "gemm_tn: leading dimension < rows");
    assert_eq!(out.len(), ka * kb, "gemm_tn: output must be ka×kb");
    if ka == 0 || kb == 0 {
        return;
    }
    assert!(a.len() >= (ka - 1) * lda + rows, "gemm_tn: a too short");
    assert!(b.len() >= (kb - 1) * ldb + rows, "gemm_tn: b too short");
    let col_a = |i: usize| &a[i * lda..i * lda + rows];
    let col_b = |j: usize| &b[j * ldb..j * ldb + rows];
    let (kae, kbe) = (ka & !1, kb & !1);
    for j in (0..kbe).step_by(4) {
        let nc = (kbe - j).min(4);
        for i in (0..kae).step_by(4) {
            let nr = (kae - i).min(4);
            dot_block_dyn(col_a, i, nr, col_b, j, nc, |r, c, v| out[i + r + ka * (j + c)] = v);
        }
        if ka != kae {
            for c in j..j + nc {
                out[ka - 1 + ka * c] = dot(col_a(ka - 1), col_b(c));
            }
        }
    }
    if kb != kbe {
        let bj = col_b(kb - 1);
        for i in 0..ka {
            out[i + ka * (kb - 1)] = dot(col_a(i), bj);
        }
    }
}

/// Rank-`p` accumulation `C ← C + α·A·W` for a strided column-major
/// output: `A` is `rows×p` (column stride `lda`), `W` is a dense `p×q`
/// column-major coefficient block, and column `j` of `C` is
/// `c[j·ldc .. j·ldc + rows]`. This is the second half of a compact-WY
/// block-reflector application (`C ← C − V·(TᵀVᵀC)`), on the same
/// [`acc_block`] kernel as [`panel_update`] with the weights `α·W`:
/// row-tiled by [`PANEL_TILE`] so the `A` tile stays cache-resident
/// across all `q` output columns, four outputs per pass so every source
/// load feeds four of them.
///
/// # Panics
/// Panics if a panel is too short for its view, a leading dimension is
/// smaller than `rows`, or `w.len() != p·q`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub fn gemm_acc(
    rows: usize,
    a: &[f64],
    lda: usize,
    p: usize,
    w: &[f64],
    q: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    assert!(lda >= rows && ldc >= rows, "gemm_acc: leading dimension < rows");
    assert_eq!(w.len(), p * q, "gemm_acc: w must be p×q");
    if p == 0 || q == 0 || rows == 0 {
        return;
    }
    assert!(a.len() >= (p - 1) * lda + rows, "gemm_acc: a too short");
    assert!(c.len() >= (q - 1) * ldc + rows, "gemm_acc: c too short");
    let mut r0 = 0;
    while r0 < rows {
        let tb = (rows - r0).min(PANEL_TILE);
        let outs = c.chunks_mut(ldc).map(|col| &mut col[r0..r0 + tb]);
        acc_all(&a[r0..], lda, w, p, alpha, false, outs, q);
        r0 += tb;
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::scaled_copy;
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn unrolled_kernels_match_naive_closely() {
        // lengths straddling the unroll boundaries, including tails
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257] {
            let x: Vec<f64> = (0..len).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
            let y: Vec<f64> = (0..len).map(|i| ((i * 53 + 5) % 19) as f64 - 9.0).collect();
            let tol = 1e-12 * (len.max(1) as f64);
            assert!((dot(&x, &y) - naive::dot(&x, &y)).abs() <= tol, "dot len {len}");
            assert!((norm2_sq(&x) - naive::norm2_sq(&x)).abs() <= tol, "norm2_sq len {len}");
            let (aa, bb, ab) = gram3(&x, &y);
            let (naa, nbb, nab) = naive::gram3(&x, &y);
            assert!(
                (aa - naa).abs() <= tol && (bb - nbb).abs() <= tol && (ab - nab).abs() <= tol,
                "gram3 len {len}"
            );
            let mut y1 = y.clone();
            let mut y2 = y.clone();
            axpy(1.5, &x, &mut y1);
            naive::axpy(1.5, &x, &mut y2);
            assert_eq!(y1, y2, "axpy len {len}");
        }
    }

    #[test]
    fn norm2_matches_naive_on_tame_data() {
        let x = [3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_survives_extreme_scales() {
        let big = [1e200, 1e200];
        let n = norm2(&big);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-14);
        let small = [1e-200, 1e-200];
        let n = norm2(&small);
        assert!(n > 0.0);
        assert!((n - 1e-200 * 2.0_f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn axpy_and_scal() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn gram3_consistent_with_dot() {
        let a = [1.0, 2.0, -1.0];
        let b = [0.5, -3.0, 2.0];
        let (aa, bb, ab) = gram3(&a, &b);
        assert!((aa - dot(&a, &a)).abs() < 1e-14);
        assert!((bb - dot(&b, &b)).abs() < 1e-14);
        assert!((ab - dot(&a, &b)).abs() < 1e-14);
    }

    #[test]
    fn norm2_sq_is_dot_with_self() {
        let a = [1.5, -2.0];
        assert_eq!(norm2_sq(&a), dot(&a, &a));
    }

    #[test]
    fn rotate_fused_matches_unfused_reference() {
        let (c, s) = (0.8, 0.6);
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100] {
            let a0: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin()).collect();
            let b0: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos()).collect();

            let (mut a1, mut b1) = (a0.clone(), b0.clone());
            let (ra, rb) = naive::rotate_then_norms(c, s, &mut a1, &mut b1);

            let (mut a2, mut b2) = (a0.clone(), b0.clone());
            let (fa, fb) = rotate_fused(c, s, &mut a2, &mut b2);

            // the written columns are element-wise identical (same formula)
            assert_eq!(a1, a2, "len {len}");
            assert_eq!(b1, b2, "len {len}");
            // the fused norms agree with the recomputed ones up to rounding
            assert!((ra - fa).abs() <= 1e-13 * ra.max(1.0), "len {len}");
            assert!((rb - fb).abs() <= 1e-13 * rb.max(1.0), "len {len}");

            // swapped form = rotate, then exchange the columns
            let (mut a3, mut b3) = (a0.clone(), b0.clone());
            let (sa, sb) = rotate_fused_swapped(c, s, &mut a3, &mut b3);
            assert_eq!(a3, b1, "swapped len {len}");
            assert_eq!(b3, a1, "swapped len {len}");
            assert!((sa - fb).abs() <= 1e-13 * fb.max(1.0));
            assert!((sb - fa).abs() <= 1e-13 * fa.max(1.0));
        }
    }

    #[test]
    fn rotate_fused_identity_swap_is_exact_exchange() {
        let a0 = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b0 = vec![-1.0, 0.5, 2.0, -2.0, 0.25];
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let (na, nb) = rotate_fused_swapped(1.0, 0.0, &mut a, &mut b);
        assert_eq!(a, b0);
        assert_eq!(b, a0);
        assert!((na - norm2_sq(&b0)).abs() < 1e-14);
        assert!((nb - norm2_sq(&a0)).abs() < 1e-14);
    }

    /// Deterministic pseudo-random panel (column-major, m×k).
    fn test_panel(m: usize, k: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..m * k)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn gram_block_matches_pairwise_dots() {
        // straddle the tile boundary and odd/uneven splits
        for (m, cx, cy) in [(5, 2, 3), (PANEL_TILE, 4, 4), (PANEL_TILE + 7, 3, 5), (300, 1, 0)] {
            let x = test_panel(m, cx, 1);
            let y = test_panel(m, cy, 2);
            let k = cx + cy;
            let mut g = vec![0.0; k * k];
            gram_block(&x, &y, m, &mut g);
            for j in 0..k {
                for i in 0..k {
                    let want = naive::dot(union_col(&x, &y, m, i), union_col(&x, &y, m, j));
                    let got = g[i + k * j];
                    assert!(
                        (got - want).abs() <= 1e-12 * (m as f64),
                        "G[{i},{j}] m={m} cx={cx} cy={cy}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_block_lower_matches_gram_block_at_any_leading_dimension() {
        // odd k (the dot/norm2_sq tail), k = 1, an empty y, and a split
        // straddling the tile boundary
        for (m, cx, cy) in [(5, 2, 3), (PANEL_TILE + 7, 3, 4), (300, 1, 0), (9, 5, 0), (37, 4, 4)] {
            let x = test_panel(m, cx, 6);
            let y = test_panel(m, cy, 7);
            let k = cx + cy;
            let mut full = vec![0.0; k * k];
            gram_block(&x, &y, m, &mut full);
            for ld in [k, k + 1, k + 8] {
                let mut g = vec![f64::NAN; ld * k];
                gram_block_lower(&x, &y, m, &mut g, ld);
                for c in 0..k {
                    for r in 0..k {
                        let got = g[r + ld * c];
                        if r >= c {
                            assert_eq!(
                                got.to_bits(),
                                full[r + k * c].to_bits(),
                                "({r},{c}) ld={ld}"
                            );
                            assert_eq!(
                                got.to_bits(),
                                full[c + k * r].to_bits(),
                                "mirror ({c},{r})"
                            );
                        } else {
                            assert!(got.is_nan(), "upper ({r},{c}) written at ld={ld}");
                        }
                    }
                    for r in k..ld {
                        assert!(g[r + ld * c].is_nan(), "padding row {r} written at ld={ld}");
                    }
                }
            }
        }
    }

    #[test]
    fn gram_block_empty_is_ok() {
        let mut g = [];
        gram_block(&[], &[], 0, &mut g);
        gram_block(&[], &[], 4, &mut g);
    }

    #[test]
    fn panel_update_matches_explicit_multiply() {
        for (m, cx, cy) in [(6, 2, 2), (PANEL_TILE + 3, 3, 4), (2 * PANEL_TILE + 1, 5, 3)] {
            let k = cx + cy;
            let x0 = test_panel(m, cx, 3);
            let y0 = test_panel(m, cy, 4);
            // a dense-ish W with some exact zeros to exercise the skip path
            let mut w = test_panel(k, k, 5);
            w[0] = 0.0;
            if k > 1 {
                w[k + 1] = 0.0;
            }
            let (mut x, mut y) = (x0.clone(), y0.clone());
            let mut tile = vec![0.0; k * PANEL_TILE];
            panel_update(&mut x, &mut y, m, &w, &mut tile);
            for j in 0..k {
                for r in 0..m {
                    let want: f64 =
                        (0..k).map(|i| union_col(&x0, &y0, m, i)[r] * w[i + k * j]).sum();
                    let got = union_col(&x, &y, m, j)[r];
                    assert!(
                        (got - want).abs() <= 1e-12 * (k as f64),
                        "col {j} row {r} m={m}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn panel_update_identity_is_noop_bitwise() {
        let m = PANEL_TILE + 9;
        let (cx, cy) = (3, 2);
        let k = cx + cy;
        let x0 = test_panel(m, cx, 7);
        let y0 = test_panel(m, cy, 8);
        let mut w = vec![0.0; k * k];
        for i in 0..k {
            w[i + k * i] = 1.0;
        }
        let (mut x, mut y) = (x0.clone(), y0.clone());
        let mut tile = vec![0.0; k * PANEL_TILE];
        panel_update(&mut x, &mut y, m, &w, &mut tile);
        assert_eq!(x, x0);
        assert_eq!(y, y0);
    }

    #[test]
    fn scaled_copy_basic() {
        let x = [1.0, -2.0, 4.0];
        let mut y = [0.0; 3];
        scaled_copy(0.5, &x, &mut y);
        assert_eq!(y, [0.5, -1.0, 2.0]);
    }

    #[test]
    fn gemm_tn_matches_naive_on_strided_views() {
        // odd/even panel widths, leading dimensions larger than rows
        for (rows, lda, ka, ldb, kb) in
            [(7, 7, 3, 7, 3), (16, 20, 4, 16, 5), (33, 40, 5, 35, 4), (130, 131, 2, 133, 7)]
        {
            let a = test_panel(lda, ka, 11);
            let b = test_panel(ldb, kb, 12);
            let mut out = vec![0.0; ka * kb];
            gemm_tn(rows, &a, lda, ka, &b, ldb, kb, &mut out);
            for j in 0..kb {
                for i in 0..ka {
                    let want = naive::dot(&a[i * lda..i * lda + rows], &b[j * ldb..j * ldb + rows]);
                    let got = out[i + ka * j];
                    assert!(
                        (got - want).abs() <= 1e-11 * (rows as f64),
                        "({rows},{ka},{kb}) entry ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_acc_matches_naive_accumulation() {
        for (rows, lda, p, ldc, q, alpha) in [
            (9, 9, 3, 9, 2, -1.0),
            (PANEL_TILE + 5, PANEL_TILE + 5, 6, PANEL_TILE + 9, 5, -1.0),
            (40, 64, 5, 48, 1, 0.5),
            (17, 17, 1, 17, 4, 2.0),
        ] {
            let a = test_panel(lda, p, 21);
            let w = test_panel(p, q, 22);
            let c0 = test_panel(ldc, q, 23);
            let mut c = c0.clone();
            gemm_acc(rows, &a, lda, p, &w, q, alpha, &mut c, ldc);
            for j in 0..q {
                for r in 0..ldc {
                    let want = if r < rows {
                        let mix: f64 = (0..p).map(|i| a[i * lda + r] * w[i + p * j]).sum();
                        c0[j * ldc + r] + alpha * mix
                    } else {
                        c0[j * ldc + r] // rows past the view are untouched
                    };
                    let got = c[j * ldc + r];
                    assert!(
                        (got - want).abs() <= 1e-11 * (p.max(1) as f64),
                        "({rows},{p},{q}) col {j} row {r}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_acc_zero_weights_are_exact_noops() {
        let (rows, p, q) = (12, 4, 3);
        let a = test_panel(rows, p, 31);
        let w = vec![0.0; p * q];
        let c0 = test_panel(rows, q, 32);
        let mut c = c0.clone();
        gemm_acc(rows, &a, rows, p, &w, q, -1.0, &mut c, rows);
        assert_eq!(c, c0);
    }
}
