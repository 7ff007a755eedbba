//! The level-3 kernels the register-blocked ones replaced, kept as the
//! test oracle: the 2×2 [`dot4`] Gram/`AᵀB` kernel, the one- and
//! two-output [`wsum4`]/[`wsum4x2`] accumulate kernels (every target
//! body of each) and the [`scaled_copy`] of single-weight columns, plus
//! the `gram_block_lower`, `panel_update`, `gemm_tn` and `gemm_acc`
//! bodies built on them. The tests at the end pin the
//! production kernels to these bitwise (an exact zero may differ in
//! sign) and to plain scalar `mul_add` references written here.

use super::{dot, gram3, norm2_sq, union_col, PANEL_TILE};

/// `y = alpha · x` (the initializing form of [`axpy`](super::axpy)).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub(super) fn scaled_copy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "scaled_copy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha * xi;
    }
}

/// Adjacent columns `j` and `j + 1` of the union panel `[X Y]`, mutably —
/// both inside `x`, both inside `y`, or straddling the panel boundary.
#[inline]
fn union_col_pair_mut<'a>(
    x: &'a mut [f64],
    y: &'a mut [f64],
    m: usize,
    j: usize,
) -> (&'a mut [f64], &'a mut [f64]) {
    let xs = x.len();
    let off = j * m;
    if off + 2 * m <= xs {
        x[off..off + 2 * m].split_at_mut(m)
    } else if off >= xs {
        y[off - xs..off - xs + 2 * m].split_at_mut(m)
    } else {
        (&mut x[off..off + m], &mut y[0..m])
    }
}

/// Unroll width of the 2×2 blocked Gram kernel [`dot4`]: two 4-lane
/// vectors in flight per dot product (8 independent fma chains total).
const DOT4_UNROLL: usize = 8;

/// Accumulator lanes of the four simultaneous dot products
/// `(a0·b0, a1·b0, a0·b1, a1·b1)` over a length-multiple-of-
/// [`DOT4_UNROLL`] prefix: lane `l` of each dot holds the partial sums
/// over elements `j·DOT4_UNROLL + l`.
///
/// This is the register-blocked heart of [`gram_block`]: four reductions
/// share every load (2 flops per load versus 1 for four separate
/// [`dot`]s), and the eight independent fma chains hide the fma latency.
/// Both paths accumulate with fused multiply-adds (`_mm256_fmadd_pd` /
/// [`f64::mul_add`]), which are exactly rounded and therefore bitwise
/// identical between the intrinsic version and the scalar fallback.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn dot4_main(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [[f64; DOT4_UNROLL]; 4] {
    use core::arch::x86_64::*;
    debug_assert_eq!(a0.len() % DOT4_UNROLL, 0);
    let mut out = [[0.0f64; DOT4_UNROLL]; 4];
    // SAFETY: loads stay within the four equal-length slices (length a
    // multiple of DOT4_UNROLL = 8, one 8-lane vector per step) and stores
    // within the 8-lane accumulator rows; AVX-512F is a compile-time
    // target feature. The per-lane sums are identical to the 256-bit and
    // scalar paths — one 8-wide register simply holds what those track as
    // two halves or eight scalars.
    unsafe {
        let mut acc = [_mm512_setzero_pd(); 4];
        let (p0, p1, q0, q1) = (a0.as_ptr(), a1.as_ptr(), b0.as_ptr(), b1.as_ptr());
        let mut i = 0;
        while i < a0.len() {
            let va0 = _mm512_loadu_pd(p0.add(i));
            let va1 = _mm512_loadu_pd(p1.add(i));
            let vb0 = _mm512_loadu_pd(q0.add(i));
            let vb1 = _mm512_loadu_pd(q1.add(i));
            acc[0] = _mm512_fmadd_pd(va0, vb0, acc[0]);
            acc[1] = _mm512_fmadd_pd(va1, vb0, acc[1]);
            acc[2] = _mm512_fmadd_pd(va0, vb1, acc[2]);
            acc[3] = _mm512_fmadd_pd(va1, vb1, acc[3]);
            i += DOT4_UNROLL;
        }
        for d in 0..4 {
            _mm512_storeu_pd(out[d].as_mut_ptr(), acc[d]);
        }
    }
    out
}

#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
#[allow(clippy::many_single_char_names)]
fn dot4_main(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [[f64; DOT4_UNROLL]; 4] {
    use core::arch::x86_64::*;
    debug_assert_eq!(a0.len() % DOT4_UNROLL, 0);
    let mut out = [[0.0f64; DOT4_UNROLL]; 4];
    // SAFETY: loads stay within the four equal-length slices (length a
    // multiple of DOT4_UNROLL = 8, read in 4-lane halves) and stores
    // within the 8-lane accumulator rows; FMA is a compile-time target
    // feature.
    unsafe {
        let mut acc = [_mm256_setzero_pd(); 8];
        let (p0, p1, q0, q1) = (a0.as_ptr(), a1.as_ptr(), b0.as_ptr(), b1.as_ptr());
        let mut i = 0;
        while i < a0.len() {
            let a0l = _mm256_loadu_pd(p0.add(i));
            let a0h = _mm256_loadu_pd(p0.add(i + 4));
            let a1l = _mm256_loadu_pd(p1.add(i));
            let a1h = _mm256_loadu_pd(p1.add(i + 4));
            let b0l = _mm256_loadu_pd(q0.add(i));
            let b0h = _mm256_loadu_pd(q0.add(i + 4));
            let b1l = _mm256_loadu_pd(q1.add(i));
            let b1h = _mm256_loadu_pd(q1.add(i + 4));
            acc[0] = _mm256_fmadd_pd(a0l, b0l, acc[0]);
            acc[1] = _mm256_fmadd_pd(a0h, b0h, acc[1]);
            acc[2] = _mm256_fmadd_pd(a1l, b0l, acc[2]);
            acc[3] = _mm256_fmadd_pd(a1h, b0h, acc[3]);
            acc[4] = _mm256_fmadd_pd(a0l, b1l, acc[4]);
            acc[5] = _mm256_fmadd_pd(a0h, b1h, acc[5]);
            acc[6] = _mm256_fmadd_pd(a1l, b1l, acc[6]);
            acc[7] = _mm256_fmadd_pd(a1h, b1h, acc[7]);
            i += DOT4_UNROLL;
        }
        for d in 0..4 {
            _mm256_storeu_pd(out[d].as_mut_ptr(), acc[2 * d]);
            _mm256_storeu_pd(out[d].as_mut_ptr().add(4), acc[2 * d + 1]);
        }
    }
    out
}

/// Portable fallback: the same lane assignment with scalar fused
/// multiply-adds.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn dot4_main(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [[f64; DOT4_UNROLL]; 4] {
    debug_assert_eq!(a0.len() % DOT4_UNROLL, 0);
    let mut out = [[0.0f64; DOT4_UNROLL]; 4];
    let mut j = 0;
    while j < a0.len() {
        for l in 0..DOT4_UNROLL {
            let (x0, x1, y0, y1) = (a0[j + l], a1[j + l], b0[j + l], b1[j + l]);
            out[0][l] = x0.mul_add(y0, out[0][l]);
            out[1][l] = x1.mul_add(y0, out[1][l]);
            out[2][l] = x0.mul_add(y1, out[2][l]);
            out[3][l] = x1.mul_add(y1, out[3][l]);
        }
        j += DOT4_UNROLL;
    }
    out
}

/// The four dot products `(a0·b0, a1·b0, a0·b1, a1·b1)` in one fused pass.
#[inline]
fn dot4(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [f64; 4] {
    let n = a0.len();
    debug_assert!(a1.len() == n && b0.len() == n && b1.len() == n);
    let split = n - n % DOT4_UNROLL;
    let lanes = dot4_main(&a0[..split], &a1[..split], &b0[..split], &b1[..split]);
    let mut out = [0.0f64; 4];
    for (d, acc) in lanes.iter().enumerate() {
        out[d] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    }
    for i in split..n {
        out[0] = a0[i].mul_add(b0[i], out[0]);
        out[1] = a1[i].mul_add(b0[i], out[1]);
        out[2] = a0[i].mul_add(b1[i], out[2]);
        out[3] = a1[i].mul_add(b1[i], out[3]);
    }
    out
}

/// The lower triangle (diagonal included) of `G = [X Y]ᵀ[X Y]`, written
/// column-major into `g` with leading dimension `ld`: `G(r, c)` for
/// `r ≥ c` lands in `g[r + ld·c]`, and nothing else in `g` is touched.
///
/// Off-diagonal entries come in 2×2 register blocks from [`dot4`] (four
/// reductions per pass, every load shared by two of them) and the `2×2`
/// diagonal blocks fall out of one fused [`gram3`] each; with odd `k` the
/// last row is plain [`dot`]s plus one [`norm2_sq`]. Columns are walked
/// at full length — the union panels this serves are L2-resident, and
/// each column is read `k/2` times instead of the `k` times of unblocked
/// dots. A leading dimension off the power of two (`k + 1`) keeps the
/// rows of a strided walk over `g` out of each other's cache sets.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, if `ld < k`, or if
/// `g.len() < ld·k`.
pub(super) fn gram_block_lower(x: &[f64], y: &[f64], m: usize, g: &mut [f64], ld: usize) {
    assert_eq!(x.len() % m.max(1), 0, "gram_block: x is not whole columns");
    assert_eq!(y.len() % m.max(1), 0, "gram_block: y is not whole columns");
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert!(ld >= k, "gram_block_lower: leading dimension below k");
    assert!(g.len() >= ld * k, "gram_block_lower: output shorter than ld·k");
    let ke = k & !1;
    for jb in (0..ke).step_by(2) {
        let cj0 = union_col(x, y, m, jb);
        let cj1 = union_col(x, y, m, jb + 1);
        let (aa, bb, ab) = gram3(cj0, cj1);
        g[jb + ld * jb] = aa;
        g[jb + 1 + ld * (jb + 1)] = bb;
        g[jb + 1 + ld * jb] = ab;
        for ib in (0..jb).step_by(2) {
            let ci0 = union_col(x, y, m, ib);
            let ci1 = union_col(x, y, m, ib + 1);
            let d = dot4(ci0, ci1, cj0, cj1);
            g[jb + ld * ib] = d[0];
            g[jb + ld * (ib + 1)] = d[1];
            g[jb + 1 + ld * ib] = d[2];
            g[jb + 1 + ld * (ib + 1)] = d[3];
        }
    }
    if k != ke {
        let j = k - 1;
        let cj = union_col(x, y, m, j);
        for i in 0..j {
            g[j + ld * i] = dot(union_col(x, y, m, i), cj);
        }
        g[j + ld * j] = norm2_sq(cj);
    }
}

/// Four-source weighted accumulation, the GEMM micro-kernel of
/// [`panel_update`]: elementwise
/// `out[i] = w3·s3[i] + (w2·s2[i] + (w1·s1[i] + (w0·s0[i] + base)))`
/// where `base` is `0` when `INIT` or the previous `out[i]` otherwise,
/// every product folded in with a fused multiply-add.
///
/// Gathering four inputs per pass quarters the load/store traffic on
/// `out` that made a chain of [`axpy`]s memory-bound, and the element
/// updates are independent so the four-deep fma chains pipeline across
/// the unrolled vectors. The operation is elementwise with exactly
/// rounded fmas, so the intrinsic path and the scalar fallback are
/// bitwise identical.
#[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
#[inline]
fn wsum4<const INIT: bool>(
    w: [f64; 4],
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    out: &mut [f64],
) {
    use core::arch::x86_64::*;
    let n = out.len();
    debug_assert!(s0.len() == n && s1.len() == n && s2.len() == n && s3.len() == n);
    // SAFETY: all loads/stores stay within the five equal-length slices;
    // the vector loop covers whole 4-lane chunks and the scalar tail the
    // rest; FMA is a compile-time target feature.
    unsafe {
        let (vw0, vw1) = (_mm256_set1_pd(w[0]), _mm256_set1_pd(w[1]));
        let (vw2, vw3) = (_mm256_set1_pd(w[2]), _mm256_set1_pd(w[3]));
        let (p0, p1, p2, p3) = (s0.as_ptr(), s1.as_ptr(), s2.as_ptr(), s3.as_ptr());
        let po = out.as_mut_ptr();
        let mut i = 0;
        // two vectors in flight: each output element is a serial chain of
        // four fmas, so independent chunks are needed to hide the latency
        while i + 8 <= n {
            let mut va = if INIT { _mm256_setzero_pd() } else { _mm256_loadu_pd(po.add(i)) };
            let mut vb = if INIT { _mm256_setzero_pd() } else { _mm256_loadu_pd(po.add(i + 4)) };
            va = _mm256_fmadd_pd(vw0, _mm256_loadu_pd(p0.add(i)), va);
            vb = _mm256_fmadd_pd(vw0, _mm256_loadu_pd(p0.add(i + 4)), vb);
            va = _mm256_fmadd_pd(vw1, _mm256_loadu_pd(p1.add(i)), va);
            vb = _mm256_fmadd_pd(vw1, _mm256_loadu_pd(p1.add(i + 4)), vb);
            va = _mm256_fmadd_pd(vw2, _mm256_loadu_pd(p2.add(i)), va);
            vb = _mm256_fmadd_pd(vw2, _mm256_loadu_pd(p2.add(i + 4)), vb);
            va = _mm256_fmadd_pd(vw3, _mm256_loadu_pd(p3.add(i)), va);
            vb = _mm256_fmadd_pd(vw3, _mm256_loadu_pd(p3.add(i + 4)), vb);
            _mm256_storeu_pd(po.add(i), va);
            _mm256_storeu_pd(po.add(i + 4), vb);
            i += 8;
        }
        while i + 4 <= n {
            let mut va = if INIT { _mm256_setzero_pd() } else { _mm256_loadu_pd(po.add(i)) };
            va = _mm256_fmadd_pd(vw0, _mm256_loadu_pd(p0.add(i)), va);
            va = _mm256_fmadd_pd(vw1, _mm256_loadu_pd(p1.add(i)), va);
            va = _mm256_fmadd_pd(vw2, _mm256_loadu_pd(p2.add(i)), va);
            va = _mm256_fmadd_pd(vw3, _mm256_loadu_pd(p3.add(i)), va);
            _mm256_storeu_pd(po.add(i), va);
            i += 4;
        }
        while i < n {
            let base = if INIT { 0.0 } else { *po.add(i) };
            let acc = w[0].mul_add(*p0.add(i), base);
            let acc = w[1].mul_add(*p1.add(i), acc);
            let acc = w[2].mul_add(*p2.add(i), acc);
            *po.add(i) = w[3].mul_add(*p3.add(i), acc);
            i += 1;
        }
    }
}

/// Portable fallback: the same elementwise fused-multiply-add chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn wsum4<const INIT: bool>(
    w: [f64; 4],
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    out: &mut [f64],
) {
    for (i, o) in out.iter_mut().enumerate() {
        let base = if INIT { 0.0 } else { *o };
        let acc = w[0].mul_add(s0[i], base);
        let acc = w[1].mul_add(s1[i], acc);
        let acc = w[2].mul_add(s2[i], acc);
        *o = w[3].mul_add(s3[i], acc);
    }
}

/// Two-output variant of [`wsum4`]: the same four sources accumulated
/// into two output columns with independent weight quadruples. Sharing
/// the source loads between the outputs doubles the flops per load,
/// which is what lifts the panel multiply from memory-bound to
/// near-arithmetic-bound. Same exactly-rounded fma semantics as
/// [`wsum4`], so the intrinsic and fallback paths agree bitwise.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
#[allow(clippy::too_many_arguments)]
fn wsum4x2<const INIT: bool>(
    wa: [f64; 4],
    wb: [f64; 4],
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    out_a: &mut [f64],
    out_b: &mut [f64],
) {
    use core::arch::x86_64::*;
    let n = out_a.len();
    debug_assert!(out_b.len() == n);
    debug_assert!(s0.len() == n && s1.len() == n && s2.len() == n && s3.len() == n);
    // SAFETY: all loads/stores stay within the six equal-length slices;
    // the vector loop covers whole 8-lane chunks and the scalar tail the
    // rest; AVX-512F is a compile-time target feature. Elementwise
    // exactly-rounded fma chains — bitwise identical to the narrower
    // paths.
    unsafe {
        let (va0, va1) = (_mm512_set1_pd(wa[0]), _mm512_set1_pd(wa[1]));
        let (va2, va3) = (_mm512_set1_pd(wa[2]), _mm512_set1_pd(wa[3]));
        let (vb0, vb1) = (_mm512_set1_pd(wb[0]), _mm512_set1_pd(wb[1]));
        let (vb2, vb3) = (_mm512_set1_pd(wb[2]), _mm512_set1_pd(wb[3]));
        let (p0, p1, p2, p3) = (s0.as_ptr(), s1.as_ptr(), s2.as_ptr(), s3.as_ptr());
        let (pa, pb) = (out_a.as_mut_ptr(), out_b.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let x0 = _mm512_loadu_pd(p0.add(i));
            let x1 = _mm512_loadu_pd(p1.add(i));
            let x2 = _mm512_loadu_pd(p2.add(i));
            let x3 = _mm512_loadu_pd(p3.add(i));
            let mut aa = if INIT { _mm512_setzero_pd() } else { _mm512_loadu_pd(pa.add(i)) };
            let mut ab = if INIT { _mm512_setzero_pd() } else { _mm512_loadu_pd(pb.add(i)) };
            aa = _mm512_fmadd_pd(va0, x0, aa);
            ab = _mm512_fmadd_pd(vb0, x0, ab);
            aa = _mm512_fmadd_pd(va1, x1, aa);
            ab = _mm512_fmadd_pd(vb1, x1, ab);
            aa = _mm512_fmadd_pd(va2, x2, aa);
            ab = _mm512_fmadd_pd(vb2, x2, ab);
            aa = _mm512_fmadd_pd(va3, x3, aa);
            ab = _mm512_fmadd_pd(vb3, x3, ab);
            _mm512_storeu_pd(pa.add(i), aa);
            _mm512_storeu_pd(pb.add(i), ab);
            i += 8;
        }
        while i < n {
            let (x0, x1, x2, x3) = (*p0.add(i), *p1.add(i), *p2.add(i), *p3.add(i));
            let base_a = if INIT { 0.0 } else { *pa.add(i) };
            let acc = wa[0].mul_add(x0, base_a);
            let acc = wa[1].mul_add(x1, acc);
            let acc = wa[2].mul_add(x2, acc);
            *pa.add(i) = wa[3].mul_add(x3, acc);
            let base_b = if INIT { 0.0 } else { *pb.add(i) };
            let acc = wb[0].mul_add(x0, base_b);
            let acc = wb[1].mul_add(x1, acc);
            let acc = wb[2].mul_add(x2, acc);
            *pb.add(i) = wb[3].mul_add(x3, acc);
            i += 1;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
#[allow(clippy::too_many_arguments)]
fn wsum4x2<const INIT: bool>(
    wa: [f64; 4],
    wb: [f64; 4],
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    out_a: &mut [f64],
    out_b: &mut [f64],
) {
    use core::arch::x86_64::*;
    let n = out_a.len();
    debug_assert!(out_b.len() == n);
    debug_assert!(s0.len() == n && s1.len() == n && s2.len() == n && s3.len() == n);
    // SAFETY: all loads/stores stay within the six equal-length slices;
    // the vector loop covers whole 4-lane chunks and the scalar tail the
    // rest; FMA is a compile-time target feature.
    unsafe {
        let (va0, va1) = (_mm256_set1_pd(wa[0]), _mm256_set1_pd(wa[1]));
        let (va2, va3) = (_mm256_set1_pd(wa[2]), _mm256_set1_pd(wa[3]));
        let (vb0, vb1) = (_mm256_set1_pd(wb[0]), _mm256_set1_pd(wb[1]));
        let (vb2, vb3) = (_mm256_set1_pd(wb[2]), _mm256_set1_pd(wb[3]));
        let (p0, p1, p2, p3) = (s0.as_ptr(), s1.as_ptr(), s2.as_ptr(), s3.as_ptr());
        let (pa, pb) = (out_a.as_mut_ptr(), out_b.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let x0 = _mm256_loadu_pd(p0.add(i));
            let x1 = _mm256_loadu_pd(p1.add(i));
            let x2 = _mm256_loadu_pd(p2.add(i));
            let x3 = _mm256_loadu_pd(p3.add(i));
            let mut aa = if INIT { _mm256_setzero_pd() } else { _mm256_loadu_pd(pa.add(i)) };
            let mut ab = if INIT { _mm256_setzero_pd() } else { _mm256_loadu_pd(pb.add(i)) };
            aa = _mm256_fmadd_pd(va0, x0, aa);
            ab = _mm256_fmadd_pd(vb0, x0, ab);
            aa = _mm256_fmadd_pd(va1, x1, aa);
            ab = _mm256_fmadd_pd(vb1, x1, ab);
            aa = _mm256_fmadd_pd(va2, x2, aa);
            ab = _mm256_fmadd_pd(vb2, x2, ab);
            aa = _mm256_fmadd_pd(va3, x3, aa);
            ab = _mm256_fmadd_pd(vb3, x3, ab);
            _mm256_storeu_pd(pa.add(i), aa);
            _mm256_storeu_pd(pb.add(i), ab);
            i += 4;
        }
        while i < n {
            let (x0, x1, x2, x3) = (*p0.add(i), *p1.add(i), *p2.add(i), *p3.add(i));
            let base_a = if INIT { 0.0 } else { *pa.add(i) };
            let acc = wa[0].mul_add(x0, base_a);
            let acc = wa[1].mul_add(x1, acc);
            let acc = wa[2].mul_add(x2, acc);
            *pa.add(i) = wa[3].mul_add(x3, acc);
            let base_b = if INIT { 0.0 } else { *pb.add(i) };
            let acc = wb[0].mul_add(x0, base_b);
            let acc = wb[1].mul_add(x1, acc);
            let acc = wb[2].mul_add(x2, acc);
            *pb.add(i) = wb[3].mul_add(x3, acc);
            i += 1;
        }
    }
}

/// Portable fallback: the same elementwise fused-multiply-add chains.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
#[allow(clippy::too_many_arguments)]
fn wsum4x2<const INIT: bool>(
    wa: [f64; 4],
    wb: [f64; 4],
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    s3: &[f64],
    out_a: &mut [f64],
    out_b: &mut [f64],
) {
    for (i, (oa, ob)) in out_a.iter_mut().zip(out_b.iter_mut()).enumerate() {
        let (x0, x1, x2, x3) = (s0[i], s1[i], s2[i], s3[i]);
        let base_a = if INIT { 0.0 } else { *oa };
        let acc = wa[0].mul_add(x0, base_a);
        let acc = wa[1].mul_add(x1, acc);
        let acc = wa[2].mul_add(x2, acc);
        *oa = wa[3].mul_add(x3, acc);
        let base_b = if INIT { 0.0 } else { *ob };
        let acc = wb[0].mul_add(x0, base_b);
        let acc = wb[1].mul_add(x1, acc);
        let acc = wb[2].mul_add(x2, acc);
        *ob = wb[3].mul_add(x3, acc);
    }
}

/// Blocked panel update `[X Y] ← [X Y] · W` where `W` is the `k×k`
/// column-major orthogonal update accumulated by a block meeting
/// (`k = (x.len() + y.len()) / m`).
///
/// Row-tiled by [`PANEL_TILE`]: each tile of the input union is
/// snapshotted into `tile` (caller scratch, length ≥ `k · PANEL_TILE`),
/// then every output column is accumulated over the cache-resident
/// snapshot four sources at a time by the [`wsum4`] micro-kernel — one
/// read plus one write of the panel total, against the O(k²·m) column
/// traffic of applying rotations one pair at a time. Exact zeros in `W`
/// are skipped, so a near-identity `W` (late sweeps) degenerates to
/// cheap column copies.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, `w.len() != k²`, or
/// `tile` is shorter than `k · PANEL_TILE`.
pub(super) fn panel_update(x: &mut [f64], y: &mut [f64], m: usize, w: &[f64], tile: &mut [f64]) {
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
        let nnz_of = |wj: &[f64]| wj.iter().filter(|&&v| v != 0.0).count();
        let mut j = 0;
        while j < k {
            let wj = &w[k * j..k * j + k];
            // two outputs at a time whenever both columns mix several
            // sources: the paired kernel shares every source load
            if j + 1 < k && nnz_of(wj) >= 2 && nnz_of(&w[k * (j + 1)..k * (j + 1) + k]) >= 2 {
                let wjb = &w[k * (j + 1)..k * (j + 1) + k];
                let (col_a, col_b) = union_col_pair_mut(x, y, m, j);
                let out_a = &mut col_a[r0..r0 + tb];
                let out_b = &mut col_b[r0..r0 + tb];
                let src_of = |i: usize| &tile[i * PANEL_TILE..i * PANEL_TILE + tb];
                let mut wsa = [0.0f64; 4];
                let mut wsb = [0.0f64; 4];
                let mut idx = [0usize; 4];
                let (mut fill, mut first) = (0usize, true);
                let mut flush = |wsa: [f64; 4], wsb: [f64; 4], idx: [usize; 4], first: bool| {
                    let (s0, s1, s2, s3) =
                        (src_of(idx[0]), src_of(idx[1]), src_of(idx[2]), src_of(idx[3]));
                    if first {
                        wsum4x2::<true>(wsa, wsb, s0, s1, s2, s3, out_a, out_b);
                    } else {
                        wsum4x2::<false>(wsa, wsb, s0, s1, s2, s3, out_a, out_b);
                    }
                };
                for i in 0..k {
                    let (wa, wb) = (wj[i], wjb[i]);
                    if wa == 0.0 && wb == 0.0 {
                        continue;
                    }
                    wsa[fill] = wa;
                    wsb[fill] = wb;
                    idx[fill] = i;
                    fill += 1;
                    if fill == 4 {
                        flush(wsa, wsb, idx, first);
                        first = false;
                        fill = 0;
                    }
                }
                if fill > 0 {
                    for slot in fill..4 {
                        wsa[slot] = 0.0;
                        wsb[slot] = 0.0;
                        idx[slot] = idx[0];
                    }
                    flush(wsa, wsb, idx, first);
                }
                j += 2;
                continue;
            }
            let out = {
                let off = j * m;
                let col = if off < x.len() {
                    &mut x[off..off + m]
                } else {
                    let off = off - x.len();
                    &mut y[off..off + m]
                };
                &mut col[r0..r0 + tb]
            };
            let src_of = |i: usize| &tile[i * PANEL_TILE..i * PANEL_TILE + tb];
            match nnz_of(wj) {
                0 => out.fill(0.0),
                1 => {
                    let i = wj.iter().position(|&v| v != 0.0).expect("nnz == 1");
                    scaled_copy(wj[i], src_of(i), out);
                }
                _ => {
                    // batches of four nonzero sources; a final partial
                    // batch is padded with zero weights (exact no-ops)
                    let mut ws = [0.0f64; 4];
                    let mut idx = [0usize; 4];
                    let (mut fill, mut first) = (0usize, true);
                    for (i, &wij) in wj.iter().enumerate() {
                        if wij == 0.0 {
                            continue;
                        }
                        ws[fill] = wij;
                        idx[fill] = i;
                        fill += 1;
                        if fill == 4 {
                            let (s0, s1, s2, s3) =
                                (src_of(idx[0]), src_of(idx[1]), src_of(idx[2]), src_of(idx[3]));
                            if first {
                                wsum4::<true>(ws, s0, s1, s2, s3, out);
                                first = false;
                            } else {
                                wsum4::<false>(ws, s0, s1, s2, s3, out);
                            }
                            fill = 0;
                        }
                    }
                    if fill > 0 {
                        for slot in fill..4 {
                            ws[slot] = 0.0;
                            idx[slot] = idx[0];
                        }
                        let (s0, s1, s2, s3) =
                            (src_of(idx[0]), src_of(idx[1]), src_of(idx[2]), src_of(idx[3]));
                        if first {
                            wsum4::<true>(ws, s0, s1, s2, s3, out);
                        } else {
                            wsum4::<false>(ws, s0, s1, s2, s3, out);
                        }
                    }
                }
            }
            j += 1;
        }
        r0 += tb;
    }
}

/// `out (ka×kb, column-major) = AᵀB` for two strided column-major
/// panels: column `j` of `A` is `a[j·lda .. j·lda + rows]` and likewise
/// for `B`. The panels may be sub-views of larger matrices (`lda`,
/// `ldb` ≥ `rows`), which is how the tall-skinny QR applies a block
/// reflector to a row-band of the trailing matrix without copying it.
///
/// Computed in 2×2 register blocks by the same [`dot4`] micro-kernel as
/// [`gram_block`] (four reductions per pass, every column load shared by
/// two of them), with single-[`dot`] edges for odd `ka`/`kb`.
///
/// # Panics
/// Panics if a panel is too short for its `(rows, ld, k)` view, if a
/// leading dimension is smaller than `rows`, or if `out.len() != ka·kb`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub(super) fn gemm_tn(
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
    for j in (0..kbe).step_by(2) {
        let (bj0, bj1) = (col_b(j), col_b(j + 1));
        for i in (0..kae).step_by(2) {
            let d = dot4(col_a(i), col_a(i + 1), bj0, bj1);
            out[i + ka * j] = d[0];
            out[i + 1 + ka * j] = d[1];
            out[i + ka * (j + 1)] = d[2];
            out[i + 1 + ka * (j + 1)] = d[3];
        }
        if ka != kae {
            out[ka - 1 + ka * j] = dot(col_a(ka - 1), bj0);
            out[ka - 1 + ka * (j + 1)] = dot(col_a(ka - 1), bj1);
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
/// block-reflector application (`C ← C − V·(TᵀVᵀC)`), expressed on the
/// same [`wsum4`]/[`wsum4x2`] micro-kernels as [`panel_update`]:
/// row-tiled by [`PANEL_TILE`] so the `A` tile stays cache-resident
/// across all `q` output columns, two outputs per pass when possible so
/// every source load is shared.
///
/// # Panics
/// Panics if a panel is too short for its view, a leading dimension is
/// smaller than `rows`, or `w.len() != p·q`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub(super) fn gemm_acc(
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
        let src_of = |i: usize| &a[i * lda + r0..i * lda + r0 + tb];
        let mut j = 0;
        // pairs of output columns share every source load
        while j + 1 < q {
            let (wj, wj1) = (&w[p * j..p * (j + 1)], &w[p * (j + 1)..p * (j + 2)]);
            let (head, tail) = c.split_at_mut((j + 1) * ldc);
            let out_a = &mut head[j * ldc + r0..j * ldc + r0 + tb];
            let out_b = &mut tail[r0..r0 + tb];
            let mut wsa = [0.0f64; 4];
            let mut wsb = [0.0f64; 4];
            let mut idx = [0usize; 4];
            let mut fill = 0usize;
            for i in 0..p {
                let (wa, wb) = (alpha * wj[i], alpha * wj1[i]);
                if wa == 0.0 && wb == 0.0 {
                    continue;
                }
                wsa[fill] = wa;
                wsb[fill] = wb;
                idx[fill] = i;
                fill += 1;
                if fill == 4 {
                    wsum4x2::<false>(
                        wsa,
                        wsb,
                        src_of(idx[0]),
                        src_of(idx[1]),
                        src_of(idx[2]),
                        src_of(idx[3]),
                        out_a,
                        out_b,
                    );
                    fill = 0;
                }
            }
            if fill > 0 {
                for slot in fill..4 {
                    wsa[slot] = 0.0;
                    wsb[slot] = 0.0;
                    idx[slot] = idx[0];
                }
                wsum4x2::<false>(
                    wsa,
                    wsb,
                    src_of(idx[0]),
                    src_of(idx[1]),
                    src_of(idx[2]),
                    src_of(idx[3]),
                    out_a,
                    out_b,
                );
            }
            j += 2;
        }
        if j < q {
            let wj = &w[p * j..p * (j + 1)];
            let out = &mut c[j * ldc + r0..j * ldc + r0 + tb];
            let mut ws = [0.0f64; 4];
            let mut idx = [0usize; 4];
            let mut fill = 0usize;
            for (i, &wij) in wj.iter().enumerate() {
                if wij == 0.0 {
                    continue;
                }
                ws[fill] = alpha * wij;
                idx[fill] = i;
                fill += 1;
                if fill == 4 {
                    wsum4::<false>(
                        ws,
                        src_of(idx[0]),
                        src_of(idx[1]),
                        src_of(idx[2]),
                        src_of(idx[3]),
                        out,
                    );
                    fill = 0;
                }
            }
            if fill > 0 {
                for slot in fill..4 {
                    ws[slot] = 0.0;
                    idx[slot] = idx[0];
                }
                wsum4::<false>(
                    ws,
                    src_of(idx[0]),
                    src_of(idx[1]),
                    src_of(idx[2]),
                    src_of(idx[3]),
                    out,
                );
            }
        }
        r0 += tb;
    }
}

/// Column counts (`k`, `ka`, `kb`, `p`, `q`) of the pinning grid: every
/// residue of the 4-wide blocks and 8-lane groups, both sides of the
/// 64-source stack chunk ([`ACC_CHUNK`](super::ACC_CHUNK)).
const DIMS: [usize; 17] = [1, 2, 3, 4, 5, 7, 8, 9, 17, 31, 32, 33, 64, 128, 130, 256, 257];

/// Row counts of the pinning grid: the 8-lane groups, the 32-row register
/// block and the [`PANEL_TILE`] row tile, each with its neighbours.
const ROWS: [usize; 11] = [1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 512];

/// The row counts paired with a `cols`-entry output: those whose
/// `rows · cols` fits `budget`, so the grid stays cheap in debug builds
/// (the one-row case is always kept).
fn rows_within(cols: usize, budget: usize) -> Vec<usize> {
    ROWS.iter().copied().filter(|&r| r == 1 || r * cols <= budget).collect()
}

/// Pseudo-random entries in `[-1, 1)` with an exact `±0` every 11th
/// element, so zero products and zero sums occur.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = crate::rng::Rng::seed_from_u64(seed);
    (0..len)
        .map(|i| match i % 22 {
            5 => 0.0,
            16 => -0.0,
            _ => rng.uniform(-1.0, 1.0),
        })
        .collect()
}

/// A column-major `p×q` weight block of one of five kinds: dense,
/// identity, sparse with exact zeros, dense with all-zero columns, or one
/// nonzero per column (none in every fifth column).
fn weights(kind: usize, p: usize, q: usize, seed: u64) -> Vec<f64> {
    let mut w = fill(p * q, seed);
    for (j, col) in w.chunks_exact_mut(p).enumerate() {
        for (i, v) in col.iter_mut().enumerate() {
            let keep = match kind {
                0 => true,
                1 => {
                    *v = 1.0;
                    i == j
                }
                2 => (i * 7 + j * 3) % 5 < 2,
                3 => j % 3 != 1,
                _ => j % 5 != 4 && i == (j * 13 + 5) % p,
            };
            if !keep {
                *v = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    w
}

/// Bitwise equal, except that two exact zeros of either sign match.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn assert_same(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (e, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(same(g, w), "{what}: element {e}: {g:e} vs {w:e}");
    }
}

/// Scalar reference of a dot-block entry: element `e` into lane `e mod 8`
/// by `mul_add`, the lanes reduced pairwise, then the tail folded in.
fn ref_dot(x: &[f64], y: &[f64]) -> f64 {
    let split = x.len() - x.len() % 8;
    let mut lane = [0.0f64; 8];
    for e in 0..split {
        lane[e % 8] = x[e].mul_add(y[e], lane[e % 8]);
    }
    let mut s =
        ((lane[0] + lane[1]) + (lane[2] + lane[3])) + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for e in split..x.len() {
        s = x[e].mul_add(y[e], s);
    }
    s
}

/// Scalar reference of one accumulated element: the `mul_add` chain over
/// the nonzero weights, in source order, from `base`.
fn ref_acc(
    base: f64,
    weight: impl Fn(usize) -> f64,
    source: impl Fn(usize) -> f64,
    p: usize,
) -> f64 {
    (0..p).filter(|&i| weight(i) != 0.0).fold(base, |acc, i| weight(i).mul_add(source(i), acc))
}

#[test]
fn gram_block_lower_is_bitwise_the_dot4_oracle_and_the_scalar_reference() {
    for (n, &k) in DIMS.iter().enumerate() {
        for m in rows_within(k * k, 1 << 21) {
            let cx = if n % 2 == 0 { k / 2 } else { k / 3 };
            let x = fill(m * cx, (k * 1000 + m) as u64);
            let y = fill(m * (k - cx), (k * 1000 + m) as u64 + 1);
            let ld = k + 1;
            let (mut got, mut want) = (vec![f64::NAN; ld * k], vec![f64::NAN; ld * k]);
            super::gram_block_lower(&x, &y, m, &mut got, ld);
            gram_block_lower(&x, &y, m, &mut want, ld);
            let what = format!("gram_block_lower k={k} m={m}");
            for c in 0..k {
                for r in 0..ld {
                    let (g, w) = (got[r + ld * c], want[r + ld * c]);
                    if r < c || r >= k {
                        assert!(g.is_nan() && w.is_nan(), "{what}: ({r},{c}) outside the triangle");
                        continue;
                    }
                    assert!(same(g, w), "{what}: ({r},{c}): {g:e} vs oracle {w:e}");
                    let (cr, cc) = (union_col(&x, &y, m, r), union_col(&x, &y, m, c));
                    let reference = if r == k - 1 && k % 2 == 1 {
                        if r == c {
                            norm2_sq(cr)
                        } else {
                            dot(cc, cr)
                        }
                    } else if r / 2 == c / 2 {
                        let (aa, bb, ab) =
                            gram3(union_col(&x, &y, m, c & !1), union_col(&x, &y, m, c | 1));
                        match (r % 2, c % 2) {
                            (0, 0) => aa,
                            (1, 1) => bb,
                            _ => ab,
                        }
                    } else {
                        ref_dot(cc, cr)
                    };
                    assert!(
                        same(g, reference),
                        "{what}: ({r},{c}): {g:e} vs reference {reference:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_tn_is_bitwise_the_dot4_oracle_and_the_scalar_reference() {
    for (ia, &ka) in DIMS.iter().enumerate() {
        for (ib, &kb) in DIMS.iter().enumerate() {
            let choices = rows_within(ka * kb, 1 << 19);
            let rows = choices[(ia * 5 + ib * 3) % choices.len()];
            let (lda, ldb) = (rows + 3 * (ia % 2), rows + 5 * (ib % 2));
            let a = fill(lda * ka, (ia * 100 + ib) as u64);
            let b = fill(ldb * kb, (ia * 100 + ib) as u64 + 7);
            let (mut got, mut want) = (vec![f64::NAN; ka * kb], vec![f64::NAN; ka * kb]);
            super::gemm_tn(rows, &a, lda, ka, &b, ldb, kb, &mut got);
            gemm_tn(rows, &a, lda, ka, &b, ldb, kb, &mut want);
            let what = format!("gemm_tn rows={rows} ka={ka} kb={kb}");
            assert_same(&got, &want, &what);
            for j in 0..kb {
                for i in 0..ka {
                    let (ca, cb) = (&a[i * lda..i * lda + rows], &b[j * ldb..j * ldb + rows]);
                    // odd edges are the single-dot kernel, the rest dot blocks
                    let reference = if i == ka - 1 && ka % 2 == 1 || j == kb - 1 && kb % 2 == 1 {
                        dot(ca, cb)
                    } else {
                        ref_dot(ca, cb)
                    };
                    let g = got[i + ka * j];
                    assert!(
                        same(g, reference),
                        "{what}: ({i},{j}): {g:e} vs reference {reference:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn panel_update_is_bitwise_the_wsum4_oracle_and_the_scalar_reference() {
    for (n, &k) in DIMS.iter().enumerate() {
        for kind in 0..5 {
            let choices = rows_within(k * k, 1 << 21);
            let m = choices[(n + 3 * kind) % choices.len()];
            let cx = if kind % 2 == 0 { k / 2 } else { k - k / 3 };
            let seed = (k * 10 + kind) as u64;
            let (x0, y0) = (fill(m * cx, seed), fill(m * (k - cx), seed + 1));
            let w = weights(kind, k, k, seed + 2);
            let mut tile = vec![f64::NAN; k * PANEL_TILE];
            let (mut xg, mut yg) = (x0.clone(), y0.clone());
            super::panel_update(&mut xg, &mut yg, m, &w, &mut tile);
            let (mut xw, mut yw) = (x0.clone(), y0.clone());
            panel_update(&mut xw, &mut yw, m, &w, &mut tile);
            let what = format!("panel_update k={k} m={m} kind={kind}");
            assert_same(&xg, &xw, &what);
            assert_same(&yg, &yw, &what);
            for j in 0..k {
                let out = union_col(&xg, &yg, m, j);
                for (r, &g) in out.iter().enumerate() {
                    let reference =
                        ref_acc(0.0, |i| w[i + k * j], |i| union_col(&x0, &y0, m, i)[r], k);
                    assert!(
                        same(g, reference),
                        "{what}: ({r},{j}): {g:e} vs reference {reference:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_acc_is_bitwise_the_wsum4_oracle_and_the_scalar_reference() {
    for (ip, &p) in DIMS.iter().enumerate() {
        for (iq, &q) in DIMS.iter().enumerate() {
            let kind = (ip + 2 * iq) % 5;
            let choices = rows_within(p * q, 1 << 19);
            let rows = choices[(ip * 3 + iq * 7) % choices.len()];
            let (lda, ldc) = (rows + 2 * (iq % 2), rows + 3 * (ip % 2));
            let alpha = [-1.0, 1.0, 0.75][(ip + iq) % 3];
            let seed = (ip * 100 + iq) as u64;
            let a = fill(lda * p, seed);
            let w = weights(kind, p, q, seed + 1);
            let c0 = fill(ldc * q, seed + 2);
            let (mut got, mut want) = (c0.clone(), c0.clone());
            super::gemm_acc(rows, &a, lda, p, &w, q, alpha, &mut got, ldc);
            gemm_acc(rows, &a, lda, p, &w, q, alpha, &mut want, ldc);
            let what = format!("gemm_acc rows={rows} p={p} q={q} kind={kind} alpha={alpha}");
            assert_same(&got, &want, &what);
            for j in 0..q {
                for r in 0..ldc {
                    let base = c0[r + ldc * j];
                    let reference = if r < rows {
                        ref_acc(base, |i| alpha * w[i + p * j], |i| a[r + lda * i], p)
                    } else {
                        base
                    };
                    let g = got[r + ldc * j];
                    assert!(
                        same(g, reference),
                        "{what}: ({r},{j}): {g:e} vs reference {reference:e}"
                    );
                }
            }
        }
    }
}
