//! Tall-skinny QR: tiled Householder panels with compact-WY blocking and
//! a TSQR tree reduction over row tiles.
//!
//! For `m ≫ n` the one-sided Jacobi sweeps rotate full `m`-length columns
//! every meeting — nearly all memory bandwidth moves data that a QR
//! front-end could shrink first. This module factors `A = QR` so the
//! Jacobi drivers run on the small `n×n` factor `R`, with `Q` kept in
//! factored form (never materialized) and applied tile by tile:
//!
//! * **Panel factorization** proceeds left to right in panels of
//!   [`QrOptions::panel`] columns. Each panel's rows are split into *row
//!   tiles* sized to the L2 cache ([`crate::cache::l2_bytes`]); every
//!   tile is reduced in cache by a recursive compact-WY Householder QR
//!   (Elmroth–Gustavson, LAPACK `dgeqrt3`), and the per-tile `R`
//!   factors are merged pairwise up a binary tree (the TSQR reduction of
//!   Faverge–Langou–Robert–Dongarra, arXiv 1611.06892) — the same tree
//!   shape the paper's orderings sweep on. Tiles are independent, so the
//!   leaf factorizations fan out over the caller's fork–join hook
//!   ([`Joiner`]).
//! * **Recursive leaf and combine factorization**: a node's columns are
//!   split in half; the left half is factored, applied to the right half
//!   as one block reflector (the same GEMM pair as every other
//!   application), and the right half is factored. Only the one-column
//!   base case (a `dlarfg`-style reflector) touches a single column, so
//!   most of the factor runs as level-3 work. The recursion also yields
//!   the node's `T` directly, `T₁₂ = −T₁₁·(V₁ᵀV₂)·T₂₂`, instead of
//!   rebuilding it from a full `VᵀV`.
//! * **Compact-WY blocking**: every tree node stores its reflectors as an
//!   explicit unit-lower-trapezoidal `V` plus the upper-triangular `T` of
//!   `Q_node = I − V·T·Vᵀ`, so applying a node to `k` columns is two
//!   tall-skinny GEMMs ([`ops::gemm_tn`], [`ops::gemm_acc`]) around a
//!   small triangular multiply — BLAS-3-shaped work on the same
//!   register-blocked micro-kernels as the blocked Jacobi meeting (`4×4`
//!   dot blocks for `VᵀC`, 4-output accumulate blocks for `C − V·W`).
//! * **Trailing update / apply-Q** parallelize over *column chunks*: each
//!   lane owns a contiguous group of columns and applies the whole tree
//!   to it (leaves, then combines for `Qᵀ`; the reverse for `Q`), so no
//!   barrier is needed between tree levels.
//!
//! The factorization's steady state (the per-panel loop) is
//! allocation-free after the first panel warms the per-lane scratch
//! arenas; [`QrStats::steady_alloc_events`] counts violations (zero in
//! every test and bench). The factor storage itself — one `V`/`T` pair
//! per tree node — is the output, allocated once per node.

use crate::error::MatrixError;
use crate::matrix::Matrix;
use crate::ops;

/// Fork–join hook for the TSQR tree: this crate is the workspace's
/// lowest layer and cannot depend on the persistent worker pool
/// (`treesvd-sim` depends on *it*), so callers inject one. The two
/// closures operate on disjoint data and may run concurrently; `fork`
/// returns when both have completed.
pub trait Joiner: Sync {
    /// Run both closures (possibly concurrently), returning when both
    /// are done.
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send));
}

/// The serial joiner: runs the halves back to back on the caller.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialJoin;

impl Joiner for SerialJoin {
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        a();
        b();
    }
}

/// Tuning knobs for [`TsqrQr::factor`].
#[derive(Debug, Clone, Copy)]
pub struct QrOptions {
    /// Panel width (the compact-WY block size). Clamped to the column
    /// count. Default 32 — wide enough that the trailing update is
    /// GEMM-shaped, small enough that `T` and the tree nodes stay tiny.
    pub panel: usize,
    /// Row-tile height for the TSQR leaves; `0` derives it from the L2
    /// probe so one leaf tile (`leaf_rows × panel` doubles) fills about
    /// half the cache.
    pub leaf_rows: usize,
    /// Fork lanes for the leaf factorizations and the column-chunk
    /// applies; `1` runs serially regardless of the [`Joiner`].
    pub lanes: usize,
}

impl Default for QrOptions {
    fn default() -> Self {
        Self { panel: 32, leaf_rows: 0, lanes: 1 }
    }
}

impl QrOptions {
    /// The effective leaf height for a panel of width `bw`: the explicit
    /// override, else `L2/2` worth of tile rows capped at 16384, then
    /// floored at two panels' worth so the tree does not degenerate on
    /// tiny caches (the floor wins over the cap for very wide panels).
    fn leaf_height(&self, bw: usize) -> usize {
        if self.leaf_rows > 0 {
            self.leaf_rows.max(bw)
        } else {
            (crate::cache::l2_bytes() / (16 * bw.max(1))).min(16384).max(2 * bw)
        }
    }
}

/// Counters from a factorization, for the benches and the zero-alloc
/// gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct QrStats {
    /// Panels factored.
    pub panels: usize,
    /// Row tiles (TSQR leaves) of the first — tallest — panel.
    pub leaves: usize,
    /// Depth of the first panel's combine tree.
    pub levels: usize,
    /// Scratch-arena growth events after the first panel warmed the
    /// per-lane arenas. Zero in steady state.
    pub steady_alloc_events: u64,
}

/// One TSQR leaf: the compact-WY factor of one row tile of a panel.
#[derive(Debug)]
struct Leaf {
    /// First (global) row of the tile.
    row0: usize,
    /// Tile height.
    rows: usize,
    /// Explicit unit-lower-trapezoidal `V`, `rows × bw`.
    v: Vec<f64>,
    /// Upper-triangular `T`, `bw × bw`.
    t: Vec<f64>,
}

/// One combine node: the compact-WY factor of the QR of two stacked
/// `bw×bw` `R` factors. Its reflectors act on the top `bw` rows of the
/// two child tiles' row ranges.
#[derive(Debug)]
struct Combine {
    /// Surviving child: leaf index whose top rows hold the left `R`.
    left: usize,
    /// Absorbed child: leaf index whose top rows hold the right `R`.
    right: usize,
    /// Explicit `V`, `2bw × bw`.
    v: Vec<f64>,
    /// Upper-triangular `T`, `bw × bw`.
    t: Vec<f64>,
}

/// The factored form of one panel: its leaves plus the combine tree in
/// reduction order.
#[derive(Debug)]
struct PanelFactor {
    /// Panel width.
    bw: usize,
    leaves: Vec<Leaf>,
    combines: Vec<Combine>,
}

/// Per-lane scratch for factorization and applies. Reused across panels;
/// growth after warm-up is counted.
#[derive(Debug, Default)]
struct QrScratch {
    /// The `W` and `V₁ᵀV₂` products of the recursive factorization.
    s: Vec<f64>,
    /// `W = VᵀC` of a block-reflector application.
    w: Vec<f64>,
    /// Gather buffer for combine applications (two `bw`-row strips).
    stack: Vec<f64>,
    alloc_events: u64,
}

impl QrScratch {
    fn grow(buf: &mut Vec<f64>, len: usize, events: &mut u64) {
        if buf.capacity() < len {
            *events += 1;
        }
        buf.resize(len, 0.0);
    }

    fn ensure_factor(&mut self, bw: usize) {
        Self::grow(&mut self.s, (bw / 2) * (bw - bw / 2), &mut self.alloc_events);
    }

    fn ensure_apply(&mut self, bw: usize, k: usize) {
        Self::grow(&mut self.w, bw * k, &mut self.alloc_events);
        Self::grow(&mut self.stack, 2 * bw * k, &mut self.alloc_events);
    }
}

/// `A = QR` in TSQR factored form: `R` explicitly, `Q` as the per-panel
/// reflector trees, applied on demand by [`TsqrQr::apply_q`] /
/// [`TsqrQr::apply_qt`].
#[derive(Debug)]
pub struct TsqrQr {
    m: usize,
    n: usize,
    panels: Vec<PanelFactor>,
    r: Matrix,
    stats: QrStats,
}

/// Recursive compact-WY QR of a dense `h × bw` column-major tile
/// (`h ≥ bw`), after Elmroth–Gustavson and LAPACK `dgeqrt3`. On return
/// the tile holds the explicit unit-lower-trapezoidal `V` (ones on the
/// diagonal, zeros above), `r` (dense `bw×bw`) holds `R` with zeros
/// below the diagonal, and `t` the upper-triangular `T` of
/// `Q = I − V·T·Vᵀ`, produced by the recursion itself rather than
/// rebuilt from `VᵀV`. `s` needs `⌊bw/2⌋·⌈bw/2⌉` entries.
fn rec_qr(buf: &mut [f64], h: usize, bw: usize, r: &mut [f64], t: &mut [f64], s: &mut [f64]) {
    debug_assert!(h >= bw && buf.len() == h * bw && r.len() == bw * bw && t.len() == bw * bw);
    t.fill(0.0);
    rec_qr_cols(buf, h, bw, 0, bw, r, t, s);
}

/// Factor columns `c0..c0+nb` of the tile (rows `c0..h`), assuming every
/// reflector left of `c0` has already been applied to them.
#[allow(clippy::too_many_arguments)]
fn rec_qr_cols(
    buf: &mut [f64],
    h: usize,
    bw: usize,
    c0: usize,
    nb: usize,
    r: &mut [f64],
    t: &mut [f64],
    s: &mut [f64],
) {
    if nb == 1 {
        // dlarfg-style reflector for column c0, then split it into its
        // R column and its explicit V column
        let col = &mut buf[c0 * h..(c0 + 1) * h];
        let alpha = col[c0];
        let xnorm = ops::norm2(&col[c0 + 1..]);
        let (beta, tau) = if xnorm == 0.0 {
            (alpha, 0.0) // H = I; the diagonal entry is already R's
        } else {
            let beta = -alpha.signum() * f64::hypot(alpha, xnorm);
            ops::scal(1.0 / (alpha - beta), &mut col[c0 + 1..]);
            (beta, (beta - alpha) / beta)
        };
        let rcol = &mut r[c0 * bw..(c0 + 1) * bw];
        rcol[..c0].copy_from_slice(&col[..c0]);
        rcol[c0] = beta;
        rcol[c0 + 1..].fill(0.0);
        col[..c0].fill(0.0);
        col[c0] = 1.0;
        t[c0 + bw * c0] = tau;
        return;
    }
    let (n1, n2) = (nb / 2, nb - nb / 2);
    let c1 = c0 + n1;
    rec_qr_cols(buf, h, bw, c0, n1, r, t, s);
    // apply Q₁ᵀ = I − V₁·T₁₁ᵀ·V₁ᵀ to the right half, rows c0..h
    {
        let (left, right) = buf.split_at_mut(c1 * h);
        let v1 = &left[c0 * h + c0..];
        let t11 = &t[c0 + bw * c0..];
        apply_wy(v1, h, h - c0, n1, t11, bw, true, &mut right[..n2 * h], c0, h, n2, s);
    }
    rec_qr_cols(buf, h, bw, c1, n2, r, t, s);
    // T₁₂ = −T₁₁·(V₁ᵀV₂)·T₂₂; V₂ is zero above row c1
    let x = &mut s[..n1 * n2];
    ops::gemm_tn(h - c1, &buf[c0 * h + c1..], h, n1, &buf[c1 * h + c1..], h, n2, x);
    // X ← X·T₂₂ in place: column j needs columns ≤ j, so descend
    for j in (0..n2).rev() {
        for i in 0..n1 {
            let mut acc = 0.0;
            for l in 0..=j {
                acc += x[i + n1 * l] * t[c1 + l + bw * (c1 + j)];
            }
            x[i + n1 * j] = acc;
        }
    }
    // T₁₂ ← −T₁₁·X
    for (j, xc) in x.chunks_exact(n1).enumerate() {
        for i in 0..n1 {
            let mut acc = 0.0;
            for l in i..n1 {
                acc += t[c0 + i + bw * (c0 + l)] * xc[l];
            }
            t[c0 + i + bw * (c1 + j)] = -acc;
        }
    }
}

/// Apply the block reflector `(I − V·op(T)·Vᵀ)` of `nb` reflectors to
/// `k` columns of a strided column-major view: column `j` of `V` is
/// `v[j·ldv ..][..rows]`, `T` is `nb×nb` with column stride `ldt`, and
/// column `j` of `C` is `c[base + j·ldc ..][..rows]`. `trans` selects
/// `op(T) = Tᵀ` (the `Qᵀ` direction) over `T`.
#[allow(clippy::too_many_arguments)]
fn apply_wy(
    v: &[f64],
    ldv: usize,
    rows: usize,
    nb: usize,
    t: &[f64],
    ldt: usize,
    trans: bool,
    c: &mut [f64],
    base: usize,
    ldc: usize,
    k: usize,
    w: &mut [f64],
) {
    if k == 0 {
        return;
    }
    let w = &mut w[..nb * k];
    ops::gemm_tn(rows, v, ldv, nb, &c[base..], ldc, k, w);
    // triangular multiply in place, one column of W at a time
    for col in w.chunks_exact_mut(nb) {
        if trans {
            // W ← Tᵀ·W: row i needs rows ≤ i, so descend
            for i in (0..nb).rev() {
                let mut acc = 0.0;
                for l in 0..=i {
                    acc += t[l + ldt * i] * col[l];
                }
                col[i] = acc;
            }
        } else {
            // W ← T·W: row i needs rows ≥ i, so ascend
            for i in 0..nb {
                let mut acc = 0.0;
                for l in i..nb {
                    acc += t[i + ldt * l] * col[l];
                }
                col[i] = acc;
            }
        }
    }
    ops::gemm_acc(rows, v, ldv, nb, w, k, -1.0, &mut c[base..], ldc);
}

/// Apply one panel's whole reflector tree to a contiguous column chunk
/// (`k` columns of length `ldc`, panel rows addressed globally inside
/// each column). `trans = true` is the `Qᵀ` direction (leaves, then
/// combines in reduction order); `trans = false` is `Q` (combines in
/// reverse, then leaves).
fn apply_panel(
    p: &PanelFactor,
    trans: bool,
    c: &mut [f64],
    ldc: usize,
    k: usize,
    s: &mut QrScratch,
) {
    s.ensure_apply(p.bw, k);
    let leaves = |c: &mut [f64], s: &mut QrScratch| {
        for leaf in &p.leaves {
            apply_wy(
                &leaf.v, leaf.rows, leaf.rows, p.bw, &leaf.t, p.bw, trans, c, leaf.row0, ldc, k,
                &mut s.w,
            );
        }
    };
    let combine = |cb: &Combine, c: &mut [f64], s: &mut QrScratch| {
        let (r0, r1) = (p.leaves[cb.left].row0, p.leaves[cb.right].row0);
        let h = 2 * p.bw;
        // gather the two bw-row strips of every column, apply, scatter
        for j in 0..k {
            let col = &c[j * ldc..];
            s.stack[j * h..j * h + p.bw].copy_from_slice(&col[r0..r0 + p.bw]);
            s.stack[j * h + p.bw..(j + 1) * h].copy_from_slice(&col[r1..r1 + p.bw]);
        }
        apply_wy(&cb.v, h, h, p.bw, &cb.t, p.bw, trans, &mut s.stack, 0, h, k, &mut s.w);
        for j in 0..k {
            let col = &mut c[j * ldc..];
            col[r0..r0 + p.bw].copy_from_slice(&s.stack[j * h..j * h + p.bw]);
            col[r1..r1 + p.bw].copy_from_slice(&s.stack[j * h + p.bw..(j + 1) * h]);
        }
    };
    if trans {
        leaves(c, s);
        for cb in &p.combines {
            combine(cb, c, s);
        }
    } else {
        for cb in p.combines.iter().rev() {
            combine(cb, c, s);
        }
        leaves(c, s);
    }
}

/// Recursively fan `f(index, item, scratch)` over items, splitting lanes
/// (and the scratch arenas with them) across the joiner.
fn fan_out<T: Send, F>(
    items: &mut [T],
    base: usize,
    scratches: &mut [QrScratch],
    lanes: usize,
    join: &dyn Joiner,
    f: &F,
) where
    F: Fn(usize, &mut T, &mut QrScratch) + Sync,
{
    if lanes <= 1 || items.len() <= 1 || scratches.len() <= 1 {
        let s = &mut scratches[0];
        for (i, item) in items.iter_mut().enumerate() {
            f(base + i, item, s);
        }
        return;
    }
    let mid = items.len() / 2;
    let (il, ir) = items.split_at_mut(mid);
    let left_lanes = (lanes / 2).max(1);
    let (sl, sr) = scratches.split_at_mut(left_lanes.min(scratches.len() - 1).max(1));
    let mut a = || fan_out(il, base, sl, left_lanes, join, f);
    let mut b = || fan_out(ir, base + mid, sr, lanes - left_lanes, join, f);
    join.fork(&mut a, &mut b);
}

/// A column chunk of the working matrix handed to one lane: the columns
/// are contiguous (`cols × ld`).
struct Chunk<'a> {
    cols: &'a mut [f64],
    k: usize,
}

/// Split `region` (whole columns, stride `ld`) into roughly `parts`
/// contiguous chunks.
fn chunk_columns<'a>(region: &'a mut [f64], ld: usize, parts: usize) -> Vec<Chunk<'a>> {
    let total = region.len() / ld.max(1);
    let parts = parts.clamp(1, total.max(1));
    let (base, rem) = (total / parts, total % parts);
    let mut out = Vec::with_capacity(parts);
    let mut rest = region;
    for i in 0..parts {
        let k = base + usize::from(i < rem);
        let (head, tail) = rest.split_at_mut(k * ld);
        out.push(Chunk { cols: head, k });
        rest = tail;
    }
    out
}

impl TsqrQr {
    /// Factor `a = QR` (requires `a.rows() ≥ a.cols()`).
    ///
    /// # Errors
    /// [`MatrixError::ShapeMismatch`] when the input is wide — callers
    /// route `m < n` through the factorization of `Aᵀ`.
    pub fn factor(a: &Matrix, opts: &QrOptions, join: &dyn Joiner) -> Result<TsqrQr, MatrixError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(MatrixError::ShapeMismatch { left: (m, n), right: (n, n) });
        }
        let lanes = opts.lanes.max(1);
        let mut scratches: Vec<QrScratch> = (0..lanes).map(|_| QrScratch::default()).collect();
        let mut work = a.as_slice().to_vec();
        let bw_max = opts.panel.clamp(1, n);
        let mut panels: Vec<PanelFactor> = Vec::with_capacity(n.div_ceil(bw_max));
        let mut stats = QrStats::default();
        let mut warm_alloc = 0u64;

        let mut col0 = 0;
        while col0 < n {
            let bw = bw_max.min(n - col0);
            let prows = m - col0;
            let leaf_h = opts.leaf_height(bw);
            let nl = (prows / leaf_h).clamp(1, (prows / bw).max(1));
            let (hbase, hrem) = (prows / nl, prows % nl);

            // ---- leaf factorizations (parallel over tiles) ----
            let mut leaves: Vec<(Leaf, Vec<f64>)> = Vec::with_capacity(nl);
            let mut row0 = col0;
            for i in 0..nl {
                let rows = hbase + usize::from(i < hrem);
                leaves.push((
                    Leaf { row0, rows, v: vec![0.0; rows * bw], t: vec![0.0; bw * bw] },
                    vec![0.0; bw * bw],
                ));
                row0 += rows;
            }
            let work_ref: &[f64] = &work;
            fan_out(&mut leaves, 0, &mut scratches, lanes, join, &|_, (leaf, r), s| {
                s.ensure_factor(bw);
                for j in 0..bw {
                    let src = &work_ref[(col0 + j) * m + leaf.row0..][..leaf.rows];
                    leaf.v[j * leaf.rows..(j + 1) * leaf.rows].copy_from_slice(src);
                }
                rec_qr(&mut leaf.v, leaf.rows, bw, r, &mut leaf.t, &mut s.s);
            });
            let mut rs: Vec<Vec<f64>> = Vec::with_capacity(nl);
            let mut leaf_nodes: Vec<Leaf> = Vec::with_capacity(nl);
            for (leaf, r) in leaves {
                leaf_nodes.push(leaf);
                rs.push(r);
            }

            // ---- combine tree (serial; O(bw³) per node) ----
            let mut combines: Vec<Combine> = Vec::new();
            let mut survivors: Vec<usize> = (0..nl).collect();
            let mut levels = 0usize;
            while survivors.len() > 1 {
                levels += 1;
                let mut next = Vec::with_capacity(survivors.len().div_ceil(2));
                for pair in survivors.chunks(2) {
                    if pair.len() == 1 {
                        next.push(pair[0]);
                        continue;
                    }
                    let (left, right) = (pair[0], pair[1]);
                    let h = 2 * bw;
                    let s0 = &mut scratches[0];
                    s0.ensure_factor(bw);
                    let mut v = vec![0.0; h * bw];
                    let mut t = vec![0.0; bw * bw];
                    for j in 0..bw {
                        v[j * h..j * h + bw].copy_from_slice(&rs[left][j * bw..(j + 1) * bw]);
                        v[j * h + bw..(j + 1) * h]
                            .copy_from_slice(&rs[right][j * bw..(j + 1) * bw]);
                    }
                    // the merged R overwrites the left child's
                    rec_qr(&mut v, h, bw, &mut rs[left], &mut t, &mut s0.s);
                    combines.push(Combine { left, right, v, t });
                    next.push(left);
                }
                survivors = next;
            }

            // root R → the working matrix's diagonal block
            let root = survivors[0];
            for j in 0..bw {
                work[(col0 + j) * m + col0..][..bw]
                    .copy_from_slice(&rs[root][j * bw..(j + 1) * bw]);
            }

            let panel = PanelFactor { bw, leaves: leaf_nodes, combines };

            // ---- trailing update: Qᵀ_panel on columns right of the panel
            //      (parallel over column chunks) ----
            let trailing = &mut work[(col0 + bw) * m..n * m];
            if !trailing.is_empty() {
                let mut chunks = chunk_columns(trailing, m, lanes);
                let pref = &panel;
                fan_out(&mut chunks, 0, &mut scratches, lanes, join, &|_, chunk, s| {
                    apply_panel(pref, true, chunk.cols, m, chunk.k, s);
                });
            }

            if col0 == 0 {
                stats.leaves = nl;
                stats.levels = levels;
                warm_alloc = scratches.iter().map(|s| s.alloc_events).sum();
            }
            stats.panels += 1;
            panels.push(panel);
            col0 += bw;
        }
        stats.steady_alloc_events =
            scratches.iter().map(|s| s.alloc_events).sum::<u64>() - warm_alloc;

        // R = the upper triangle of the reduced working matrix
        let mut r = Matrix::zeros(n, n)?;
        for j in 0..n {
            let src = &work[j * m..j * m + (j + 1).min(n)];
            r.col_mut(j)[..src.len()].copy_from_slice(src);
        }
        Ok(TsqrQr { m, n, panels, r, stats })
    }

    /// Row count of the factored matrix.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Column count of the factored matrix.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The `n×n` upper-triangular factor `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Factorization counters.
    pub fn stats(&self) -> QrStats {
        self.stats
    }

    fn apply(&self, x: &mut Matrix, trans: bool, lanes: usize, join: &dyn Joiner) {
        assert_eq!(x.rows(), self.m, "apply: row count mismatch");
        let k = x.cols();
        let lanes = lanes.max(1);
        let m = self.m;
        let mut scratches: Vec<QrScratch> = (0..lanes).map(|_| QrScratch::default()).collect();
        let mut chunks = chunk_columns(x.as_mut_slice(), m, lanes.min(k));
        let panels = &self.panels;
        fan_out(&mut chunks, 0, &mut scratches, lanes, join, &|_, chunk, s| {
            if trans {
                for p in panels.iter() {
                    apply_panel(p, true, chunk.cols, m, chunk.k, s);
                }
            } else {
                for p in panels.iter().rev() {
                    apply_panel(p, false, chunk.cols, m, chunk.k, s);
                }
            }
        });
    }

    /// `X ← Q·X` for an `m×k` matrix, tile by tile (never forming `Q`).
    /// The back-transform of the tall-skinny SVD pipeline is
    /// `U = Q·[U_R; 0]`.
    pub fn apply_q(&self, x: &mut Matrix, lanes: usize, join: &dyn Joiner) {
        self.apply(x, false, lanes, join);
    }

    /// `X ← Qᵀ·X` for an `m×k` matrix.
    pub fn apply_qt(&self, x: &mut Matrix, lanes: usize, join: &dyn Joiner) {
        self.apply(x, true, lanes, join);
    }

    /// Materialize the thin `Q` (`m×n`) by applying the tree to
    /// `[Iₙ; 0]`. For verification; the drivers never call this.
    pub fn thin_q(&self, join: &dyn Joiner) -> Matrix {
        let mut q = Matrix::zeros(self.m, self.n).expect("nonzero dims");
        for j in 0..self.n {
            q.col_mut(j)[j] = 1.0;
        }
        self.apply_q(&mut q, 1, join);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{checks, generate};

    /// Reference column-at-a-time Householder QR of an `h × bw` tile:
    /// the upper triangle ends up holding `R`, the strict lower trapezoid
    /// the reflector tails, `tau` the reflector scalars.
    fn house_qr(buf: &mut [f64], h: usize, bw: usize, tau: &mut [f64]) {
        for j in 0..bw {
            let (head, tail) = buf.split_at_mut((j + 1) * h);
            let colj = &mut head[j * h..];
            let alpha = colj[j];
            let xnorm = ops::norm2(&colj[j + 1..]);
            if xnorm == 0.0 {
                tau[j] = 0.0;
                continue;
            }
            let beta = -alpha.signum() * f64::hypot(alpha, xnorm);
            tau[j] = (beta - alpha) / beta;
            ops::scal(1.0 / (alpha - beta), &mut colj[j + 1..]);
            colj[j] = beta;
            for coll in tail.chunks_exact_mut(h) {
                let w = coll[j] + ops::dot(&colj[j + 1..], &coll[j + 1..]);
                let tw = tau[j] * w;
                coll[j] -= tw;
                ops::axpy(-tw, &colj[j + 1..], &mut coll[j + 1..]);
            }
        }
    }

    /// Split a [`house_qr`] tile into `R` and the explicit unit-lower `V`.
    fn split_r_v(buf: &mut [f64], h: usize, bw: usize, r: &mut [f64]) {
        for j in 0..bw {
            let col = &mut buf[j * h..(j + 1) * h];
            for i in 0..bw {
                r[i + bw * j] = if i <= j { col[i] } else { 0.0 };
            }
            col[..j].fill(0.0);
            col[j] = 1.0;
        }
    }

    /// Reference forward-accumulated `T` rebuilt from `VᵀV`:
    /// `T[j,j] = τ_j`, `T(0..j, j) = −τ_j · T(0..j,0..j) · (Vᵀ v_j)`.
    fn build_t(v: &[f64], h: usize, bw: usize, tau: &[f64]) -> Vec<f64> {
        let mut s = vec![0.0; bw * bw];
        ops::gemm_tn(h, v, h, bw, v, h, bw, &mut s);
        let mut t = vec![0.0; bw * bw];
        for j in 0..bw {
            t[j + bw * j] = tau[j];
            for i in (0..j).rev() {
                let mut acc = 0.0;
                for l in i..j {
                    acc += t[i + bw * l] * s[l + bw * j];
                }
                t[i + bw * j] = -tau[j] * acc;
            }
        }
        t
    }

    fn max_abs(x: &[f64]) -> f64 {
        x.iter().fold(0.0, |m, y| m.max(y.abs()))
    }

    fn max_diff(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|y| y.to_bits()).collect()
    }

    fn factor_opts(panel: usize, leaf_rows: usize) -> QrOptions {
        QrOptions { panel, leaf_rows, lanes: 1 }
    }

    fn assert_qr(a: &Matrix, qr: &TsqrQr, tol: f64) {
        let q = qr.thin_q(&SerialJoin);
        assert!(checks::orthogonality_residual(&q) < tol, "QᵀQ ≠ I");
        let recon = q.matmul(qr.r()).unwrap();
        let diff = a.sub(&recon).unwrap().frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(diff < tol, "A ≠ QR: rel {diff:.3e}");
        // R upper triangular by construction
        for j in 0..qr.cols() {
            for i in (j + 1)..qr.cols() {
                assert_eq!(qr.r().get(i, j), 0.0, "R({i},{j}) not zero");
            }
        }
    }

    #[test]
    fn single_tile_qr_reconstructs() {
        let a = generate::random_uniform(48, 12, 7);
        let qr = TsqrQr::factor(&a, &factor_opts(6, 1 << 20), &SerialJoin).unwrap();
        assert_eq!(qr.stats().leaves, 1);
        assert_qr(&a, &qr, 1e-12);
    }

    #[test]
    fn tsqr_tree_reconstructs_and_matches_flat() {
        let a = generate::random_uniform(256, 24, 8);
        // small leaves force a multi-level tree
        let tree = TsqrQr::factor(&a, &factor_opts(8, 32), &SerialJoin).unwrap();
        assert!(tree.stats().leaves >= 4, "leaves {}", tree.stats().leaves);
        assert!(tree.stats().levels >= 2, "levels {}", tree.stats().levels);
        assert_qr(&a, &tree, 1e-12);
        let flat = TsqrQr::factor(&a, &factor_opts(8, 1 << 20), &SerialJoin).unwrap();
        assert_qr(&a, &flat, 1e-12);
        // R is unique up to row signs for a full-rank A
        for j in 0..24 {
            for i in 0..=j {
                let (x, y) = (tree.r().get(i, j), flat.r().get(i, j));
                assert!(
                    (x.abs() - y.abs()).abs() < 1e-10 * a.frobenius_norm(),
                    "|R({i},{j})| differs: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn square_input_and_odd_panel_edges() {
        for (m, n, panel) in [(16, 16, 5), (17, 13, 4), (40, 1, 32), (9, 8, 8)] {
            let a = generate::random_uniform(m, n, (m + n) as u64);
            let qr = TsqrQr::factor(&a, &factor_opts(panel, 0), &SerialJoin).unwrap();
            assert_qr(&a, &qr, 1e-12);
        }
    }

    #[test]
    fn rank_deficient_panel_takes_tau_zero_path() {
        let mut a = generate::random_uniform(64, 10, 9);
        for j in [2usize, 7] {
            a.col_mut(j).fill(0.0);
        }
        let qr = TsqrQr::factor(&a, &factor_opts(4, 16), &SerialJoin).unwrap();
        assert_qr(&a, &qr, 1e-12);
    }

    #[test]
    fn apply_roundtrip_is_identity() {
        let a = generate::random_uniform(128, 16, 10);
        let qr = TsqrQr::factor(&a, &factor_opts(8, 32), &SerialJoin).unwrap();
        let x0 = generate::random_uniform(128, 5, 11);
        let mut x = x0.clone();
        qr.apply_qt(&mut x, 1, &SerialJoin);
        qr.apply_q(&mut x, 1, &SerialJoin);
        let diff = x.sub(&x0).unwrap().frobenius_norm() / x0.frobenius_norm();
        assert!(diff < 1e-13, "Q·Qᵀ·x ≠ x: rel {diff:.3e}");
    }

    #[test]
    fn qt_a_equals_r_on_top() {
        let a = generate::random_uniform(96, 12, 12);
        let qr = TsqrQr::factor(&a, &factor_opts(6, 24), &SerialJoin).unwrap();
        let mut x = a.clone();
        qr.apply_qt(&mut x, 1, &SerialJoin);
        // top n×n of QᵀA matches R up to rounding; the rest is ~0
        for j in 0..12 {
            for i in 0..96 {
                let want = if i < 12 { qr.r().get(i, j) } else { 0.0 };
                assert!(
                    (x.get(i, j) - want).abs() < 1e-11 * a.frobenius_norm(),
                    "QᵀA({i},{j}) = {} vs {want}",
                    x.get(i, j)
                );
            }
        }
    }

    #[test]
    fn factor_rejects_wide_input() {
        let a = generate::random_uniform(4, 9, 13);
        assert!(TsqrQr::factor(&a, &QrOptions::default(), &SerialJoin).is_err());
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // many panels after the first: the per-lane arenas must not grow
        let a = generate::random_uniform(200, 48, 14);
        let qr = TsqrQr::factor(&a, &factor_opts(8, 50), &SerialJoin).unwrap();
        assert!(qr.stats().panels >= 6);
        assert_eq!(qr.stats().steady_alloc_events, 0);
    }

    #[test]
    fn recursive_factor_matches_householder_reference() {
        let tol = 64.0 * f64::EPSILON;
        for bw in [1usize, 2, 3, 7, 8, 31, 32, 33, 64] {
            let zero_cols = [0, bw / 2, bw - 1];
            for h in [bw, bw + 1, 4096] {
                for with_zeros in [false, true] {
                    let a = generate::random_uniform(h, bw, (131 * h + bw) as u64);
                    let mut a = a.as_slice().to_vec();
                    if with_zeros {
                        for j in zero_cols {
                            a[j * h..(j + 1) * h].fill(0.0);
                        }
                    }
                    let ctx = format!("bw {bw}, h {h}, zeros {with_zeros}");
                    let (mut v_ref, mut r_ref, mut tau) =
                        (a.clone(), vec![0.0; bw * bw], vec![0.0; bw]);
                    house_qr(&mut v_ref, h, bw, &mut tau);
                    split_r_v(&mut v_ref, h, bw, &mut r_ref);

                    let (mut v, mut r, mut t) =
                        (a, vec![f64::NAN; bw * bw], vec![f64::NAN; bw * bw]);
                    let mut s = vec![0.0; (bw / 2) * (bw - bw / 2)];
                    rec_qr(&mut v, h, bw, &mut r, &mut t, &mut s);

                    let diag: Vec<f64> = (0..bw).map(|j| t[j + bw * j]).collect();
                    let t_ref = build_t(&v, h, bw, &diag);
                    let dt = max_diff(&t, &t_ref);
                    assert!(dt <= tol * max_abs(&t_ref), "T differs by {dt:.3e} ({ctx})");
                    let dr = max_diff(&r, &r_ref);
                    assert!(dr <= tol * max_abs(&r_ref), "R differs by {dr:.3e} ({ctx})");
                    if with_zeros {
                        for j in zero_cols {
                            for i in 0..bw {
                                assert_eq!(t[j + bw * i], 0.0, "T({j},{i}) ({ctx})");
                                assert_eq!(t[i + bw * j], 0.0, "T({i},{j}) ({ctx})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn factor_is_bitwise_scale_equivariant() {
        let cases = [
            (16384, 64, QrOptions::default()),
            (300, 37, factor_opts(8, 50)),
            (97, 13, factor_opts(5, 20)),
        ];
        for (m, n, opts) in cases {
            let a = generate::random_uniform(m, n, (m + n) as u64);
            let base = TsqrQr::factor(&a, &opts, &SerialJoin).unwrap();
            let q0 = base.thin_q(&SerialJoin);
            for k in [-500, -100, 100, 500] {
                let f = 2f64.powi(k);
                let mut b = a.clone();
                b.scale(f);
                let qr = TsqrQr::factor(&b, &opts, &SerialJoin).unwrap();
                let want_r: Vec<f64> = base.r().as_slice().iter().map(|y| f * y).collect();
                assert_eq!(bits(qr.r().as_slice()), bits(&want_r), "R of {m}×{n} at 2^{k}");
                let q = qr.thin_q(&SerialJoin);
                assert_eq!(bits(q.as_slice()), bits(q0.as_slice()), "Q of {m}×{n} at 2^{k}");
            }
        }
    }

    #[test]
    fn leaf_height_floor_wins_over_cap_for_wide_panels() {
        assert_eq!(QrOptions::default().leaf_height(9000), 18000);
        assert!((64..=16384).contains(&QrOptions::default().leaf_height(32)));
    }
}
