//! Blocked execution for undersized machines (Schreiber \[14\]).
//!
//! The paper's orderings assume one column pair per processor, i.e.
//! `P = n/2`. Real machines are *undersized*: the ANU CM-5 had 32 nodes
//! but problems have hundreds of columns. Schreiber's partitioning — which
//! §5 builds its block ring ordering on — fixes this by letting every slot
//! hold a *block* of `c` columns: the same sweep schedules then move
//! blocks instead of single columns, and a "rotation" of a resident pair
//! becomes a full orthogonalization pass over the two blocks' columns.
//!
//! When the blocks `(X, Y)` of a super-pair meet, one cyclic pass
//! orthogonalizes every column pair of `X ∪ Y` with the sorted-storage
//! rule, so at convergence the norms are globally ordered exactly as in
//! the unblocked case (the block ordering meets every block pair, and
//! within a meeting the columns are fully sorted — an odd-even-merge
//! argument at block granularity). Termination is unchanged: a full sweep
//! with no rotation and no interchange anywhere.
//!
//! # Meeting kernels
//!
//! Two interchangeable kernels implement the meeting
//! ([`BlockKernel`]): the **pairwise** oracle streams the full `m`-length
//! columns through [`orthogonalize_pair`] O(c²) times, while the default
//! **Gram** kernel is block one-sided Jacobi (Bečka–Okša–Vajteršic). It
//! forms the lower triangle of the `2c×2c` Gram matrix `G = [X Y]ᵀ[X Y]`
//! once ([`ops::gram_block_lower`]), at a leading dimension padded to
//! `2c + 1` so that strided walks over `G` do not pile into a few cache
//! sets. It runs the same cyclic pass with sorted storage on `G` *in
//! cache*, making identical rotation and interchange decisions, since
//! `compute_rotation` only ever consumes the Gram entries. The pass
//! updates the stored triangle only: a rotation writes no mirror entries
//! and has a single strided operand (`sweep_lower`). Meanwhile it
//! accumulates the `2c×2c` orthogonal update `W`, and finally it applies
//! `[X Y] ← [X Y]·W` (and the `V` panel) as one blocked panel multiply
//! ([`ops::panel_update`]). The panel is read O(1) times per meeting
//! instead of O(c), which is what turns the dominant cost into
//! BLAS-3-shaped work. Convergence is preserved because the meeting still
//! fully orthogonalizes and sorts `X ∪ Y`: `G` is rebuilt from the actual
//! columns at every meeting, so thresholds see no accumulated drift, and
//! the termination rule (a full block sweep with no rotation and no
//! interchange) is evaluated on the same quantities as the pairwise path.
//!
//! Meetings of distinct processors touch disjoint blocks, so each step
//! fans the `P` meetings out over the persistent worker pool
//! ([`treesvd_sim::par`]) with one scratch arena per lane; after the first
//! sweep the driver performs no allocation (block movement swaps
//! pre-allocated buffers, and the Gram/`W`/tile scratches are reused).

use crate::options::{BlockKernel, HierBlocking, OrderingChoice, SvdError, SvdOptions};
use crate::result::{complete_orthonormal, Svd};
use treesvd_matrix::ops;
use treesvd_matrix::rotation::{
    apply_rotation, apply_rotation_swapped, compute_rotation, orthogonalize_pair,
};
use treesvd_matrix::Matrix;
use treesvd_orderings::JacobiOrdering;
use treesvd_sim::par;

/// Options for the blocked driver: the machine size plus the usual knobs.
#[derive(Debug)]
pub struct BlockedOptions {
    /// Number of physical processors `P`; the columns are distributed over
    /// `2P` block slots.
    pub processors: usize,
    /// Everything else (ordering, threshold, sweep cap, sorting, vectors,
    /// meeting kernel, thread budget).
    pub svd: SvdOptions,
}

impl BlockedOptions {
    /// Default options for a `P`-processor machine.
    pub fn for_processors(processors: usize) -> Self {
        Self { processors, svd: SvdOptions::default() }
    }
}

/// Result of a blocked run.
#[derive(Debug)]
pub struct BlockedRun {
    /// The decomposition of the (unpadded) input.
    pub svd: Svd,
    /// Sweeps of the block-level ordering performed.
    pub sweeps: usize,
    /// Columns per block slot (after padding).
    pub block_size: usize,
    /// Total column rotations applied.
    pub total_rotations: usize,
    /// Scratch allocation events after the first sweep (warm-up). Zero in
    /// steady state: every meeting reuses its lane's Gram/`W`/tile arena
    /// and block movement swaps pre-allocated buffers. When the QR
    /// front-end engaged, the factorization's own steady-state counter
    /// ([`treesvd_matrix::qr::QrStats::steady_alloc_events`]) is folded
    /// in, so this stays the single zero-alloc gate for the whole
    /// pipeline.
    pub steady_alloc_events: u64,
    /// Whether the tall-skinny QR front-end engaged (the sweeps ran on
    /// the `n×n` factor `R`; see [`SvdOptions::qr_frontend`]).
    pub qr_frontend: bool,
}

/// One block slot: `c` columns of `A` (and optionally of the accumulated
/// `V`) stored contiguously column-major, in label order.
#[derive(Debug, Clone, Default)]
struct BlockSlot {
    /// `c` columns × `m` rows.
    a: Vec<f64>,
    /// `c` columns × `n_pad` rows; empty when vectors are off.
    v: Vec<f64>,
}

/// Per-lane scratch for the Gram meeting: the `2c×2c` Gram matrix, the
/// accumulated orthogonal update, and the panel-multiply tile. Reused
/// across meetings; `alloc_events` counts buffer growth (zero after
/// warm-up).
#[derive(Debug, Default)]
struct MeetingScratch {
    g: Vec<f64>,
    w: Vec<f64>,
    tile: Vec<f64>,
    alloc_events: u64,
}

impl MeetingScratch {
    fn grow(buf: &mut Vec<f64>, len: usize, events: &mut u64) {
        if buf.capacity() < len {
            *events += 1;
        }
        buf.resize(len, 0.0);
    }

    /// Size the arena for a `k`-column union: `G` at leading dimension
    /// `k + 1`, `W` at `k`.
    fn ensure(&mut self, k: usize) {
        Self::grow(&mut self.g, k * (k + 1), &mut self.alloc_events);
        Self::grow(&mut self.w, k * k, &mut self.alloc_events);
        Self::grow(&mut self.tile, k * ops::PANEL_TILE, &mut self.alloc_events);
    }
}

/// Immutable per-run context shared by every meeting.
#[derive(Clone, Copy)]
struct MeetCtx {
    /// Rows of the `A` columns.
    m: usize,
    /// Rows of the `V` columns (`0` when vectors are off).
    v_len: usize,
    threshold: f64,
    sort: bool,
    kernel: BlockKernel,
    /// Union width above which a Gram meeting splits into cache-sized
    /// sub-block pairs (`usize::MAX` disables the hierarchical level).
    hier_cols: usize,
}

/// Compute the SVD of `a` on an undersized machine of `opts.processors`
/// processors using blocked sweeps.
///
/// # Errors
/// As [`crate::HestenesSvd::compute`].
///
/// # Panics
/// Panics if `opts.processors == 0`.
pub fn blocked_svd(a: &Matrix, opts: &BlockedOptions) -> Result<BlockedRun, SvdError> {
    blocked_svd_inner(a, opts, true)
}

/// The blocked driver behind the front-end gate: `allow_frontend` is
/// dropped for the recursive solve on `R` (square, but a degenerate
/// crossover setting must not re-enter the factorization).
pub(crate) fn blocked_svd_inner(
    a: &Matrix,
    opts: &BlockedOptions,
    allow_frontend: bool,
) -> Result<BlockedRun, SvdError> {
    assert!(opts.processors > 0, "need at least one processor");
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    if a.rows() < a.cols() {
        let at = a.transpose();
        let mut run = blocked_svd_inner(&at, opts, allow_frontend)?;
        std::mem::swap(&mut run.svd.u, &mut run.svd.v);
        return Ok(run);
    }
    if allow_frontend && crate::tall::engages(&opts.svd, a.rows(), a.cols()) {
        let qr = crate::tall::factor(a, &opts.svd)?;
        let mut run = blocked_svd_inner(qr.r(), opts, false)?;
        run.svd.u = crate::tall::back_transform(&qr, &run.svd.u, crate::tall::lanes(&opts.svd));
        run.steady_alloc_events += qr.stats().steady_alloc_events;
        run.qr_frontend = true;
        return Ok(run);
    }

    let (m, n) = a.shape();
    let n_super = 2 * opts.processors;
    // block size: smallest c with n <= c * n_super
    let c = n.div_ceil(n_super).max(1);
    let n_pad = c * n_super;

    // A single processor needs no ordering: both blocks are resident and
    // every sweep is one meeting of the pair.
    let ordering: Option<Box<dyn JacobiOrdering>> = if n_super > 2 {
        Some(match &opts.svd.ordering {
            OrderingChoice::Kind(k) => k.build(n_super)?,
            OrderingChoice::Custom(f) => f(n_super)?,
        })
    } else {
        None
    };

    // distribute columns: super-slot s holds labels [s*c, (s+1)*c),
    // stored contiguously per slot (padding columns stay zero)
    let vectors = opts.svd.vectors;
    let mut slots: Vec<BlockSlot> = (0..n_super)
        .map(|s| {
            let mut a_buf = vec![0.0; c * m];
            let mut v_buf = if vectors { vec![0.0; c * n_pad] } else { Vec::new() };
            for k in 0..c {
                let j = s * c + k;
                if j < n {
                    a_buf[k * m..(k + 1) * m].copy_from_slice(a.col(j));
                }
                if vectors {
                    v_buf[k * n_pad + j] = 1.0;
                }
            }
            BlockSlot { a: a_buf, v: v_buf }
        })
        .collect();

    // Cache-level (hierarchical) blocking threshold: a union panel wider
    // than this is met as cyclic passes over sub-block pairs whose
    // working set (two sub-panels of `m`-length columns) fits in roughly
    // a quarter of L2, keeping the Gram kernel's panel reads cache-
    // resident — Novaković's multi-level scheme (arXiv 1401.2720).
    let hier_cols = match opts.svd.hier {
        HierBlocking::Off => usize::MAX,
        HierBlocking::Cols(w) => w.max(4),
        HierBlocking::Auto => ((treesvd_matrix::cache::l2_bytes() / 4) / (8 * m)).max(8),
    };

    let ctx = MeetCtx {
        m,
        v_len: if vectors { n_pad } else { 0 },
        threshold: opts.svd.threshold.unwrap_or(n_pad as f64 * f64::EPSILON),
        sort: matches!(opts.svd.sort, treesvd_sim::SortMode::Descending),
        kernel: opts.svd.block_kernel,
        hier_cols,
    };

    // Adaptive dispatch over the persistent pool: fork only when a step's
    // meetings move enough data, and never more lanes than processors.
    let lanes = opts.svd.threads.unwrap_or_else(par::num_threads);
    let step_work = opts.processors * 2 * c * (m + ctx.v_len);
    let tasks =
        if step_work < opts.svd.serial_cutoff { 1 } else { lanes.min(opts.processors).max(1) };
    let mut scratches: Vec<MeetingScratch> =
        (0..tasks).map(|_| MeetingScratch::default()).collect();

    // double-buffered block movement: `spare` is swapped in every step, so
    // the steady-state loop never allocates
    let mut spare: Vec<BlockSlot> = (0..n_super).map(|_| BlockSlot::default()).collect();

    let mut layout = ordering.as_ref().map_or_else(|| vec![0, 1], |o| o.initial_layout());
    let mut sweeps = 0usize;
    let mut total_rotations = 0usize;
    let mut warm_alloc = 0u64;
    let mut converged = false;

    for sweep in 0..opts.svd.max_sweeps {
        let mut rotations = 0usize;
        let mut swaps = 0usize;

        if let Some(ordering) = ordering.as_deref() {
            let prog = ordering.sweep_program(sweep, &layout);
            let layouts = prog.layouts();
            for (step_no, step) in prog.steps.iter().enumerate() {
                let lay = &layouts[step_no];
                let (r, s) = meet_range(&mut slots, lay, &mut scratches, tasks, &ctx);
                rotations += r;
                swaps += s;
                // move the blocks (pointer swaps only)
                for (src, slot) in slots.iter_mut().enumerate() {
                    spare[step.move_after.dest_of(src)] = std::mem::take(slot);
                }
                std::mem::swap(&mut slots, &mut spare);
            }
            layout = prog.final_layout();
        } else {
            let (r, s) = meet_leaf(&mut slots, &layout, &ctx, &mut scratches[0]);
            rotations += r;
            swaps += s;
        }
        total_rotations += rotations;
        sweeps = sweep + 1;
        if sweep == 0 {
            warm_alloc = scratches.iter().map(|s| s.alloc_events).sum();
        }
        if rotations == 0 && swaps == 0 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(SvdError::NoConvergence { sweeps, last_coupling: max_coupling(&slots, m) });
    }
    let steady_alloc_events = scratches.iter().map(|s| s.alloc_events).sum::<u64>() - warm_alloc;

    // locate each label's column: label block `layout[s]` lives in slot s
    let mut locate: Vec<(usize, usize)> = vec![(0, 0); n_pad];
    for (s, &label_block) in layout.iter().enumerate() {
        for k in 0..c {
            locate[label_block * c + k] = (s, k);
        }
    }

    // extraction (mirrors the unblocked driver)
    let col_of = |j: usize| -> &[f64] {
        let (s, k) = locate[j];
        &slots[s].a[k * m..(k + 1) * m]
    };
    let norms: Vec<f64> = (0..n).map(|j| ops::norm2(col_of(j))).collect();
    let max_norm = norms.iter().fold(0.0_f64, |acc, &x| acc.max(x));
    let rank_tol = max_norm * n_pad as f64 * f64::EPSILON;
    let mut u = Matrix::zeros(m, n).map_err(|_| SvdError::EmptyMatrix)?;
    let mut sigma = vec![0.0; n];
    let mut zero_u = Vec::new();
    for j in 0..n {
        if norms[j] > rank_tol {
            sigma[j] = norms[j];
            let mut col = col_of(j).to_vec();
            ops::scal(1.0 / norms[j], &mut col);
            u.set_col(j, &col);
        } else {
            zero_u.push(j);
        }
    }
    let rank = n - zero_u.len();
    complete_orthonormal(&mut u, &zero_u);

    let v = if vectors {
        let mut v = Matrix::zeros(n, n).map_err(|_| SvdError::EmptyMatrix)?;
        let mut zero_v = Vec::new();
        for j in 0..n {
            let (s, k) = locate[j];
            let vj = &slots[s].v[k * n_pad..(k + 1) * n_pad];
            let head_norm = ops::norm2(&vj[..n]);
            if sigma[j] > 0.0 || head_norm > 0.5 {
                v.set_col(j, &vj[..n]);
            } else {
                zero_v.push(j);
            }
        }
        complete_orthonormal(&mut v, &zero_v);
        v
    } else {
        Matrix::identity(n, n).map_err(|_| SvdError::EmptyMatrix)?
    };

    Ok(BlockedRun {
        svd: Svd { u, sigma, v, rank },
        sweeps,
        block_size: c,
        total_rotations,
        steady_alloc_events,
        qr_frontend: false,
    })
}

/// The largest normalized coupling `|a_i·a_j| / (‖a_i‖‖a_j‖)` over every
/// pair of nonzero columns of the final blocks — the convergence measure
/// an unconverged run reports. Runs on the error path only; NaN if any
/// pair's coupling is NaN.
fn max_coupling(slots: &[BlockSlot], m: usize) -> f64 {
    let cols: Vec<(&[f64], f64)> = slots
        .iter()
        .flat_map(|s| s.a.chunks_exact(m))
        .map(|c| (c, ops::norm2(c)))
        .filter(|&(_, norm)| norm != 0.0)
        .collect();
    let mut worst = 0.0_f64;
    for (i, &(ci, ni)) in cols.iter().enumerate() {
        for &(cj, nj) in &cols[i + 1..] {
            let coupling = ops::dot(ci, cj).abs() / (ni * nj);
            if coupling.is_nan() {
                return f64::NAN;
            }
            worst = worst.max(coupling);
        }
    }
    worst
}

/// Run the step's `P` independent meetings, forking into at most `tasks`
/// leaves over the persistent pool (each leaf owns one scratch arena).
/// Returns (rotations, interchanges).
fn meet_range(
    pairs: &mut [BlockSlot],
    lay: &[usize],
    scratches: &mut [MeetingScratch],
    tasks: usize,
    ctx: &MeetCtx,
) -> (usize, usize) {
    let n_pairs = pairs.len() / 2;
    if tasks <= 1 || n_pairs <= 1 || scratches.len() <= 1 {
        return meet_leaf(pairs, lay, ctx, &mut scratches[0]);
    }
    let mid = n_pairs / 2;
    let (pl, pr) = pairs.split_at_mut(2 * mid);
    let (ll, lr) = lay.split_at(2 * mid);
    let left_tasks = tasks / 2;
    let (sl, sr) = scratches.split_at_mut(left_tasks.max(1));
    let ((r1, w1), (r2, w2)) = par::join(
        || meet_range(pl, ll, sl, left_tasks, ctx),
        || meet_range(pr, lr, sr, tasks - left_tasks, ctx),
    );
    (r1 + r2, w1 + w2)
}

/// Serial leaf: every processor's meeting in this range, in order.
fn meet_leaf(
    pairs: &mut [BlockSlot],
    lay: &[usize],
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for (p, chunk) in pairs.chunks_exact_mut(2).enumerate() {
        let (first, second) = chunk.split_at_mut(1);
        // the two resident blocks, in label order
        let (lo, hi) = if lay[2 * p] < lay[2 * p + 1] {
            (&mut first[0], &mut second[0])
        } else {
            (&mut second[0], &mut first[0])
        };
        let (r, s) = match ctx.kernel {
            BlockKernel::Pairwise => pairwise_meeting(lo, hi, ctx),
            BlockKernel::Gram => gram_meeting(lo, hi, ctx, scratch),
        };
        rotations += r;
        swaps += s;
    }
    (rotations, swaps)
}

/// Mutable references to columns `i < j` of the union `[X Y]` panel
/// (column length `rows`).
fn union_pair_mut<'t>(
    x: &'t mut [f64],
    y: &'t mut [f64],
    rows: usize,
    i: usize,
    j: usize,
) -> (&'t mut [f64], &'t mut [f64]) {
    debug_assert!(i < j);
    let cx = x.len() / rows;
    if j < cx {
        let (a, b) = x.split_at_mut(j * rows);
        (&mut a[i * rows..(i + 1) * rows], &mut b[..rows])
    } else if i >= cx {
        let (a, b) = y.split_at_mut((j - cx) * rows);
        (&mut a[(i - cx) * rows..(i - cx + 1) * rows], &mut b[..rows])
    } else {
        (&mut x[i * rows..(i + 1) * rows], &mut y[(j - cx) * rows..(j - cx + 1) * rows])
    }
}

/// Mutable references to columns `i < j` of a column-major matrix with
/// leading dimension `ld`.
fn two_cols(buf: &mut [f64], ld: usize, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(i < j);
    let (head, tail) = buf.split_at_mut(ld * j);
    (&mut head[ld * i..ld * (i + 1)], &mut tail[..ld])
}

/// The pairwise (oracle) meeting: one cyclic pass over all column pairs of
/// the two resident blocks, in label order (the lower-labelled block's
/// columns first), streaming the full columns through
/// [`orthogonalize_pair`]. Returns (rotations, interchanges).
fn pairwise_meeting(lo: &mut BlockSlot, hi: &mut BlockSlot, ctx: &MeetCtx) -> (usize, usize) {
    let total = (lo.a.len() + hi.a.len()) / ctx.m;
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for i in 0..total {
        for j in (i + 1)..total {
            let (ai, aj) = union_pair_mut(&mut lo.a, &mut hi.a, ctx.m, i, j);
            let out = orthogonalize_pair(ai, aj, ctx.threshold, ctx.sort);
            if ctx.v_len > 0 {
                let (vi, vj) = union_pair_mut(&mut lo.v, &mut hi.v, ctx.v_len, i, j);
                if out.used_swap {
                    apply_rotation_swapped(out.rotation, vi, vj);
                } else {
                    apply_rotation(out.rotation, vi, vj);
                }
            }
            if !out.rotation.skipped {
                rotations += 1;
            }
            if out.used_swap {
                swaps += 1;
            }
        }
    }
    (rotations, swaps)
}

/// The Gram (block Jacobi) meeting. Below the hierarchical threshold the
/// whole union is met in one pass ([`gram_union`]); above it the union is
/// split into cache-sized sub-blocks and one cyclic pass runs the
/// in-cache kernel over every sub-block *pair* — each sub-meeting again
/// fully orthogonalizes and sorts its own union, so covering all pairs
/// covers every column pair of the meeting and the termination rule (no
/// rotation, no interchange anywhere) is evaluated on exactly the same
/// quantities as the flat path. Returns (rotations, interchanges).
fn gram_meeting(
    lo: &mut BlockSlot,
    hi: &mut BlockSlot,
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let cx = lo.a.len() / ctx.m;
    let cy = hi.a.len() / ctx.m;
    if cx + cy <= ctx.hier_cols {
        return gram_union(&mut lo.a, &mut hi.a, &mut lo.v, &mut hi.v, ctx, scratch);
    }
    hierarchical_meeting(lo, hi, cx, cy, ctx, scratch)
}

/// Two disjoint column ranges `[s0, s0+w0)` and `[s1, s1+w1)` (with
/// `s0 + w0 ≤ s1`) of one column-major panel, as mutable slices.
fn two_ranges(
    buf: &mut [f64],
    rows: usize,
    s0: usize,
    w0: usize,
    s1: usize,
    w1: usize,
) -> (&mut [f64], &mut [f64]) {
    if rows == 0 {
        return buf.split_at_mut(0); // vectors off: both empty
    }
    debug_assert!(s0 + w0 <= s1);
    let (head, tail) = buf.split_at_mut(s1 * rows);
    (&mut head[s0 * rows..(s0 + w0) * rows], &mut tail[..w1 * rows])
}

/// The hierarchical (cache-level) meeting: sub-blocks of half the
/// threshold width, enumerated in label order (`lo`'s columns first, so
/// the sorted-storage rule still sorts the whole union), met pairwise by
/// the in-cache Gram kernel.
fn hierarchical_meeting(
    lo: &mut BlockSlot,
    hi: &mut BlockSlot,
    cx: usize,
    cy: usize,
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let cb = (ctx.hier_cols / 2).max(2);
    let nbx = cx.div_ceil(cb);
    let nby = cy.div_ceil(cb);
    // sub-block b → (lives in hi, first column, width); never straddles
    // the lo/hi boundary, so every range is one contiguous slice
    let locate = |b: usize| -> (bool, usize, usize) {
        if b < nbx {
            let s = b * cb;
            (false, s, cb.min(cx - s))
        } else {
            let s = (b - nbx) * cb;
            (true, s, cb.min(cy - s))
        }
    };
    let vr = |s: usize, w: usize| {
        if ctx.v_len > 0 {
            s * ctx.v_len..(s + w) * ctx.v_len
        } else {
            0..0
        }
    };
    let nb = nbx + nby;
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for p in 0..nb {
        for q in (p + 1)..nb {
            let (q_in_hi, sq, wq) = locate(q);
            let (p_in_hi, sp, wp) = locate(p);
            let (r, s) = match (p_in_hi, q_in_hi) {
                (false, false) => {
                    let (xa, ya) = two_ranges(&mut lo.a, ctx.m, sp, wp, sq, wq);
                    let (xv, yv) = two_ranges(&mut lo.v, ctx.v_len, sp, wp, sq, wq);
                    gram_union(xa, ya, xv, yv, ctx, scratch)
                }
                (true, true) => {
                    let (xa, ya) = two_ranges(&mut hi.a, ctx.m, sp, wp, sq, wq);
                    let (xv, yv) = two_ranges(&mut hi.v, ctx.v_len, sp, wp, sq, wq);
                    gram_union(xa, ya, xv, yv, ctx, scratch)
                }
                (false, true) => gram_union(
                    &mut lo.a[sp * ctx.m..(sp + wp) * ctx.m],
                    &mut hi.a[sq * ctx.m..(sq + wq) * ctx.m],
                    &mut lo.v[vr(sp, wp)],
                    &mut hi.v[vr(sq, wq)],
                    ctx,
                    scratch,
                ),
                (true, false) => unreachable!("sub-blocks are enumerated lo-first"),
            };
            rotations += r;
            swaps += s;
        }
    }
    (rotations, swaps)
}

/// One flat Gram meeting over the union `[X Y]` given as raw column
/// panels (`xa`/`ya` the `A` columns, `xv`/`yv` the matching `V` columns,
/// empty when vectors are off): build the lower triangle of
/// `G = [X Y]ᵀ[X Y]` at the padded leading dimension `k + 1`, run the
/// cyclic sorted pass on it in cache ([`sweep_lower`]) while accumulating
/// the orthogonal update `W`, then apply `[X Y] ← [X Y]·W` (and the `V`
/// panel) as one blocked panel multiply. The rotation and interchange
/// decisions are computed from exactly the Gram quantities the pairwise
/// path measures, so both kernels agree on what a meeting does (up to
/// rounding in how the updates are realized). Returns (rotations,
/// interchanges).
fn gram_union(
    xa: &mut [f64],
    ya: &mut [f64],
    xv: &mut [f64],
    yv: &mut [f64],
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let k = (xa.len() + ya.len()) / ctx.m;
    scratch.ensure(k);
    let MeetingScratch { g, w, tile, .. } = scratch;
    ops::gram_block_lower(xa, ya, ctx.m, g, k + 1);
    w.fill(0.0);
    for d in 0..k {
        w[d + k * d] = 1.0;
    }
    let (rotations, swaps) = sweep_lower(g, k + 1, w, k, ctx.threshold, ctx.sort);
    if rotations > 0 || swaps > 0 {
        ops::panel_update(xa, ya, ctx.m, w, tile);
        if ctx.v_len > 0 {
            ops::panel_update(xv, yv, ctx.v_len, w, tile);
        }
    }
    (rotations, swaps)
}

/// One rotation of the pair `(x, y)`: the per-element expression of
/// [`apply_rotation`] (or [`apply_rotation_swapped`] when `swap`), so a
/// scalar update here is bitwise the slice update there.
#[inline]
fn rotate2(c: f64, s: f64, swap: bool, x: f64, y: f64) -> (f64, f64) {
    if swap {
        (s * x + c * y, c * x - s * y)
    } else {
        (c * x - s * y, s * x + c * y)
    }
}

/// The in-cache cyclic pass of a Gram meeting on a `k×k` Gram matrix
/// stored **in its lower triangle only** (`G(r, c)`, `r ≥ c`, at
/// `g[r + ld·c]`), accumulating every rotation into the `k×k` `W`
/// (leading dimension `k`). Returns (rotations, interchanges).
///
/// Pair `(i, j)` reads γ as `G(j, i)` and applies the two-sided update
/// `G ← Jᵀ(G·J)` to what is still live: every later read of the sweep
/// touches only rows and columns `≥ i`, and `G` is rebuilt at the next
/// meeting, so rows and columns left of the pivot are never updated.
/// Rows `l > j` rotate as two contiguous tails of columns `i` and `j`;
/// rows `l ∈ (i, j)` pair column `i`'s row `l` with `G(j, l)`, which
/// stands for `G(l, j)` — the one strided operand, updated in place. The
/// `2×2` block takes the column step, then the row step, then keeps
/// `G(i, j)` as its off-diagonal entry. Each stored value is the same
/// floating-point expression on the same operands as the symmetric
/// update that writes both triangles, so `W` and the counts are bitwise
/// those of a full-storage pass.
fn sweep_lower(
    g: &mut [f64],
    ld: usize,
    w: &mut [f64],
    k: usize,
    threshold: f64,
    sort: bool,
) -> (usize, usize) {
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            let alpha = g[i + ld * i];
            let beta = g[j + ld * j];
            let gamma = g[j + ld * i];
            let rot = compute_rotation(alpha, beta, gamma, threshold);
            // predicted post-rotation norms, exactly as orthogonalize_pair
            // decides the interchange
            let (rc, rs) = (rot.c, rot.s);
            let (alpha_pred, beta_pred) = if rot.skipped {
                (alpha, beta)
            } else {
                (
                    rc * rc * alpha - 2.0 * rc * rs * gamma + rs * rs * beta,
                    rs * rs * alpha + 2.0 * rc * rs * gamma + rc * rc * beta,
                )
            };
            let want_swap = sort && beta_pred > alpha_pred;
            if rot.skipped && !want_swap {
                continue;
            }
            // rows strictly between the pivots: G(l, i) against G(l, j),
            // the latter stored as G(j, l)
            for l in (i + 1)..j {
                let (x, y) = rotate2(rc, rs, want_swap, g[l + ld * i], g[j + ld * l]);
                g[l + ld * i] = x;
                g[j + ld * l] = y;
            }
            // rows below both pivots: two contiguous column tails
            let (gi, gj) = two_cols(g, ld, i, j);
            if want_swap {
                apply_rotation_swapped(rot, &mut gi[j + 1..k], &mut gj[j + 1..k]);
            } else {
                apply_rotation(rot, &mut gi[j + 1..k], &mut gj[j + 1..k]);
            }
            // the 2×2 block: column step on rows i and j (G(i, j) = G(j, i)
            // going in), then the row step on columns i and j
            let (aii, aij) = rotate2(rc, rs, want_swap, gi[i], gi[j]);
            let (aji, ajj) = rotate2(rc, rs, want_swap, gi[j], gj[j]);
            let (bii, _) = rotate2(rc, rs, want_swap, aii, aji);
            let (bij, bjj) = rotate2(rc, rs, want_swap, aij, ajj);
            gi[i] = bii;
            gi[j] = bij;
            gj[j] = bjj;
            // accumulate the panel update W ← W·J
            let (wi, wj) = two_cols(w, k, i, j);
            if want_swap {
                apply_rotation_swapped(rot, wi, wj);
            } else {
                apply_rotation(rot, wi, wj);
            }
            if !rot.skipped {
                rotations += 1;
            }
            if want_swap {
                swaps += 1;
            }
        }
    }
    (rotations, swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HestenesSvd, SvdOptions};
    use treesvd_matrix::{checks, generate};

    fn opts_with(processors: usize, kernel: BlockKernel) -> BlockedOptions {
        BlockedOptions { processors, svd: SvdOptions::default().with_block_kernel(kernel) }
    }

    #[test]
    fn blocked_matches_unblocked_spectra() {
        let a = generate::random_uniform(40, 32, 1);
        let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            for procs in [2usize, 4, 8] {
                let run = blocked_svd(&a, &opts_with(procs, kernel)).unwrap();
                assert_eq!(run.block_size, 32 / (2 * procs));
                assert!(
                    checks::spectrum_distance(&run.svd.sigma, &full.svd.sigma) < 1e-9,
                    "P = {procs} kernel = {kernel}"
                );
                assert!(run.svd.residual(&a) < 1e-10, "P = {procs} kernel = {kernel}");
                assert!(run.svd.orthogonality() < 1e-10, "P = {procs} kernel = {kernel}");
                assert!(checks::is_nonincreasing(&run.svd.sigma), "P = {procs} kernel = {kernel}");
            }
        }
    }

    #[test]
    fn blocked_handles_non_divisible_columns() {
        // 30 columns on 4 processors: c = ceil(30/8) = 4, padded to 32
        let a = generate::random_uniform(36, 30, 2);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(4, kernel)).unwrap();
            assert_eq!(run.svd.sigma.len(), 30);
            assert!(run.svd.residual(&a) < 1e-10, "kernel = {kernel}");
            assert!(run.svd.orthogonality() < 1e-10, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_on_two_processors_known_spectrum() {
        let sigma: Vec<f64> = (1..=12).rev().map(|k| k as f64).collect();
        let a = generate::with_singular_values(20, &sigma, 3);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(2, kernel)).unwrap();
            assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_rank_deficient() {
        let a = generate::rank_deficient(24, 16, 10, 4);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(4, kernel)).unwrap();
            assert_eq!(run.svd.rank, 10, "kernel = {kernel}");
            assert!(run.svd.orthogonality() < 1e-10, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_wide_input() {
        let at = generate::with_singular_values(20, &[5.0, 3.0, 1.0], 5);
        let a = at.transpose();
        let run = blocked_svd(&a, &BlockedOptions::for_processors(2)).unwrap();
        assert_eq!(run.svd.sigma.len(), 3);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-10);
    }

    #[test]
    fn blocked_sweep_counts_reasonable() {
        // blocked sweeps do more work per step, so fewer sweeps than the
        // unblocked driver on the same matrix
        let a = generate::random_uniform(48, 32, 6);
        let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let run = blocked_svd(&a, &BlockedOptions::for_processors(4)).unwrap();
        assert!(run.sweeps <= full.sweeps, "{} vs {}", run.sweeps, full.sweeps);
        assert!(run.total_rotations > 0);
    }

    #[test]
    fn blocked_with_ring_ordering() {
        let a = generate::random_uniform(30, 24, 7);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let opts = BlockedOptions {
                processors: 3,
                svd: SvdOptions::default()
                    .with_ordering(crate::OrderingKind::NewRing)
                    .with_block_kernel(kernel),
            };
            let run = blocked_svd(&a, &opts).unwrap();
            assert!(run.svd.residual(&a) < 1e-10, "kernel = {kernel}");
            assert_eq!(run.block_size, 4);
        }
    }

    #[test]
    fn gram_kernel_is_zero_alloc_after_warmup() {
        let a = generate::random_uniform(96, 64, 8);
        let mut opts = opts_with(4, BlockKernel::Gram);
        // force the parallel path through the pool as well
        opts.svd.serial_cutoff = 0;
        let run = blocked_svd(&a, &opts).unwrap();
        assert!(run.sweeps > 1, "need a steady-state sweep to measure");
        assert_eq!(run.steady_alloc_events, 0);
    }

    #[test]
    fn kernels_agree_on_sigma_and_v() {
        // random c (via P and n), odd/padded sizes, rank-deficient panels
        // (P must keep 2P a power of two for the default fat-tree ordering)
        let cases: Vec<(Matrix, usize)> = vec![
            (generate::random_uniform(48, 30, 11), 2), // padded: 30 -> 32, c = 8
            (generate::random_uniform(33, 17, 12), 2), // odd everything, c = 5
            (generate::rank_deficient(40, 24, 9, 13), 4), // c = 3, rank 9
            (generate::with_singular_values(25, &[9.0, 4.0, 2.5, 1.0, 0.5], 14), 2),
        ];
        for (a, procs) in &cases {
            let pw = blocked_svd(a, &opts_with(*procs, BlockKernel::Pairwise)).unwrap();
            let gr = blocked_svd(a, &opts_with(*procs, BlockKernel::Gram)).unwrap();
            assert!(
                checks::spectrum_distance(&pw.svd.sigma, &gr.svd.sigma) < 1e-9,
                "sigma mismatch at P = {procs}"
            );
            assert_eq!(pw.svd.rank, gr.svd.rank, "rank mismatch at P = {procs}");
            // V agrees up to sign wherever the spectrum is well separated
            let n = gr.svd.sigma.len();
            for j in 0..n {
                let sep = |i: usize| {
                    (gr.svd.sigma[j] - gr.svd.sigma[i]).abs() > 1e-6 * gr.svd.sigma[0].max(1.0)
                };
                if gr.svd.sigma[j] > 1e-9 && (0..n).all(|i| i == j || sep(i)) {
                    let d = treesvd_matrix::ops::dot(pw.svd.v.col(j), gr.svd.v.col(j)).abs();
                    assert!(d > 1.0 - 1e-7, "V col {j} disagrees: |dot| = {d}");
                }
            }
        }
    }

    #[test]
    fn blocked_matches_sequential_over_processor_sweep() {
        // P = 1 exercises the trivial single-meeting schedule (no ordering)
        let a = generate::random_uniform(40, 28, 9);
        let seq = crate::sequential::sequential_svd(&a, 60).unwrap();
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            for procs in [1usize, 2, 4, 8] {
                let run = blocked_svd(&a, &opts_with(procs, kernel)).unwrap();
                assert!(
                    checks::spectrum_distance(&run.svd.sigma, &seq.svd.sigma) < 1e-9,
                    "P = {procs} kernel = {kernel}"
                );
                assert!(run.svd.residual(&a) < 1e-10, "P = {procs} kernel = {kernel}");
                assert!(run.svd.orthogonality() < 1e-10, "P = {procs} kernel = {kernel}");
            }
        }
    }

    #[test]
    fn hierarchical_meetings_match_flat_gram() {
        // force the cache-level split with a tiny threshold: c = 8 gives
        // 16-column unions, split into sub-blocks of 4
        let a = generate::random_uniform(48, 32, 16);
        let flat = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Off);
            blocked_svd(&a, &o).unwrap()
        };
        let hier = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Cols(8));
            blocked_svd(&a, &o).unwrap()
        };
        assert!(
            checks::spectrum_distance(&flat.svd.sigma, &hier.svd.sigma) < 1e-9,
            "spectra diverge: {:?} vs {:?}",
            flat.svd.sigma,
            hier.svd.sigma
        );
        assert!(hier.svd.residual(&a) < 1e-10);
        assert!(hier.svd.orthogonality() < 1e-10);
        assert!(checks::is_nonincreasing(&hier.svd.sigma), "meetings must still sort the union");
        assert_eq!(flat.svd.rank, hier.svd.rank);
    }

    #[test]
    fn hierarchical_stays_zero_alloc_and_converges_on_hard_cases() {
        // forced splits + the pool path, on a rank-deficient matrix and on
        // ragged sub-blocks: c = 10 split by 8 gives widths 4, 4, 2, so
        // the sub-meeting width (and the padded G) shrinks and regrows
        // within every sweep
        let cases = [
            (generate::rank_deficient(64, 24, 11, 17), 6, 11),
            (generate::random_uniform(64, 40, 20), 8, 40),
        ];
        for (a, cols, rank) in cases {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Cols(cols));
            o.svd.serial_cutoff = 0;
            let run = blocked_svd(&a, &o).unwrap();
            assert_eq!(run.svd.rank, rank);
            assert!(run.sweeps > 1, "need a steady-state sweep to measure");
            assert_eq!(run.steady_alloc_events, 0, "hier cols = {cols}");
            assert!(run.svd.orthogonality() < 1e-10);
        }
    }

    #[test]
    fn auto_hier_is_inert_on_small_problems() {
        // Auto only engages when a union panel outgrows L2/4; at m = 40
        // the threshold is hundreds of columns, so Auto ≡ Off here and
        // results are bitwise identical
        let a = generate::random_uniform(40, 32, 18);
        let auto = blocked_svd(&a, &opts_with(2, BlockKernel::Gram)).unwrap();
        let off = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Off);
            blocked_svd(&a, &o).unwrap()
        };
        assert_eq!(auto.svd.sigma, off.svd.sigma);
        assert_eq!(auto.svd.u, off.svd.u);
        assert_eq!(auto.svd.v, off.svd.v);
        assert_eq!(auto.sweeps, off.sweeps);
    }

    /// The full-storage in-cache pass the lower-triangle [`sweep_lower`]
    /// replaced, kept as its bitwise oracle: `G` (`k×k`, both triangles,
    /// bitwise symmetric) is updated two-sided, the row updates copied
    /// from the freshly rotated columns.
    fn sweep_full_reference(
        g: &mut [f64],
        w: &mut [f64],
        k: usize,
        threshold: f64,
        sort: bool,
    ) -> (usize, usize) {
        let mut rotations = 0usize;
        let mut swaps = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                let alpha = g[i + k * i];
                let beta = g[j + k * j];
                let gamma = g[i + k * j];
                let rot = compute_rotation(alpha, beta, gamma, threshold);
                let (alpha_pred, beta_pred) = if rot.skipped {
                    (alpha, beta)
                } else {
                    let (rc, rs) = (rot.c, rot.s);
                    (
                        rc * rc * alpha - 2.0 * rc * rs * gamma + rs * rs * beta,
                        rs * rs * alpha + 2.0 * rc * rs * gamma + rc * rc * beta,
                    )
                };
                let want_swap = sort && beta_pred > alpha_pred;
                if rot.skipped && !want_swap {
                    continue;
                }
                let (gi, gj) = two_cols(g, k, i, j);
                if want_swap {
                    apply_rotation_swapped(rot, &mut gi[i..], &mut gj[i..]);
                } else {
                    apply_rotation(rot, &mut gi[i..], &mut gj[i..]);
                }
                for l in (i + 1)..k {
                    if l != j {
                        g[i + k * l] = g[l + k * i];
                        g[j + k * l] = g[l + k * j];
                    }
                }
                let (rc, rs) = (rot.c, rot.s);
                for l in [i, j] {
                    let x = g[i + k * l];
                    let y = g[j + k * l];
                    if want_swap {
                        g[i + k * l] = rs * x + rc * y;
                        g[j + k * l] = rc * x - rs * y;
                    } else {
                        g[i + k * l] = rc * x - rs * y;
                        g[j + k * l] = rs * x + rc * y;
                    }
                }
                g[j + k * i] = g[i + k * j];
                let (wi, wj) = two_cols(w, k, i, j);
                if want_swap {
                    apply_rotation_swapped(rot, wi, wj);
                } else {
                    apply_rotation(rot, wi, wj);
                }
                if !rot.skipped {
                    rotations += 1;
                }
                if want_swap {
                    swaps += 1;
                }
            }
        }
        (rotations, swaps)
    }

    /// An `m×k` column-major test panel of one of four kinds: random,
    /// random with zero (padding) columns, rank-deficient (repeated
    /// columns), or random with strictly ascending column norms.
    fn oracle_panel(m: usize, k: usize, kind: usize, seed: u64) -> Vec<f64> {
        let mut p = generate::random_uniform(m, k, seed).as_slice().to_vec();
        match kind {
            1 => {
                // the tail, as a padded last block, plus one interior column
                for l in (k - k / 4..k).chain([k / 2]) {
                    p[l * m..(l + 1) * m].fill(0.0);
                }
            }
            2 => {
                let r = k.div_ceil(3);
                for l in r..k {
                    let src = l % r;
                    for t in 0..m {
                        p[l * m + t] = 2.0 * p[src * m + t];
                    }
                }
            }
            3 => {
                for (l, col) in p.chunks_exact_mut(m).enumerate() {
                    col.iter_mut().for_each(|v| *v *= (1 + l) as f64);
                }
            }
            _ => {}
        }
        p
    }

    #[test]
    fn lower_sweep_is_bitwise_the_full_storage_pass() {
        // every k to 40, then the power-of-two neighbourhoods and 260; the
        // large sizes rotate through the panel kinds and settings
        let ks: Vec<usize> =
            (1..=40).chain([63, 64, 65, 127, 128, 129, 255, 256, 257, 260]).collect();
        let mut case = 0usize;
        for &k in &ks {
            let settings: Vec<(usize, bool, f64)> = if k <= 40 {
                let mut v = Vec::new();
                for kind in 0..4 {
                    for sort in [true, false] {
                        for threshold in [k as f64 * f64::EPSILON, 1e-3] {
                            v.push((kind, sort, threshold));
                        }
                    }
                }
                v
            } else {
                (0..2)
                    .map(|t| {
                        let c = case + t;
                        (c % 4, c % 3 != 2, if c % 5 == 4 { 1e-3 } else { k as f64 * f64::EPSILON })
                    })
                    .collect()
            };
            for (kind, sort, threshold) in settings {
                case += 1;
                let m = k + 3;
                let panel = oracle_panel(m, k, kind, case as u64);
                let (x, y) = panel.split_at(m * (k / 2));
                let mut g_full = vec![0.0; k * k];
                ops::gram_block(x, y, m, &mut g_full);
                let ld = k + 1;
                let mut g_low = vec![f64::NAN; ld * k];
                ops::gram_block_lower(x, y, m, &mut g_low, ld);
                let identity = |d: usize| {
                    let mut w = vec![0.0; d * d];
                    (0..d).for_each(|l| w[l + d * l] = 1.0);
                    w
                };
                let (mut w_full, mut w_low) = (identity(k), identity(k));
                let want = sweep_full_reference(&mut g_full, &mut w_full, k, threshold, sort);
                let got = sweep_lower(&mut g_low, ld, &mut w_low, k, threshold, sort);
                let tag = format!("k={k} kind={kind} sort={sort} threshold={threshold:e}");
                assert_eq!(got, want, "(rotations, swaps) at {tag}");
                for (l, (a, b)) in w_low.iter().zip(&w_full).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "W[{l}] at {tag}");
                }
                for d in 0..k {
                    let (a, b) = (g_low[d + ld * d], g_full[d + k * d]);
                    assert_eq!(a.to_bits(), b.to_bits(), "G[{d},{d}] at {tag}");
                }
                if kind == 3 && sort && k > 1 {
                    assert!(want.1 > 0, "ascending norms must force interchanges at {tag}");
                }
            }
        }
    }

    #[test]
    fn unconverged_run_reports_the_final_coupling() {
        // one sweep is never enough for a coupled random matrix; the error
        // carries the real coupling of the final columns, not a NaN
        let a = generate::random_uniform(40, 32, 19);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let mut o = opts_with(2, kernel);
            o.svd.max_sweeps = 1;
            match blocked_svd(&a, &o) {
                Err(SvdError::NoConvergence { sweeps, last_coupling }) => {
                    assert_eq!(sweeps, 1);
                    assert!(last_coupling.is_finite(), "coupling is {last_coupling}");
                    assert!(last_coupling > 0.0, "kernel = {kernel}");
                    assert!(last_coupling <= 1.0, "kernel = {kernel}");
                }
                other => panic!("expected NoConvergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn thread_cap_of_one_matches_default() {
        let a = generate::random_uniform(40, 32, 15);
        let base = blocked_svd(&a, &opts_with(4, BlockKernel::Gram)).unwrap();
        let mut opts = opts_with(4, BlockKernel::Gram);
        opts.svd.threads = Some(1);
        let capped = blocked_svd(&a, &opts).unwrap();
        // meetings are data-disjoint, so lane count cannot change results
        assert_eq!(base.svd.sigma, capped.svd.sigma);
        assert_eq!(base.sweeps, capped.sweeps);
    }
}
