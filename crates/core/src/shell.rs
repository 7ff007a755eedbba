//! The solve shell around every dense driver's sweeps.
//!
//! The simulated, distributed and blocked drivers differ only in how a
//! sweep is executed. The job around the sweeps is written once here:
//!
//! 1. **Shape.** An empty input is an error; a wide input (`m < n`) is
//!    solved as `Aᵀ = VΣUᵀ` and the factors are swapped back.
//! 2. **QR front-end** ([`crate::tall`]). Past the aspect crossover,
//!    factor `A = QR`, sweep `R`, and back-transform `U ← Q·U_R`.
//! 3. **Extraction** ([`extract`]). Read `σ`, `U` and `V` off the
//!    converged columns.
//!
//! A driver supplies only its sweep core, which maps the `m ≥ n` working
//! matrix (`R` when the front-end engaged, so nothing recurses) to its
//! own statistics and its converged columns, handed over by label
//! through [`Converged`] without a copy. `sequential_svd` (the test
//! oracle) and the batch engine (SoA lanes) keep their own extraction.

use crate::options::{SvdError, SvdOptions};
use crate::result::{complete_orthonormal, Svd};
use crate::tall;
use treesvd_matrix::qr::QrStats;
use treesvd_matrix::{ops, Matrix};
use treesvd_sim::{ColumnStore, SortMode};

/// The converged state a sweep core leaves behind, read by label.
pub(crate) trait Converged {
    /// The padded column count `n_pad`.
    fn padded_n(&self) -> usize;
    /// The `(A, V)` column pair of padded label `j`. `V` columns have
    /// the padded length and are empty when vectors are off.
    fn column(&self, j: usize) -> (&[f64], &[f64]);
}

impl Converged for ColumnStore {
    fn padded_n(&self) -> usize {
        self.layout.len()
    }

    fn column(&self, j: usize) -> (&[f64], &[f64]) {
        let slot =
            self.layout.iter().position(|&label| label == j).expect("layout is a permutation");
        (&self.slots[slot].a, &self.slots[slot].v)
    }
}

/// What a sweep core returns: its own statistics and its converged
/// columns.
pub(crate) type Swept<S, C> = Result<(S, C), SvdError>;

/// A finished solve: the decomposition plus what the shell did around
/// the sweep core.
pub(crate) struct Solved<S> {
    /// The decomposition of the caller's input.
    pub svd: Svd,
    /// The sweep core's own statistics.
    pub stats: S,
    /// Whether the input was wide and solved through its transpose.
    pub transposed: bool,
    /// The padded column count the core swept.
    pub padded_n: usize,
    /// The QR factor's counters, when the front-end engaged.
    pub qr: Option<QrStats>,
}

/// Solve `a` with the sweep core `core` inside the shell: shape
/// handling, the QR front-end and extraction.
///
/// # Errors
/// [`SvdError::EmptyMatrix`] for an empty input, else whatever the core
/// returns.
pub(crate) fn solve<S, C: Converged>(
    a: &Matrix,
    opts: &SvdOptions,
    core: impl FnOnce(&Matrix) -> Swept<S, C>,
) -> Result<Solved<S>, SvdError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    // A = UΣVᵀ ⇔ Aᵀ = VΣUᵀ: a wide input is solved as its transpose
    let transposed = a.rows() < a.cols();
    let at = transposed.then(|| a.transpose());
    let a = at.as_ref().unwrap_or(a);
    let qr = tall::engages(opts, a.rows(), a.cols()).then(|| tall::factor(a, opts)).transpose()?;
    let work = qr.as_ref().map_or(a, |qr| qr.r());
    let (stats, converged) = core(work)?;
    let padded_n = converged.padded_n();
    let mut svd = extract(&converged, work.rows(), work.cols(), opts)?;
    if let Some(qr) = &qr {
        svd.u = tall::back_transform(qr, &svd.u, tall::lanes(opts));
    }
    if transposed {
        std::mem::swap(&mut svd.u, &mut svd.v);
    }
    Ok(Solved { svd, stats, transposed, padded_n, qr: qr.map(|qr| qr.stats()) })
}

/// Read `U`, `σ` and `V` of an `m × n` working matrix off its
/// `n_pad` converged columns, in label order.
///
/// `σ_j` is the norm of column `j` of the converged `H = A·V`. Norms at
/// or below `n_pad·ε·max‖a_j‖` count as zero: they lower the rank, and
/// their `U` (and, for padding, `V`) columns are completed to an
/// orthonormal basis.
fn extract(store: &impl Converged, m: usize, n: usize, opts: &SvdOptions) -> Result<Svd, SvdError> {
    let n_pad = store.padded_n();
    debug_assert!(n_pad >= n);
    // order[j] is the label whose columns land at output position j
    let mut order: Vec<usize> = (0..n_pad).collect();
    let mut norms: Vec<f64> = order.iter().map(|&j| ops::norm2(store.column(j).0)).collect();

    // The larger-norm-to-smaller-label rule orders columns by the norms
    // the sweep tracked; re-measuring the converged columns can land a
    // (near-)duplicate pair the other way round in the last few ulps.
    // Repair only those measurement-level ties — a larger inversion is
    // a real ordering bug and must stay visible to the sorted-σ tests.
    if opts.sort == SortMode::Descending {
        let tied = |lo: f64, hi: f64| hi - lo <= 4.0 * f64::EPSILON * hi;
        let mut swapped = true;
        while swapped {
            swapped = false;
            for j in 1..n_pad {
                if norms[j - 1] < norms[j] && tied(norms[j - 1], norms[j]) {
                    norms.swap(j - 1, j);
                    order.swap(j - 1, j);
                    swapped = true;
                }
            }
        }
    }
    let max_norm = norms.iter().fold(0.0_f64, |acc, &v| acc.max(v));
    let rank_tol = max_norm * n_pad as f64 * f64::EPSILON;

    // keep the first n (for descending sort the padding zeros are at the
    // tail; without sorting the padded columns never swap, so they also
    // sit at labels >= n)
    let mut u = Matrix::zeros(m, n).map_err(|_| SvdError::EmptyMatrix)?;
    let mut sigma = vec![0.0; n];
    let mut zero_u = Vec::new();
    for j in 0..n {
        if norms[j] > rank_tol {
            sigma[j] = norms[j];
            let col = u.col_mut(j);
            col.copy_from_slice(store.column(order[j]).0);
            ops::scal(1.0 / norms[j], col);
        } else {
            zero_u.push(j);
        }
    }
    let rank = n - zero_u.len();
    complete_orthonormal(&mut u, &zero_u);

    let v = if opts.vectors {
        let mut v = Matrix::zeros(n, n).map_err(|_| SvdError::EmptyMatrix)?;
        let mut zero_v = Vec::new();
        for j in 0..n {
            // rotations only ever mix V columns within the original
            // coordinates (padded columns never rotate), so a column
            // belonging to a nonzero singular value is supported on the
            // first n coordinates; a padded column that was swapped into
            // the leading block is a unit vector in a padded coordinate
            // and gets re-completed below.
            let head = &store.column(order[j]).1[..n];
            if sigma[j] > 0.0 || ops::norm2(head) > 0.5 {
                v.col_mut(j).copy_from_slice(head);
            } else {
                zero_v.push(j);
            }
        }
        complete_orthonormal(&mut v, &zero_v);
        v
    } else {
        Matrix::identity(n, n).map_err(|_| SvdError::EmptyMatrix)?
    };
    Ok(Svd { u, sigma, v, rank })
}
