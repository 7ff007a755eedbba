//! The correctness gate run on every solve, outside the timed interval.
//!
//! It uses no library kernel, so a broken kernel cannot hide its own
//! error. Every measure is scaled by `n·ε` (`σ` also by `σ_max`), so one
//! set of limits serves every shape:
//!
//! * `sigma_err`: `max_i |σ̂_i − σ_i| / (n·ε·σ_max)`, against the known
//!   spectrum in descending order (an unsorted answer fails);
//! * `residual`: `‖A·V − U·Σ‖_F / (‖A‖_F·n·ε)`;
//! * `orthogonality`: `max(‖UᵀU − I‖_max, ‖VᵀV − I‖_max) / (n·ε)`.
//!
//! The limits hold the normwise accuracy any backward-stable SVD owes;
//! relative accuracy on graded inputs is a separate, stricter suite.

use treesvd_matrix::Matrix;

/// Largest accepted `sigma_err`.
pub const SIGMA_LIMIT: f64 = 8.0;
/// Largest accepted `residual`.
pub const RESIDUAL_LIMIT: f64 = 8.0;
/// Largest accepted `orthogonality`.
pub const ORTHOGONALITY_LIMIT: f64 = 8.0;

/// The three scaled errors of one decomposition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Errors {
    /// Spectrum error in units of `n·ε·σ_max`.
    pub sigma_err: f64,
    /// Reconstruction residual in units of `n·ε`.
    pub residual: f64,
    /// Loss of orthogonality of `U` and `V` in units of `n·ε`.
    pub orthogonality: f64,
}

impl Errors {
    /// Whether every measure is finite and within its limit.
    pub fn pass(&self) -> bool {
        self.sigma_err <= SIGMA_LIMIT
            && self.residual <= RESIDUAL_LIMIT
            && self.orthogonality <= ORTHOGONALITY_LIMIT
    }

    /// Componentwise maximum (a NaN is never masked).
    pub fn max(self, o: Errors) -> Errors {
        Errors {
            sigma_err: nan_max(self.sigma_err, o.sigma_err),
            residual: nan_max(self.residual, o.residual),
            orthogonality: nan_max(self.orthogonality, o.orthogonality),
        }
    }
}

/// `max` that returns NaN if either side is NaN (`f64::max` drops it).
fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (a, b) in xc.zip(yc) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    let tail: f64 = xr.iter().zip(yr).map(|(a, b)| a * b).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `max_{i,j} |QᵀQ − I|_{ij}` over the columns of `q`.
fn orthogonality(q: &Matrix) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..q.cols() {
        for i in 0..=j {
            let d = dot(q.col(i), q.col(j)) - if i == j { 1.0 } else { 0.0 };
            worst = nan_max(worst, d.abs());
        }
    }
    worst
}

/// Check `a = u·diag(sigma)·vᵀ` against the known spectrum `expect`
/// (descending). Shapes that do not fit give infinite errors.
pub fn check(a: &Matrix, expect: &[f64], u: &Matrix, sigma: &[f64], v: &Matrix) -> Errors {
    let (m, n) = a.shape();
    if sigma.len() != n || expect.len() != n || u.shape() != (m, n) || v.shape() != (n, n) {
        return Errors { sigma_err: f64::INFINITY, ..Errors::default() };
    }
    let unit = n as f64 * f64::EPSILON;
    let smax = expect.iter().fold(0.0f64, |acc, &s| acc.max(s));
    let sigma_err =
        sigma.iter().zip(expect).fold(0.0, |acc, (got, want)| nan_max(acc, (got - want).abs()));
    let mut r = vec![0.0; m];
    let (mut res2, mut a2) = (0.0, 0.0);
    for (j, s) in sigma.iter().enumerate() {
        // r = A·v_j − σ_j·u_j
        for (ri, ui) in r.iter_mut().zip(u.col(j)) {
            *ri = -s * ui;
        }
        for k in 0..n {
            let vk = v.get(k, j);
            for (ri, ai) in r.iter_mut().zip(a.col(k)) {
                *ri += vk * ai;
            }
        }
        res2 += dot(&r, &r);
        a2 += dot(a.col(j), a.col(j));
    }
    Errors {
        sigma_err: sigma_err / (unit * smax),
        residual: (res2 / a2).sqrt() / unit,
        orthogonality: nan_max(orthogonality(u), orthogonality(v)) / unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use treesvd_core::sequential::sequential_svd;

    fn solved() -> (Matrix, Vec<f64>, treesvd_core::Svd) {
        let sigma = gen::geometric(10, 2.0, 4.0);
        let a = gen::known_spectrum(120, &sigma, 10, 5);
        let run = sequential_svd(&a, 60).expect("converges");
        (a, sigma, run.svd)
    }

    #[test]
    fn accepts_a_correct_decomposition() {
        let (a, sigma, svd) = solved();
        let e = check(&a, &sigma, &svd.u, &svd.sigma, &svd.v);
        assert!(e.pass(), "{e:?}");
    }

    #[test]
    fn rejects_a_perturbed_sigma() {
        let (a, sigma, svd) = solved();
        let mut bad = svd.sigma.clone();
        bad[3] *= 1.0 + 1e-9;
        let e = check(&a, &sigma, &svd.u, &bad, &svd.v);
        assert!(e.sigma_err > SIGMA_LIMIT && !e.pass(), "{e:?}");
        let mut unsorted = svd.sigma.clone();
        unsorted.swap(0, 1);
        assert!(!check(&a, &sigma, &svd.u, &unsorted, &svd.v).pass());
        let mut nan = svd.sigma;
        nan[0] = f64::NAN;
        assert!(!check(&a, &sigma, &svd.u, &nan, &svd.v).pass());
    }

    #[test]
    fn rejects_a_non_orthogonal_u() {
        let (a, sigma, svd) = solved();
        let mut u = svd.u.clone();
        let c1 = u.col(1).to_vec();
        for (x, y) in u.col_mut(0).iter_mut().zip(&c1) {
            *x += 1e-9 * y;
        }
        let e = check(&a, &sigma, &u, &svd.sigma, &svd.v);
        assert!(e.orthogonality > ORTHOGONALITY_LIMIT && !e.pass(), "{e:?}");
    }

    #[test]
    fn rejects_a_wrong_shape() {
        let (a, sigma, svd) = solved();
        assert!(!check(&a, &sigma, &svd.u, &svd.sigma[1..], &svd.v).pass());
    }
}
