//! Inputs with known singular values, built cheaply.
//!
//! `treesvd_matrix::generate::with_singular_values` forms an `m×m`
//! orthogonal factor, which is `O(m³)` and does not finish in minutes at
//! `m = 16384`. Here `A = H₁⋯H_k·[diag(σ)·Vᵀ; 0]` instead: `k` Householder
//! reflectors applied in place to an `m×n` matrix, `O(k·m·n)` flops with
//! `O(m)` scratch. Reflector `j` maps `e_j` to a random unit vector, so
//! every row of `A` carries weight; the singular values of `A` are those
//! of `diag(σ)·Vᵀ`, i.e. `σ`, up to rounding of about `k·ε·σ_max`.

use treesvd_matrix::rng::Rng;
use treesvd_matrix::Matrix;

/// Apply `H = I − 2uuᵀ/(uᵀu)` from the left to every column of `a`.
fn reflect(a: &mut Matrix, u: &[f64]) {
    let uu: f64 = u.iter().map(|x| x * x).sum();
    if uu == 0.0 {
        return;
    }
    for j in 0..a.cols() {
        let col = a.col_mut(j);
        let proj: f64 = u.iter().zip(col.iter()).map(|(x, y)| x * y).sum();
        let coeff = 2.0 * proj / uu;
        for (c, x) in col.iter_mut().zip(u) {
            *c -= coeff * x;
        }
    }
}

/// `u = e_j − w` for a random unit vector `w` of length `len`: the
/// reflector that swaps `e_j` and `w`.
fn swap_reflector(rng: &mut Rng, len: usize, j: usize, u: &mut [f64]) {
    for x in u.iter_mut() {
        *x = rng.uniform(-1.0, 1.0);
    }
    let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in u.iter_mut() {
        *x = -*x / norm;
    }
    u[j % len] += 1.0;
}

/// A random `n×n` orthogonal matrix: `n` swap reflectors applied to `I`.
fn orthogonal(n: usize, rng: &mut Rng) -> Matrix {
    let mut q = Matrix::identity(n, n).expect("n > 0");
    let mut u = vec![0.0; n];
    for j in 0..n {
        swap_reflector(rng, n, j, &mut u);
        reflect(&mut q, &u);
    }
    q
}

/// A random `n×n` orthogonal matrix from `seed`.
pub fn orthogonal_matrix(n: usize, seed: u64) -> Matrix {
    orthogonal(n, &mut Rng::seed_from_u64(seed))
}

/// An `m×n` matrix (`m ≥ n = sigma.len()`) with singular values `sigma`,
/// mixed by `reflectors` swap reflectors.
///
/// # Panics
/// Panics if `sigma` is empty or longer than `m`.
pub fn known_spectrum(m: usize, sigma: &[f64], reflectors: usize, seed: u64) -> Matrix {
    let n = sigma.len();
    assert!(n > 0 && m >= n, "need m >= n > 0");
    let mut rng = Rng::seed_from_u64(seed);
    let v = orthogonal(n, &mut rng);
    let mut a = Matrix::zeros(m, n).expect("m, n > 0");
    // top block B = diag(σ)·Vᵀ: column j holds σ_i·V[j][i] in row i
    for j in 0..n {
        let col = a.col_mut(j);
        for (i, s) in sigma.iter().enumerate() {
            col[i] = s * v.get(j, i);
        }
    }
    let mut u = vec![0.0; m];
    for j in 0..reflectors {
        swap_reflector(&mut rng, m, j % n, &mut u);
        reflect(&mut a, &u);
    }
    a
}

/// `n` values spaced geometrically from `top` down over `decades`
/// decades (descending, so already in the order the solvers return).
pub fn geometric(n: usize, top: f64, decades: f64) -> Vec<f64> {
    (0..n)
        .map(|i| if n == 1 { top } else { top * 10f64.powf(-decades * i as f64 / (n - 1) as f64) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_core::sequential::sequential_svd;

    #[test]
    fn prescribed_spectrum_is_recovered_to_n_eps() {
        for (m, n, k) in [(300, 12, 12), (64, 64, 64), (2000, 8, 8)] {
            let sigma = geometric(n, 3.0, 6.0);
            let a = known_spectrum(m, &sigma, k, 7 + m as u64);
            let run = sequential_svd(&a, 60).expect("converges");
            let unit = n as f64 * f64::EPSILON * sigma[0];
            let err = run
                .svd
                .sigma
                .iter()
                .zip(&sigma)
                .map(|(got, want)| (got - want).abs())
                .fold(0.0, f64::max);
            assert!(err <= 4.0 * unit, "{m}x{n}: error {err:e} is {} n·ε·σ_max", err / unit);
        }
    }

    #[test]
    fn mixing_reaches_rows_below_the_top_block() {
        let a = known_spectrum(4096, &geometric(16, 1.0, 2.0), 16, 3);
        let tail: f64 = (0..16).map(|j| a.col(j)[16..].iter().map(|x| x * x).sum::<f64>()).sum();
        let total: f64 = (0..16).map(|j| a.col(j).iter().map(|x| x * x).sum::<f64>()).sum();
        assert!(tail > 0.5 * total, "tail carries {:.3} of the mass", tail / total);
    }

    #[test]
    fn same_seed_same_matrix() {
        let s = geometric(10, 1.0, 3.0);
        assert_eq!(known_spectrum(50, &s, 10, 9), known_spectrum(50, &s, 10, 9));
        assert_ne!(known_spectrum(50, &s, 10, 9), known_spectrum(50, &s, 10, 10));
    }
}
