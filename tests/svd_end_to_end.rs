//! End-to-end SVD integration tests: every ordering × every matrix class,
//! cross-checked against the sequential reference and the constructions'
//! known spectra.

use treesvd_core::{
    auto_svd, blocked_svd, sequential::sequential_svd, BlockKernel, BlockedOptions, HestenesSvd,
    OrderingKind, SortMode, SvdError, SvdOptions, TopologyKind,
};
use treesvd_matrix::{checks, generate, Matrix};
use treesvd_orderings::OrderingError;

fn assert_valid_svd(a: &Matrix, svd: &treesvd_core::Svd, tol: f64, ctx: &str) {
    let res = svd.residual(a);
    let orth = svd.orthogonality();
    assert!(res < tol, "{ctx}: residual {res}");
    assert!(orth < tol, "{ctx}: orthogonality {orth}");
    assert!(checks::is_nonincreasing(&svd.sigma), "{ctx}: sigma unsorted {:?}", svd.sigma);
}

#[test]
fn all_orderings_all_classes() {
    let classes: Vec<(&str, Matrix)> = vec![
        ("random", generate::random_uniform(24, 16, 1)),
        ("graded", generate::graded(24, 16, 1e-6, 2)),
        ("rank-deficient", generate::rank_deficient(24, 16, 9, 3)),
        ("hilbert", generate::hilbert(20, 16)),
        ("orthogonal", generate::already_orthogonal(24, 16, 4)),
    ];
    for kind in OrderingKind::ALL {
        for (name, a) in &classes {
            let run = HestenesSvd::with_ordering(kind)
                .compute(a)
                .unwrap_or_else(|e| panic!("{kind}/{name}: {e}"));
            assert_valid_svd(a, &run.svd, 1e-9, &format!("{kind}/{name}"));
        }
    }
}

#[test]
fn parallel_matches_sequential_spectra() {
    for seed in [10u64, 11, 12] {
        let a = generate::random_uniform(30, 20, seed);
        let seq = sequential_svd(&a, 60).expect("sequential converges");
        for kind in OrderingKind::ALL {
            let par = HestenesSvd::with_ordering(kind).compute(&a).expect("parallel converges");
            let d = checks::spectrum_distance(&par.svd.sigma, &seq.svd.sigma);
            assert!(d < 1e-9, "{kind} seed {seed}: spectrum distance {d}");
        }
    }
}

#[test]
fn every_topology_gives_identical_numerics() {
    // the topology changes simulated time, never the arithmetic
    let a = generate::random_uniform(20, 16, 20);
    let base = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    for topo in [TopologyKind::BinaryTree, TopologyKind::Cm5, TopologyKind::SkinnyAbove(2)] {
        let run = HestenesSvd::new(SvdOptions::default().with_topology(topo)).compute(&a).unwrap();
        assert_eq!(run.sweeps, base.sweeps, "{topo}");
        for (x, y) in run.svd.sigma.iter().zip(base.svd.sigma.iter()) {
            assert_eq!(x, y, "{topo}: sigma must be bitwise identical");
        }
    }
}

#[test]
fn shapes_square_tall_wide_tiny() {
    let shapes = [(16usize, 16usize), (40, 8), (8, 40), (5, 4), (4, 5), (4, 4), (64, 3)];
    for (m, n) in shapes {
        let k = m.min(n);
        let sigma: Vec<f64> = (1..=k).rev().map(|x| x as f64).collect();
        let a = if m >= n {
            generate::with_singular_values(m, &sigma, (m * 31 + n) as u64)
        } else {
            generate::with_singular_values(n, &sigma, (m * 31 + n) as u64).transpose()
        };
        let run = HestenesSvd::new(SvdOptions::default())
            .compute(&a)
            .unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
        assert_eq!(run.svd.sigma.len(), k, "{m}x{n}");
        assert!(
            checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9,
            "{m}x{n}: {:?}",
            run.svd.sigma
        );
    }
}

#[test]
fn single_column_and_single_row() {
    let a = Matrix::from_col_major(5, 1, vec![3.0, 0.0, 4.0, 0.0, 0.0]).unwrap();
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert!((run.svd.sigma[0] - 5.0).abs() < 1e-12);
    let at = a.transpose();
    let run = HestenesSvd::new(SvdOptions::default()).compute(&at).unwrap();
    assert!((run.svd.sigma[0] - 5.0).abs() < 1e-12);
}

#[test]
fn scaled_matrices_extreme_magnitudes() {
    for scale in [1e-150_f64, 1e-30, 1e30, 1e150] {
        let mut a = generate::with_singular_values(10, &[4.0, 2.0, 1.0], 33);
        a.scale(scale);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let expect = [4.0 * scale, 2.0 * scale, scale];
        for (c, e) in run.svd.sigma.iter().zip(expect.iter()) {
            assert!((c - e).abs() < 1e-10 * e, "scale {scale}: {c} vs {e}");
        }
    }
}

#[test]
fn duplicate_singular_values() {
    let sigma = [3.0, 3.0, 3.0, 1.0, 1.0];
    let a = generate::with_singular_values(10, &sigma, 44);
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-10);
    assert_valid_svd(&a, &run.svd, 1e-10, "duplicates");
}

#[test]
fn unsorted_mode_spectra_match_sorted_multiset() {
    let a = generate::random_uniform(18, 12, 55);
    let sorted = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    let unsorted =
        HestenesSvd::new(SvdOptions::default().with_sort(SortMode::None)).compute(&a).unwrap();
    let mut s = unsorted.svd.sigma.clone();
    s.sort_by(|x, y| y.partial_cmp(x).unwrap());
    assert!(checks::spectrum_distance(&s, &sorted.svd.sigma) < 1e-10);
    // unsorted mode must still produce a correct factorization
    assert!(unsorted.svd.residual(&a) < 1e-10);
    assert!(unsorted.svd.orthogonality() < 1e-10);
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = generate::random_uniform(20, 12, 66);
    let r1 = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    let r2 = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert_eq!(r1.sweeps, r2.sweeps);
    assert_eq!(r1.svd.sigma, r2.svd.sigma);
}

#[test]
fn truncated_svd_is_best_low_rank() {
    let sigma = [10.0, 5.0, 1.0, 0.1];
    let a = generate::with_singular_values(12, &sigma, 77);
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    for k in 1..=4usize {
        let ak = run.svd.truncate(k).unwrap();
        let err = a.sub(&ak).unwrap().frobenius_norm();
        let expect: f64 = sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - expect).abs() < 1e-9, "k = {k}: {err} vs {expect}");
    }
}

/// A single-column (or single-row) input with distinct, nonzero entries.
fn vector_matrix(m: usize, n: usize) -> Matrix {
    Matrix::from_fn(m, n, |i, j| 1.0 + 0.25 * (i + 3 * j) as f64).unwrap()
}

fn assert_sigma_matches_sequential(a: &Matrix, sigma: &[f64], ctx: &str) {
    let oracle = sequential_svd(a, 60).unwrap_or_else(|e| panic!("{ctx}: oracle: {e}"));
    assert_eq!(sigma.len(), oracle.svd.sigma.len(), "{ctx}");
    for (s, o) in sigma.iter().zip(&oracle.svd.sigma) {
        assert!((s - o).abs() <= 1e-13 * o.abs().max(1.0), "{ctx}: sigma {s} vs oracle {o}");
    }
}

#[test]
fn auto_svd_handles_single_column_and_single_row_inputs() {
    for (m, n) in [(1, 1), (2, 1), (100, 1), (1, 100)] {
        let a = vector_matrix(m, n);
        let run = auto_svd(&a).unwrap_or_else(|e| panic!("auto {m}x{n}: {e}"));
        assert_sigma_matches_sequential(&a, &run.svd.sigma, &format!("auto {m}x{n}"));
        assert_valid_svd(&a, &run.svd, 1e-12, &format!("auto {m}x{n}"));
    }
}

/// Half the σ at 1, half at 1e-3: near-equal norms side by side, where
/// re-measuring the converged columns can invert σ by an ulp.
fn two_cluster_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    let sigma: Vec<f64> = (0..n).map(|j| if j < n / 2 { 1.0 } else { 1e-3 }).collect();
    generate::with_singular_values(m, &sigma, seed)
}

/// Every driver, the blocked one at each machine size and kernel: on a
/// single column under every ordering, and on two-cluster spectra under
/// the default ordering, σ matches the oracle and is non-increasing, and
/// the rank is the oracle's. (On these exact σ ties the simulated and
/// distributed drivers under the ring-family and round-robin orderings
/// do not meet the termination criterion within 60 sweeps, although the
/// coupling is down to ~4e-15.)
#[test]
fn every_ordering_and_driver_handles_single_columns_and_clustered_spectra() {
    let mut cases = vec![(vector_matrix(1, 1), &OrderingKind::ALL[..])];
    cases.push((vector_matrix(100, 1), &OrderingKind::ALL[..]));
    for seed in 0..4 {
        cases.push((two_cluster_matrix(40, 16, seed), &[OrderingKind::FatTree][..]));
        cases.push((two_cluster_matrix(33, 20, 100 + seed), &[OrderingKind::FatTree][..]));
    }
    for (a, kinds) in &cases {
        let rank = sequential_svd(a, 60).unwrap().svd.rank;
        for &kind in *kinds {
            let opts = || SvdOptions::default().with_ordering(kind);
            let mut runs = vec![
                ("simulated".to_string(), HestenesSvd::new(opts()).compute(a).map(|r| r.svd)),
                (
                    "distributed".to_string(),
                    HestenesSvd::new(opts()).compute_distributed(a).map(|r| r.svd),
                ),
            ];
            for processors in [1, 2, 4] {
                for kernel in [BlockKernel::Gram, BlockKernel::Pairwise] {
                    let svd = opts().with_block_kernel(kernel);
                    let run = blocked_svd(a, &BlockedOptions { processors, svd });
                    runs.push((format!("blocked P={processors} {kernel}"), run.map(|r| r.svd)));
                }
            }
            for (driver, run) in runs {
                let ctx = format!("{kind} {driver} {}x{}", a.rows(), a.cols());
                match run {
                    Ok(svd) => {
                        assert_sigma_matches_sequential(a, &svd.sigma, &ctx);
                        assert_valid_svd(a, &svd, 1e-12, &ctx);
                        assert_eq!(svd.rank, rank, "{ctx}: rank");
                    }
                    // the hybrid ordering has no legal group shape for 4
                    // (padded) columns: a typed rejection, not a failure
                    Err(SvdError::Ordering(OrderingError::BadGroups { .. }))
                        if kind == OrderingKind::Hybrid => {}
                    Err(e) => panic!("{ctx}: {e}"),
                }
            }
        }
    }
}
