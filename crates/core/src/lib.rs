//! One-sided (Hestenes) Jacobi SVD on tree architectures — the public API
//! of the Zhou & Brent (ICPP 1993) reproduction.
//!
//! # Quick start
//!
//! ```
//! use treesvd_core::{HestenesSvd, SvdOptions};
//! use treesvd_matrix::generate;
//!
//! // a 32 × 16 matrix with singular values 16, 15, …, 1
//! let sigma: Vec<f64> = (1..=16).rev().map(|k| k as f64).collect();
//! let a = generate::with_singular_values(32, &sigma, 42);
//!
//! let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
//! assert!(run.converged);
//! let svd = &run.svd;
//! // singular values emerge sorted (paper §3.2.1) and accurate
//! for (computed, expected) in svd.sigma.iter().zip(sigma.iter()) {
//!     assert!((computed - expected).abs() < 1e-8);
//! }
//! // and the factorization reconstructs A
//! assert!(treesvd_matrix::checks::reconstruction_residual(&a, &svd.u, &svd.sigma, &svd.v) < 1e-10);
//! ```
//!
//! # What runs underneath
//!
//! [`HestenesSvd::compute`] distributes the columns over a simulated
//! tree-connected multiprocessor (`treesvd-sim`), picks one of the paper's
//! parallel Jacobi orderings (`treesvd-orderings`), and sweeps until a full
//! sweep applies no rotation and no interchange (§1's termination rule with
//! the threshold strategy). Per-sweep rotations execute in parallel on real
//! host cores via a persistent worker pool; the machine model meanwhile accounts simulated
//! communication time on the configured topology, so the same run yields
//! both the numerical result and the performance data the experiments
//! report.
//!
//! [`sequential::sequential_svd`] is the plain cyclic-by-rows reference
//! used to cross-check every ordering.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod auto;
pub mod blocked;
pub mod driver;
pub mod options;
mod proptests;
pub mod result;
pub mod sequential;
mod shell;
pub mod tall;

pub use auto::{auto_svd, auto_svd_for, options_from_plan, AutoRun};
pub use blocked::{blocked_svd, BlockedOptions, BlockedRun};
pub use driver::{HestenesSvd, SvdRun};
pub use options::{BlockKernel, HierBlocking, OrderingChoice, SvdError, SvdOptions};
pub use result::{complete_orthonormal, Svd};

// convenient re-exports for downstream users
pub use treesvd_matrix::Matrix;
pub use treesvd_net::{CostModel, TopologyKind};
pub use treesvd_orderings::OrderingKind;
pub use treesvd_sim::SortMode;
pub use treesvd_sim::{
    DistError, FaultPlan, FaultPolicy, FaultSnapshot, HealthReport, StallEvent, StallKind,
};
pub use treesvd_tune::{DriverSel, KernelSel, TunePlan, TuneProblem};
