//! # chef-linalg
//!
//! Dense linear-algebra substrate for the CHEF label-cleaning pipeline.
//!
//! The CHEF paper (Wu, Weimer, Davidson; VLDB 2021) needs four numerical
//! kernels that are deliberately implemented here from scratch rather than
//! pulled from an external BLAS:
//!
//! * plain dense vector/matrix arithmetic ([`vector`], [`matrix`]),
//! * a **conjugate-gradient** solver used to form `H⁻¹ v` products without
//!   materializing the Hessian (paper §4.1.1, [`cg`]),
//! * the **power method** used to pre-compute per-sample Hessian norms in
//!   the Increm-Infl initialization step (paper Appendix D, [`power`]),
//! * the **L-BFGS two-loop recursion** used by DeltaGrad to approximate
//!   Hessian-vector products from cached parameter/gradient differences
//!   (paper Algorithm 2, [`lbfgs`]),
//! * cache-blocked **batch kernels** (`A·Bᵀ` GEMM, bias-folded affine
//!   blocks, gathered matvecs) plus a reusable scratch [`Workspace`]
//!   backing the batched Infl scoring path ([`kernels`]).
//!
//! Everything operates on `f64` slices; the parameter dimension in CHEF is
//! small (a flattened logistic-regression weight matrix), so simple
//! cache-friendly loops beat anything fancier at this scale.

pub mod cg;
pub mod kernels;
pub mod lbfgs;
pub mod matrix;
pub mod power;
pub mod stats;
pub mod vector;

pub use cg::{conjugate_gradient, conjugate_gradient_from, CgConfig, CgOutcome, LinearOperator};
pub use kernels::Workspace;
pub use lbfgs::LbfgsBuffer;
pub use matrix::Matrix;
pub use power::{power_method, PowerConfig, PowerOutcome};
pub use stats::{mean, mean_std, RunningStats};
