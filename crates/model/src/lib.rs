//! # chef-model
//!
//! Model substrate for the CHEF label-cleaning pipeline.
//!
//! This crate provides the pieces of §3 of the paper that sit *below* the
//! contribution itself:
//!
//! * [`SoftLabel`] — probabilistic label vectors (the output of weak
//!   supervision) with the one-hot / `δ_y` helpers that Infl needs,
//! * [`Dataset`] — training data `Z = Z_d ∪ Z_p` holding features, labels,
//!   clean/uncleaned flags and ground truth for simulation,
//! * the [`Model`] trait — everything CHEF requires of a classifier:
//!   per-sample losses, gradients, Hessian-vector products, per-class
//!   gradients `−∇_w log p⁽ᶜ⁾` (paper Eq. 9) and Hessian norms, plus
//!   batched block entry points (`score_block`/`hvp_block`) that
//!   structured models back with GEMM kernels ([`KernelPath`] reports
//!   which implementation ran),
//! * [`LogisticRegression`] — the paper's μ-strongly-convex model class
//!   (softmax regression with L2), with exact closed forms throughout,
//! * [`Mlp`] — a small neural network with manual backprop used to
//!   reproduce the Appendix G.2 "CNN" experiments,
//! * [`WeightedObjective`] — the weighted objective of Eq. 1, gluing a
//!   model, a dataset, the uncleaned-sample weight γ and L2 strength λ
//!   into full-dataset losses/gradients/HVPs (exposed to the CG solver as
//!   a [`chef_linalg::LinearOperator`]),
//! * [`DatasetStore`] — the storage-agnostic access surface those pieces
//!   actually consume; [`Dataset`] is its in-memory impl and `chef-data`
//!   provides a memory-mapped sharded one (DESIGN.md §15).

#![warn(missing_docs)]

pub mod dataset;
pub mod label;
pub mod logreg;
pub mod mlp;
pub mod model;
pub mod objective;
pub mod store;

pub use dataset::Dataset;
pub use label::SoftLabel;
pub use logreg::LogisticRegression;
pub use mlp::Mlp;
pub use model::{KernelPath, Model};
pub use objective::{HessianOperator, WeightedObjective, PAR_GRAIN};
pub use store::{DatasetStore, LabelOverlay, OverlayView, StoreIoStats};
