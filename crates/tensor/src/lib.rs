//! Dense `f32` matrix kernels for the NeutronOrch reproduction.
//!
//! The GNN training engine (`neutron-nn`) is built entirely on this crate;
//! no external tensor library is used. The design favours predictable,
//! allocation-conscious kernels over generality: everything is a row-major
//! 2-D `f32` [`Matrix`], which is exactly the shape of vertex feature /
//! embedding batches in sample-based GNN training.
//!
//! Modules:
//! - [`matrix`] — the `Matrix` type and constructors,
//! - [`ops`] — matmul variants and element-wise arithmetic,
//! - [`kernels`] — chunked, autovectorization-friendly slice kernels and
//!   their retained scalar references (profile-guided; see module docs),
//! - [`timing`] — per-kernel wall-time hooks behind an atomic gate,
//!   surfaced by `xtask profile --timing`,
//! - [`alloc`] — per-stage heap-allocation counters and the optional
//!   counting global allocator (`count-allocs` feature), surfaced by
//!   `xtask profile --timing --allocs` and the engine bench,
//! - [`activation`] — ReLU / LeakyReLU / ELU / sigmoid / tanh with gradients,
//! - [`softmax`] — row softmax and softmax-cross-entropy with gradients,
//! - [`init`] — seeded Xavier / Kaiming initializers,
//! - [`reduce`] — row/column reductions and argmax,
//! - [`parallel`] — scoped-thread row partitioning used by the matmul kernels.

pub mod activation;
pub mod alloc;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod reduce;
pub mod softmax;
pub mod timing;

pub use activation::Activation;
pub use matrix::Matrix;

/// Numeric tolerance used across the workspace when comparing kernel outputs
/// against naive reference implementations.
pub const TEST_EPS: f32 = 1e-4;
