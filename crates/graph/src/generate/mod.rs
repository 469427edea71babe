//! Synthetic graph generators.
//!
//! Each generator is deterministic given its seed. They are used by
//! [`crate::dataset::DatasetSpec`] to synthesise scaled replicas of the
//! paper's evaluation graphs:
//!
//! - [`rmat()`] — recursive-matrix generator; heavy-tailed degree skew matching
//!   social networks (Reddit, Orkut, LiveJournal) and web graphs,
//! - [`ba`] — Barabási–Albert preferential attachment; power-law citation
//!   structure (Papers100M),
//! - [`er`] — Erdős–Rényi baseline used in tests,
//! - [`community`] — planted-partition (SBM) graphs with ground-truth labels
//!   used by the convergence experiments (Fig 16), where accuracy must be
//!   *learnable*.

pub mod ba;
pub mod community;
pub mod er;
pub mod rmat;

pub use ba::barabasi_albert;
pub use community::{planted_partition, PlantedPartition};
pub use er::erdos_renyi;
pub use rmat::{rmat, RmatParams};
