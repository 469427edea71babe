//! GNN training engine: GCN, GraphSAGE and GAT over sampled blocks, with
//! hand-derived backward passes.
//!
//! The paper evaluates three models (§5.1): GCN \[21\], GraphSAGE \[12\] and GAT
//! \[37\]. Each is implemented as a [`layers::Layer`] operating on a
//! [`neutron_sample::Block`]; a [`model::GnnModel`] stacks them. Forward
//! passes return a [`model::ForwardPass`] holding every intermediate needed
//! for the manual backward pass — which is also what lets the NeutronOrch
//! trainer splice historical embeddings into the bottom layer and cut
//! gradient flow through them (§4.1.2).
//!
//! All gradients are validated against central finite differences in
//! [`gradcheck`]-based tests.

pub mod allreduce;
pub mod flops;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod param;

pub use allreduce::{tree_average, GradSet};
pub use layers::{Layer, LayerCtx, LayerKind};
pub use model::{ForwardPass, GnnModel, ModelConfig};
pub use param::Param;
