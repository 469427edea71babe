//! Multi-replica data-parallel training over a partitioned graph: the
//! fused-worker front-end of the session driver ([`crate::session`]).
//!
//! [`ReplicatedEngine`] runs **R model replicas**, one per partition of
//! [`neutron_graph::partition::hash_partition`]. Each replica stages the
//! training vertices it owns on one fused sample→gather→transfer worker,
//! with its own buffer pool and a feature cache of its hottest *owned*
//! vertices. Each step trains one batch per replica at the same parameter
//! version, tree-averages the gradients ([`neutron_nn::tree_average`]) and
//! applies one optimizer step
//! ([`ConvergenceTrainer::train_steps_replicated`]); the super-batch refresh
//! runs on the session's refresh worker at every R.
//!
//! - **R=1 is bit-identical to the single-replica engine:** a 1-way
//!   partition owns every vertex in `dataset.train` order, replica 0's seed
//!   is the config seed, the locality-biased sampler degenerates to the
//!   unbiased one, and a one-replica step is the single-replica update.
//! - **Any R is deterministic** and equals a sequential
//!   `train_steps_replicated` replay of the same per-replica batches.
//!
//! Replicas also meter a simulated **interconnect** ([`InterconnectSpec`]),
//! distinct from the PCIe H2D path: remote feature rows pulled per batch
//! and ring all-reduce bytes per step are per-epoch series in the report.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use neutron_hetero::InterconnectSpec;

use crate::fault::{FailurePolicy, FaultPlan};
use crate::pipeline::PipelineConfig;
use crate::session::{self, Planner, SessionError, SessionReport, SessionSpec, Topology};
use crate::trainer::ConvergenceTrainer;

pub use crate::session::ReplicaEpochStats;

/// Configuration of a replicated session.
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Staging shape shared by every replica worker. Only `channel_depth`
    /// (per-replica staging depth) and `h2d_gibps` (simulated PCIe stall)
    /// are consulted: each replica runs one fused
    /// sample→gather→transfer worker, so the engine's separate
    /// sampler/gather thread counts do not apply.
    pub pipeline: PipelineConfig,
    /// Number of model replicas / graph partitions (R ≥ 1).
    pub replicas: usize,
    /// Prefer partition-local neighbors while sampling. The biased picker
    /// is bit-identical to the unbiased one when every neighbor is local,
    /// so this flag is inert at R=1; at R>1 it trades neighborhood
    /// diversity for fewer remote feature pulls. `false` is the
    /// locality-blind ablation.
    pub locality_aware: bool,
    /// Per-replica feature-cache budget in bytes (each replica snapshots
    /// its hottest *owned* vertices into its own cache).
    pub gpu_free_bytes: u64,
    /// Simulated replica-to-replica fabric used to price remote feature
    /// pulls and gradient all-reduces. Distinct from the PCIe H2D model.
    pub interconnect: InterconnectSpec,
    /// Write a checkpoint after every epoch whose number + 1 is a multiple
    /// of this (0 disables). Same absolute-epoch cadence as the
    /// single-replica engine, so restored sessions keep the schedule.
    pub checkpoint_every: usize,
    /// Checkpoint file location; required (together with a nonzero
    /// [`Self::checkpoint_every`]) for checkpoints to be written and for
    /// the [`FailurePolicy::Restore`] policy to have something to load.
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault schedule consulted by the replica workers.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How long the supervisor waits on a replica's staging channel before
    /// declaring the replica stalled.
    pub stall_timeout: Duration,
    /// What the supervisor does when a replica dies or stalls mid-epoch.
    pub on_replica_failure: FailurePolicy,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            replicas: 1,
            locality_aware: true,
            gpu_free_bytes: 64 << 20,
            interconnect: InterconnectSpec::nvlink_like(),
            checkpoint_every: 0,
            checkpoint_path: None,
            fault_plan: None,
            stall_timeout: Duration::from_secs(5),
            on_replica_failure: FailurePolicy::Fail,
        }
    }
}

/// Data-parallel driver over R partition-owning replicas.
pub struct ReplicatedEngine {
    config: ReplicatedConfig,
}

impl ReplicatedEngine {
    /// Builds a driver; panics on a zero-replica config.
    pub fn new(config: ReplicatedConfig) -> Self {
        assert!(config.replicas >= 1, "need at least one replica");
        assert!(
            config.pipeline.channel_depth >= 1,
            "staging needs a channel depth of at least 1"
        );
        Self { config }
    }

    /// The configuration the driver runs with.
    pub fn config(&self) -> &ReplicatedConfig {
        &self.config
    }

    /// Runs `num_epochs` epochs starting at `first_epoch`, mutating
    /// `trainer` exactly as `train_steps_replicated` dictates. Panics on a
    /// session failure; see [`Self::run_session_checked`] for the typed
    /// error surface.
    pub fn run_session(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> SessionReport {
        self.run_session_checked(trainer, first_epoch, num_epochs)
            .unwrap_or_else(|e| panic!("replicated session failed: {e}"))
    }

    /// [`Self::run_session`] with the failure surface exposed: replica
    /// deaths, stalls, and checkpoint problems come back as
    /// [`SessionError`] instead of panics. The supervisor (this thread)
    /// detects a dead replica by its closed staging lane and a stalled
    /// one by [`ReplicatedConfig::stall_timeout`], then applies
    /// [`ReplicatedConfig::on_replica_failure`]:
    ///
    /// * `Fail` — tear down and return [`SessionError::ReplicaDied`].
    /// * `DropReplica` — finish the epoch with the survivors (the tree
    ///   average already rescales by group size) and redistribute the dead
    ///   replica's train vertices round-robin over the survivors at the
    ///   next epoch boundary.
    /// * `Restore` — drain the survivors, settle the in-flight refresh,
    ///   roll the trainer back to the last checkpoint, respawn a
    ///   replacement worker on the reopened lane, and resume from the
    ///   checkpointed epoch.
    pub fn run_session_checked(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> Result<SessionReport, SessionError> {
        let c = &self.config;
        let spec = SessionSpec {
            pipeline: &c.pipeline,
            topology: Topology::Fused {
                replicas: c.replicas,
                locality_aware: c.locality_aware,
                interconnect: &c.interconnect,
                on_failure: c.on_replica_failure,
            },
            planner: Planner::OwnedHot {
                gpu_free_bytes: c.gpu_free_bytes,
            },
            refresh_shards: 1,
            checkpoint_every: c.checkpoint_every,
            checkpoint_path: c.checkpoint_path.as_deref(),
            fault_plan: c.fault_plan.as_deref(),
            stall_timeout: c.stall_timeout,
        };
        session::run(&spec, trainer, first_epoch, num_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{ReusePolicy, TrainerConfig};
    use neutron_graph::DatasetSpec;
    use neutron_nn::LayerKind;

    fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
        cfg.batch_size = 64;
        cfg.lr = 0.5;
        ConvergenceTrainer::new(ds, cfg)
    }

    fn policy() -> ReusePolicy {
        ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        }
    }

    #[test]
    fn r1_session_matches_sequential_epochs_exactly() {
        let mut seq = trainer(policy());
        let mut expected = Vec::new();
        for epoch in 0..3 {
            expected.push(seq.train_epoch(epoch));
        }

        let mut replicated = trainer(policy());
        let engine = ReplicatedEngine::new(ReplicatedConfig::default());
        let report = engine.run_session(&mut replicated, 0, 3);

        assert_eq!(report.replicas, 1);
        assert_eq!(report.epochs.len(), 3);
        for (run, want) in report.epochs.iter().zip(&expected) {
            assert_eq!(run.observation.train_loss, want.train_loss);
            assert_eq!(run.observation.test_accuracy, want.test_accuracy);
            assert_eq!(run.allreduce_bytes, 0, "R=1 exchanges no gradients");
            assert_eq!(run.remote_feature_bytes, 0, "1-way partition owns all");
            assert_eq!(run.per_replica.len(), 1);
            assert_eq!(run.per_replica[0].remote_picks, 0);
        }
    }

    #[test]
    fn r1_identity_holds_across_depths_and_locality() {
        let mut seq = trainer(policy());
        let want = seq.train_epoch(0).train_loss;
        for (depth, locality) in [(1, true), (4, false), (2, true)] {
            let mut t = trainer(policy());
            let mut cfg = ReplicatedConfig::default();
            cfg.pipeline.channel_depth = depth;
            cfg.locality_aware = locality;
            let report = ReplicatedEngine::new(cfg).run_session(&mut t, 0, 1);
            assert_eq!(
                report.epochs[0].observation.train_loss, want,
                "depth={depth} locality={locality}"
            );
        }
    }

    #[test]
    fn multi_replica_runs_are_deterministic_and_meter_the_interconnect() {
        let run = |replicas: usize| {
            let mut t = trainer(policy());
            let cfg = ReplicatedConfig {
                replicas,
                ..ReplicatedConfig::default()
            };
            ReplicatedEngine::new(cfg).run_session(&mut t, 0, 3)
        };
        for replicas in [2usize, 4] {
            let a = run(replicas);
            let b = run(replicas);
            assert_eq!(a.loss_trajectory(), b.loss_trajectory());
            assert_eq!(a.remote_bytes_trajectory(), b.remote_bytes_trajectory());
            assert_eq!(
                a.allreduce_bytes_trajectory(),
                b.allreduce_bytes_trajectory()
            );
            for run in &a.epochs {
                assert_eq!(
                    run.allreduce_bytes,
                    run.steps as u64 * 2 * (replicas as u64 - 1) * a.model_bytes
                );
                assert!(run.interconnect_seconds > 0.0);
                assert_eq!(run.per_replica.len(), replicas);
            }
        }
    }

    #[test]
    fn locality_aware_sampling_cuts_remote_feature_bytes() {
        let run = |locality: bool| {
            let mut t = trainer(policy());
            let cfg = ReplicatedConfig {
                replicas: 2,
                locality_aware: locality,
                ..ReplicatedConfig::default()
            };
            ReplicatedEngine::new(cfg).run_session(&mut t, 0, 2)
        };
        let aware = run(true);
        let blind = run(false);
        let aware_bytes: u64 = aware.remote_bytes_trajectory().iter().sum();
        let blind_bytes: u64 = blind.remote_bytes_trajectory().iter().sum();
        assert!(
            aware_bytes < blind_bytes,
            "locality-aware sampling must pull fewer remote rows: {aware_bytes} vs {blind_bytes}"
        );
        let picks: u64 = aware.epochs[0]
            .per_replica
            .iter()
            .map(|s| s.remote_picks + s.local_picks)
            .sum();
        assert!(picks > 0, "biased sampler reports pick counts");
    }
}
