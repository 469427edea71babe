//! The persistent multi-epoch training engine: the split-pool front-end of
//! the session driver ([`crate::session`]).
//!
//! [`TrainingEngine`] keeps pools of samplers (stealing batch indices from a
//! shared claim counter) and gatherers, one transfer worker and the refresh
//! worker alive for a whole session, so multi-epoch runs pay thread startup
//! once. With [`EngineConfig::adaptive_split`] the measured train occupancy
//! re-plans the hybrid hot-set split and the training device's feature cache
//! after every epoch (§4.1.3/§4.3). The split moves work between devices,
//! never numbers: the loss trajectory is bit-identical to the sequential
//! trainer at every thread count and every split.

use crate::fault::FaultPlan;
use crate::pipeline::PipelineConfig;
use crate::session::{self, Planner, SessionSpec, Topology};
use crate::trainer::ConvergenceTrainer;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use crate::session::{EpochRun, SessionError, SessionReport};

/// Engine configuration: the stage-graph shape plus the adaptive-split loop.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Stage thread counts, channel depth and simulated link.
    pub pipeline: PipelineConfig,
    /// Re-plan the hybrid hot-set split from measured train occupancy
    /// between epochs (§4.1.3 closed at runtime). When `false` the split
    /// stays wherever
    /// [`ConvergenceTrainer::set_refresh_cpu_fraction`] put it.
    pub adaptive_split: bool,
    /// Device memory the hybrid planner may spend on cached hot features.
    pub gpu_free_bytes: u64,
    /// Threads the refresh worker spreads each task's vertex list over
    /// (via [`crate::refresh::RefreshTask::run_sharded`] — partition-stable, so any value
    /// is bit-identical). `0` means auto: one shard per available core.
    /// `1` keeps the pre-sharding serial behaviour.
    pub refresh_workers: usize,
    /// Write a checkpoint after every epoch whose (absolute) number + 1 is
    /// a multiple of this. `0` disables checkpointing. The cadence keys on
    /// the absolute epoch, so a restored session checkpoints at the same
    /// boundaries the uninterrupted run would have.
    pub checkpoint_every: usize,
    /// Where the checkpoint file lives (atomically replaced at each write).
    /// Checkpointing needs both this and a nonzero
    /// [`Self::checkpoint_every`].
    pub checkpoint_path: Option<PathBuf>,
    /// Deterministic fault schedule consulted by the stage workers — test
    /// and drill harness, `None` in production runs.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// How long the train stage tolerates an empty staging channel (with
    /// work outstanding) before declaring the pipeline stalled.
    pub stall_timeout: Duration,
}

impl EngineConfig {
    /// Resolves [`Self::refresh_workers`]'s auto (`0`) setting.
    pub fn effective_refresh_workers(&self) -> usize {
        match self.refresh_workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            n => n,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            adaptive_split: true,
            gpu_free_bytes: 64 << 20,
            refresh_workers: 0,
            checkpoint_every: 0,
            checkpoint_path: None,
            fault_plan: None,
            stall_timeout: Duration::from_secs(5),
        }
    }
}

/// The persistent multi-epoch training engine (see module docs).
pub struct TrainingEngine {
    config: EngineConfig,
}

impl TrainingEngine {
    /// Builds an engine; thread counts must be positive.
    pub fn new(config: EngineConfig) -> Self {
        assert!(
            config.pipeline.sampler_threads > 0,
            "need at least one sampler thread"
        );
        assert!(
            config.pipeline.gather_threads > 0,
            "need at least one gather thread"
        );
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs `num_epochs` epochs starting at `first_epoch` over one
    /// persistent worker pool. Numerically identical to calling
    /// `trainer.train_epoch(e)` (or [`crate::pipeline::run_serial_epoch`])
    /// for the same epochs, at any thread count and any hybrid split — concurrency and
    /// the adaptive planner change wall-clock and placement, never results.
    ///
    /// Panics on session failure; use [`Self::run_session_checked`] to get
    /// the typed error instead.
    pub fn run_session(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> SessionReport {
        self.run_session_checked(trainer, first_epoch, num_epochs)
            .unwrap_or_else(|e| panic!("training session failed: {e}"))
    }

    /// [`Self::run_session`] with failures surfaced as [`SessionError`]
    /// instead of panics: a panicking stage worker poisons the pipeline
    /// (closing its staging channels so no stage can block forever on a
    /// peer that died) and the session returns
    /// [`SessionError::WorkerPanicked`] carrying the worker's stage and
    /// panic payload; a producer that stops producing without exiting trips
    /// the [`EngineConfig::stall_timeout`] and returns
    /// [`SessionError::Stalled`].
    pub fn run_session_checked(
        &self,
        trainer: &mut ConvergenceTrainer,
        first_epoch: usize,
        num_epochs: usize,
    ) -> Result<SessionReport, SessionError> {
        let c = &self.config;
        let spec = SessionSpec {
            pipeline: &c.pipeline,
            topology: Topology::Split,
            planner: if c.adaptive_split {
                Planner::Adaptive {
                    gpu_free_bytes: c.gpu_free_bytes,
                }
            } else {
                Planner::Fixed
            },
            refresh_shards: c.effective_refresh_workers(),
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

    #[test]
    fn session_matches_repeated_sequential_epochs_exactly() {
        let mut seq = trainer(ReusePolicy::Exact);
        let mut eng = trainer(ReusePolicy::Exact);
        let engine = TrainingEngine::new(EngineConfig {
            pipeline: PipelineConfig {
                sampler_threads: 3,
                gather_threads: 2,
                channel_depth: 2,
                h2d_gibps: 0.0,
            },
            ..EngineConfig::default()
        });
        let session = engine.run_session(&mut eng, 0, 3);
        assert_eq!(session.epochs.len(), 3);
        assert_eq!(session.workers_spawned, 3 + 2 + 1 + 1);
        for run in &session.epochs {
            let a = seq.train_epoch(run.epoch);
            assert_eq!(a.train_loss, run.observation.train_loss);
            assert_eq!(a.test_accuracy, run.observation.test_accuracy);
        }
    }

    #[test]
    fn session_keeps_staleness_bound_with_background_refresh() {
        let n = 2;
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: n,
        });
        let engine = TrainingEngine::new(EngineConfig::default());
        let session = engine.run_session(&mut t, 0, 4);
        for run in &session.epochs {
            assert!(
                run.observation.max_staleness < 2 * n as u64,
                "epoch {}: gap {} ≥ 2n",
                run.epoch,
                run.observation.max_staleness
            );
        }
        assert!(t.embedding_reuses() > 0);
        // The refresh worker actually carried refresh work.
        assert!(
            session
                .epochs
                .iter()
                .map(|e| e.refresh_seconds)
                .sum::<f64>()
                > 0.0
        );
    }

    #[test]
    fn adaptive_split_replans_between_epochs() {
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        });
        let engine = TrainingEngine::new(EngineConfig::default());
        let session = engine.run_session(&mut t, 0, 3);
        let traj = session.cpu_fraction_trajectory();
        // Epoch 0 always starts all-CPU; later epochs follow the measured
        // plan (whatever it is, it must be a valid fraction).
        assert_eq!(traj[0], 1.0);
        assert!(traj.iter().all(|f| (0.0..=1.0).contains(f)));
    }
}
