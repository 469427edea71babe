//! The benchmark's workloads and the untraced engine sessions that
//! measure them.
//!
//! Every input is a function of the seed: it becomes both
//! `DatasetSpec::seed` (graph, labels, features, splits) and
//! `TrainerConfig::seed` (weights, shuffles, sampling). The simulated
//! host→device link is a fixed constant of each workload, never calibrated
//! from a timed epoch, so the stall it adds is the same on every machine
//! and every run.

use std::path::Path;
use std::time::Instant;

use neutron_core::engine::{EngineConfig, SessionError, TrainingEngine};
use neutron_core::pipeline::{PipelineConfig, PipelineReport};
use neutron_core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutron_core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutron_graph::partition::hash_partition;
use neutron_graph::{Dataset, DatasetSpec, VertexId};
use neutron_hetero::InterconnectSpec;
use neutron_nn::LayerKind;
use neutron_sample::{BatchIterator, EpochBatches};
use neutron_tensor::alloc::AllocSnapshot;

use crate::host::CpuTicks;

/// Which engine drives a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `TrainingEngine`: split sampler/gather/transfer stages, background
    /// refresh worker, adaptive split.
    Single,
    /// `ReplicatedEngine` with this many replicas (fused per-replica
    /// staging workers, tree-averaged gradients).
    Replicated(usize),
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// The engine under test.
    pub engine: Engine,
    /// Historical-embedding reuse policy.
    pub policy: ReusePolicy,
    /// Input feature width.
    pub feature_dim: usize,
    /// Fixed simulated host→device bandwidth, GiB/s.
    pub h2d_gibps: f64,
    /// Write a checkpoint every [`CHECKPOINT_EVERY`] epochs.
    pub checkpoint: bool,
}

/// Epochs per session: epoch 0 is cold, the rest are warm.
pub const EPOCHS: usize = 3;
/// Checkpoint cadence of workloads that checkpoint.
pub const CHECKPOINT_EVERY: usize = 2;
/// Super-batch length of the hotness-aware policy.
pub const SUPER_BATCH: usize = 2;

const ORCH: ReusePolicy = ReusePolicy::HotnessAware {
    hot_ratio: 0.2,
    super_batch: SUPER_BATCH,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "orch-hot",
            why: "the paper's configuration: hot-vertex reuse with a CPU refresh competing with a compute-bound train stage on a fast link",
            engine: Engine::Single,
            policy: ORCH,
            feature_dim: 64,
            h2d_gibps: 0.5,
            checkpoint: true,
        },
        Workload {
            name: "exact-io",
            why: "exact training with wide features on a slow link: gather and transfer are the critical path; refresh, store and cache are bypassed",
            engine: Engine::Single,
            policy: ReusePolicy::Exact,
            feature_dim: 256,
            h2d_gibps: 0.2,
            checkpoint: false,
        },
        Workload {
            name: "replicated-r2",
            why: "the same model and policy as orch-hot on two data-parallel replicas with fused staging and tree-averaged gradients",
            engine: Engine::Replicated(2),
            policy: ORCH,
            feature_dim: 64,
            h2d_gibps: 0.5,
            checkpoint: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Input size: the scaled Reddit-conv replica the benchmark measures, or
/// the tiny graph its own tests run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 8,000 vertices, 640k edges, batch 256 (21 batches per epoch).
    Bench,
    /// `DatasetSpec::tiny()`, batch 64.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// The dataset spec for `seed`.
    pub fn spec(&self, scale: Scale, seed: u64) -> DatasetSpec {
        let mut spec = match scale {
            Scale::Bench => {
                let mut s = DatasetSpec::reddit_convergence();
                s.vertices = 8_000;
                s.edges = 640_000;
                s.feature_dim = self.feature_dim;
                s
            }
            Scale::Tiny => DatasetSpec::tiny(),
        };
        spec.seed = seed;
        spec
    }

    /// The trainer configuration for `seed`.
    pub fn trainer_config(&self, scale: Scale, seed: u64) -> TrainerConfig {
        TrainerConfig {
            kind: LayerKind::Gcn,
            layers: 2,
            batch_size: match scale {
                Scale::Bench => 256,
                Scale::Tiny => 64,
            },
            lr: 0.2,
            seed,
            policy: self.policy.clone(),
        }
    }

    /// Model replicas the engine trains (1 for the single engine).
    pub fn replicas(&self) -> usize {
        match self.engine {
            Engine::Single => 1,
            Engine::Replicated(r) => r,
        }
    }

    /// The super-batch length, when the policy has one.
    pub fn super_batch(&self) -> Option<usize> {
        match self.policy {
            ReusePolicy::HotnessAware { super_batch, .. } => Some(super_batch),
            _ => None,
        }
    }

    fn pipeline(&self) -> PipelineConfig {
        // At most two staging threads: one sampler, one gatherer.
        PipelineConfig {
            sampler_threads: 1,
            gather_threads: 1,
            channel_depth: 4,
            h2d_gibps: self.h2d_gibps,
        }
    }

    fn checkpoint_every(&self) -> usize {
        if self.checkpoint {
            CHECKPOINT_EVERY
        } else {
            0
        }
    }
}

/// The per-replica batches of `epoch` under an R-way hash partition: each
/// replica owns the training vertices the partition assigns it, in
/// `dataset.train` order, shuffled with the trainer seed — the replicated
/// engine's documented batching. Returns the batches and the step count
/// (the shortest replica's batch count).
pub fn replica_batches(
    dataset: &Dataset,
    replicas: usize,
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> (Vec<EpochBatches>, usize) {
    let partition = hash_partition(dataset.csr.num_vertices(), replicas);
    let batches: Vec<EpochBatches> = (0..replicas)
        .map(|r| {
            let owned: Vec<VertexId> = dataset
                .train
                .iter()
                .copied()
                .filter(|&v| partition.owner(v) == r)
                .collect();
            BatchIterator::new(owned, batch_size, seed).epoch_batches(epoch)
        })
        .collect();
    let steps = batches.iter().map(EpochBatches::len).min().unwrap_or(0);
    (batches, steps)
}

/// The per-replica sampling seed salt of the replicated engine (zero for
/// replica 0, so one replica reproduces the single engine).
pub fn replica_seed(seed: u64, replica: usize) -> u64 {
    seed ^ (replica as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One epoch of an engine session, in engine-neutral form.
#[derive(Clone, Debug, Default)]
pub struct EpochRecord {
    /// Mean training loss.
    pub loss: f32,
    /// Largest embedding version gap seen so far.
    pub max_gap: u64,
    /// Training-window seconds (eval and checkpoint excluded).
    pub epoch_s: f64,
    /// Target vertices trained.
    pub targets: u64,
    /// Training steps (batches, or replica-synchronous steps).
    pub steps: usize,
    /// Summed sampler busy seconds.
    pub sample_s: f64,
    /// Summed gather busy seconds.
    pub gather_s: f64,
    /// Transfer-stage busy seconds (including the simulated stall).
    pub transfer_s: f64,
    /// Train-stage busy seconds.
    pub train_s: f64,
    /// Train-stage starved seconds.
    pub train_wait_s: f64,
    /// Host→device bytes.
    pub h2d_bytes: u64,
    /// Seconds the simulated link needed for the slowest transfer lane's
    /// bytes (the transfer stage sleeps this long).
    pub link_s: f64,
    /// Source rows served from the feature cache.
    pub cache_hits: u64,
    /// Source rows gathered on the host.
    pub cache_misses: u64,
    /// Vertices in the feature cache during the epoch.
    pub cache_vertices: usize,
    /// Refresh-worker busy seconds.
    pub refresh_s: f64,
    /// CPU share of the hot-set refresh.
    pub refresh_cpu_fraction: f64,
    /// Test-set evaluation seconds.
    pub eval_s: f64,
    /// Bytes of the checkpoint written after the epoch (0 if none).
    pub checkpoint_bytes: u64,
    /// Seconds spent writing it.
    pub checkpoint_s: f64,
    /// Allocations per stage during the training window.
    pub allocs: AllocSnapshot,
    /// Per-replica staging busy seconds (sample + gather + transfer).
    pub replica_busy_s: Vec<f64>,
    /// Remote feature bytes pulled by replicas.
    pub remote_bytes: u64,
    /// Remote neighbor picks.
    pub remote_picks: u64,
    /// Gradient all-reduce bytes.
    pub allreduce_bytes: u64,
    /// Simulated interconnect seconds.
    pub interconnect_s: f64,
}

impl EpochRecord {
    fn from_report(report: &PipelineReport) -> Self {
        Self {
            epoch_s: report.epoch_seconds,
            steps: report.num_batches,
            sample_s: report.sample_seconds,
            gather_s: report.gather_collect_seconds,
            transfer_s: report.transfer_seconds,
            train_s: report.train_seconds,
            train_wait_s: report.train_wait_seconds,
            h2d_bytes: report.h2d_bytes,
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            ..Self::default()
        }
    }
}

/// Set-up wall-clock, split by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `DatasetSpec::build_full`.
    pub build_s: f64,
    /// `ConvergenceTrainer::new` (hotness presampling included).
    pub trainer_s: f64,
    /// Engine construction.
    pub engine_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.build_s + self.trainer_s + self.engine_s
    }
}

/// One whole session.
#[derive(Debug, Default)]
pub struct SessionRecord {
    /// Set-up times.
    pub setup: SetupTimes,
    /// Wall-clock of the `run_session_checked` call.
    pub session_s: f64,
    /// Share of runnable CPU time the host stole during set-up and session.
    pub steal_share: f64,
    /// Worker start-up seconds the engine reports (single engine only).
    pub startup_s: f64,
    /// Per-epoch records (empty when the session failed).
    pub epochs: Vec<EpochRecord>,
    /// Steps the session was asked to train.
    pub planned_steps: u64,
    /// The session error, if one was returned.
    pub error: Option<String>,
    /// Bytes of the model parameters.
    pub model_bytes: u64,
    /// Successful embedding-store reads over the session.
    pub store_reuses: u64,
}

/// Builds everything for `workload` at `seed` and runs one session of
/// `epochs` epochs. Checkpoints, when the workload takes them, go to
/// `out_dir`.
pub fn run_session(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    epochs: usize,
    out_dir: &Path,
) -> SessionRecord {
    let checkpoint_path = workload
        .checkpoint
        .then(|| out_dir.join(format!("{}-{seed}.ck", workload.name)));

    let ticks = CpuTicks::now();
    let t = Instant::now();
    let dataset = workload.spec(scale, seed).build_full();
    let build_s = t.elapsed().as_secs_f64();
    let cfg = workload.trainer_config(scale, seed);
    let batch_size = cfg.batch_size;

    // Planned work per epoch, from the public batching contract.
    let plan: Vec<(usize, u64)> = (0..epochs)
        .map(|e| match workload.engine {
            Engine::Single => (
                dataset.train.len().div_ceil(batch_size),
                dataset.train.len() as u64,
            ),
            Engine::Replicated(r) => {
                let (batches, steps) = replica_batches(&dataset, r, batch_size, seed, e);
                let targets = batches
                    .iter()
                    .map(|b| (0..steps).map(|i| b.batch(i).len() as u64).sum::<u64>())
                    .sum();
                (steps, targets)
            }
        })
        .collect();
    let planned_steps = plan.iter().map(|&(s, _)| s as u64).sum();
    let link_s = |bytes: u64| bytes as f64 / (workload.h2d_gibps * (1u64 << 30) as f64);

    let t = Instant::now();
    let mut trainer = ConvergenceTrainer::new(dataset, cfg);
    let trainer_s = t.elapsed().as_secs_f64();

    let mut record = SessionRecord {
        planned_steps,
        model_bytes: trainer.model_bytes(),
        ..SessionRecord::default()
    };
    let session: Result<(), SessionError> = match workload.engine {
        Engine::Single => {
            let t = Instant::now();
            let engine = TrainingEngine::new(EngineConfig {
                pipeline: workload.pipeline(),
                adaptive_split: true,
                gpu_free_bytes: 64 << 20,
                refresh_workers: 1,
                checkpoint_every: workload.checkpoint_every(),
                checkpoint_path: checkpoint_path.clone(),
                ..EngineConfig::default()
            });
            let engine_s = t.elapsed().as_secs_f64();
            record.setup = SetupTimes {
                build_s,
                trainer_s,
                engine_s,
            };
            let t = Instant::now();
            let out = engine.run_session_checked(&mut trainer, 0, epochs);
            record.session_s = t.elapsed().as_secs_f64();
            record.steal_share = ticks.steal_share_until(&CpuTicks::now());
            out.map(|report| {
                record.startup_s = report.startup_seconds;
                record.epochs = report
                    .epochs
                    .iter()
                    .map(|run| EpochRecord {
                        loss: run.observation.train_loss,
                        max_gap: run.observation.max_staleness,
                        targets: plan[run.epoch].1,
                        link_s: link_s(run.report.h2d_bytes),
                        cache_vertices: run.cache_vertices,
                        refresh_s: run.refresh_seconds,
                        refresh_cpu_fraction: run.refresh_cpu_fraction,
                        eval_s: run.eval_seconds,
                        checkpoint_bytes: run.checkpoint_bytes,
                        checkpoint_s: run.checkpoint_seconds,
                        allocs: run.allocs,
                        ..EpochRecord::from_report(&run.report)
                    })
                    .collect();
            })
        }
        Engine::Replicated(replicas) => {
            let t = Instant::now();
            let engine = ReplicatedEngine::new(ReplicatedConfig {
                pipeline: workload.pipeline(),
                replicas,
                locality_aware: true,
                gpu_free_bytes: 64 << 20,
                interconnect: InterconnectSpec::ethernet_like(),
                checkpoint_every: workload.checkpoint_every(),
                checkpoint_path: checkpoint_path.clone(),
                ..ReplicatedConfig::default()
            });
            let engine_s = t.elapsed().as_secs_f64();
            record.setup = SetupTimes {
                build_s,
                trainer_s,
                engine_s,
            };
            let t = Instant::now();
            let out = engine.run_session_checked(&mut trainer, 0, epochs);
            record.session_s = t.elapsed().as_secs_f64();
            record.steal_share = ticks.steal_share_until(&CpuTicks::now());
            out.map(|report| {
                record.model_bytes = report.model_bytes;
                record.epochs = report
                    .epochs
                    .iter()
                    .map(|run| EpochRecord {
                        loss: run.observation.train_loss,
                        max_gap: run.observation.max_staleness,
                        targets: plan[run.epoch].1,
                        link_s: run
                            .per_replica
                            .iter()
                            .map(|s| link_s(s.h2d_bytes))
                            .fold(0.0, f64::max),
                        eval_s: run.eval_seconds,
                        checkpoint_bytes: run.checkpoint_bytes,
                        checkpoint_s: run.checkpoint_seconds,
                        allocs: run.allocs,
                        replica_busy_s: run
                            .per_replica
                            .iter()
                            .map(|s| s.sample_seconds + s.gather_seconds + s.transfer_seconds)
                            .collect(),
                        remote_bytes: run.remote_feature_bytes,
                        remote_picks: run.per_replica.iter().map(|s| s.remote_picks).sum(),
                        allreduce_bytes: run.allreduce_bytes,
                        interconnect_s: run.interconnect_seconds,
                        ..EpochRecord::from_report(&run.report)
                    })
                    .collect();
            })
        }
    };
    if let Err(e) = session {
        record.error = Some(e.to_string());
    }
    record.store_reuses = trainer.embedding_reuses();
    if let Some(path) = checkpoint_path {
        let _ = std::fs::remove_file(path);
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_distinct_and_seeded() {
        let all = all();
        assert_eq!(all.len(), 3);
        for w in &all {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(w.spec(Scale::Bench, 42).seed, 42);
            assert_eq!(w.trainer_config(Scale::Bench, 42).seed, 42);
            assert!(w.h2d_gibps > 0.0, "the link is a fixed constant");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn one_replica_batches_are_the_trainer_batches() {
        let ds = DatasetSpec::tiny().build_full();
        let (batches, steps) = replica_batches(&ds, 1, 64, 7, 3);
        let want = BatchIterator::new(ds.train.clone(), 64, 7).epoch_batches(3);
        assert_eq!(steps, want.len());
        for i in 0..steps {
            assert_eq!(batches[0].batch(i), want.batch(i));
        }
        assert_eq!(replica_seed(7, 0), 7);
    }
}
