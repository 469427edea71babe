//! The stage shape, the measured stage report, and the serial epoch.
//!
//! NeutronOrch's super-batch pipeline (Fig 8) runs as real threads — sample
//! → gather → transfer → train over bounded channels — in the session
//! driver ([`crate::session`]); one concurrent epoch is
//! `TrainingEngine::run_session(trainer, epoch, 1)`. [`run_serial_epoch`]
//! is its "w/o pipelining" ablation (Fig 14): the same per-batch stage
//! costing, executed on the calling thread. It is also the sequential
//! trainer's epoch ([`ConvergenceTrainer::train_epoch`]).
//!
//! Determinism: block sampling is seeded by `(config seed, epoch, batch
//! index)` ([`crate::trainer::batch_sample_seed`]) and the train stage
//! consumes batches in epoch order, so the loss trajectory of a pipelined
//! epoch is **bit-identical to the serial one for any thread count** —
//! concurrency changes wall-clock, never results.
//!
//! Staleness: the super-batch boundary runs on the train thread between
//! batches, publishing the refresh prepared during the *previous*
//! super-batch (double buffering, see [`crate::refresh`]); every
//! historical-embedding read observes a version gap `< 2n`, enforced hard
//! by the bounded [`neutron_cache::EmbeddingStore`].

use crate::gather::StagedBatch;
use crate::refresh::InlineRefresh;
use crate::session::{transfer_stage, BusyNs};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation};
use neutron_cache::FeatureCache;
use neutron_tensor::alloc::{self, Stage};
use std::time::Instant;

/// The staging shape of a pipelined session.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// CPU sampling worker threads (stage 1).
    pub sampler_threads: usize,
    /// CPU feature-gather worker threads (stage 2).
    pub gather_threads: usize,
    /// Capacity of each inter-stage channel, in batches. Bounds memory:
    /// at most `3 * channel_depth + reorder window` batches are in flight.
    pub channel_depth: usize,
    /// Simulated host→device bandwidth in GiB/s; `0.0` disables the
    /// transfer stall (bytes are still accounted). Replica methodology:
    /// compute on the replica is orders of magnitude slower than the
    /// paper's V100, so a faithfully *proportioned* transfer stage scales
    /// PCIe bandwidth down by the same factor (the simulator applies the
    /// identical rule to memory capacities).
    pub h2d_gibps: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            sampler_threads: 2,
            gather_threads: 1,
            channel_depth: 4,
            h2d_gibps: 0.0,
        }
    }
}

/// Per-stage busy time and throughput of one pipelined epoch — the measured
/// counterpart of the simulator's [`crate::report::EpochReport`] (same
/// field naming so tables can mix both).
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Wall-clock of the epoch, seconds.
    pub epoch_seconds: f64,
    /// Batches executed.
    pub num_batches: usize,
    /// Busy seconds summed across sampling workers.
    pub sample_seconds: f64,
    /// Busy seconds summed across gather workers ("Gather (FC)").
    pub gather_collect_seconds: f64,
    /// Busy seconds of the transfer stage ("Gather (FT)"), including the
    /// simulated stall.
    pub transfer_seconds: f64,
    /// Seconds the train stage spent actually training (wall minus time
    /// blocked waiting for upstream stages).
    pub train_seconds: f64,
    /// Seconds the train stage spent starved, waiting on upstream.
    pub train_wait_seconds: f64,
    /// Host→device bytes the epoch shipped — miss features plus block
    /// structure; cache-resident features never cross the link.
    pub h2d_bytes: u64,
    /// Largest out-of-order reorder buffer the train stage needed.
    pub reorder_peak: usize,
    /// Source vertices whose features were served from the GPU feature
    /// cache this epoch (no host gather, no H2D bytes).
    pub cache_hits: u64,
    /// Source vertices host-gathered and transferred this epoch.
    /// `cache_hits + cache_misses` is the epoch's total gathered vertex
    /// count, invariant across cache budgets.
    pub cache_misses: u64,
    /// Failure/recovery timeline recorded during the epoch: injected
    /// faults, detections and the supervisor's responses, in detection
    /// order. Empty in healthy epochs.
    pub failures: Vec<crate::fault::FailureEvent>,
}

impl PipelineReport {
    /// Epoch throughput in batches per second.
    pub fn batches_per_second(&self) -> f64 {
        self.num_batches as f64 / self.epoch_seconds.max(1e-12)
    }

    /// Fraction of the epoch the train stage was compute-bound (1.0 means
    /// the pipeline kept the trainer perfectly fed). This is the measured
    /// signal the engine feeds back into the §4.1.3 hybrid planner.
    pub fn train_occupancy(&self) -> f64 {
        self.train_seconds / self.epoch_seconds.max(1e-12)
    }
}

/// The unpipelined epoch: every batch is sampled, staged against an empty
/// feature cache ([`StagedBatch::stage`]), charged by the transfer stage
/// (stalling for the simulated link when `h2d_gibps > 0`) and trained, all
/// serially on the calling thread — the paper's "w/o pipelining" ablation
/// (Fig 14), with the same per-batch work as a pipelined epoch. The report
/// times the stage graph only; test-set evaluation is outside the window.
/// Per-stage alloc tags give the allocating baseline the pooled engine is
/// compared against.
pub fn run_serial_epoch(
    trainer: &mut ConvergenceTrainer,
    epoch: usize,
    h2d_gibps: f64,
) -> (EpochObservation, PipelineReport) {
    let dataset = trainer.dataset_handle();
    let sampler = trainer.sampler().clone();
    let config_seed = trainer.config().seed;
    let batches = trainer.epoch_batches(epoch);
    let [sample_busy, gather_busy, transfer_busy] = <[BusyNs; 3]>::default();
    let (mut h2d_bytes, mut gathered_vertices) = (0u64, 0u64);
    let empty_cache = FeatureCache::empty();
    let wall = Instant::now();
    let items = batches.iter().enumerate().map(|(i, batch)| {
        alloc::set_stage(Stage::Sample);
        let t0 = Instant::now();
        let seed = batch_sample_seed(config_seed, epoch, i);
        let blocks = sampler.sample_batch(&dataset.csr, batch, seed);
        sample_busy.add(t0);
        alloc::set_stage(Stage::Gather);
        let t1 = Instant::now();
        let item = StagedBatch::stage(&dataset, i, blocks, &empty_cache);
        gather_busy.add(t1);
        gathered_vertices += item.features.num_misses() as u64;
        alloc::set_stage(Stage::Transfer);
        let t2 = Instant::now();
        h2d_bytes += transfer_stage(h2d_gibps, &item);
        transfer_busy.add(t2);
        alloc::set_stage(Stage::Train);
        item.into_prepared(&empty_cache)
    });
    let prev_stage = alloc::set_stage(Stage::Train);
    let stats = trainer.train_batches_with(items, &mut InlineRefresh::default());
    alloc::set_stage(prev_stage);

    let epoch_seconds = wall.elapsed().as_secs_f64();
    let observation = trainer.observe_epoch(stats);
    let staged = sample_busy.seconds() + gather_busy.seconds() + transfer_busy.seconds();
    let report = PipelineReport {
        epoch_seconds,
        num_batches: batches.len(),
        sample_seconds: sample_busy.seconds(),
        gather_collect_seconds: gather_busy.seconds(),
        transfer_seconds: transfer_busy.seconds(),
        train_seconds: (epoch_seconds - staged).max(0.0),
        train_wait_seconds: staged,
        h2d_bytes,
        reorder_peak: 0,
        cache_hits: 0,
        cache_misses: gathered_vertices,
        failures: Vec::new(),
    };
    (observation, report)
}
