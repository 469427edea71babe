//! The sequential replay: the same seed's training, one batch at a time on
//! the calling thread, through the layers' public functions.
//!
//! Per batch it calls `NeighborSampler::sample_batch` (or the
//! locality-biased sampler, per replica), `StagedBatch::stage` and
//! `StagedBatch::into_prepared`, and hands the batch to the trainer's
//! `train_batches_with` (or `train_steps_replicated`) through a
//! benchmark-owned iterator. A train step is the gap between two `next()`
//! calls of that iterator; refresh work is timed by a benchmark-owned
//! `RefreshBackend` wrapping `InlineRefresh`. After the epochs, a probe
//! drives a fresh `GnnModel` layer by layer over the first epoch's batches
//! to time each GNN layer's forward and backward pass.
//!
//! With a tracer every call above is a span; without one the identical
//! work runs unrecorded, which gives the tracing overhead.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use neutron_cache::FeatureCache;
use neutron_core::refresh::{CpuPart, InlineRefresh, RefreshBackend, RefreshOutput, RefreshTask};
use neutron_core::trainer::{batch_sample_seed, ConvergenceTrainer, PreparedBatch};
use neutron_core::StagedBatch;
use neutron_graph::partition::{hash_partition, Partition};
use neutron_graph::Dataset;
use neutron_nn::flops::layer_train_flops;
use neutron_nn::loss::cross_entropy;
use neutron_nn::optim::{Optimizer, Sgd};
use neutron_nn::{GnnModel, LayerKind, ModelConfig};
use neutron_sample::{Block, BlockBuilder, EpochBatches, LocalityCounts, NeighborSampler};

use crate::trace::{span, Trace, Tracer};
use crate::workloads::{replica_batches, replica_seed, Engine, Scale, Workload};

/// What a replay produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Mean training loss per epoch, computed exactly as the engines do.
    pub losses: Vec<f32>,
    /// Source rows sampled per epoch (all replicas).
    pub src_rows: Vec<u64>,
    /// Hot-set rows the CPU refresh backend computed per epoch.
    pub refresh_rows: Vec<u64>,
    /// Neighbor picks that left the replica's partition, per epoch.
    pub remote_picks: Vec<u64>,
    /// Feature bytes of sampled source rows a replica does not own, per
    /// epoch.
    pub remote_bytes: Vec<u64>,
    /// Forward + backward FLOPs per training step.
    pub flops_per_step: f64,
    /// Wall-clock of the epochs plus the layer probe.
    pub wall_s: f64,
}

/// The per-step feed: samples and stages every replica's batch for the
/// next step, and closes the previous step's train span.
struct Feed<'a> {
    dataset: &'a Dataset,
    sampler: &'a NeighborSampler,
    /// Per-replica epoch batches and sampling seeds.
    batches: &'a [EpochBatches],
    seeds: Vec<u64>,
    steps: usize,
    /// Present for more than one replica: biased sampling inputs.
    partition: Option<&'a Partition>,
    builders: Vec<BlockBuilder>,
    epoch: usize,
    next: usize,
    cache: &'a FeatureCache,
    tracer: Tracer<'a>,
    open_train: Option<usize>,
    dims: &'a [(usize, usize)],
    src_rows: u64,
    remote_picks: u64,
    remote_rows: u64,
    flops: u64,
}

impl Iterator for Feed<'_> {
    type Item = Vec<PreparedBatch>;

    fn next(&mut self) -> Option<Vec<PreparedBatch>> {
        if let (Some(id), Some(cell)) = (self.open_train.take(), self.tracer) {
            cell.borrow_mut().end(id);
        }
        if self.next >= self.steps {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let batch = Some(i as u32);
        let tracer = self.tracer;
        let mut step = Vec::with_capacity(self.batches.len());
        for r in 0..self.batches.len() {
            let seed = batch_sample_seed(self.seeds[r], self.epoch, i);
            let seeds = self.batches[r].batch(i);
            let (csr, sampler) = (&self.dataset.csr, self.sampler);
            let blocks = match self.partition {
                None => span(tracer, "sample", None, batch, || {
                    sampler.sample_batch(csr, seeds, seed)
                }),
                Some(partition) => {
                    let builder = &mut self.builders[r];
                    let mut picks = LocalityCounts::default();
                    let blocks = span(tracer, "sample", None, batch, || {
                        sampler.sample_batch_pooled_biased(
                            csr,
                            seeds,
                            seed,
                            builder,
                            &partition.assignment,
                            r as u32,
                            &mut picks,
                        )
                    });
                    self.remote_picks += picks.remote_picks;
                    self.remote_rows += blocks[0]
                        .src()
                        .iter()
                        .filter(|&&v| partition.owner(v) != r)
                        .count() as u64;
                    blocks
                }
            };
            self.src_rows += blocks[0].src().len() as u64;
            self.flops += step_flops(&blocks, self.dims);
            let (dataset, cache) = (self.dataset, self.cache);
            step.push(span(tracer, "gather", None, batch, || {
                StagedBatch::stage(dataset, i, blocks, cache).into_prepared(cache)
            }));
        }
        self.open_train = tracer.map(|cell| cell.borrow_mut().begin("train", None, batch));
        Some(step)
    }
}

/// Forward + backward FLOPs of one batch's block stack.
fn step_flops(blocks: &[Block], dims: &[(usize, usize)]) -> u64 {
    blocks
        .iter()
        .zip(dims)
        .map(|(b, &(i, o))| {
            layer_train_flops(
                LayerKind::Gcn,
                b.num_dst() as u64,
                b.num_src() as u64,
                b.num_edges() as u64,
                i as u64,
                o as u64,
            )
        })
        .sum()
}

/// `InlineRefresh` with a span around each submitted task.
struct TracedRefresh<'a> {
    inner: InlineRefresh,
    tracer: Tracer<'a>,
    rows: u64,
}

impl RefreshBackend for TracedRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        self.rows += task.len() as u64;
        let inner = &mut self.inner;
        span(self.tracer, "refresh", None, None, || inner.submit(task))
    }

    fn collect(&mut self) -> RefreshOutput {
        self.inner.collect()
    }
}

/// Replays `epochs` epochs of `workload` at `seed`, then (when `probe`) the
/// per-layer probe over epoch 0's batches.
pub fn replay(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    epochs: usize,
    tracer: Tracer<'_>,
    probe: bool,
) -> Replay {
    let cfg = workload.trainer_config(scale, seed);
    let batch_size = cfg.batch_size;
    let mut trainer = ConvergenceTrainer::new(workload.spec(scale, seed).build_full(), cfg);
    let dataset: Arc<Dataset> = trainer.dataset_handle();
    let sampler = trainer.sampler().clone();
    let model_cfg = ModelConfig {
        kind: LayerKind::Gcn,
        feature_dim: dataset.spec.feature_dim,
        hidden_dim: dataset.spec.hidden_dim,
        num_classes: dataset.spec.num_classes,
        layers: trainer.config().layers,
        seed: seed ^ 0x5eed,
    };
    let dims = model_cfg.layer_dims();
    let replicas = workload.replicas();
    let partition = (replicas > 1).then(|| hash_partition(dataset.csr.num_vertices(), replicas));
    let epoch_batches = |trainer: &ConvergenceTrainer, epoch: usize| match workload.engine {
        Engine::Single => {
            let b = trainer.epoch_batches(epoch);
            let steps = b.len();
            (vec![b], steps)
        }
        Engine::Replicated(r) => replica_batches(&dataset, r, batch_size, seed, epoch),
    };
    // Assembled features do not depend on the cache, so the replay gathers
    // every row on the host.
    let cache = FeatureCache::empty();
    let mut out = Replay::default();
    let mut total_steps = 0u64;
    let mut flops = 0u64;

    let start = Instant::now();
    for epoch in 0..epochs {
        let (batches, steps) = epoch_batches(&trainer, epoch);
        if let Some(cell) = tracer {
            cell.borrow_mut().epoch = epoch as u32;
        }
        let root = tracer.map(|cell| cell.borrow_mut().begin("epoch", None, None));
        let mut feed = Feed {
            dataset: &dataset,
            sampler: &sampler,
            batches: &batches,
            seeds: (0..replicas).map(|r| replica_seed(seed, r)).collect(),
            steps,
            partition: partition.as_ref(),
            builders: (0..replicas).map(|_| BlockBuilder::new()).collect(),
            epoch,
            next: 0,
            cache: &cache,
            tracer,
            open_train: None,
            dims: &dims,
            src_rows: 0,
            remote_picks: 0,
            remote_rows: 0,
            flops: 0,
        };
        let mut backend = TracedRefresh {
            inner: InlineRefresh::default(),
            tracer,
            rows: 0,
        };
        let stats = if replicas == 1 {
            let single = (&mut feed).map(|mut step| step.pop().expect("one batch per step"));
            trainer.train_batches_with(single, &mut backend)
        } else {
            trainer.train_steps_replicated(&mut feed, &mut backend, |_| {})
        };
        // The engines' epoch loss: the mean of the per-step losses.
        out.losses
            .push(stats.losses.iter().sum::<f32>() / stats.losses.len().max(1) as f32);
        out.src_rows.push(feed.src_rows);
        out.remote_picks.push(feed.remote_picks);
        out.remote_bytes
            .push(feed.remote_rows * dataset.spec.feature_row_bytes());
        out.refresh_rows.push(backend.rows);
        total_steps += steps as u64;
        flops += feed.flops;
        if let (Some(id), Some(cell)) = (root, tracer) {
            cell.borrow_mut().end(id);
        }
    }
    if probe {
        let (batches, steps) = epoch_batches(&trainer, 0);
        layer_probe(
            &dataset,
            &sampler,
            &batches[0],
            steps,
            seed,
            model_cfg,
            tracer,
        );
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.flops_per_step = flops as f64 / total_steps.max(1) as f64;
    out
}

/// Trains a fresh model with the trainer's initialisation over `steps`
/// batches of `batches`, one GNN layer call per span: forward bottom-up,
/// loss, backward top-down, optimizer step.
fn layer_probe(
    dataset: &Dataset,
    sampler: &NeighborSampler,
    batches: &EpochBatches,
    steps: usize,
    seed: u64,
    model_cfg: ModelConfig,
    tracer: Tracer<'_>,
) {
    let mut model = GnnModel::new(model_cfg);
    let mut optimizer = Sgd::new(0.2);
    let layers = model.layers().len();
    for i in 0..steps {
        let batch = Some(i as u32);
        span(tracer, "probe", None, batch, || {
            let blocks = sampler.sample_batch(
                &dataset.csr,
                batches.batch(i),
                batch_sample_seed(seed, 0, i),
            );
            let mut input = ConvergenceTrainer::gather_features(dataset, blocks[0].src());
            let mut ctxs = Vec::with_capacity(layers);
            for (l, block) in blocks.iter().enumerate() {
                let layer = &model.layers()[l];
                let (out, ctx) = span(tracer, "fwd", Some(l as u8), batch, || {
                    layer.forward(block, &input)
                });
                input = out;
                ctxs.push(ctx);
            }
            let labels: Vec<usize> = blocks[layers - 1]
                .dst()
                .iter()
                .map(|&v| dataset.labels[v as usize])
                .collect();
            let loss = span(tracer, "loss", None, batch, || {
                cross_entropy(&input, &labels)
            });
            model.zero_grad();
            let mut grad = loss.d_logits;
            for l in (0..layers).rev() {
                let ctx = ctxs.pop().expect("one ctx per layer");
                let layer = model.layer_mut(l);
                grad = span(tracer, "bwd", Some(l as u8), batch, || {
                    layer.backward(&blocks[l], ctx, &grad)
                });
            }
            span(tracer, "optim", None, batch, || {
                optimizer.step(&mut model.params_mut())
            });
        });
    }
}

/// A replay under a fresh recorder: the replay plus the finished trace.
pub fn traced(workload: &Workload, scale: Scale, seed: u64, epochs: usize) -> (Replay, Trace) {
    let cell = RefCell::new(Trace::default());
    let replay = replay(workload, scale, seed, epochs, Some(&cell), true);
    (replay, cell.into_inner())
}
