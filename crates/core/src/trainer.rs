//! Numeric training with historical-embedding reuse policies.
//!
//! This is the *real* (non-simulated) training path behind the Fig 16
//! convergence curves: stale embeddings are actually spliced into the
//! bottom layer and gradients through them are actually cut, so accuracy
//! differences between policies are measured, not modelled.

use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use neutron_cache::EmbeddingStore;
use neutron_graph::{Dataset, VertexId};
use neutron_nn::loss::cross_entropy;
use neutron_nn::metrics::accuracy;
use neutron_nn::model::{GnnModel, ModelConfig};
use neutron_nn::optim::{Optimizer, Sgd};
use neutron_nn::LayerKind;
use neutron_sample::{
    BatchIterator, Block, EpochBatches, Fanout, HotSet, NeighborSampler, PreSampler,
};
use neutron_tensor::Matrix;
use std::sync::Arc;

/// Historical-embedding reuse policy.
#[derive(Clone, Debug)]
pub enum ReusePolicy {
    /// No reuse — exact sample-gather-train (DGL / PaGraph / GNNLab all
    /// share these semantics; their curves coincide in Fig 16).
    Exact,
    /// GAS-like: reuse bottom-layer embeddings of **all** vertices with no
    /// staleness control within an epoch.
    GasLike,
    /// NeutronOrch: reuse only hot vertices, refreshed every super-batch,
    /// version gap strictly `< 2n` (§4.2.2).
    HotnessAware {
        /// Fraction of vertices treated as hot.
        hot_ratio: f64,
        /// Batches per super-batch (`n`).
        super_batch: usize,
    },
}

impl ReusePolicy {
    /// Label used in convergence plots.
    pub fn label(&self) -> &'static str {
        match self {
            ReusePolicy::Exact => "Exact (DGL/PaGraph/GNNLab)",
            ReusePolicy::GasLike => "GAS",
            ReusePolicy::HotnessAware { .. } => "NeutronOrch",
        }
    }
}

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// GNN architecture.
    pub kind: LayerKind,
    /// Model depth.
    pub layers: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Sampling/shuffling seed.
    pub seed: u64,
    /// Reuse policy under test.
    pub policy: ReusePolicy,
}

impl TrainerConfig {
    /// A small-scale default suitable for the convergence replicas.
    pub fn convergence_default(kind: LayerKind, policy: ReusePolicy) -> Self {
        Self {
            kind,
            layers: 2,
            batch_size: 256,
            lr: 0.3,
            seed: 0xacc,
            policy,
        }
    }
}

/// Epoch-level observation.
#[derive(Clone, Copy, Debug)]
pub struct EpochObservation {
    /// Mean training loss over the epoch's batches.
    pub train_loss: f32,
    /// Accuracy on the held-out test vertices.
    pub test_accuracy: f64,
    /// Largest embedding version gap observed so far (0 for exact).
    pub max_staleness: u64,
    /// §4.3's tolerated staleness bound `ε = max‖ΔW‖∞ × 2n`, measured over
    /// this epoch's super-batches (0 when no reuse policy is active).
    pub staleness_epsilon: f32,
}

/// The deterministic per-batch sampling seed shared by the sequential
/// trainer and the pipelined executor: any executor that derives block
/// sampling from `(config seed, epoch, batch index)` this way reproduces
/// the exact training trajectory regardless of thread count. Epoch and
/// index occupy disjoint bit ranges so seeds never collide between epochs,
/// however many batches an epoch has.
pub fn batch_sample_seed(config_seed: u64, epoch: usize, index: usize) -> u64 {
    config_seed ^ ((epoch as u64) << 32 | index as u64)
}

/// A batch after the CPU-side sample + gather stages: everything the train
/// stage needs, detached from the trainer so it can be produced by worker
/// threads.
pub struct PreparedBatch {
    /// Position of this batch within its epoch (train order).
    pub index: usize,
    /// Bottom-first sampled block stack.
    pub blocks: Vec<Block>,
    /// Raw features of `blocks[0].src()`, one row per source vertex.
    pub features: Matrix,
    /// Spent staging buffers that accumulated while preparing this batch;
    /// the engine's recycler folds the blocks and feature buffer in after
    /// training and returns the bundle to the pool. Empty on the allocating
    /// (sequential) path.
    pub scrap: BatchBuffers,
}

/// What one epoch's batch loop produced, before test-set evaluation —
/// see [`ConvergenceTrainer::train_steps_replicated`].
pub struct BatchLoopStats {
    /// Per-batch training losses, in epoch order.
    pub losses: Vec<f32>,
    /// §4.3's `ε = max‖ΔW‖∞ × 2n` over the epoch's super-batches (0 when
    /// no reuse policy is active).
    pub staleness_epsilon: f32,
}

/// A refresh created at one super-batch boundary, held until the next
/// boundary publishes it — the double buffer of the Fig 8 pipeline. Rows
/// split between the training device (`gpu`, computed at creation) and the
/// CPU share (`cpu`, possibly still in flight on a refresh worker).
struct PendingRefresh {
    gpu: RefreshOutput,
    cpu: CpuPart,
}

/// The in-flight refresh double buffer, materialised for a checkpoint.
/// Captured only after [`ConvergenceTrainer::settle_refresh`], so the CPU
/// share is always concrete rows (never a task on a worker).
#[derive(Clone, Debug, PartialEq)]
pub struct PendingSnapshot {
    /// Version stamp of the training-device share.
    pub gpu_version: u64,
    /// Rows of the training-device share.
    pub gpu_rows: Vec<(VertexId, Vec<f32>)>,
    /// Version stamp of the CPU share.
    pub cpu_version: u64,
    /// Rows of the CPU share.
    pub cpu_rows: Vec<(VertexId, Vec<f32>)>,
}

/// Everything about a [`ConvergenceTrainer`] that mutates across epochs —
/// the complete checkpoint payload. Everything *not* here (hot set, model
/// shapes, sampler, batch iterator) is a pure function of `(dataset,
/// config)` and is rebuilt deterministically by [`ConvergenceTrainer::new`];
/// all sampling/shuffling randomness is derived per `(seed, epoch, index)`,
/// so no generator state exists to capture. Restoring this state into a
/// freshly built trainer and training the remaining epochs is bit-identical
/// to never having stopped.
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Model parameter values, in the model's stable parameter order.
    pub params: Vec<Matrix>,
    /// Global batch counter == parameter version (§4.2.2).
    pub version: u64,
    /// The §4.1.3 hybrid-split knob (numerically inert, but restored so a
    /// resumed session re-plans from where it left off).
    pub refresh_cpu_fraction: f64,
    /// Historical-embedding store image, including staleness counters.
    pub store: Option<neutron_cache::StoreSnapshot>,
    /// The refresh awaiting publication at the next super-batch boundary.
    pub pending: Option<PendingSnapshot>,
}

/// A numeric trainer over a fully materialised [`Dataset`].
pub struct ConvergenceTrainer {
    dataset: Arc<Dataset>,
    config: TrainerConfig,
    model: GnnModel,
    sampler: NeighborSampler,
    batches: BatchIterator,
    optimizer: Sgd,
    store: Option<EmbeddingStore>,
    hot: Option<HotSet>,
    /// Global batch counter == model parameter version (§4.2.2).
    version: u64,
    /// Share of the hot set whose refresh the CPU backend computes; the
    /// remainder is computed by the training device at the boundary. Set by
    /// the engine's occupancy feedback (§4.1.3); numerically inert.
    refresh_cpu_fraction: f64,
    /// The refresh in flight between two super-batch boundaries.
    pending_refresh: Option<PendingRefresh>,
    /// Reusable sampler scratch for the boundary's training-device refresh
    /// share (avoids an `O(|V|)` buffer init per super-batch).
    refresh_scratch: neutron_sample::SamplerScratch,
}

impl ConvergenceTrainer {
    /// Builds the trainer; `dataset` must carry features
    /// ([`neutron_graph::DatasetSpec::build_full`]).
    pub fn new(dataset: Dataset, config: TrainerConfig) -> Self {
        assert!(
            dataset.features.is_some(),
            "convergence training needs features"
        );
        let model_cfg = ModelConfig {
            kind: config.kind,
            feature_dim: dataset.spec.feature_dim,
            hidden_dim: dataset.spec.hidden_dim,
            num_classes: dataset.spec.num_classes,
            layers: config.layers,
            seed: config.seed ^ 0x5eed,
        };
        let model = GnnModel::new(model_cfg);
        let fanout = Fanout::paper_default(config.layers);
        let sampler = NeighborSampler::new(fanout);
        let batches = BatchIterator::new(dataset.train.clone(), config.batch_size, config.seed);
        let (store, hot) = match &config.policy {
            ReusePolicy::Exact => (None, None),
            ReusePolicy::GasLike => (
                Some(EmbeddingStore::new(dataset.spec.hidden_dim, None)),
                None,
            ),
            ReusePolicy::HotnessAware {
                hot_ratio,
                super_batch,
            } => {
                let hotness = PreSampler::new(1).estimate(
                    &dataset.csr,
                    &sampler,
                    &batches,
                    config.seed ^ 0x407,
                );
                let hot = hotness.hot_set(*hot_ratio);
                // Strict bound 2n−1 (§4.2.2's largest possible gap).
                let bound = (2 * super_batch - 1) as u64;
                (
                    Some(EmbeddingStore::new(dataset.spec.hidden_dim, Some(bound))),
                    Some(hot),
                )
            }
        };
        let optimizer = Sgd::new(config.lr);
        Self {
            dataset: Arc::new(dataset),
            config,
            model,
            sampler,
            batches,
            optimizer,
            store,
            hot,
            version: 0,
            refresh_cpu_fraction: 1.0,
            pending_refresh: None,
            refresh_scratch: neutron_sample::SamplerScratch::new(),
        }
    }

    /// Shared handle to the dataset, for executors whose sample/gather
    /// stages run on worker threads.
    pub fn dataset_handle(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The neighbor sampler (cloneable for worker threads).
    pub fn sampler(&self) -> &NeighborSampler {
        &self.sampler
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The shuffled batches of `epoch`, in train order.
    pub fn epoch_batches(&self, epoch: usize) -> EpochBatches {
        self.batches.epoch_batches(epoch)
    }

    /// Collects the raw feature rows of `src` for test-set evaluation and
    /// the hot-embedding refresh (training batches gather through
    /// [`crate::gather::GatheredFeatures`]). Gathers by the sampler's `u32`
    /// ids directly; no widened index vector is built.
    pub fn gather_features(dataset: &Dataset, src: &[VertexId]) -> Matrix {
        dataset.features().gather_rows_u32(src)
    }

    /// Trains one epoch and reports loss/accuracy/staleness, including the
    /// §4.3 weight-variation monitor `ε = max‖ΔW‖∞ × 2n` measured across
    /// the epoch's super-batches. This is the serial epoch
    /// ([`crate::pipeline::run_serial_epoch`]) without a simulated link.
    pub fn train_epoch(&mut self, epoch: usize) -> EpochObservation {
        crate::pipeline::run_serial_epoch(self, epoch, 0.0).0
    }

    /// The epoch's batch loop alone — training, the super-batch barrier and
    /// the §4.3 weight-variation monitor, but no test-set evaluation — with
    /// the CPU share of each super-batch refresh delegated to `backend`.
    /// Batches must arrive in epoch order (`index` 0, 1, 2, …); each is a
    /// one-replica step of [`Self::train_steps_replicated`].
    ///
    /// The super-batch boundary is **publish-then-launch**: rows computed
    /// from the *previous* boundary's parameter snapshot are installed into
    /// the store, then a new [`RefreshTask`] is captured from the current
    /// parameters and handed to the backend to compute during the upcoming
    /// super-batch. Embeddings read during super-batch `k` therefore carry
    /// the version of boundary `k−1`, giving a gap in `[n, 2n−1]` — the
    /// paper's `< 2n` bound — while the refresh itself overlaps training.
    /// Numbers are independent of the backend: the task is a pure function
    /// of its snapshot (see [`crate::refresh`]).
    pub fn train_batches_with<I>(
        &mut self,
        prepared: I,
        backend: &mut dyn RefreshBackend,
    ) -> BatchLoopStats
    where
        I: IntoIterator<Item = PreparedBatch>,
    {
        let steps = prepared.into_iter().map(std::iter::once);
        self.train_steps_replicated(steps, backend, |_| {})
    }

    /// The one batch loop. Every item of `steps` carries one prepared batch
    /// **per replica**, in fixed replica order, all with the step's index.
    /// A one-replica step is the plain single-batch update (no clone, no
    /// averaging). A multi-replica step computes each replica's
    /// gradients at the same parameter version ([`Self::grad_prepared`]),
    /// tree-averages them ([`neutron_nn::tree_average`] —
    /// order-independent by construction) and applies one shared optimizer
    /// step; its recorded loss is the replica mean (the loss of the
    /// averaged gradient's mini-batch union). The super-batch refresh
    /// boundary fires on step index (see [`Self::train_batches_with`]) and
    /// the §4.3 weight-variation monitor spans the whole loop.
    pub fn train_steps_replicated<I, S, R>(
        &mut self,
        steps: I,
        backend: &mut dyn RefreshBackend,
        mut recycle: R,
    ) -> BatchLoopStats
    where
        I: IntoIterator<Item = S>,
        S: IntoIterator<Item = PreparedBatch>,
        S::IntoIter: ExactSizeIterator,
        R: FnMut(PreparedBatch),
    {
        let mut losses = Vec::new();
        let super_n = match &self.config.policy {
            ReusePolicy::HotnessAware { super_batch, .. } => *super_batch,
            _ => usize::MAX,
        };
        let mut max_delta = 0.0f32;
        let mut snapshot = (super_n != usize::MAX).then(|| self.model.snapshot());
        for (si, step) in steps.into_iter().enumerate() {
            let step = step.into_iter();
            let replicas = step.len();
            assert!(replicas > 0, "a step needs at least one replica batch");
            if super_n != usize::MAX && si % super_n == 0 {
                // Super-batch boundary: measure how far the weights moved
                // during the last super-batch, publish the refresh computed
                // from the previous boundary's snapshot, and launch the next.
                if let Some(snap) = &snapshot {
                    max_delta = max_delta.max(self.model.max_weight_delta(snap));
                    snapshot = Some(self.model.snapshot());
                }
                self.refresh_boundary(backend);
            }
            let mut groups = Vec::new();
            let mut loss_sum = 0.0f32;
            for item in step {
                assert_eq!(item.index, si, "batches must arrive in step order");
                if replicas == 1 {
                    loss_sum = self.train_prepared(&item.blocks, &item.features);
                } else {
                    loss_sum += self.grad_prepared(&item.blocks, &item.features);
                    // This replica's contribution to the all-reduce.
                    groups.push(self.model.params().iter().map(|p| p.grad.clone()).collect());
                }
                recycle(item);
            }
            if replicas > 1 {
                self.apply_averaged_grads(neutron_nn::tree_average(groups));
                loss_sum /= replicas as f32;
            }
            losses.push(loss_sum);
            self.version += 1;
        }
        if let Some(snap) = &snapshot {
            max_delta = max_delta.max(self.model.max_weight_delta(snap));
        }
        let staleness_epsilon = if super_n == usize::MAX {
            0.0
        } else {
            max_delta * 2.0 * super_n as f32
        };
        BatchLoopStats {
            losses,
            staleness_epsilon,
        }
    }

    /// Completes an epoch observation from batch-loop statistics, running
    /// the (exact, full-neighbor) test-set evaluation.
    pub fn observe_epoch(&self, stats: BatchLoopStats) -> EpochObservation {
        EpochObservation {
            train_loss: stats.losses.iter().sum::<f32>() / stats.losses.len().max(1) as f32,
            test_accuracy: self.evaluate(),
            max_staleness: self.max_staleness(),
            staleness_epsilon: stats.staleness_epsilon,
        }
    }

    /// The train stage: forward/backward/step over one prepared batch,
    /// splicing historical embeddings under the configured policy.
    fn train_prepared(&mut self, blocks: &[Block], feats: &Matrix) -> f32 {
        let loss = self.grad_prepared(blocks, feats);
        let mut params = self.model.params_mut();
        self.optimizer.step(&mut params);
        loss
    }

    /// Forward + backward over one prepared batch **without** the optimizer
    /// step: on return every parameter's `grad` holds this batch's
    /// gradients and the model weights are untouched. This is the
    /// per-replica half of a data-parallel step — replicas call it in turn
    /// at the same parameter version, the averaged gradients are installed
    /// with [`Self::apply_averaged_grads`], and one shared step follows.
    /// The single-replica update is exactly this followed by the step, so
    /// the split cannot change single-replica numerics.
    pub fn grad_prepared(&mut self, blocks: &[Block], feats: &Matrix) -> f32 {
        let bottom = &blocks[0];
        // Collect bottom-layer overrides from the HE store.
        let mut overrides: Vec<(usize, Vec<f32>)> = Vec::new();
        if let Some(store) = &mut self.store {
            for (row, &v) in bottom.dst().iter().enumerate() {
                let eligible = match (&self.hot, &self.config.policy) {
                    (Some(hot), _) => hot.contains(v),
                    (None, ReusePolicy::GasLike) => true,
                    _ => false,
                };
                if !eligible {
                    continue;
                }
                if let Some((stored, _gap)) = store
                    .get(v, self.version)
                    .expect("super-batch refresh keeps every entry within bound")
                {
                    overrides.push((row, stored.to_vec()));
                }
            }
        }
        let frozen: Vec<usize> = overrides.iter().map(|(r, _)| *r).collect();
        let pass = self
            .model
            .forward_with_bottom_override(blocks, feats, &overrides);
        // GAS records the embeddings it just computed (for the non-frozen
        // rows) so later batches can reuse them.
        if matches!(self.config.policy, ReusePolicy::GasLike) {
            if let Some(store) = &mut self.store {
                let bottom_out = &pass.outputs[0];
                for (row, &v) in bottom.dst().iter().enumerate() {
                    if !frozen.contains(&row) {
                        store.put(v, bottom_out.row(row).to_vec(), self.version);
                    }
                }
            }
        }
        let labels: Vec<usize> = blocks
            .last()
            .unwrap()
            .dst()
            .iter()
            .map(|&v| self.dataset.labels[v as usize])
            .collect();
        let lr = cross_entropy(pass.logits(), &labels);
        self.model.zero_grad();
        let _ = self
            .model
            .backward_with_mask(blocks, pass, &lr.d_logits, Some(&frozen));
        lr.loss
    }

    /// Installs externally averaged gradients and applies one shared
    /// optimizer step. Bumps no version: the parameter version counts
    /// steps, and [`Self::train_steps_replicated`] advances it once per
    /// step.
    pub fn apply_averaged_grads(&mut self, grads: neutron_nn::GradSet) {
        let mut params = self.model.params_mut();
        assert_eq!(params.len(), grads.len(), "gradient set shape mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            assert_eq!(p.grad.shape(), g.shape());
            p.grad = g;
        }
        self.optimizer.step(&mut params);
    }

    /// Total bytes of the model parameters — the payload one gradient
    /// all-reduce moves (gradients mirror parameter shapes exactly).
    pub fn model_bytes(&self) -> u64 {
        self.model.params().iter().map(|p| p.nbytes() as u64).sum()
    }

    /// One super-batch boundary of the double-buffered refresh pipeline:
    /// publish the rows prepared during the last super-batch, then capture
    /// a fresh parameter snapshot and launch the next refresh. The hot set
    /// is split by [`Self::refresh_cpu_fraction`]: the training device
    /// computes its share immediately (it has the hot features cached,
    /// §4.1.3), the CPU share goes to `backend` — inline for the sequential
    /// trainer, a dedicated worker under the engine.
    fn refresh_boundary(&mut self, backend: &mut dyn RefreshBackend) {
        let hot = match &self.hot {
            Some(h) if !h.is_empty() => h,
            _ => return,
        };
        // Publish: the refresh computed from the *previous* boundary's
        // snapshot becomes visible now, stamped with that older version.
        if let Some(pending) = self.pending_refresh.take() {
            let cpu = match pending.cpu {
                CpuPart::Ready(out) => out,
                CpuPart::Submitted => backend.collect(),
            };
            if let Some(store) = &mut self.store {
                store.put_rows(cpu.rows, cpu.version);
                store.put_rows(pending.gpu.rows, pending.gpu.version);
            }
        }
        // Launch: snapshot the bottom layer at the current version and
        // split the worklist. Both partitions are pure functions of the
        // same snapshot and seed, so the split never changes the rows.
        let (cpu_vertices, gpu_vertices) = hot.split_cpu_gpu(self.refresh_cpu_fraction);
        let fanout0 = self.sampler.fanout().at(0);
        let version = self.version;
        let seed = version ^ 0x5b;
        let make = |vertices: Vec<VertexId>, trainer: &Self| {
            RefreshTask::new(
                Arc::clone(&trainer.dataset),
                trainer.model.layers()[0].clone(),
                trainer.sampler.clone(),
                vertices,
                fanout0,
                version,
                seed,
            )
        };
        let gpu_task = make(gpu_vertices, self);
        let cpu_task = make(cpu_vertices, self);
        let gpu = gpu_task.run_with_scratch(&mut self.refresh_scratch);
        let cpu = backend.submit(cpu_task);
        self.pending_refresh = Some(PendingRefresh { gpu, cpu });
    }

    /// Resolves any refresh still in flight on `backend` so the trainer can
    /// outlive the backend (e.g. the end of an engine session): a
    /// `Submitted` CPU share is collected and held as ready rows, to be
    /// published at whatever boundary comes next.
    pub fn settle_refresh(&mut self, backend: &mut dyn RefreshBackend) {
        if let Some(pending) = &mut self.pending_refresh {
            if matches!(pending.cpu, CpuPart::Submitted) {
                pending.cpu = CpuPart::Ready(backend.collect());
            }
        }
    }

    /// Captures the trainer's complete mutable state for a checkpoint.
    /// Settles any refresh still in flight on `backend` first: collecting a
    /// submitted task yields exactly the rows a later `collect` would (the
    /// task is a pure function of its snapshot), so settling is invisible
    /// to the training trajectory — it only makes the state serializable.
    pub fn capture_state(&mut self, backend: &mut dyn RefreshBackend) -> TrainerState {
        self.settle_refresh(backend);
        let pending = self.pending_refresh.as_ref().map(|p| {
            let cpu = match &p.cpu {
                CpuPart::Ready(out) => out,
                CpuPart::Submitted => unreachable!("settle_refresh materialised the CPU share"),
            };
            PendingSnapshot {
                gpu_version: p.gpu.version,
                gpu_rows: p.gpu.rows.clone(),
                cpu_version: cpu.version,
                cpu_rows: cpu.rows.clone(),
            }
        });
        TrainerState {
            params: self.model.snapshot(),
            version: self.version,
            refresh_cpu_fraction: self.refresh_cpu_fraction,
            store: self.store.as_ref().map(|s| s.snapshot()),
            pending,
        }
    }

    /// Overwrites the trainer's mutable state from a checkpoint — the
    /// restore half of [`Self::capture_state`]. The trainer must have been
    /// built from the same `(dataset, config)` the state was captured under
    /// (shape mismatches are rejected); everything else about it is already
    /// deterministic, so after this call the next `train_epoch(k)` is
    /// bit-identical to the uninterrupted run's epoch `k`.
    pub fn restore_state(&mut self, state: &TrainerState) -> Result<(), String> {
        {
            let mut params = self.model.params_mut();
            if params.len() != state.params.len() {
                return Err(format!(
                    "parameter count mismatch: model has {}, checkpoint has {}",
                    params.len(),
                    state.params.len()
                ));
            }
            for (i, (p, m)) in params.iter_mut().zip(&state.params).enumerate() {
                if p.value.shape() != m.shape() {
                    return Err(format!(
                        "parameter {i} shape mismatch: model {:?}, checkpoint {:?}",
                        p.value.shape(),
                        m.shape()
                    ));
                }
            }
            for (p, m) in params.iter_mut().zip(&state.params) {
                p.value.as_mut_slice().copy_from_slice(m.as_slice());
                p.grad.fill_zero();
            }
        }
        if let Some(snap) = &state.store {
            if snap.dim != self.dataset.spec.hidden_dim {
                return Err(format!(
                    "store dimension mismatch: trainer {}, checkpoint {}",
                    self.dataset.spec.hidden_dim, snap.dim
                ));
            }
        }
        self.version = state.version;
        self.refresh_cpu_fraction = state.refresh_cpu_fraction;
        self.store = state.store.as_ref().map(EmbeddingStore::from_snapshot);
        self.pending_refresh = state.pending.as_ref().map(|p| PendingRefresh {
            gpu: RefreshOutput {
                rows: p.gpu_rows.clone(),
                version: p.gpu_version,
            },
            cpu: CpuPart::Ready(RefreshOutput {
                rows: p.cpu_rows.clone(),
                version: p.cpu_version,
            }),
        });
        Ok(())
    }

    /// The hot-vertex set under `HotnessAware`, `None` otherwise.
    pub fn hot_set(&self) -> Option<&HotSet> {
        self.hot.as_ref()
    }

    /// Sets the share of the hot set refreshed by the CPU backend (the
    /// §4.1.3 hybrid split knob). Clamped to `[0, 1]`. Changing the split
    /// moves work between devices but never changes training numerics.
    pub fn set_refresh_cpu_fraction(&mut self, fraction: f64) {
        self.refresh_cpu_fraction = fraction.clamp(0.0, 1.0);
    }

    /// The current CPU share of the refresh split.
    pub fn refresh_cpu_fraction(&self) -> f64 {
        self.refresh_cpu_fraction
    }

    /// Test accuracy with exact (non-stale, full-neighbor) inference.
    /// Hub neighborhoods are capped at 32 to bound the working set; the cap
    /// is deterministic so evaluation is reproducible.
    pub fn evaluate(&self) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for chunk in self.dataset.test.chunks(512) {
            let blocks =
                neutron_sample::full_blocks(&self.dataset.csr, chunk, self.config.layers, 32);
            let feats = Self::gather_features(&self.dataset, blocks[0].src());
            let pass = self.model.forward(&blocks, &feats);
            let labels: Vec<usize> = chunk
                .iter()
                .map(|&v| self.dataset.labels[v as usize])
                .collect();
            let acc = accuracy(pass.logits(), &labels);
            correct += (acc * labels.len() as f64).round() as usize;
            total += labels.len();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Largest observed embedding version gap (0 when no reuse happened).
    pub fn max_staleness(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.max_observed_gap())
    }

    /// Number of successful embedding reuses so far.
    pub fn embedding_reuses(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.reads())
    }

    /// The policy under test.
    pub fn policy(&self) -> &ReusePolicy {
        &self.config.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::InlineRefresh;
    use neutron_graph::DatasetSpec;

    fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
        cfg.batch_size = 64;
        cfg.lr = 0.5;
        ConvergenceTrainer::new(ds, cfg)
    }

    #[test]
    fn exact_training_learns_tiny_communities() {
        let mut t = trainer(ReusePolicy::Exact);
        let first = t.train_epoch(0);
        let mut last = first;
        for e in 1..8 {
            last = t.train_epoch(e);
        }
        assert!(
            last.test_accuracy > 0.5,
            "accuracy {} too low",
            last.test_accuracy
        );
        assert!(last.train_loss < first.train_loss, "loss must decrease");
        assert_eq!(last.max_staleness, 0);
    }

    #[test]
    fn hotness_aware_respects_staleness_bound() {
        let n = 2;
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: n,
        });
        for e in 0..6 {
            let obs = t.train_epoch(e);
            assert!(
                obs.max_staleness < 2 * n as u64,
                "gap {} ≥ 2n",
                obs.max_staleness
            );
        }
        assert!(
            t.embedding_reuses() > 0,
            "hot embeddings must actually be reused"
        );
    }

    #[test]
    fn hotness_aware_accuracy_close_to_exact() {
        let mut exact = trainer(ReusePolicy::Exact);
        let mut ours = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 4,
        });
        let mut acc_exact = 0.0;
        let mut acc_ours = 0.0;
        for e in 0..10 {
            acc_exact = exact.train_epoch(e).test_accuracy;
            acc_ours = ours.train_epoch(e).test_accuracy;
        }
        // Paper: "accuracy loss of no more than 1%"; allow a few points of
        // slack on the tiny replica.
        assert!(
            acc_ours > acc_exact - 0.08,
            "bounded staleness cost too much: {acc_ours} vs {acc_exact}"
        );
    }

    #[test]
    fn staleness_epsilon_shrinks_as_training_settles() {
        // §4.3: convergence relies on the weights changing slowly; the
        // measured ε = max‖ΔW‖·2n should drop from the first epochs to the
        // last ones as SGD approaches a minimum.
        let mut t = trainer(ReusePolicy::HotnessAware {
            hot_ratio: 0.25,
            super_batch: 2,
        });
        let early = t.train_epoch(0).staleness_epsilon;
        let mut late = early;
        for e in 1..10 {
            late = t.train_epoch(e).staleness_epsilon;
        }
        assert!(early > 0.0, "monitor must be active under HE reuse");
        assert!(
            late < early,
            "epsilon should shrink: early {early} late {late}"
        );
        // Exact training reports no epsilon.
        let mut exact = trainer(ReusePolicy::Exact);
        assert_eq!(exact.train_epoch(0).staleness_epsilon, 0.0);
    }

    #[test]
    fn capture_restore_resumes_bit_identically() {
        let policy = || ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        };
        let mut full = trainer(policy());
        let mut want = Vec::new();
        for e in 0..6 {
            let obs = full.train_epoch(e);
            want.push((obs.train_loss.to_bits(), obs.max_staleness));
        }
        // Kill after epoch 3, checkpoint, restore into a fresh trainer.
        let mut killed = trainer(policy());
        for e in 0..3 {
            killed.train_epoch(e);
        }
        let state = killed.capture_state(&mut InlineRefresh::default());
        let mut resumed = trainer(policy());
        resumed.restore_state(&state).unwrap();
        for (e, want) in want.iter().enumerate().skip(3) {
            let obs = resumed.train_epoch(e);
            assert_eq!(
                (obs.train_loss.to_bits(), obs.max_staleness),
                *want,
                "epoch {e} diverged after restore"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut small = trainer(ReusePolicy::Exact);
        let state = small.capture_state(&mut InlineRefresh::default());
        let ds = DatasetSpec::tiny().build_full();
        let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, ReusePolicy::Exact);
        cfg.layers = 3; // different parameter list
        let mut other = ConvergenceTrainer::new(ds, cfg);
        assert!(other.restore_state(&state).is_err());
    }

    #[test]
    fn gas_reuses_with_unbounded_staleness() {
        let mut t = trainer(ReusePolicy::GasLike);
        let mut max_gap = 0;
        for e in 0..4 {
            max_gap = t.train_epoch(e).max_staleness;
        }
        assert!(t.embedding_reuses() > 0);
        // With 3+ batches per epoch and no version control, gaps exceed a
        // NeutronOrch-style bound of 2n for small n.
        assert!(
            max_gap >= 2,
            "GAS-like staleness should be loose, got {max_gap}"
        );
    }
}
