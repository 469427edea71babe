//! The super-batch hot-embedding refresh as a detachable unit of work.
//!
//! NeutronOrch's Fig 8 timeline overlaps the CPU's hot-embedding refresh
//! with ongoing GPU training. To make that overlap *deterministic*, the
//! refresh is factored into a [`RefreshTask`]: a pure closure over
//!
//! - an **immutable parameter snapshot** of the bottom layer (cloned
//!   [`neutron_nn::param::Param`] values inside a [`Layer`]), taken on the
//!   train thread at a super-batch boundary,
//! - the list of hot vertices to recompute, and
//! - a sampling seed derived from the boundary's model version.
//!
//! Running the task later — on a background worker, or inline — always
//! produces bit-identical rows, because the snapshot freezes the weights
//! and [`NeighborSampler::sample_one_hop_stable`] seeds neighbor draws per
//! vertex, making the output independent of *where*, *when* and over *which
//! partition* of the hot set the task runs. That partition independence is
//! what lets the §4.1.3 hybrid split move vertices between the CPU refresh
//! worker and the training device without perturbing the training
//! trajectory.
//!
//! [`RefreshBackend`] abstracts the execution site: the sequential trainer
//! uses [`InlineRefresh`] (compute at submission, on the train thread); an
//! engine session ([`crate::session`]) ships tasks to a dedicated refresh
//! worker and collects the rows at the next boundary.

use crate::trainer::ConvergenceTrainer;
use neutron_graph::{Dataset, VertexId};
use neutron_nn::layers::Layer;
use neutron_sample::{NeighborSampler, SamplerScratch};
use neutron_tensor::alloc::{self, Stage};
use std::sync::Arc;

/// One super-batch's refresh work over a subset of the hot set.
pub struct RefreshTask {
    dataset: Arc<Dataset>,
    /// Immutable snapshot of the bottom layer's parameters.
    bottom: Layer,
    sampler: NeighborSampler,
    vertices: Vec<VertexId>,
    fanout: usize,
    /// Model version the snapshot was taken at; stamps the output rows.
    version: u64,
    seed: u64,
}

/// The rows a [`RefreshTask`] produced, ready to publish into the
/// historical-embedding store at the next super-batch boundary.
pub struct RefreshOutput {
    /// `(vertex, embedding row)` pairs, one per task vertex.
    pub rows: Vec<(VertexId, Vec<f32>)>,
    /// Version stamp for every row (the snapshot's model version).
    pub version: u64,
}

impl RefreshOutput {
    /// An output with no rows (empty task partition).
    pub fn empty(version: u64) -> Self {
        Self {
            rows: Vec::new(),
            version,
        }
    }
}

impl RefreshTask {
    /// Captures a refresh task. `bottom` must be a clone of the model's
    /// bottom layer taken at the boundary (the parameter snapshot).
    pub fn new(
        dataset: Arc<Dataset>,
        bottom: Layer,
        sampler: NeighborSampler,
        vertices: Vec<VertexId>,
        fanout: usize,
        version: u64,
        seed: u64,
    ) -> Self {
        Self {
            dataset,
            bottom,
            sampler,
            vertices,
            fanout,
            version,
            seed,
        }
    }

    /// Number of vertices this task recomputes.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the task has no vertices (e.g. an empty split partition).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The version stamp the output will carry.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Executes the task: partition-stable one-hop sampling, feature
    /// gather, bottom-layer forward under the frozen snapshot. Pure — safe
    /// to run on any thread, any number of times, with identical results.
    pub fn run(&self) -> RefreshOutput {
        let mut scratch = SamplerScratch::new();
        self.run_with_scratch(&mut scratch)
    }

    /// [`Self::run`] against a caller-owned sampler scratch, so repeat
    /// refreshers (a worker looping over tasks, the trainer at successive
    /// boundaries) amortise the dedup buffers instead of re-zeroing
    /// `O(|V|)` state per super-batch.
    pub fn run_with_scratch(&self, scratch: &mut SamplerScratch) -> RefreshOutput {
        RefreshOutput {
            rows: self.run_partition(&self.vertices, scratch),
            version: self.version,
        }
    }

    /// [`Self::run`], sharded across up to `workers` scoped threads.
    ///
    /// Because the task is partition-stable (per-vertex sampling seeds, a
    /// frozen parameter snapshot), running contiguous shards concurrently
    /// and concatenating their rows in shard order reproduces the serial
    /// output bit for bit — the same property
    /// `split_partitions_reproduce_the_full_run_row_for_row` asserts for
    /// the hybrid split. Shards below [`Self::MIN_SHARD_VERTICES`] aren't
    /// worth a thread spawn; the effective worker count is capped so every
    /// shard stays at least that large.
    pub fn run_sharded(&self, workers: usize) -> RefreshOutput {
        let workers = workers
            .min(self.vertices.len() / Self::MIN_SHARD_VERTICES)
            .max(1);
        if workers <= 1 {
            return self.run();
        }
        let chunk = self.vertices.len().div_ceil(workers);
        let mut rows = Vec::with_capacity(self.vertices.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .vertices
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        // A new thread starts untagged; shard work is
                        // refresh work wherever the task was launched.
                        alloc::set_stage(Stage::Refresh);
                        let mut scratch = SamplerScratch::new();
                        self.run_partition(part, &mut scratch)
                    })
                })
                .collect();
            for h in handles {
                rows.extend(h.join().expect("refresh shard panicked"));
            }
        });
        RefreshOutput {
            rows,
            version: self.version,
        }
    }

    /// Smallest vertex count worth its own refresh shard (thread spawn +
    /// per-shard `SamplerScratch` are amortised over at least this much
    /// sampling + forward work).
    pub const MIN_SHARD_VERTICES: usize = 64;

    /// The shared partition body: sampling, gather and bottom-layer forward
    /// over an arbitrary slice of the task's vertex list.
    fn run_partition(
        &self,
        vertices: &[VertexId],
        scratch: &mut SamplerScratch,
    ) -> Vec<(VertexId, Vec<f32>)> {
        if vertices.is_empty() {
            return Vec::new();
        }
        let block = self.sampler.sample_one_hop_stable_with_scratch(
            &self.dataset.csr,
            vertices,
            self.fanout,
            self.seed,
            scratch,
        );
        // The train path's gather — same helper, so "Gather (FC)" can never
        // drift between training and refresh.
        let feats = ConvergenceTrainer::gather_features(&self.dataset, block.src());
        let (out, _ctx) = self.bottom.forward(&block, &feats);
        vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, out.row(i).to_vec()))
            .collect()
    }
}

/// Where the CPU-assigned share of a refresh executes.
///
/// `submit` is called at the super-batch boundary that *creates* the task;
/// the result is needed one super-batch later, at the boundary that
/// *publishes* it. A backend may therefore compute asynchronously between
/// the two calls.
pub trait RefreshBackend {
    /// Begins computing `task`; returns either the finished rows
    /// ([`CpuPart::Ready`]) or [`CpuPart::Submitted`] if the backend will
    /// deliver them through [`RefreshBackend::collect`].
    fn submit(&mut self, task: RefreshTask) -> CpuPart;

    /// Blocks until the rows of the previously `Submitted` task are ready.
    /// Called exactly once per `Submitted` return.
    fn collect(&mut self) -> RefreshOutput;
}

/// State of a refresh task's CPU share between the boundary that created it
/// and the boundary that publishes it.
pub enum CpuPart {
    /// Rows already computed (inline backend).
    Ready(RefreshOutput),
    /// Rows owed by the backend's worker; resolve with
    /// [`RefreshBackend::collect`].
    Submitted,
}

/// The synchronous backend: computes on the submitting (train) thread.
/// This is the sequential baseline's execution site — same numbers as any
/// asynchronous backend, no overlap.
#[derive(Default)]
pub struct InlineRefresh {
    scratch: SamplerScratch,
}

impl RefreshBackend for InlineRefresh {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        CpuPart::Ready(task.run_with_scratch(&mut self.scratch))
    }

    fn collect(&mut self) -> RefreshOutput {
        unreachable!("inline refresh never leaves a task in flight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_graph::DatasetSpec;
    use neutron_nn::layers::LayerKind;
    use neutron_sample::Fanout;

    fn fixture() -> (Arc<Dataset>, Layer, NeighborSampler) {
        let ds = Arc::new(DatasetSpec::tiny().build_full());
        let bottom = Layer::new(
            LayerKind::Gcn,
            ds.spec.feature_dim,
            ds.spec.hidden_dim,
            false,
            7,
        );
        let sampler = NeighborSampler::new(Fanout::new(vec![4, 4]));
        (ds, bottom, sampler)
    }

    #[test]
    fn task_output_is_deterministic_and_stamped() {
        let (ds, bottom, sampler) = fixture();
        let verts: Vec<u32> = (0..20).collect();
        let task = |b: Layer| {
            RefreshTask::new(
                Arc::clone(&ds),
                b,
                sampler.clone(),
                verts.clone(),
                4,
                9,
                0x5b,
            )
        };
        let a = task(bottom.clone()).run();
        let b = task(bottom.clone()).run();
        assert_eq!(a.version, 9);
        assert_eq!(a.rows.len(), 20);
        for ((va, ra), (vb, rb)) in a.rows.iter().zip(&b.rows) {
            assert_eq!(va, vb);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn split_partitions_reproduce_the_full_run_row_for_row() {
        // The partition-independence property the hybrid split relies on:
        // computing [0..k) and [k..n) separately must equal one full run.
        let (ds, bottom, sampler) = fixture();
        let verts: Vec<u32> = (5..45).collect();
        let run = |vs: Vec<u32>| {
            RefreshTask::new(
                Arc::clone(&ds),
                bottom.clone(),
                sampler.clone(),
                vs,
                4,
                3,
                0xfeed,
            )
            .run()
        };
        let full = run(verts.clone());
        for k in [0usize, 13, 40] {
            let left = run(verts[..k].to_vec());
            let right = run(verts[k..].to_vec());
            let merged: Vec<_> = left.rows.into_iter().chain(right.rows).collect();
            assert_eq!(merged.len(), full.rows.len());
            for ((va, ra), (vb, rb)) in merged.iter().zip(&full.rows) {
                assert_eq!(va, vb, "split at {k}");
                assert_eq!(ra, rb, "split at {k}: rows diverged for vertex {va}");
            }
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial_at_any_worker_count() {
        let (ds, bottom, sampler) = fixture();
        // 280 vertices: enough for up to 4 real shards at MIN_SHARD_VERTICES.
        let verts: Vec<u32> = (0..280).collect();
        let task = RefreshTask::new(ds, bottom, sampler, verts, 4, 11, 0xc0de);
        let serial = task.run();
        for workers in [0usize, 1, 2, 3, 4, 16] {
            let sharded = task.run_sharded(workers);
            assert_eq!(sharded.version, serial.version);
            assert_eq!(sharded.rows.len(), serial.rows.len());
            for ((va, ra), (vb, rb)) in sharded.rows.iter().zip(&serial.rows) {
                assert_eq!(va, vb, "workers={workers}");
                assert_eq!(ra, rb, "workers={workers}: row diverged for vertex {va}");
            }
        }
    }

    #[test]
    fn empty_task_yields_empty_output() {
        let (ds, bottom, sampler) = fixture();
        let task = RefreshTask::new(ds, bottom, sampler, Vec::new(), 4, 1, 2);
        assert!(task.is_empty());
        assert!(task.run().rows.is_empty());
    }

    #[test]
    fn inline_backend_computes_at_submission() {
        let (ds, bottom, sampler) = fixture();
        let task = RefreshTask::new(ds, bottom, sampler, vec![1, 2, 3], 4, 0, 1);
        match InlineRefresh::default().submit(task) {
            CpuPart::Ready(out) => assert_eq!(out.rows.len(), 3),
            CpuPart::Submitted => panic!("inline backend must be synchronous"),
        }
    }
}
