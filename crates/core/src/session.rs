//! The one session driver behind [`crate::engine::TrainingEngine`] and
//! [`crate::replica::ReplicatedEngine`].
//!
//! A session keeps one staging topology, one refresh worker and one train
//! thread alive across its epochs:
//!
//! ```text
//!            ┌────────────── generation-stamped epoch gate ──────────────┐
//!            ▼                                                           │
//! split: [sample xN] -> [gather xM] -> [transfer] ─┐                     │
//! fused: [replica 0: sample+gather+transfer] ──────┼─ lane 0 ─┐          │
//!        [replica r: sample+gather+transfer] ──────┴─ lane r ─┴> [train] (epoch
//!            ▲                                                    │     loop)
//!            └────────── spent-buffer return channel (pool) ◄─────┘
//!
//! [refresh worker] <--task-- train thread at super-batch boundaries
//!                  --rows--> published at the *next* boundary (double buffer)
//! ```
//!
//! - **Staging** (`Topology`): `Split` pools of work-stealing samplers,
//!   gatherers and a transfer worker feed one lane; `Fused` runs one
//!   sample→gather→transfer worker per replica over its hash partition,
//!   each feeding its own lane. Every lane reaches the train thread through
//!   an `EpochReorder` with a stall timeout.
//! - **Training**: each step takes one batch from every live lane and goes
//!   through [`ConvergenceTrainer::train_steps_replicated`]. At super-batch
//!   boundaries the refresh worker computes the CPU share of the hot-vertex
//!   refresh, published one boundary later (Fig 8, gap `< 2n`); waiting on
//!   it counts as train starvation.
//! - **Caches** (`Planner`): re-planned from measured occupancy after every
//!   epoch (§4.1.3/§4.3), or a static per-replica owned-hot snapshot.
//! - **Supervision**: a worker panic, a stall or a bad checkpoint becomes a
//!   typed [`SessionError`]; a fused replica's death goes through the
//!   [`FailurePolicy`] (fail, drop and redistribute, or restore).
//!
//! Every batch list, sampling seed and refresh task is a pure function of
//! `(seed, epoch, step, replica)` and lanes are consumed in fixed order, so
//! losses are bit-identical at any thread count, pool size, cache budget
//! and split, and a one-replica fused session equals a split one.

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::fault::{FailureAction, FailureEvent, FailurePolicy, FaultKind, FaultPlan};
use crate::gather::{GatheredFeatures, StagedBatch};
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::pool::BatchBuffers;
use crate::refresh::{CpuPart, RefreshBackend, RefreshOutput, RefreshTask};
use crate::trainer::{batch_sample_seed, ConvergenceTrainer, EpochObservation, PreparedBatch};
use neutron_cache::{FeatureCache, HybridPolicy};
use neutron_graph::partition::{hash_partition, Partition};
use neutron_graph::{Dataset, VertexId};
use neutron_hetero::InterconnectSpec;
use neutron_sample::{
    BatchIterator, Block, BlockBuilder, EpochBatches, LocalityCounts, NeighborSampler,
    SamplerScratch,
};
use neutron_tensor::alloc::{self, AllocSnapshot, Stage};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Every session lock guards data that no holder panics while updating; a
/// poisoned one means the program itself is broken.
const POISONED: &str = "a session thread panicked while holding a lock";

/// A bounded MPMC channel built on `Mutex` + `Condvar` — the workspace
/// avoids external concurrency crates, and `std::sync::mpsc` receivers
/// cannot be shared by a pool of gather workers.
struct Bounded<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Bounded<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks while full. Returns `false` (dropping `item`) if the channel
    /// was closed.
    fn send(&self, item: T) -> bool {
        self.send_or_return(item).is_none()
    }

    /// Blocks while full. On a closed channel the item is handed back so
    /// the caller can fall back to computing locally.
    fn send_or_return(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().expect(POISONED);
        while st.queue.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).expect(POISONED);
        }
        if st.closed {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Blocks while empty. Returns `None` once the channel is closed *and*
    /// drained.
    fn recv(&self) -> Option<T> {
        match self.recv_timeout(Duration::MAX) {
            RecvTimeout::Item(item) => Some(item),
            _ => None,
        }
    }

    /// Non-blocking **LIFO** receive: `None` when the queue is momentarily
    /// empty (or closed) — the pool path's "no spare bundle, allocate
    /// fresh". Popping the most recently returned item keeps a buffer pool
    /// cycling its hottest bundles — the ones whose capacities have already
    /// grown to the working set — so steady state arrives after a handful
    /// of batches instead of after every pooled bundle has individually
    /// served the largest batch.
    fn try_recv(&self) -> Option<T> {
        let mut st = self.state.lock().expect(POISONED);
        let item = st.queue.pop_back();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Non-blocking send: hands `item` back when the channel is full or
    /// closed, so a bounded pool can simply drop surplus bundles instead
    /// of stalling the train stage on its own recycling.
    fn try_send(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().expect(POISONED);
        if st.closed || st.queue.len() >= self.capacity {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Like [`Self::recv`], but gives up after `timeout` of continuous
    /// emptiness — the supervisor's only way to tell a *stalled* producer
    /// (alive but not progressing) from a merely slow one. A closed+drained
    /// channel still reports [`RecvTimeout::Closed`] immediately.
    fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.not_full.notify_one();
                return RecvTimeout::Item(item);
            }
            if st.closed {
                return RecvTimeout::Closed;
            }
            st = match deadline {
                None => self.not_empty.wait(st).expect(POISONED),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return RecvTimeout::TimedOut;
                    }
                    self.not_empty
                        .wait_timeout(st, deadline - now)
                        .expect(POISONED)
                        .0
                }
            };
        }
    }

    /// Marks the channel closed; receivers drain the queue then see `None`.
    fn close(&self) {
        self.state.lock().expect(POISONED).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Empties and reopens a closed channel, for a replacement producer.
    fn reopen(&self) {
        let mut st = self.state.lock().expect(POISONED);
        st.queue.clear();
        st.closed = false;
    }
}

/// Outcome of [`Bounded::recv_timeout`].
enum RecvTimeout<T> {
    /// An item arrived within the timeout.
    Item(T),
    /// The channel is closed and drained — the producer exited.
    Closed,
    /// Nothing arrived for the whole timeout — the producer may be stalled.
    TimedOut,
}

/// Accumulates busy nanoseconds across worker threads.
#[derive(Default)]
pub(crate) struct BusyNs(AtomicU64);

impl BusyNs {
    pub(crate) fn add(&self, since: Instant) {
        self.0
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn seconds(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Runs a closure on drop — used so that channel close / gate shutdown
/// happens even when a stage panics, turning a bug-induced panic into a
/// propagated failure instead of a deadlock (workers blocked forever on a
/// channel nobody will close).
struct Defer<F: FnMut()>(F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// The transfer stage for one batch: returns the host→device bytes it
/// charges and, when a simulated link is configured (`h2d_gibps > 0`),
/// stalls for the PCIe time. Shared by the session and the serial epoch so
/// their per-batch costing can never drift apart. Charges only the batch's
/// *miss* bytes — cache-resident features never cross the link.
pub(crate) fn transfer_stage(h2d_gibps: f64, batch: &StagedBatch) -> u64 {
    let bytes = batch.h2d_bytes();
    if h2d_gibps > 0.0 {
        let secs = bytes as f64 / (h2d_gibps * (1u64 << 30) as f64);
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
    bytes
}

/// Why a training session failed. Every variant is a *detected* failure:
/// the session's supervisor turned a worker panic, a stall or a bad
/// checkpoint into this typed error instead of hanging a `recv` forever.
#[derive(Clone, Debug)]
pub enum SessionError {
    /// A stage worker panicked; the batch it held is lost and the pipeline
    /// was poisoned so every other stage unblocked.
    WorkerPanicked {
        /// Stage the panicking worker belonged to.
        stage: &'static str,
        /// The panic payload (stringified).
        message: String,
    },
    /// The pipeline stopped making progress: nothing reached the train
    /// stage for the configured stall timeout while work remained.
    Stalled {
        /// Epoch being trained when progress stopped.
        epoch: usize,
        /// First batch index that never arrived.
        step: usize,
        /// The timeout that expired.
        timeout: Duration,
    },
    /// A replica's worker died (panicked or exited early) mid-epoch and the
    /// failure policy was [`FailurePolicy::Fail`].
    ReplicaDied {
        /// The replica that died.
        replica: usize,
        /// Epoch at detection.
        epoch: usize,
        /// Step (batch index) at detection.
        step: usize,
        /// What was detected.
        detail: String,
    },
    /// Every replica died; no degradation policy can continue.
    NoSurvivors {
        /// Epoch at which the last replica was lost.
        epoch: usize,
    },
    /// An epoch ended with fewer batches trained than scheduled and no
    /// panic to blame — e.g. every worker of a stage exited cleanly.
    EpochIncomplete {
        /// The epoch that came up short.
        epoch: usize,
        /// Batches actually trained.
        trained: usize,
        /// Batches scheduled.
        total: usize,
    },
    /// Writing or reading a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::WorkerPanicked { stage, message } => {
                write!(f, "{stage} worker panicked: {message}")
            }
            SessionError::Stalled {
                epoch,
                step,
                timeout,
            } => write!(
                f,
                "pipeline stalled in epoch {epoch}: batch {step} never arrived within {timeout:?}"
            ),
            SessionError::ReplicaDied {
                replica,
                epoch,
                step,
                detail,
            } => write!(
                f,
                "replica {replica} died in epoch {epoch} at step {step}: {detail}"
            ),
            SessionError::NoSurvivors { epoch } => {
                write!(f, "all replicas lost by epoch {epoch}")
            }
            SessionError::EpochIncomplete {
                epoch,
                trained,
                total,
            } => write!(
                f,
                "epoch {epoch} incomplete: trained {trained} of {total} batches"
            ),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

/// One lane's share of an epoch.
struct LaneJob {
    /// The lane's shuffled batches, in train order.
    batches: Arc<EpochBatches>,
    /// Batches to stage: the epoch's step count (no unmatched tail).
    limit: usize,
    /// Claim counter: producers `fetch_add` to pick the next batch.
    next: AtomicUsize,
    /// The lane's feature cache, published with the job so a rebuild
    /// between epochs can never race a straggling gather.
    cache: Arc<FeatureCache>,
}

/// One epoch's worth of work, published to every persistent producer.
#[derive(Clone)]
struct EpochJob {
    /// Gate generation this job was published under (strictly increasing).
    generation: u64,
    /// Epoch number (seeds batch sampling).
    epoch: usize,
    /// One job per lane, indexed by replica.
    lanes: Arc<[LaneJob]>,
}

/// The barrier persistent producers park on between epochs. The train
/// thread opens a new generation with the next epoch's job; workers wake,
/// drain their lane's job, and wait for a generation newer than the last
/// one they served.
#[derive(Default)]
struct EpochGate {
    state: Mutex<(Option<EpochJob>, bool)>,
    opened: Condvar,
}

impl EpochGate {
    /// Publishes `job` under its (new) generation, waking every parked
    /// worker.
    fn open(&self, job: EpochJob) {
        self.state.lock().expect(POISONED).0 = Some(job);
        self.opened.notify_all();
    }

    /// Parks until a generation newer than `seen` is open (returning its
    /// job) or the gate shuts down (returning `None`).
    fn wait_past(&self, seen: u64) -> Option<EpochJob> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            match &*st {
                (_, true) => return None,
                (Some(job), _) if job.generation > seen => return Some(job.clone()),
                _ => st = self.opened.wait(st).expect(POISONED),
            }
        }
    }

    /// Ends the session: every parked worker wakes and exits.
    fn shutdown(&self) {
        self.state.lock().expect(POISONED).1 = true;
        self.opened.notify_all();
    }
}

/// One sampled batch in flight between a sampler and its gather step,
/// carrying the recycled buffer bundle whose block capacity it was (partly)
/// built from — the gather step draws its own buffers from the same
/// bundle, and the whole thing rides to the train stage and back to the
/// pool.
struct SampledItem {
    index: usize,
    blocks: Vec<Block>,
    cache: Arc<FeatureCache>,
    bufs: BatchBuffers,
}

/// Train-stage input adaptor for one lane: receives possibly out-of-order
/// staged batches and yields exactly `remaining` of them per epoch in
/// order, tracking starvation time and the reorder window. Bounded by count
/// (not channel close) because the channels outlive the epoch. The window
/// is a ring of slots indexed by distance from the next in-order batch,
/// reused across epochs.
struct EpochReorder<'a> {
    source: &'a Bounded<StagedBatch>,
    window: VecDeque<Option<StagedBatch>>,
    next_index: usize,
    remaining: usize,
    live: usize,
    wait: Duration,
    peak: usize,
    /// How long an empty channel may wait before the lane counts as stalled.
    stall_timeout: Duration,
    /// Latched when a wait timed out: the feed ends and the supervisor
    /// handles the stall instead of blocking forever.
    stalled: bool,
}

impl<'a> EpochReorder<'a> {
    fn new(source: &'a Bounded<StagedBatch>, stall_timeout: Duration) -> Self {
        Self {
            source,
            window: VecDeque::new(),
            next_index: 0,
            remaining: 0,
            live: 0,
            wait: Duration::ZERO,
            peak: 0,
            stall_timeout,
            stalled: false,
        }
    }

    /// Starts an epoch of `total` batches.
    fn begin(&mut self, total: usize) {
        self.window.clear(); // keeps capacity: steady-state epochs never regrow it
        self.next_index = 0;
        self.remaining = total;
        self.live = 0;
        self.wait = Duration::ZERO;
        self.peak = 0;
        self.stalled = false;
    }
}

impl Iterator for EpochReorder<'_> {
    type Item = StagedBatch;

    fn next(&mut self) -> Option<StagedBatch> {
        if self.remaining == 0 || self.stalled {
            return None;
        }
        loop {
            if matches!(self.window.front(), Some(Some(_))) {
                let item = self
                    .window
                    .pop_front()
                    .flatten()
                    .expect("front slot filled");
                self.next_index += 1;
                self.remaining -= 1;
                self.live -= 1;
                return Some(item);
            }
            let t0 = Instant::now();
            let received = self.source.recv_timeout(self.stall_timeout);
            self.wait += t0.elapsed();
            match received {
                RecvTimeout::Item(item) => {
                    let offset = item.index - self.next_index;
                    while self.window.len() <= offset {
                        self.window.push_back(None);
                    }
                    self.window[offset] = Some(item);
                    self.live += 1;
                    self.peak = self.peak.max(self.live);
                }
                RecvTimeout::Closed => return None,
                RecvTimeout::TimedOut => {
                    self.stalled = true;
                    return None;
                }
            }
        }
    }
}

/// Refresh backend bridging the trainer's super-batch boundaries to the
/// session's dedicated refresh worker.
struct WorkerRefresh<'a> {
    tasks: &'a Bounded<RefreshTask>,
    outputs: &'a Bounded<RefreshOutput>,
    /// Time the train thread spent blocked in [`Self::collect`]. This is
    /// train *starvation*: counted as compute, occupancy would read ~1.0
    /// exactly when the refresh worker is the bottleneck, inverting the
    /// §4.1.3 feedback (hot vertices would stay on the overloaded CPU).
    wait: Duration,
    /// Set when the refresh worker is gone (a closed channel on submit or
    /// collect); the supervisor fails the session at the epoch boundary.
    failed: bool,
}

impl RefreshBackend for WorkerRefresh<'_> {
    fn submit(&mut self, task: RefreshTask) -> CpuPart {
        match self.tasks.send_or_return(task) {
            None => CpuPart::Submitted,
            Some(task) => {
                self.failed = true;
                CpuPart::Ready(task.run())
            }
        }
    }

    fn collect(&mut self) -> RefreshOutput {
        let t0 = Instant::now();
        let out = self.outputs.recv();
        self.wait += t0.elapsed();
        out.unwrap_or_else(|| {
            self.failed = true;
            RefreshOutput::empty(0)
        })
    }
}

/// One epoch's measurements for one replica (for the split topology, the
/// whole pipeline).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaEpochStats {
    /// Busy seconds of this replica's sampling.
    pub sample_seconds: f64,
    /// Busy seconds of this replica's gather.
    pub gather_seconds: f64,
    /// Busy seconds of this replica's transfer (incl. simulated PCIe stall).
    pub transfer_seconds: f64,
    /// Host→device bytes this replica staged this epoch.
    pub h2d_bytes: u64,
    /// Feature bytes this replica pulled for source vertices its
    /// partition does not own — the interconnect (not PCIe) traffic.
    pub remote_feature_bytes: u64,
    /// Neighbor picks that landed on partition-local vertices.
    pub local_picks: u64,
    /// Neighbor picks that landed on remote vertices.
    pub remote_picks: u64,
    /// Batches this replica contributed to the epoch's steps.
    pub batches: usize,
    /// Tail batches dropped because another replica had fewer.
    pub dropped_batches: usize,
}

/// One epoch of a session.
#[derive(Clone, Debug)]
pub struct EpochRun {
    /// Epoch number.
    pub epoch: usize,
    /// Loss/accuracy/staleness of the epoch.
    pub observation: EpochObservation,
    /// Measured stage breakdown, summed over replicas. `num_batches`
    /// counts optimizer *steps* (each consuming one batch per replica).
    pub report: PipelineReport,
    /// Per-replica breakdown, indexed by replica id (one entry for the
    /// split topology).
    pub per_replica: Vec<ReplicaEpochStats>,
    /// Optimizer steps this epoch (min batch count across replicas).
    pub steps: usize,
    /// Total ring all-reduce wire bytes across all replicas this epoch:
    /// `steps × 2(R−1) × model_bytes`; zero at R=1.
    pub allreduce_bytes: u64,
    /// Remote feature bytes summed across replicas.
    pub remote_feature_bytes: u64,
    /// Simulated seconds the interconnect model prices this epoch's
    /// all-reduces and remote pulls at (closed-form, not slept).
    pub interconnect_seconds: f64,
    /// CPU share of the hot-set refresh during this epoch (1.0 = all
    /// refreshes on the CPU worker).
    pub refresh_cpu_fraction: f64,
    /// Busy seconds of the refresh worker during this epoch's wall-clock
    /// window (credited where a task ran, not where it was submitted).
    pub refresh_seconds: f64,
    /// Seconds of test-set evaluation after the epoch, kept out of
    /// `report.epoch_seconds` so throughput measures training only.
    pub eval_seconds: f64,
    /// Vertices in the feature caches the gathers probed this epoch,
    /// summed over replicas (a re-plan takes effect next epoch).
    pub cache_vertices: usize,
    /// EWMA-smoothed train occupancy the adaptive planner sees; the raw
    /// measurement when the adaptive split is off.
    pub smoothed_occupancy: f64,
    /// Heap allocations attributed per stage during this epoch's training
    /// window (gate open → last batch trained; evaluation excluded). All
    /// zero unless a [`neutron_tensor::alloc::CountingAllocator`] is
    /// installed and enabled.
    pub allocs: AllocSnapshot,
    /// Bytes of the checkpoint written at this epoch's boundary (0 when no
    /// checkpoint was due).
    pub checkpoint_bytes: u64,
    /// Wall-clock spent capturing + writing that checkpoint, outside
    /// `report.epoch_seconds`.
    pub checkpoint_seconds: f64,
}

/// What a whole session produced.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-epoch results, in order.
    pub epochs: Vec<EpochRun>,
    /// Number of replicas the session ran.
    pub replicas: usize,
    /// Model parameter bytes (the all-reduce payload per step).
    pub model_bytes: u64,
    /// Worker threads spawned — stage or replica workers plus the refresh
    /// worker, once per session, plus any replacement after a restore.
    pub workers_spawned: usize,
    /// Gate generations opened (== epochs run, counting restored re-runs).
    pub generations: u64,
    /// Wall-clock from session start to all workers spawned — the one-time
    /// cost the persistent pool amortises over every epoch.
    pub startup_seconds: f64,
    /// Edge-cut fraction of the hash partition (0 for the split topology).
    pub partition_cut_fraction: f64,
    /// Size balance (max/ideal) of the partition (1 for the split topology).
    pub partition_balance: f64,
}

impl SessionReport {
    /// The adaptive split's trajectory: CPU refresh share per epoch.
    pub fn cpu_fraction_trajectory(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.refresh_cpu_fraction).collect()
    }

    /// Host→device bytes shipped per epoch — the trajectory that drops as
    /// the planner shifts hot vertices into the GPU feature cache.
    pub fn h2d_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.report.h2d_bytes).collect()
    }

    /// Summed wall-clock of all epochs.
    pub fn total_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.report.epoch_seconds).sum()
    }

    /// Per-epoch mean train loss, in epoch order.
    pub fn loss_trajectory(&self) -> Vec<f32> {
        self.epochs
            .iter()
            .map(|e| e.observation.train_loss)
            .collect()
    }

    /// Per-epoch remote feature bytes, in epoch order.
    pub fn remote_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.remote_feature_bytes).collect()
    }

    /// Per-epoch all-reduce wire bytes, in epoch order.
    pub fn allreduce_bytes_trajectory(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.allreduce_bytes).collect()
    }
}

/// How batches are staged.
pub(crate) enum Topology<'a> {
    /// Sampler and gather pools plus one transfer worker (thread counts
    /// from the [`PipelineConfig`]) feeding one lane.
    Split,
    /// One fused sample→gather→transfer worker per replica, each over its
    /// hash partition, feeding its own lane.
    Fused {
        replicas: usize,
        /// Prefer partition-local neighbors while sampling.
        locality_aware: bool,
        /// Prices all-reduces and remote pulls.
        interconnect: &'a InterconnectSpec,
        /// What the supervisor does when a replica dies.
        on_failure: FailurePolicy,
    },
}

/// Which vertices' features sit in the device-side caches.
pub(crate) enum Planner {
    /// No cache; the trainer's refresh split stays where it is.
    Fixed,
    /// Re-plan split and cache from measured train occupancy after every
    /// epoch, smoothed by an EWMA ([`OCCUPANCY_EWMA_ALPHA`]) and damped by a
    /// hysteresis band ([`SPLIT_HYSTERESIS`]).
    Adaptive { gpu_free_bytes: u64 },
    /// Each replica caches its hottest owned vertices once per session.
    OwnedHot { gpu_free_bytes: u64 },
}

/// EWMA weight of the newest occupancy measurement in the adaptive
/// planner's signal: `s ← α·measured + (1−α)·s_prev`, damping per-epoch
/// timer noise.
const OCCUPANCY_EWMA_ALPHA: f64 = 0.4;

/// Dead band of the adaptive split: a newly planned CPU fraction replaces
/// the installed one (and rebuilds the feature cache) only when it differs
/// by more than this. The first plan of a session always installs.
const SPLIT_HYSTERESIS: f64 = 0.05;

/// Everything a session needs beyond the trainer.
pub(crate) struct SessionSpec<'a> {
    pub pipeline: &'a PipelineConfig,
    pub topology: Topology<'a>,
    pub planner: Planner,
    /// Threads the refresh worker spreads a task over (see
    /// [`RefreshTask::run_sharded`]).
    pub refresh_shards: usize,
    /// Checkpoint after every epoch whose number + 1 is a multiple of this
    /// (0 disables).
    pub checkpoint_every: usize,
    pub checkpoint_path: Option<&'a Path>,
    pub fault_plan: Option<&'a FaultPlan>,
    pub stall_timeout: Duration,
}

/// What a producer does next.
enum Claim {
    /// Stage this batch index.
    Step(usize),
    /// The lane's job is exhausted; park for the next epoch.
    Drained,
    /// An injected fault ended the worker.
    Exit,
}

/// State shared by the train thread and every worker of a session.
struct Shared<'a> {
    spec: &'a SessionSpec<'a>,
    dataset: Arc<Dataset>,
    sampler: NeighborSampler,
    partition: Option<Partition>,
    locality_aware: bool,
    seeds: Vec<u64>,
    gate: EpochGate,
    /// Split topology only: sampler → gather and gather → transfer.
    sampled: Bounded<SampledItem>,
    prepared: Bounded<StagedBatch>,
    live_samplers: AtomicUsize,
    live_gatherers: AtomicUsize,
    /// Per lane: staged batches bound for the train thread, the spent
    /// buffers flowing back, and the epoch's counts so far. Producers count
    /// a batch before sending it, so once the train thread holds every
    /// batch of an epoch, the epoch's counts are all in.
    sources: Vec<Bounded<StagedBatch>>,
    pools: Vec<Bounded<BatchBuffers>>,
    stats: Vec<Mutex<ReplicaEpochStats>>,
    tasks: Bounded<RefreshTask>,
    outputs: Bounded<RefreshOutput>,
    refresh_busy: BusyNs,
    /// Where panicking workers deposit their stage and panic payload.
    panics: Mutex<Vec<(&'static str, String)>>,
    timeline: Mutex<Vec<FailureEvent>>,
    /// Frees workers parked in an injected stall at teardown.
    stall_release: AtomicBool,
}

impl Shared<'_> {
    fn log(&self, epoch: usize, step: usize, who: usize, detail: String, action: FailureAction) {
        self.timeline.lock().expect(POISONED).push(FailureEvent {
            epoch,
            step,
            replica: who,
            detail,
            action,
        });
    }

    /// The session's one fault hook: claims the next batch of `lane` for
    /// worker `who`, firing any fault scheduled at that coordinate. A crash
    /// is a clean exit *before* claiming, so no batch is lost: split
    /// samplers' peers steal the rest, a fused replica's lane closes.
    fn claim(&self, who: usize, job: &EpochJob, lane: usize) -> Claim {
        let (epoch, work, plan) = (job.epoch, &job.lanes[lane], self.spec.fault_plan);
        let reached = work.next.load(Ordering::Relaxed);
        if plan.is_some_and(|p| p.take_crash(who, epoch, reached)) {
            let detail = "injected crash".to_string();
            self.log(epoch, reached, who, detail, FailureAction::Observed);
            return Claim::Exit;
        }
        let i = work.next.fetch_add(1, Ordering::Relaxed);
        if i >= work.limit {
            return Claim::Drained;
        }
        let kind = match plan.and_then(|p| p.take(who, epoch, i)) {
            None | Some(FaultKind::Crash) => return Claim::Step(i),
            Some(kind) => kind,
        };
        let detail = format!("injected {kind}");
        self.log(epoch, i, who, detail, FailureAction::Observed);
        match kind {
            FaultKind::Panic => {
                panic!("injected fault: worker {who} panicked at epoch {epoch} step {i}")
            }
            // Alive but never producing again: batch `i` is claimed and
            // never arrives, which is exactly what the stall timeout must
            // detect. Exits only at teardown so the scope can join.
            FaultKind::Stall => {
                while !self.stall_release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Claim::Exit
            }
            // A transient slowdown: the batch is still staged, so results
            // are bit-identical.
            _ => {
                std::thread::sleep(Duration::from_millis(25));
                Claim::Step(i)
            }
        }
    }

    /// Serves every gate generation newer than `seen`: claims `lane`'s
    /// batches and hands each to `stage` until the job runs dry (then parks
    /// for the next epoch), the gate shuts down, `stage` reports a closed
    /// channel, or an injected fault ends the worker.
    fn serve(
        &self,
        who: usize,
        lane: usize,
        mut seen: u64,
        mut stage: impl FnMut(&EpochJob, usize) -> bool,
    ) {
        while let Some(job) = self.gate.wait_past(seen) {
            seen = job.generation;
            loop {
                match self.claim(who, &job, lane) {
                    Claim::Step(i) if stage(&job, i) => {}
                    Claim::Drained => break,
                    Claim::Step(_) | Claim::Exit => return,
                }
            }
        }
    }

    /// Runs a worker body, turning a panic into a recorded failure. The
    /// split stages share one lane, so a dead stage worker closes all of
    /// it: no peer may stay blocked on a channel only the dead worker would
    /// have drained. A fused worker's lane closes with the worker itself.
    fn guard(&self, stage: &'static str, body: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            let message = match (payload.downcast_ref::<&str>(), payload.downcast_ref()) {
                (Some(s), _) => s.to_string(),
                (_, Some(s)) => String::clone(s),
                _ => "non-string panic payload".into(),
            };
            self.panics.lock().expect(POISONED).push((stage, message));
            if matches!(self.spec.topology, Topology::Split) {
                self.sampled.close();
                self.prepared.close();
                self.sources[0].close();
            }
        }
    }

    fn stats(&self, r: usize) -> std::sync::MutexGuard<'_, ReplicaEpochStats> {
        self.stats[r].lock().expect(POISONED)
    }

    /// Samples batch `i` of lane `r` into a recycled buffer bundle.
    fn sample(&self, r: usize, job: &EpochJob, i: usize, b: &mut BlockBuilder) -> SampledItem {
        alloc::set_stage(Stage::Sample);
        let t0 = Instant::now();
        // Feed the builder a recycled bundle's block capacity (if one is
        // back from the train stage). Identical RNG stream either way.
        let mut bufs = self.pools[r].try_recv().unwrap_or_default();
        bufs.donate_to(b);
        let (lane, mut picks) = (&job.lanes[r], LocalityCounts::default());
        let (csr, ids) = (&self.dataset.csr, lane.batches.batch(i));
        let seed = batch_sample_seed(self.seeds[r], job.epoch, i);
        let blocks = match &self.partition {
            Some(p) if self.locality_aware => {
                let owner = &p.assignment;
                let sampler = &self.sampler;
                sampler.sample_batch_pooled_biased(csr, ids, seed, b, owner, r as u32, &mut picks)
            }
            _ => self.sampler.sample_batch_pooled(csr, ids, seed, b),
        };
        let remote = self.partition.as_ref().map_or(0, |p| {
            blocks[0].src().iter().filter(|&&v| p.owner(v) != r).count() as u64
        });
        let mut stats = self.stats(r);
        stats.local_picks += picks.local_picks;
        stats.remote_picks += picks.remote_picks;
        stats.remote_feature_bytes += remote * self.dataset.spec.feature_row_bytes();
        stats.sample_seconds += t0.elapsed().as_secs_f64();
        SampledItem {
            index: i,
            blocks,
            cache: Arc::clone(&lane.cache),
            bufs,
        }
    }

    /// Cache-keyed gather: probes the epoch's cache snapshot and
    /// host-gathers only the misses, into the batch's recycled bundle.
    fn gather(&self, item: SampledItem, r: usize) -> StagedBatch {
        alloc::set_stage(Stage::Gather);
        let t0 = Instant::now();
        let SampledItem {
            index,
            blocks,
            cache,
            mut bufs,
        } = item;
        let features =
            GatheredFeatures::gather_pooled(&self.dataset, &blocks[0], &cache, &mut bufs);
        self.stats(r).gather_seconds += t0.elapsed().as_secs_f64();
        StagedBatch {
            index,
            blocks,
            features,
            bufs,
        }
    }

    fn transfer(&self, batch: &StagedBatch, r: usize) {
        alloc::set_stage(Stage::Transfer);
        let t0 = Instant::now();
        let bytes = transfer_stage(self.spec.pipeline.h2d_gibps, batch);
        let mut stats = self.stats(r);
        stats.h2d_bytes += bytes;
        stats.transfer_seconds += t0.elapsed().as_secs_f64();
    }

    fn sampler_worker(&self, w: usize) {
        // The last sampler out closes the sampled channel, so the gather
        // workers drain and exit too.
        let _liveness = Defer(|| {
            if self.live_samplers.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.sampled.close();
            }
        });
        self.guard("sample", || {
            let mut builder = BlockBuilder::new();
            self.serve(w, 0, 0, |job, i| {
                self.sampled.send(self.sample(0, job, i, &mut builder))
            });
        });
    }

    /// A pipe stage: maps every item of `input` into `output` until
    /// either channel closes.
    fn relay<T, U>(
        &self,
        stage: &'static str,
        input: &Bounded<T>,
        output: &Bounded<U>,
        mut f: impl FnMut(T) -> U,
    ) {
        self.guard(stage, || {
            while let Some(item) = input.recv() {
                if !output.send(f(item)) {
                    break;
                }
            }
        });
    }

    fn gather_worker(&self) {
        let _liveness = Defer(|| {
            if self.live_gatherers.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.prepared.close();
            }
        });
        self.relay("gather", &self.sampled, &self.prepared, |item| {
            self.gather(item, 0)
        });
    }

    fn transfer_worker(&self) {
        let _liveness = Defer(|| self.sources[0].close());
        self.relay("transfer", &self.prepared, &self.sources[0], |batch| {
            self.transfer(&batch, 0);
            batch
        });
    }

    /// Replica `r`'s fused worker, serving generations newer than `seen`.
    fn fused_worker(&self, r: usize, seen: u64) {
        // Closing the lane on every exit path — the last thing the worker
        // does — is how the supervisor tells a dead replica from a slow one.
        let _liveness = Defer(|| self.sources[r].close());
        self.guard("replica", || {
            let mut builder = BlockBuilder::new();
            self.serve(r, r, seen, |job, i| {
                let staged = self.gather(self.sample(r, job, i, &mut builder), r);
                self.transfer(&staged, r);
                self.sources[r].send(staged)
            });
        });
    }

    fn refresh_worker(&self) {
        let _liveness = Defer(|| {
            self.tasks.close();
            self.outputs.close();
        });
        alloc::set_stage(Stage::Refresh);
        let (shards, mut scratch) = (self.spec.refresh_shards, SamplerScratch::new());
        self.relay("refresh", &self.tasks, &self.outputs, |task| {
            let t0 = Instant::now();
            // Sharding is placement-only: run_sharded concatenates
            // partition-stable shards in order, so the rows are the serial
            // rows bit for bit at any shard count.
            let out = if shards > 1 {
                task.run_sharded(shards)
            } else {
                task.run_with_scratch(&mut scratch)
            };
            self.refresh_busy.add(t0);
            out
        });
    }

    /// Applies the failure policy to lane `r`, whose feed just ended
    /// early: logs the event and says whether (and why) the epoch stops.
    /// Under `Fail` a split lane names the failing stage (or the stall), a
    /// fused lane names its replica.
    fn lane_failed(
        &self,
        r: usize,
        epoch: usize,
        feed: &EpochReorder,
        policy: FailurePolicy,
    ) -> Option<Stop> {
        let step = feed.next_index;
        let panicked = self.panicked(None);
        let detail = match &panicked {
            _ if feed.stalled => format!(
                "replica {r} stalled: no staged batch within {:?}",
                self.spec.stall_timeout
            ),
            Some(SessionError::WorkerPanicked { message, .. }) => {
                format!("replica {r} worker panicked: {message}")
            }
            _ => format!("replica {r} worker exited early"),
        };
        let action = match policy {
            FailurePolicy::Fail => FailureAction::Failed,
            FailurePolicy::DropReplica => FailureAction::DroppedReplica,
            FailurePolicy::Restore => FailureAction::RestoredCheckpoint,
        };
        self.log(epoch, step, r, detail.clone(), action);
        let err = match (policy, &self.spec.topology) {
            (FailurePolicy::DropReplica, _) => return None,
            (FailurePolicy::Restore, _) => return Some(Stop::Restore),
            (_, Topology::Fused { .. }) => SessionError::ReplicaDied {
                replica: r,
                epoch,
                step,
                detail,
            },
            (_, Topology::Split) => panicked.unwrap_or(if feed.stalled {
                SessionError::Stalled {
                    epoch,
                    step,
                    timeout: self.spec.stall_timeout,
                }
            } else {
                SessionError::EpochIncomplete {
                    epoch,
                    trained: step,
                    total: step + feed.remaining,
                }
            }),
        };
        Some(Stop::Error(err))
    }

    /// Replica `r`'s static cache: its hottest owned vertices within the
    /// byte budget. Empty when the trainer's policy has no hotness ranking.
    fn owned_hot_cache(
        &self,
        trainer: &ConvergenceTrainer,
        r: usize,
        budget: u64,
    ) -> Arc<FeatureCache> {
        let rows = (budget / self.dataset.spec.feature_row_bytes().max(1)) as usize;
        let owns = |v: VertexId| self.partition.as_ref().is_none_or(|p| p.owner(v) == r);
        let hot = trainer.hot_set().map_or(&[][..], |h| h.vertices());
        let vertices: Vec<VertexId> = hot
            .iter()
            .copied()
            .filter(|&v| owns(v))
            .take(rows)
            .collect();
        cache_of(&self.dataset, &vertices)
    }

    /// The first recorded panic — of `stage`, when given.
    fn panicked(&self, stage: Option<&str>) -> Option<SessionError> {
        let panics = self.panics.lock().expect(POISONED);
        let (stage, message) = panics.iter().find(|(s, _)| stage.is_none_or(|w| *s == w))?;
        Some(SessionError::WorkerPanicked {
            stage,
            message: message.clone(),
        })
    }

    fn refresh_error(&self) -> SessionError {
        self.panicked(Some("refresh"))
            .unwrap_or(SessionError::WorkerPanicked {
                stage: "refresh",
                message: "refresh worker died with a collect outstanding".into(),
            })
    }
}

/// The train thread's view of one lane.
struct Lane<'a> {
    feed: EpochReorder<'a>,
    alive: bool,
    /// The lane's batch order (its owned training vertices).
    batches: BatchIterator,
    /// `EpochBatches` recycling with a two-epoch lag: by the time epoch
    /// e+2 fills, every producer has taken job e+1, which it could only do
    /// after dropping job e's `Arc`.
    prev: Option<Arc<EpochBatches>>,
    spare: Option<Arc<EpochBatches>>,
    len: usize,
    cache: Arc<FeatureCache>,
}

impl Lane<'_> {
    /// Fills a live lane's batch list for `epoch` into a recycled buffer
    /// (it becomes `prev`).
    fn fill(&mut self, epoch: usize) {
        self.len = 0;
        if self.alive {
            let mut ids = self
                .spare
                .take()
                .and_then(|arc| Arc::try_unwrap(arc).ok())
                .unwrap_or_default();
            self.batches.fill_epoch_batches(epoch, &mut ids);
            self.len = ids.len();
            self.spare = self.prev.replace(Arc::new(ids));
        }
    }

    fn job(&self, steps: usize) -> LaneJob {
        LaneJob {
            batches: self.prev.clone().unwrap_or_default(),
            limit: if self.alive { steps } else { 0 },
            next: AtomicUsize::new(0),
            cache: Arc::clone(&self.cache),
        }
    }
}

/// A device-side cache holding the features of `vertices`.
fn cache_of(dataset: &Dataset, vertices: &[VertexId]) -> Arc<FeatureCache> {
    Arc::new(if vertices.is_empty() {
        FeatureCache::empty()
    } else {
        FeatureCache::for_vertices(
            vertices,
            dataset.csr.num_vertices(),
            dataset.features().as_slice(),
            dataset.spec.feature_dim,
        )
    })
}

/// Why the batch loop stopped early.
enum Stop {
    Error(SessionError),
    Restore,
}

/// Runs `num_epochs` epochs starting at `first_epoch` (see module docs).
pub(crate) fn run(
    spec: &SessionSpec<'_>,
    trainer: &mut ConvergenceTrainer,
    first_epoch: usize,
    num_epochs: usize,
) -> Result<SessionReport, SessionError> {
    let dataset = trainer.dataset_handle();
    let (replicas, locality_aware, policy) = match spec.topology {
        Topology::Split => (1, false, FailurePolicy::Fail),
        Topology::Fused {
            replicas,
            locality_aware,
            on_failure,
            ..
        } => (replicas, locality_aware, on_failure),
    };
    let partition = (!matches!(spec.topology, Topology::Split))
        .then(|| hash_partition(dataset.csr.num_vertices(), replicas));
    let (partition_cut_fraction, partition_balance) = partition.as_ref().map_or((0.0, 1.0), |p| {
        let stats = p.stats(&dataset.csr);
        (stats.cut_fraction(), stats.balance())
    });
    let config_seed = trainer.config().seed;
    let batch_size = trainer.config().batch_size;
    let model_bytes = trainer.model_bytes();
    let digest = checkpoint::config_digest(trainer.config(), replicas);
    let hybrid = HybridPolicy {
        feature_row_bytes: dataset.spec.feature_row_bytes(),
        embedding_row_bytes: dataset.spec.hidden_row_bytes(),
    };
    let (sampler_threads, gather_threads) =
        (spec.pipeline.sampler_threads, spec.pipeline.gather_threads);
    // Each lane's spent-buffer pool covers every bundle its topology can
    // have in flight at once: a pool that overflows during the end-of-epoch
    // drain drops a warmed-up bundle, and the next epoch re-grows one from
    // zero — allocation churn that never converges.
    let depth = spec.pipeline.channel_depth;
    let pool_capacity = match spec.topology {
        Topology::Split => 3 * depth + sampler_threads + gather_threads + 10,
        Topology::Fused { .. } => 2 * depth + 4,
    };
    // Lane `r`'s batch order over the training vertices it owns, kept in
    // `dataset.train` order so a one-way partition reproduces the
    // single-lane batch stream exactly.
    let lane_batches = |owner_of: &[usize], r: usize| {
        let owned = dataset.train.iter().zip(owner_of).filter(|&(_, &o)| o == r);
        BatchIterator::new(owned.map(|(&v, _)| v).collect(), batch_size, config_seed)
    };
    let shared = Shared {
        spec,
        dataset: Arc::clone(&dataset),
        sampler: trainer.sampler().clone(),
        locality_aware,
        // Replica 0's salt vanishes: one replica samples like one lane.
        seeds: (0..replicas as u64)
            .map(|r| config_seed ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect(),
        gate: EpochGate::default(),
        sampled: Bounded::new(spec.pipeline.channel_depth),
        prepared: Bounded::new(spec.pipeline.channel_depth),
        live_samplers: AtomicUsize::new(sampler_threads),
        live_gatherers: AtomicUsize::new(gather_threads),
        sources: (0..replicas)
            .map(|_| Bounded::new(spec.pipeline.channel_depth))
            .collect(),
        pools: (0..replicas).map(|_| Bounded::new(pool_capacity)).collect(),
        stats: (0..replicas).map(|_| Mutex::default()).collect(),
        tasks: Bounded::new(1),
        outputs: Bounded::new(1),
        refresh_busy: BusyNs::default(),
        panics: Mutex::default(),
        timeline: Mutex::new(Vec::new()),
        stall_release: AtomicBool::new(false),
        partition,
    };
    // Mutable ownership map over `dataset.train` positions: starts as the
    // hash partition; DropReplica hands a dead replica's slots to the
    // survivors at an epoch boundary.
    let mut owner_of: Vec<usize> = match &shared.partition {
        Some(p) => dataset.train.iter().map(|&v| p.owner(v)).collect(),
        None => vec![0; dataset.train.len()],
    };

    let mut runs: Vec<EpochRun> = Vec::with_capacity(num_epochs);
    let mut workers_spawned = 0;
    let mut generation = 0u64;
    let mut startup_seconds = 0.0;
    let session_start = Instant::now();
    std::thread::scope(|scope| -> Result<(), SessionError> {
        let shared = &shared;
        // On every exit path — a typed error included — unblock every
        // worker so `thread::scope` can join them.
        let _teardown = Defer(|| {
            shared.stall_release.store(true, Ordering::Release);
            shared.gate.shutdown();
            shared.sampled.close();
            shared.prepared.close();
            shared.sources.iter().for_each(Bounded::close);
            shared.pools.iter().for_each(Bounded::close);
            shared.tasks.close();
            shared.outputs.close();
        });
        match spec.topology {
            Topology::Split => {
                for w in 0..sampler_threads {
                    scope.spawn(move || shared.sampler_worker(w));
                }
                for _ in 0..gather_threads {
                    scope.spawn(move || shared.gather_worker());
                }
                scope.spawn(move || shared.transfer_worker());
                workers_spawned = sampler_threads + gather_threads + 1;
            }
            Topology::Fused { .. } => {
                for r in 0..replicas {
                    scope.spawn(move || shared.fused_worker(r, 0));
                }
                workers_spawned = replicas;
            }
        }
        scope.spawn(move || shared.refresh_worker());
        workers_spawned += 1;
        startup_seconds = session_start.elapsed().as_secs_f64();

        let caller_stage = alloc::set_stage(Stage::Train);
        let _restore_stage = Defer(move || {
            alloc::set_stage(caller_stage);
        });
        let mut backend = WorkerRefresh {
            tasks: &shared.tasks,
            outputs: &shared.outputs,
            wait: Duration::ZERO,
            failed: false,
        };
        let mut lanes: Vec<Lane> = (0..replicas)
            .map(|r| Lane {
                feed: EpochReorder::new(&shared.sources[r], spec.stall_timeout),
                alive: true,
                batches: lane_batches(&owner_of, r),
                prev: None,
                spare: None,
                len: 0,
                cache: match spec.planner {
                    Planner::OwnedHot { gpu_free_bytes } => {
                        shared.owned_hot_cache(trainer, r, gpu_free_bytes)
                    }
                    _ => cache_of(&dataset, &[]),
                },
            })
            .collect();
        // Adaptive planner state: the EWMA of the measured occupancy, and
        // whether any plan has installed yet (the first one always does;
        // hysteresis only damps changes *between* plans).
        let mut smoothed_occupancy: Option<f64> = None;
        let mut split_installed = false;
        let mut redistribute = false;
        // Backstop against a restore loop on a persistently failing setup;
        // injected faults are one-shot, so this only trips on a genuinely
        // unrecoverable session.
        let mut restores_left = 4usize;

        let mut epoch = first_epoch;
        while epoch < first_epoch + num_epochs {
            if std::mem::take(&mut redistribute) {
                let survivors: Vec<usize> = (0..replicas).filter(|&r| lanes[r].alive).collect();
                if survivors.is_empty() {
                    return Err(SessionError::NoSurvivors { epoch });
                }
                let dead = owner_of.iter_mut().filter(|o| !lanes[**o].alive);
                for (rr, slot) in dead.enumerate() {
                    *slot = survivors[rr % survivors.len()];
                }
                for (r, lane) in lanes.iter_mut().enumerate() {
                    lane.batches = lane_batches(&owner_of, r);
                }
            }

            lanes.iter_mut().for_each(|lane| lane.fill(epoch));
            let live = lanes.iter().filter(|l| l.alive);
            let steps = live.map(|l| l.len).min().unwrap_or(0);
            let jobs: Arc<[LaneJob]> = lanes.iter().map(|lane| lane.job(steps)).collect();
            for (r, lane) in lanes.iter_mut().enumerate() {
                lane.feed.begin(if lane.alive { steps } else { 0 });
                *shared.stats(r) = ReplicaEpochStats::default(); // drop what a rolled-back epoch left
            }
            let refresh_before = shared.refresh_busy.seconds();
            let refresh_cpu_fraction = trainer.refresh_cpu_fraction();
            let collect_wait_before = backend.wait;
            let alloc_before = alloc::snapshot();

            let wall = Instant::now();
            generation += 1;
            shared.gate.open(EpochJob {
                generation,
                epoch,
                lanes: jobs,
            });
            // Train stage on this thread: one staged batch per live lane per
            // step, in lane order. Device-side feature assembly (cache rows
            // + shipped miss rows) happens here, after the transfer — hits
            // never cross the simulated link.
            let mut stop: Option<Stop> = None;
            let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
            let stats = {
                let feed = (0..steps).map_while(|_| {
                    let mut step = Vec::with_capacity(replicas);
                    for (r, lane) in lanes.iter_mut().enumerate().filter(|(_, l)| l.alive) {
                        if let Some(staged) = lane.feed.next() {
                            cache_hits += staged.features.num_hits() as u64;
                            cache_misses += staged.features.num_misses() as u64;
                            step.push(staged.into_prepared(&lane.cache));
                            continue;
                        }
                        lane.alive = false;
                        stop = shared.lane_failed(r, epoch, &lane.feed, policy);
                        if stop.is_some() {
                            return None;
                        }
                        redistribute = true;
                    }
                    if step.is_empty() {
                        stop = Some(Stop::Error(SessionError::NoSurvivors { epoch }));
                        return None;
                    }
                    Some(step)
                });
                // After each batch trains, dismantle it into its buffer
                // bundle and push that down a return channel. Purely a
                // capacity transfer — the batch's numbers are already
                // folded into the model, so recycling cannot perturb
                // results at any pool size.
                let mut recycled = 0usize;
                let recycle = |item: PreparedBatch| {
                    let PreparedBatch {
                        blocks,
                        features,
                        scrap: mut bufs,
                        ..
                    } = item;
                    bufs.put_f32(features.into_vec());
                    bufs.recycle_blocks(blocks);
                    let _ = shared.pools[recycled % replicas].try_send(bufs);
                    recycled += 1;
                };
                trainer.train_steps_replicated(feed, &mut backend, recycle)
            };
            let epoch_seconds = wall.elapsed().as_secs_f64();
            // Close the allocation window before evaluation: eval is
            // inference, and its allocations are tagged `Other`.
            let allocs = alloc::snapshot().since(&alloc_before);

            // Supervision: turn whatever kept the epoch from completing
            // into a typed error or a recovery *now*, instead of evaluating
            // (and reporting) a half-trained epoch.
            if let Some(Stop::Error(err)) = stop {
                return Err(err);
            }
            if backend.failed {
                return Err(shared.refresh_error());
            }
            // Discard undelivered batches (a restore leaves some) so they
            // can never alias the next epoch's indices.
            for lane in lanes.iter_mut().filter(|l| l.alive) {
                while lane.feed.next().is_some() {}
            }
            if let Some(Stop::Restore) = stop {
                // Settle first: a refresh still on the worker would
                // otherwise be collected — and published — after the
                // rollback replaced the pending refresh.
                trainer.settle_refresh(&mut backend);
                let io = |m: &str| SessionError::Checkpoint(CheckpointError::Io(m.into()));
                if restores_left == 0 {
                    return Err(io(
                        "restore budget exhausted: session keeps failing after rollback",
                    ));
                }
                restores_left -= 1;
                let Some(path) = spec.checkpoint_path else {
                    return Err(io(
                        "FailurePolicy::Restore needs a configured checkpoint_path",
                    ));
                };
                let ck = checkpoint::load(path, digest)?;
                trainer
                    .restore_state(&ck.state)
                    .map_err(|m| SessionError::Checkpoint(CheckpointError::Corrupt(m)))?;
                for (r, lane) in lanes.iter_mut().enumerate() {
                    if !lane.alive {
                        shared.sources[r].reopen();
                        scope.spawn(move || shared.fused_worker(r, generation));
                        workers_spawned += 1;
                        lane.alive = true;
                    }
                    lane.prev = None;
                    lane.spare = None;
                }
                epoch = (ck.next_epoch as usize).max(first_epoch);
                runs.truncate(epoch - first_epoch);
                continue;
            }

            let t_eval = Instant::now();
            let pre_eval_stage = alloc::set_stage(Stage::Other);
            let observation = trainer.observe_epoch(stats);
            alloc::set_stage(pre_eval_stage);
            let eval_seconds = t_eval.elapsed().as_secs_f64();

            let per_replica: Vec<ReplicaEpochStats> = lanes
                .iter()
                .enumerate()
                .map(|(r, lane)| {
                    let batches = steps.min(lane.len);
                    ReplicaEpochStats {
                        batches,
                        dropped_batches: lane.len - batches,
                        ..*shared.stats(r)
                    }
                })
                .collect();
            let sum = |f: fn(&ReplicaEpochStats) -> f64| per_replica.iter().map(f).sum::<f64>();
            // Starvation = blocked on staged batches + blocked on the
            // refresh worker at super-batch boundaries.
            let train_wait = lanes.iter().map(|l| l.feed.wait).sum::<Duration>()
                + (backend.wait - collect_wait_before);
            let train_wait = train_wait.as_secs_f64();
            let report = PipelineReport {
                epoch_seconds,
                num_batches: steps,
                sample_seconds: sum(|s| s.sample_seconds),
                gather_collect_seconds: sum(|s| s.gather_seconds),
                transfer_seconds: sum(|s| s.transfer_seconds),
                train_seconds: (epoch_seconds - train_wait).max(0.0),
                train_wait_seconds: train_wait,
                h2d_bytes: per_replica.iter().map(|s| s.h2d_bytes).sum(),
                reorder_peak: lanes.iter().map(|l| l.feed.peak).max().unwrap_or(0),
                cache_hits,
                cache_misses,
                failures: std::mem::take(&mut *shared.timeline.lock().expect(POISONED)),
            };
            let remote_feature_bytes: u64 =
                per_replica.iter().map(|s| s.remote_feature_bytes).sum();
            let allreduce_bytes = steps as u64 * 2 * (replicas as u64 - 1) * model_bytes;
            let interconnect_seconds = match spec.topology {
                Topology::Split => 0.0,
                Topology::Fused { interconnect, .. } => {
                    // One remote pull message per step per pulling replica.
                    let pulls: f64 = per_replica
                        .iter()
                        .filter(|s| s.remote_feature_bytes > 0)
                        .map(|s| {
                            steps as f64 * interconnect.latency
                                + s.remote_feature_bytes as f64 / interconnect.bandwidth
                        })
                        .sum();
                    steps as f64 * interconnect.allreduce_seconds(model_bytes, replicas) + pulls
                }
            };
            let cache_vertices = lanes.iter().map(|l| l.cache.len()).sum();

            // §4.1.3/§4.3 feedback: smooth the measured occupancy with an
            // EWMA, plan from the smoothed signal, and only install (and
            // rebuild the feature cache) when the planned split leaves the
            // hysteresis band around the installed one — timer noise must
            // not churn the cache. Placement and caching only: refresh rows
            // and assembled features are split-invariant.
            let measured = report.train_occupancy();
            let mut smoothed_this = measured;
            if let (Planner::Adaptive { gpu_free_bytes }, Some(hot)) =
                (&spec.planner, trainer.hot_set())
            {
                smoothed_this = smoothed_occupancy.map_or(measured, |prev| {
                    OCCUPANCY_EWMA_ALPHA * measured + (1.0 - OCCUPANCY_EWMA_ALPHA) * prev
                });
                smoothed_occupancy = Some(smoothed_this);
                let plan = hybrid.plan_from_occupancy(hot, smoothed_this, *gpu_free_bytes);
                let planned = plan.cpu_fraction();
                if !split_installed
                    || (planned - trainer.refresh_cpu_fraction()).abs() > SPLIT_HYSTERESIS
                {
                    split_installed = true;
                    trainer.set_refresh_cpu_fraction(planned);
                    lanes[0].cache = cache_of(&dataset, &plan.gpu_cache);
                }
            }

            // Checkpoint at the epoch boundary, outside the epoch's timed
            // window. `capture_state` settles the in-flight refresh first
            // (numerically identical), so the file is a complete,
            // self-contained resume point. The cadence keys on the absolute
            // epoch, so a restored session writes where the uninterrupted
            // one would.
            let (mut checkpoint_bytes, mut checkpoint_seconds) = (0, 0.0);
            let due =
                spec.checkpoint_every > 0 && (epoch + 1).is_multiple_of(spec.checkpoint_every);
            if let Some(path) = spec.checkpoint_path.filter(|_| due) {
                let t0 = Instant::now();
                let ck = Checkpoint {
                    next_epoch: epoch as u64 + 1,
                    replicas: replicas as u64,
                    rng_seeds: shared.seeds.clone(),
                    state: trainer.capture_state(&mut backend),
                };
                checkpoint_bytes = checkpoint::save(path, digest, &ck)?;
                checkpoint_seconds = t0.elapsed().as_secs_f64();
            }
            runs.push(EpochRun {
                epoch,
                observation,
                report,
                per_replica,
                steps,
                allreduce_bytes,
                remote_feature_bytes,
                interconnect_seconds,
                refresh_cpu_fraction,
                refresh_seconds: shared.refresh_busy.seconds() - refresh_before,
                eval_seconds,
                cache_vertices,
                smoothed_occupancy: smoothed_this,
                allocs,
                checkpoint_bytes,
                checkpoint_seconds,
            });
            epoch += 1;
        }
        // Resolve any refresh still on the worker so the trainer can
        // outlive this session (the rows publish at a later boundary).
        trainer.settle_refresh(&mut backend);
        if backend.failed {
            return Err(shared.refresh_error());
        }
        Ok(())
    })?;

    Ok(SessionReport {
        epochs: runs,
        replicas,
        model_bytes,
        workers_spawned,
        generations: generation,
        startup_seconds,
        partition_cut_fraction,
        partition_balance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutron_tensor::Matrix;

    #[test]
    fn bounded_channel_blocks_at_capacity_and_drains_after_close() {
        let ch: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let producer = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for i in 0..10 {
                    assert!(ch.send(i));
                }
                ch.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = ch.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // After close, sends hand the item back and recv keeps seeing None.
        assert!(!ch.send(99));
        assert_eq!(ch.send_or_return(7), Some(7));
        assert!(ch.recv().is_none());
    }

    #[test]
    fn try_ops_never_block_and_bounce_at_capacity_or_close() {
        let ch: Bounded<u32> = Bounded::new(2);
        assert_eq!(ch.try_recv(), None, "empty channel yields nothing");
        assert_eq!(ch.try_send(1), None);
        assert_eq!(ch.try_send(2), None);
        assert_eq!(ch.try_send(3), Some(3), "full channel bounces the item");
        assert_eq!(ch.try_recv(), Some(2), "try_recv is LIFO: hottest first");
        assert_eq!(ch.try_send(3), None, "recv made room");
        ch.close();
        assert_eq!(ch.try_send(4), Some(4), "closed channel bounces");
        // A closed channel still drains — the pool's teardown path.
        assert_eq!(ch.try_recv(), Some(3));
        assert_eq!(ch.try_recv(), Some(1));
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn epoch_reorder_restores_order_and_stops_at_count() {
        let ch: Bounded<StagedBatch> = Bounded::new(8);
        for index in [2usize, 0, 1, 3] {
            ch.send(StagedBatch {
                index,
                blocks: Vec::new(),
                features: GatheredFeatures::dense(Matrix::zeros(1, 1)),
                bufs: BatchBuffers::new(),
            });
        }
        // Note: not closed — the channel outlives epochs in a session.
        let mut reorder = EpochReorder::new(&ch, Duration::from_secs(5));
        reorder.begin(4);
        let order: Vec<usize> = (&mut reorder).map(|b| b.index).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(reorder.peak, 2, "2 was buffered while 0 then 1 arrived");
        assert!(
            reorder.window.is_empty(),
            "reused window drains with the epoch"
        );
    }

    #[test]
    fn gate_wakes_workers_per_generation_and_shuts_down() {
        let gate = Arc::new(EpochGate::default());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let worker = {
            let gate = Arc::clone(&gate);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut last = 0u64;
                while let Some(job) = gate.wait_past(last) {
                    last = job.generation;
                    seen.lock().unwrap().push(job.epoch);
                }
            })
        };
        for (generation, epoch) in [(1u64, 5usize), (2, 6), (3, 7)] {
            gate.open(EpochJob {
                generation,
                epoch,
                lanes: Arc::new([]),
            });
            // Wait until the worker consumed this generation before the next.
            while seen.lock().unwrap().len() < generation as usize {
                std::thread::yield_now();
            }
        }
        gate.shutdown();
        worker.join().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![5, 6, 7]);
    }
}
