//! Allocation-budget regression test for the pooled engine hot path.
//!
//! Only meaningful with the counting `#[global_allocator]` installed, so
//! the whole file is gated on the facade's `count-allocs` feature:
//!
//! ```text
//! cargo test --release -p neutronorch --features count-allocs --test alloc_budget
//! ```
//!
//! A single test function owns the process-global counters end to end (the
//! allocator state is shared, so concurrent tests would cross-contaminate
//! the per-stage attribution).
#![cfg(feature = "count-allocs")]

use neutronorch::core::engine::{EngineConfig, TrainingEngine};
use neutronorch::core::pipeline::{run_serial_epoch, PipelineConfig};
use neutronorch::core::refresh::RefreshTask;
use neutronorch::core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::layers::Layer;
use neutronorch::nn::LayerKind;
use neutronorch::tensor::alloc::{self, Stage};

/// Hard ceiling on staging (sample + gather + transfer) heap allocations
/// per warm engine epoch on the tiny workload. The pooled path measures
/// ~35/epoch here (residual capacity-growth on recycled buffers); the
/// ceiling leaves headroom while still catching any reintroduced per-batch
/// or per-vertex Vec churn, which lands in the hundreds even on this
/// workload.
const WARM_STAGING_ALLOC_BUDGET: u64 = 300;

/// The warm sequential path must allocate at least this many times more
/// than the pooled engine path. The tiny workload runs only a couple of
/// batches per epoch, so per-epoch constants dominate and the ratio is
/// modest (~3x measured); the headline ≥10x claim is gated on the bench
/// workload by `cargo xtask bench-diff` against `BENCH_engine.json`.
const MIN_IMPROVEMENT: u64 = 2;

fn trainer() -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(
        LayerKind::Gcn,
        ReusePolicy::HotnessAware {
            hot_ratio: 0.3,
            super_batch: 2,
        },
    );
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

#[test]
fn warm_engine_epochs_stay_inside_the_staging_alloc_budget() {
    assert!(
        alloc::counting_installed(),
        "count-allocs must install the counting global allocator"
    );
    let epochs = 4;

    // Sequential "before" numbers: the serial epoch tags stages itself, so
    // the staging delta is directly comparable with the engine's.
    let mut seq = trainer();
    alloc::reset();
    alloc::set_enabled(true);
    let mut seq_staging = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let before = alloc::snapshot();
        run_serial_epoch(&mut seq, epoch, 0.0);
        seq_staging.push(alloc::snapshot().since(&before).staging_allocs());
    }

    let mut eng = trainer();
    let engine = TrainingEngine::new(EngineConfig {
        pipeline: PipelineConfig {
            sampler_threads: 2,
            gather_threads: 2,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        adaptive_split: true,
        gpu_free_bytes: 64 << 20,
        ..EngineConfig::default()
    });
    let session = engine.run_session(&mut eng, 0, epochs);

    // Data-parallel engine at R=2: both replicas run the same pooled
    // staging path, so the process-wide per-epoch window (the counters are
    // global, per-replica attribution is not tracked) must hold R times
    // the single-engine ceiling on warm epochs.
    let replicas = 2;
    let mut rep = trainer();
    let replicated = ReplicatedEngine::new(ReplicatedConfig {
        pipeline: PipelineConfig {
            sampler_threads: 1,
            gather_threads: 1,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        replicas,
        ..ReplicatedConfig::default()
    });
    let rep_session = replicated.run_session(&mut rep, 0, epochs);
    alloc::set_enabled(false);

    assert_eq!(session.epochs.len(), epochs);
    // Epoch 0 pays the one-time pool fill; every later epoch is "warm" and
    // must run on recycled buffers.
    for run in &session.epochs[1..] {
        let staging = run.allocs.staging_allocs();
        println!(
            "epoch {}: engine staging allocs {staging} (sequential {})",
            run.epoch, seq_staging[run.epoch]
        );
        for (name, stat) in run.allocs.iter() {
            println!("    {name}: {} allocs {} B", stat.allocs, stat.bytes);
        }
        assert!(
            staging <= WARM_STAGING_ALLOC_BUDGET,
            "warm epoch {} staged {staging} allocs, budget {WARM_STAGING_ALLOC_BUDGET} — \
             did a pooled path regress to allocating?",
            run.epoch
        );
        assert!(
            seq_staging[run.epoch] >= MIN_IMPROVEMENT * staging.max(1),
            "warm epoch {}: sequential path staged {} allocs, engine {staging} — \
             expected at least {MIN_IMPROVEMENT}x fewer on the pooled path",
            run.epoch,
            seq_staging[run.epoch]
        );
    }

    assert_eq!(rep_session.epochs.len(), epochs);
    let replicated_budget = replicas as u64 * WARM_STAGING_ALLOC_BUDGET;
    for run in &rep_session.epochs[1..] {
        let staging = run.allocs.staging_allocs();
        println!(
            "replicated (R={replicas}) epoch {}: staging allocs {staging} \
             (budget {replicated_budget})",
            run.epoch
        );
        assert!(
            staging <= replicated_budget,
            "warm replicated epoch {} staged {staging} allocs across {replicas} replicas, \
             budget {replicated_budget} — did a pooled path regress to allocating?",
            run.epoch
        );
    }

    // Refresh shard threads start untagged; each shard tags itself, so a
    // sharded task launched from a refresh-tagged thread books every
    // allocation under `refresh` and none under `other`.
    let dataset = eng.dataset_handle();
    let (feature_dim, hidden_dim) = (dataset.spec.feature_dim, dataset.spec.hidden_dim);
    let bottom = Layer::new(LayerKind::Gcn, feature_dim, hidden_dim, false, 7);
    let vertices: Vec<u32> = (0..280).collect();
    let task = RefreshTask::new(dataset, bottom, eng.sampler().clone(), vertices, 4, 0, 1);
    let prev_stage = alloc::set_stage(Stage::Refresh);
    alloc::set_enabled(true);
    let before = alloc::snapshot();
    let rows = task.run_sharded(2).rows;
    let shards = alloc::snapshot().since(&before);
    alloc::set_enabled(false);
    alloc::set_stage(prev_stage);
    assert_eq!(rows.len(), 280);
    println!(
        "run_sharded(2): refresh {} allocs, other {} allocs",
        shards.get(Stage::Refresh).allocs,
        shards.get(Stage::Other).allocs
    );
    assert_eq!(
        shards.get(Stage::Other).allocs,
        0,
        "refresh shard threads leaked allocations into `other`"
    );
    assert!(shards.get(Stage::Refresh).allocs > 0);
}
