//! Integration tests of one pipelined epoch — a one-epoch engine session,
//! `TrainingEngine::run_session(t, e, 1)`: determinism versus the serial
//! epoch, determinism across thread counts, and the §4.2.2 staleness bound
//! under real concurrency.

use neutronorch::core::engine::{EngineConfig, TrainingEngine};
use neutronorch::core::pipeline::{run_serial_epoch, PipelineConfig, PipelineReport};
use neutronorch::core::trainer::{
    ConvergenceTrainer, EpochObservation, ReusePolicy, TrainerConfig,
};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;

fn trainer(policy: ReusePolicy) -> ConvergenceTrainer {
    let ds = DatasetSpec::tiny().build_full();
    let mut cfg = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
    cfg.batch_size = 48;
    cfg.lr = 0.4;
    ConvergenceTrainer::new(ds, cfg)
}

/// A fixed-split engine with no feature cache, so every gathered byte
/// crosses the simulated link exactly as in the serial epoch.
fn engine(sampler_threads: usize, gather_threads: usize) -> TrainingEngine {
    TrainingEngine::new(EngineConfig {
        pipeline: PipelineConfig {
            sampler_threads,
            gather_threads,
            channel_depth: 3,
            h2d_gibps: 0.0,
        },
        adaptive_split: false,
        gpu_free_bytes: 0,
        ..EngineConfig::default()
    })
}

/// Runs `epoch` as a one-epoch session.
fn pipelined_epoch(
    engine: &TrainingEngine,
    t: &mut ConvergenceTrainer,
    epoch: usize,
) -> (EpochObservation, PipelineReport) {
    let mut session = engine.run_session(t, epoch, 1);
    let run = session.epochs.pop().expect("session ran one epoch");
    (run.observation, run.report)
}

/// Under `ReusePolicy::Exact` the pipelined epoch must reproduce the serial
/// epoch's loss trajectory bit-for-bit: sampling is seeded per
/// `(seed, epoch, batch index)` and the train stage is in-order, so
/// concurrency may never change results.
#[test]
fn pipelined_exact_matches_sequential_loss_trajectory() {
    let mut seq = trainer(ReusePolicy::Exact);
    let mut pip = trainer(ReusePolicy::Exact);
    let exec = engine(3, 2);
    for epoch in 0..4 {
        let a = seq.train_epoch(epoch);
        let (b, report) = pipelined_epoch(&exec, &mut pip, epoch);
        assert_eq!(a.train_loss, b.train_loss, "epoch {epoch}: loss diverged");
        assert_eq!(
            a.test_accuracy, b.test_accuracy,
            "epoch {epoch}: accuracy diverged"
        );
        assert_eq!(a.max_staleness, 0);
        assert_eq!(b.max_staleness, 0);
        assert!(
            report.num_batches > 1,
            "tiny replica should have several batches"
        );
    }
}

/// The trajectory is also invariant to the *amount* of concurrency.
#[test]
fn pipelined_trajectory_is_deterministic_across_thread_counts() {
    let mut narrow = trainer(ReusePolicy::Exact);
    let mut wide = trainer(ReusePolicy::Exact);
    let one = engine(1, 1);
    let many = engine(4, 3);
    for epoch in 0..3 {
        let (a, _) = pipelined_epoch(&one, &mut narrow, epoch);
        let (b, _) = pipelined_epoch(&many, &mut wide, epoch);
        assert_eq!(
            a.train_loss, b.train_loss,
            "epoch {epoch}: thread count changed loss"
        );
        assert_eq!(a.test_accuracy, b.test_accuracy);
    }
}

/// Under `HotnessAware` every observed version gap stays `< 2n` no matter
/// how many stage workers run concurrently; embeddings must actually be
/// reused.
#[test]
fn pipelined_hotness_aware_observes_staleness_bound() {
    let n = 2usize;
    let mut t = trainer(ReusePolicy::HotnessAware {
        hot_ratio: 0.3,
        super_batch: n,
    });
    let exec = engine(3, 2);
    let mut max_staleness = 0;
    for epoch in 0..6 {
        let (obs, _) = pipelined_epoch(&exec, &mut t, epoch);
        max_staleness = max_staleness.max(obs.max_staleness);
        assert!(
            obs.max_staleness < 2 * n as u64,
            "epoch {epoch}: observed gap {} ≥ 2n = {}",
            obs.max_staleness,
            2 * n
        );
    }
    assert!(
        t.embedding_reuses() > 0,
        "hot embeddings must actually be reused"
    );
    assert!(
        max_staleness > 0,
        "bound test is vacuous if no gap was ever observed"
    );
}

/// The report must account every batch and every transferred byte, and the
/// stage-busy breakdown must be populated.
#[test]
fn pipeline_report_accounts_stages_and_bytes() {
    let mut t = trainer(ReusePolicy::Exact);
    let exec = engine(2, 1);
    let (_, report) = pipelined_epoch(&exec, &mut t, 0);
    let expected_batches = t.epoch_batches(0).len();
    assert_eq!(report.num_batches, expected_batches);
    assert!(report.sample_seconds > 0.0);
    assert!(report.gather_collect_seconds > 0.0);
    assert!(
        report.h2d_bytes > 0,
        "feature + block bytes must be accounted"
    );
    assert!(report.batches_per_second() > 0.0);
    assert!(report.train_occupancy() <= 1.0 + 1e-9);
    // The serial epoch over the same work ships the same bytes.
    let mut s = trainer(ReusePolicy::Exact);
    let (_, seq) = run_serial_epoch(&mut s, 0, 0.0);
    assert_eq!(seq.h2d_bytes, report.h2d_bytes);
}
