//! The tensor timing hooks (`neutron_tensor::timing`) against a real
//! sequential epoch: when enabled they attribute a meaningful share of the
//! epoch to named kernels without ever over-counting it, and when disabled
//! they record nothing.
//!
//! The hooks are process-global atomics, so everything lives in one `#[test]`
//! in its own integration-test binary — a second concurrent test in the same
//! process would pollute the counters.

use neutronorch::core::pipeline::run_serial_epoch;
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::graph::DatasetSpec;
use neutronorch::nn::LayerKind;
use neutronorch::tensor::timing::{self, Kernel};
use std::time::Instant;

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
    ConvergenceTrainer::new(ds, cfg)
}

#[test]
fn hooks_attribute_kernel_time_within_the_epoch_and_are_free_when_off() {
    // Disabled (the default): an epoch leaves the counters untouched.
    timing::reset();
    let mut t = trainer();
    let (_, disabled_report) = run_serial_epoch(&mut t, 0, 0.0);
    let snap = timing::snapshot();
    assert_eq!(
        snap.total_seconds(),
        0.0,
        "disabled hooks must record nothing"
    );
    assert!(snap.iter().all(|(_, stat)| stat.calls == 0));

    // Enabled: rerun the same epoch on a fresh trainer. The serial epoch
    // drives every stage from the calling thread, so the hooked
    // wall-time segments are disjoint — their sum can never exceed the
    // epoch wall-clock (small tolerance for clock granularity), and the
    // trajectory itself must not notice the instrumentation.
    timing::reset();
    timing::set_enabled(true);
    let mut t = trainer();
    let t0 = Instant::now();
    let (obs, _) = run_serial_epoch(&mut t, 0, 0.0);
    let wall = t0.elapsed().as_secs_f64();
    timing::set_enabled(false);
    let snap = timing::snapshot();

    let mut t_ref = trainer();
    let (obs_ref, _) = run_serial_epoch(&mut t_ref, 0, 0.0);
    assert_eq!(
        obs.train_loss, obs_ref.train_loss,
        "enabling the hooks changed the trajectory"
    );

    for kernel in [
        Kernel::Matmul,
        Kernel::MatmulAtB,
        Kernel::MatmulABt,
        Kernel::Gather,
        Kernel::Aggregate,
    ] {
        let stat = snap.get(kernel);
        assert!(
            stat.calls > 0,
            "a GCN epoch must exercise the {} kernel",
            kernel.name()
        );
    }
    let total = snap.total_seconds();
    assert!(total > 0.0, "enabled hooks recorded no time");
    assert!(
        total <= wall * 1.05 + 1e-3,
        "kernel seconds {total} exceed the epoch wall-clock {wall}"
    );

    // The pipeline's own stage breakdown obeys the same accounting: on the
    // sequential path every stage runs inline on one thread, so
    // sample + gather + transfer + train sums to the epoch wall exactly
    // (train is defined as the wall minus the staged prefix), and the
    // train stage's "starved" time is exactly that staged prefix.
    let r = &disabled_report;
    let staged = r.sample_seconds + r.gather_collect_seconds + r.transfer_seconds;
    assert_eq!(r.train_wait_seconds, staged);
    let stage_sum = staged + r.train_seconds;
    assert!(
        (stage_sum - r.epoch_seconds).abs() <= 1e-9_f64.max(r.epoch_seconds * 1e-9),
        "sequential stage sum {stage_sum} != epoch wall {}",
        r.epoch_seconds
    );
}
