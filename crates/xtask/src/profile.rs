//! `xtask profile`: run a named workload under a sampling profiler, or with
//! the in-process timing hooks (`--timing`) for a per-stage / per-kernel
//! wall-time breakdown.
//!
//! Profiler mode follows the nomt xtask pattern: verify `samply` exists,
//! then re-exec this same binary under `samply record` with the subcommand
//! swapped to the inline `profile-exec` runner, so the profiled process is
//! nothing but the workload.

use neutron_core::engine::{EngineConfig, SessionError, TrainingEngine};
use neutron_core::fault::{FailureEvent, FailurePolicy, FaultPlan};
use neutron_core::pipeline::PipelineReport;
use neutron_core::replica::{ReplicatedConfig, ReplicatedEngine};
use neutron_core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutron_core::SessionReport;
use neutron_graph::DatasetSpec;
use neutron_nn::LayerKind;
use neutron_tensor::{alloc, timing};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The named workloads `xtask profile` can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The quickstart convergence run: sequential hotness-aware training on
    /// the Reddit-convergence replica (no pipeline).
    Quickstart,
    /// A persistent `TrainingEngine` session on the scaled Reddit replica —
    /// the BENCH_engine.json configuration.
    Engine,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "quickstart" => Ok(Self::Quickstart),
            "engine" => Ok(Self::Engine),
            other => Err(format!(
                "unknown workload '{other}' (expected quickstart | engine)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Quickstart => "quickstart",
            Self::Engine => "engine",
        }
    }
}

/// The scaled Reddit replica every pipelined bench uses (matches
/// `examples/engine_multi_epoch.rs`).
fn scaled_spec() -> DatasetSpec {
    let mut spec = DatasetSpec::reddit_convergence();
    spec.vertices = 8_000;
    spec.edges = 640_000;
    spec
}

fn scaled_trainer(spec: &DatasetSpec) -> ConvergenceTrainer {
    let config = TrainerConfig {
        kind: LayerKind::Gcn,
        layers: 2,
        batch_size: 256,
        lr: 0.2,
        seed: 0xe4e,
        policy: ReusePolicy::HotnessAware {
            hot_ratio: 0.2,
            super_batch: 2,
        },
    };
    ConvergenceTrainer::new(spec.build_full(), config)
}

/// Per-epoch stage reports plus, for `--replicas R > 1`, the replicated
/// session with its per-replica breakdown.
struct RunOutput {
    reports: Vec<PipelineReport>,
    replicated: Option<SessionReport>,
}

/// Runs the workload inline and returns the per-epoch stage reports it
/// produced (empty for workloads without a pipeline).
fn run_workload(workload: Workload, epochs: usize, replicas: usize) -> RunOutput {
    if replicas > 1 {
        // Data-parallel engine over an R-way hash partition (the main.rs
        // arg parser rejects --replicas for the other workloads).
        assert_eq!(workload, Workload::Engine);
        let spec = scaled_spec();
        let mut trainer = scaled_trainer(&spec);
        let engine = ReplicatedEngine::new(ReplicatedConfig {
            replicas,
            ..ReplicatedConfig::default()
        });
        let session = engine.run_session(&mut trainer, 0, epochs);
        for run in &session.epochs {
            println!(
                "epoch {}: loss {:.4}, {:.2}s ({} steps, {:.2} MiB all-reduce, {:.2} MiB remote)",
                run.epoch,
                run.observation.train_loss,
                run.report.epoch_seconds,
                run.steps,
                run.allreduce_bytes as f64 / (1u64 << 20) as f64,
                run.remote_feature_bytes as f64 / (1u64 << 20) as f64,
            );
        }
        return RunOutput {
            reports: session.epochs.iter().map(|r| r.report.clone()).collect(),
            replicated: Some(session),
        };
    }
    let reports = match workload {
        Workload::Quickstart => {
            let spec = DatasetSpec::reddit_convergence();
            let policy = ReusePolicy::HotnessAware {
                hot_ratio: 0.2,
                super_batch: 4,
            };
            let config = TrainerConfig::convergence_default(LayerKind::Gcn, policy);
            let mut trainer = ConvergenceTrainer::new(spec.build_full(), config);
            for epoch in 0..epochs {
                let obs = trainer.train_epoch(epoch);
                println!("epoch {epoch}: loss {:.4}", obs.train_loss);
            }
            Vec::new()
        }
        Workload::Engine => {
            let spec = scaled_spec();
            let mut trainer = scaled_trainer(&spec);
            let engine = TrainingEngine::new(EngineConfig::default());
            let session = engine.run_session(&mut trainer, 0, epochs);
            for run in &session.epochs {
                println!(
                    "epoch {}: loss {:.4}, {:.2}s (occupancy {:.2})",
                    run.epoch,
                    run.observation.train_loss,
                    run.report.epoch_seconds,
                    run.report.train_occupancy()
                );
            }
            session.epochs.into_iter().map(|r| r.report).collect()
        }
    };
    RunOutput {
        reports,
        replicated: None,
    }
}

/// `xtask profile-exec`: the inline runner `samply record` wraps.
pub fn exec(workload: Workload, epochs: usize, replicas: usize) {
    println!(
        "running workload '{}' for {epochs} epochs (replicas: {replicas})",
        workload.name()
    );
    let t0 = Instant::now();
    run_workload(workload, epochs, replicas);
    println!("workload done in {:.2}s", t0.elapsed().as_secs_f64());
}

/// `xtask profile <workload> --timing [--allocs]`: run inline with the
/// tensor timing hooks enabled and print the per-stage / per-kernel
/// breakdown, plus (with `--allocs`) a per-stage heap-allocation table
/// from the counting allocator xtask installs.
pub fn timing_run(workload: Workload, epochs: usize, replicas: usize, allocs: bool) {
    timing::reset();
    timing::set_enabled(true);
    if allocs {
        alloc::reset();
        alloc::set_enabled(true);
    }
    let t0 = Instant::now();
    let out = run_workload(workload, epochs, replicas);
    let reports = out.reports;
    let wall = t0.elapsed().as_secs_f64();
    timing::set_enabled(false);
    alloc::set_enabled(false);
    let alloc_snap = alloc::snapshot();
    let snap = timing::snapshot();

    if !reports.is_empty() {
        // Stage busy-time totals across the run. Stages run on concurrent
        // workers, so the sum can exceed wall-clock — each line is that
        // stage's own busy seconds.
        let total = |f: fn(&PipelineReport) -> f64| reports.iter().map(f).sum::<f64>();
        let epoch_secs = total(|r| r.epoch_seconds);
        println!("\nper-stage busy seconds ({} epochs):", reports.len());
        let rows: [(&str, f64); 5] = [
            ("sample", total(|r| r.sample_seconds)),
            ("gather (host collect)", total(|r| r.gather_collect_seconds)),
            ("transfer (H2D)", total(|r| r.transfer_seconds)),
            ("train (busy)", total(|r| r.train_seconds)),
            ("train (starved)", total(|r| r.train_wait_seconds)),
        ];
        for (name, secs) in rows {
            println!(
                "  {name:<22} {secs:>8.3}s  ({:>5.1}% of epoch wall)",
                100.0 * secs / epoch_secs.max(1e-12)
            );
        }
        println!("  {:<22} {epoch_secs:>8.3}s", "epoch wall total");
    }

    if let Some(session) = &out.replicated {
        const MIB: f64 = (1u64 << 20) as f64;
        println!(
            "\nper-replica per-stage busy seconds ({} replicas, {epochs} epochs; \
             partition cut {:.2}, balance {:.2}):",
            session.replicas, session.partition_cut_fraction, session.partition_balance
        );
        println!(
            "  replica    sample    gather  transfer    h2d_MiB  remote_MiB  remote_picks  batches"
        );
        for rep in 0..session.replicas {
            let (mut sample, mut gather, mut transfer) = (0.0f64, 0.0f64, 0.0f64);
            let (mut h2d, mut remote, mut picks) = (0u64, 0u64, 0u64);
            let mut batches = 0usize;
            for run in &session.epochs {
                let s = &run.per_replica[rep];
                sample += s.sample_seconds;
                gather += s.gather_seconds;
                transfer += s.transfer_seconds;
                h2d += s.h2d_bytes;
                remote += s.remote_feature_bytes;
                picks += s.remote_picks;
                batches += s.batches;
            }
            println!(
                "  {rep:>7} {sample:>8.3}s {gather:>8.3}s {transfer:>8.3}s {:>10.1} {:>11.1} {picks:>13} {batches:>8}",
                h2d as f64 / MIB,
                remote as f64 / MIB,
            );
        }
        let allreduce: u64 = session.epochs.iter().map(|r| r.allreduce_bytes).sum();
        let interconnect: f64 = session.epochs.iter().map(|r| r.interconnect_seconds).sum();
        println!(
            "  all-reduce {:.2} MiB over the run, simulated interconnect {:.4}s \
             (model {} B, ring)",
            allreduce as f64 / MIB,
            interconnect,
            session.model_bytes
        );
        if allocs {
            // The per-stage alloc counters below are process-global, i.e.
            // summed across every replica's workers; the per-epoch staging
            // series here is the replicated engine's own window.
            let staging: Vec<u64> = session
                .epochs
                .iter()
                .map(|r| r.allocs.staging_allocs())
                .collect();
            println!("  staging allocs per epoch (all replicas): {staging:?}");
        }
    }

    println!("\nper-kernel seconds (tensor timing hooks):");
    for (name, stat) in snap.iter() {
        if stat.calls == 0 {
            continue;
        }
        println!(
            "  {name:<14} {:>8.3}s  {:>9} calls  ({:>5.1}% of wall)",
            stat.seconds(),
            stat.calls,
            100.0 * stat.seconds() / wall.max(1e-12)
        );
    }
    println!(
        "  {:<14} {:>8.3}s  (wall {wall:.3}s; kernels overlap across threads)",
        "kernel total",
        snap.total_seconds()
    );

    if allocs {
        // Per-stage attribution needs the workload to tag its threads
        // (the engine and the sequential executor do); untagged work —
        // setup, eval, the plain quickstart loop — lands in `other`.
        println!("\nper-stage heap allocations ({epochs} epochs):");
        let per_epoch = |n: u64| n as f64 / epochs.max(1) as f64;
        for (name, stat) in alloc_snap.iter() {
            if stat.allocs == 0 {
                continue;
            }
            println!(
                "  {name:<10} {:>12} allocs  {:>14} B  ({:>10.1} allocs/epoch)",
                stat.allocs,
                stat.bytes,
                per_epoch(stat.allocs)
            );
        }
        println!(
            "  {:<10} {:>12} allocs  (staging hot path: {:.1} allocs/epoch)",
            "total",
            alloc_snap.total_allocs(),
            per_epoch(alloc_snap.staging_allocs())
        );
    }
}

/// One summarized epoch of a fault-injection run, engine-agnostic.
struct FaultEpochRow {
    epoch: usize,
    train_loss: f32,
    failures: Vec<FailureEvent>,
    checkpoint_bytes: u64,
    checkpoint_seconds: f64,
}

/// `xtask profile engine --faults <spec>`: run the engine workload with a
/// deterministic fault plan injected and print the detection/recovery
/// timeline. A session that ends in a typed [`SessionError`] still exits 0
/// — the harness exists to prove faults *terminate* (recover or error),
/// never hang; only a malformed spec is a tool error.
pub fn fault_run(
    workload: Workload,
    epochs: usize,
    replicas: usize,
    faults: &str,
    policy: FailurePolicy,
) -> Result<(), String> {
    if workload != Workload::Engine {
        return Err("--faults applies to the 'engine' workload only".into());
    }
    let plan = Arc::new(FaultPlan::parse(faults)?);
    println!(
        "fault plan ({} scheduled, policy {policy:?}):",
        plan.specs().count()
    );
    for spec in plan.specs() {
        println!("  scheduled: {spec}");
    }

    let spec = scaled_spec();
    let mut trainer = scaled_trainer(&spec);
    let ck_path =
        std::env::temp_dir().join(format!("neutronorch-faultrun-{}.ck", std::process::id()));
    // Short stall timeout: an injected stall should be detected in under a
    // second, not after the production-grade default.
    let stall_timeout = Duration::from_millis(500);
    let t0 = Instant::now();
    let outcome: Result<Vec<FaultEpochRow>, SessionError> = if replicas > 1 {
        let engine = ReplicatedEngine::new(ReplicatedConfig {
            replicas,
            fault_plan: Some(Arc::clone(&plan)),
            on_replica_failure: policy,
            checkpoint_every: 1,
            checkpoint_path: Some(ck_path.clone()),
            stall_timeout,
            ..ReplicatedConfig::default()
        });
        engine
            .run_session_checked(&mut trainer, 0, epochs)
            .map(|session| {
                session
                    .epochs
                    .iter()
                    .map(|run| FaultEpochRow {
                        epoch: run.epoch,
                        train_loss: run.observation.train_loss,
                        failures: run.report.failures.clone(),
                        checkpoint_bytes: run.checkpoint_bytes,
                        checkpoint_seconds: run.checkpoint_seconds,
                    })
                    .collect()
            })
    } else {
        let engine = TrainingEngine::new(EngineConfig {
            fault_plan: Some(Arc::clone(&plan)),
            checkpoint_every: 1,
            checkpoint_path: Some(ck_path.clone()),
            stall_timeout,
            ..EngineConfig::default()
        });
        engine
            .run_session_checked(&mut trainer, 0, epochs)
            .map(|session| {
                session
                    .epochs
                    .iter()
                    .map(|run| FaultEpochRow {
                        epoch: run.epoch,
                        train_loss: run.observation.train_loss,
                        failures: run.report.failures.clone(),
                        checkpoint_bytes: run.checkpoint_bytes,
                        checkpoint_seconds: run.checkpoint_seconds,
                    })
                    .collect()
            })
    };
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&ck_path);

    println!("\ntimeline:");
    match outcome {
        Ok(rows) => {
            for row in &rows {
                print!("  epoch {}: loss {:.4}", row.epoch, row.train_loss);
                if row.checkpoint_bytes > 0 {
                    print!(
                        ", checkpoint {} B in {:.3}s",
                        row.checkpoint_bytes, row.checkpoint_seconds
                    );
                }
                println!();
                for event in &row.failures {
                    println!("    {event}");
                }
            }
            println!(
                "session completed in {wall:.2}s ({} epochs recorded)",
                rows.len()
            );
        }
        Err(err) => {
            println!("  session ended with typed error after {wall:.2}s:");
            println!("    {err}");
        }
    }
    Ok(())
}

/// `xtask profile <workload>`: wrap the inline runner in `samply record`.
pub fn profile(workload: Workload, epochs: usize, replicas: usize) -> Result<(), String> {
    let have_samply = Command::new("sh")
        .args(["-c", "command -v samply"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !have_samply {
        return Err(
            "samply not found — install it (`cargo install samply`), or use \
             `--timing` for the hook-based breakdown (no profiler needed)"
                .into(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new("samply")
        .arg("record")
        .arg(exe)
        .args([
            "profile-exec",
            workload.name(),
            "--epochs",
            &epochs.to_string(),
            "--replicas",
            &replicas.to_string(),
        ])
        .status()
        .map_err(|e| format!("failed to launch samply: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("samply exited with {status}"))
    }
}
