//! Orchestrator shootout: simulate one epoch of every task-orchestration
//! strategy on a scaled Reddit replica and print the Fig-2-style comparison
//! (runtime, utilization, transfers, memory).
//!
//! ```text
//! cargo run --release --example orchestrator_shootout
//! ```

use neutronorch::core::baselines::{Case1Dgl, Case2DglUva, Case3PaGraph, Case4GnnLab, GasLike};
use neutronorch::core::engine::{EngineConfig, TrainingEngine};
use neutronorch::core::pipeline::{run_serial_epoch, PipelineConfig};
use neutronorch::core::profile::{WorkloadConfig, WorkloadProfile};
use neutronorch::core::trainer::{ConvergenceTrainer, ReusePolicy, TrainerConfig};
use neutronorch::core::{NeutronOrch, Orchestrator};
use neutronorch::graph::DatasetSpec;
use neutronorch::hetero::HardwareSpec;
use neutronorch::nn::LayerKind;

fn main() {
    let spec = DatasetSpec::reddit_scaled();
    let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
    cfg.profiled_batches = 4;
    println!(
        "profiling {} replica (|V|={}, scale {:.0}x)...",
        spec.name, spec.vertices, spec.scale
    );
    let profile = WorkloadProfile::build(&spec, &cfg);
    println!(
        "  {} batches/epoch, hot set {} vertices covering {:.0}% of paper-scale accesses\n",
        profile.num_batches,
        profile.hot.len(),
        profile.paper_coverage(cfg.hot_ratio) * 100.0
    );

    let hw = HardwareSpec::v100_server(1.0);
    let systems: Vec<Box<dyn Orchestrator>> = vec![
        Box::new(Case1Dgl { pipelined: true }),
        Box::new(Case2DglUva { pipelined: true }),
        Box::new(Case3PaGraph),
        Box::new(Case4GnnLab),
        Box::new(GasLike),
        Box::new(NeutronOrch::new()),
    ];
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>12} {:>11}",
        "system", "epoch (ms)", "CPU util", "GPU util", "h2d (MB)", "GPU mem (GB)"
    );
    let mut baseline = None;
    for sys in systems {
        match sys.simulate_epoch(&profile, &hw) {
            Ok(r) => {
                if baseline.is_none() {
                    baseline = Some(r.epoch_seconds);
                }
                println!(
                    "{:<12} {:>10.1} {:>8.0}% {:>8.0}% {:>12.1} {:>11.2}  ({:.2}x vs DGL)",
                    r.system,
                    r.epoch_seconds * 1e3,
                    r.cpu_util * 100.0,
                    r.gpu_util * 100.0,
                    r.h2d_bytes as f64 / 1e6,
                    r.gpu_mem_peak as f64 / (1u64 << 30) as f64,
                    baseline.unwrap() / r.epoch_seconds
                );
            }
            Err(oom) => println!("{:<12} OOM: {oom}", sys.name()),
        }
    }

    // The simulated table above models the orchestration strategies; the
    // engine *executes* NeutronOrch's super-batch pipeline as
    // real threads. Reprise the comparison measured, on the convergence
    // replica (small enough to finish in seconds): identical per-batch
    // stage costing, serial vs overlapped.
    println!("\nmeasured execution (pipelined engine, Reddit-conv replica):");
    let conv = DatasetSpec::reddit_convergence();
    let tcfg = TrainerConfig::convergence_default(LayerKind::Gcn, ReusePolicy::Exact);
    let mut seq = ConvergenceTrainer::new(conv.build_full(), tcfg.clone());
    let mut pip = ConvergenceTrainer::new(conv.build_full(), tcfg);
    // Calibrate the simulated H2D link to ~50% of compute (Fig 2 regime).
    let (_, compute) = run_serial_epoch(&mut seq, 0, 0.0);
    let h2d_gibps = compute.h2d_bytes as f64 / (0.5 * compute.epoch_seconds) / (1u64 << 30) as f64;
    let (_, s) = run_serial_epoch(&mut seq, 1, h2d_gibps);
    // One pipelined epoch: a one-epoch engine session, timed whole (worker
    // spawn and join included) minus test-set evaluation.
    let engine = TrainingEngine::new(EngineConfig {
        pipeline: PipelineConfig {
            h2d_gibps,
            ..PipelineConfig::default()
        },
        adaptive_split: false,
        gpu_free_bytes: 0,
        ..EngineConfig::default()
    });
    let wall = std::time::Instant::now();
    let p = engine.run_session(&mut pip, 1, 1).epochs.pop().unwrap();
    let pip_seconds = wall.elapsed().as_secs_f64() - p.eval_seconds;
    println!(
        "  sequential {:.2}s/epoch, pipelined {:.2}s/epoch -> {:.2}x (transfer {:.2}s hidden behind train)",
        s.epoch_seconds,
        pip_seconds,
        s.epoch_seconds / pip_seconds,
        p.report.transfer_seconds,
    );
}
