//! One benchmark run: untraced engine sessions for the requested time,
//! the sequential replay that checks them, and (with `--trace 1`) the
//! traced replay that attributes time to layers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use neutron_core::trainer::ReusePolicy;
use neutron_graph::partition::hash_partition;
use neutron_nn::{GnnModel, LayerKind, ModelConfig};
use neutron_sample::{BatchIterator, Fanout, NeighborSampler, PreSampler};
use neutron_tensor::{alloc, timing};

use crate::checks;
use crate::metrics::{self, Metrics, END_TO_END, PER_LAYER};
use crate::replay::{self, Replay};
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{run_session, EpochRecord, Scale, SessionRecord, Workload, EPOCHS};

/// Fewest sessions a run measures, however short `--seconds` is: set-up
/// time is reported as a median over sessions.
pub const MIN_SESSIONS: usize = 3;

/// Traced replays (each paired with an untraced one) in a `--trace 1` run.
const REPLAY_REPS: usize = 3;

const MIB: f64 = (1u64 << 20) as f64;

/// Everything one run produced.
pub struct RunResult {
    /// Collected metrics (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Training steps attempted across the engine sessions.
    pub attempted: u64,
    /// Steps of sessions that errored or failed a check.
    pub failed: u64,
    /// Every failed check, for the log.
    pub failures: Vec<String>,
    /// The trace-event file, when traced.
    pub trace_file: Option<PathBuf>,
    /// One line per session: set-up, session wall and warm epoch times.
    pub log: Vec<String>,
}

/// Runs `workload` at `seed`: sessions until `seconds` have passed (at
/// least [`MIN_SESSIONS`]), then the checks, then — when `traced` — the
/// per-layer measurements. Files (checkpoints, the trace) go to `out_dir`.
pub fn run(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> RunResult {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        panic!("cannot create output directory {}: {e}", out_dir.display());
    }
    // Allocation counting only in the traced run: its counters are
    // per-layer metrics, and end-to-end runs stay free of the overhead.
    alloc::reset();
    alloc::set_enabled(traced);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut sessions: Vec<SessionRecord> = Vec::new();
    // The peak resident set through one whole workload (set-up plus a
    // session). Later sessions only add allocator reuse and fragmentation,
    // so a peak over however many sessions fit in the time would depend on
    // the machine's speed.
    let mut peak_rss_mib = 0.0;
    while sessions.len() < MIN_SESSIONS || start.elapsed() < budget {
        sessions.push(run_session(workload, scale, seed, EPOCHS, out_dir));
        if sessions.len() == 1 {
            peak_rss_mib = vm_hwm_mib();
        }
    }
    alloc::set_enabled(false);

    // The untraced sequential replay: the oracle the checks compare with,
    // and the baseline the traced replay's overhead is measured against.
    let untraced = replay::replay(workload, scale, seed, EPOCHS, None, traced);
    let session_failures: Vec<Vec<String>> = sessions
        .iter()
        .map(|s| checks::check_session(workload, scale, s, &untraced))
        .collect();
    let mut run_failures = checks::check_run(&sessions);

    let mut metrics = Metrics::default();
    let mut trace_file = None;
    if traced {
        // Traced and untraced replays alternate, so the overhead compares
        // medians taken under the same conditions. The first traced
        // replay's spans are the ones written out and attributed.
        let mut untraced_walls = vec![untraced.wall_s];
        let mut traced_walls = Vec::with_capacity(REPLAY_REPS);
        let mut first = None;
        timing::reset();
        for rep in 0..REPLAY_REPS {
            if rep > 0 {
                untraced_walls
                    .push(replay::replay(workload, scale, seed, EPOCHS, None, true).wall_s);
            }
            timing::set_enabled(true);
            let (replay, trace) = replay::traced(workload, scale, seed, EPOCHS);
            timing::set_enabled(false);
            run_failures.extend(check_trace(&untraced, &replay, &trace));
            traced_walls.push(replay.wall_s);
            first.get_or_insert((replay, trace));
        }
        let (traced_replay, trace) = first.expect("at least one traced replay");
        let path = out_dir.join(format!("trace-{}-{seed}.json", workload.name));
        match std::fs::write(&path, trace.chrome_json()) {
            Ok(()) => trace_file = Some(path),
            Err(e) => run_failures.push(format!("writing {}: {e}", path.display())),
        }
        per_layer(&mut metrics, workload, scale, seed, &sessions, &untraced);
        trace_metrics(&mut metrics, &traced_replay, &trace);
        let (traced_wall, untraced_wall) =
            (stats::median(&traced_walls), stats::median(&untraced_walls));
        metrics.set_median("trace.untraced_wall_s", untraced_walls);
        metrics.set(
            "trace.overhead",
            traced_wall / untraced_wall.max(1e-12) - 1.0,
        );
    } else {
        end_to_end(&mut metrics, &sessions, peak_rss_mib);
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    for name in metrics.missing(defs) {
        run_failures.push(format!("metric {name} was not measured"));
    }
    for name in metrics.non_finite() {
        run_failures.push(format!("metric {name} is not finite"));
    }

    let (attempted, failed) = checks::tally(&sessions, &session_failures, &run_failures);
    let mut failures: Vec<String> = session_failures
        .into_iter()
        .enumerate()
        .flat_map(|(i, f)| f.into_iter().map(move |m| format!("session {i}: {m}")))
        .collect();
    failures.extend(run_failures);
    let mut log: Vec<String> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let epochs: Vec<String> = s
                .epochs
                .iter()
                .map(|e| format!("{:.3}", e.epoch_s))
                .collect();
            format!(
                "session {i}: setup {:.3} s, session {:.3} s, steal {:.3}, epochs [{}] s",
                s.setup.total(),
                s.session_s,
                s.steal_share,
                epochs.join(", ")
            )
        })
        .collect();
    let raw_vps: Vec<f64> = warm(&sessions)
        .iter()
        .map(|e| e.targets as f64 / e.epoch_s.max(1e-12))
        .collect();
    log.push(format!(
        "wall-clock as measured (steal not removed): train_vps {:.1} vertices/s, session_s {:.4} s, setup_s {:.4} s; median steal share {:.3}",
        stats::median(&raw_vps),
        stats::median(&ok_sessions(&sessions).map(|s| s.session_s).collect::<Vec<_>>()),
        stats::median(&sessions.iter().map(|s| s.setup.total()).collect::<Vec<_>>()),
        stats::median(&sessions.iter().map(|s| s.steal_share).collect::<Vec<_>>()),
    ));
    let losses: Vec<String> = untraced.losses.iter().map(|l| format!("{l:.5}")).collect();
    log.push(format!("loss trajectory: [{}]", losses.join(", ")));
    RunResult {
        metrics,
        attempted,
        failed,
        failures,
        trace_file,
        log,
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ok_sessions(sessions: &[SessionRecord]) -> impl Iterator<Item = &SessionRecord> {
    sessions
        .iter()
        .filter(|s| s.error.is_none() && !s.epochs.is_empty())
}

/// Warm epochs (epoch 0 excluded) of every successful session.
fn warm(sessions: &[SessionRecord]) -> Vec<&EpochRecord> {
    ok_sessions(sessions)
        .flat_map(|s| s.epochs.iter().skip(1))
        .collect()
}

/// Host steal removed from a CPU-bound wall-clock: of a window during
/// which `share` of the runnable CPU time was stolen, `1 - share` would
/// have remained on an unshared machine.
fn unstolen(wall: f64, share: f64) -> f64 {
    wall * (1.0 - share)
}

/// Host steal removed from an epoch's training window: CPU-bound time
/// scales by `1 - share`, but the epoch never drops below the simulated
/// link's time — the transfer stage sleeps through it, and steal does not
/// stretch a sleep. A link-bound epoch is thus left (nearly) as measured.
fn unstolen_epoch(e: &EpochRecord, share: f64) -> f64 {
    unstolen(e.epoch_s, share).max(e.epoch_s.min(e.link_s))
}

/// Host steal removed from a whole session: epochs as
/// [`unstolen_epoch`], the rest (worker spawn and join, evaluation,
/// checkpoints) as CPU-bound.
fn unstolen_session(s: &SessionRecord) -> f64 {
    let epochs: f64 = s.epochs.iter().map(|e| e.epoch_s).sum();
    let kept: f64 = s
        .epochs
        .iter()
        .map(|e| unstolen_epoch(e, s.steal_share))
        .sum();
    kept + unstolen((s.session_s - epochs).max(0.0), s.steal_share)
}

fn end_to_end(m: &mut Metrics, sessions: &[SessionRecord], peak_rss_mib: f64) {
    // Per warm epoch: trained targets over its training window (eval and
    // checkpoint excluded); the median over every warm epoch of the run.
    let vps: Vec<f64> = ok_sessions(sessions)
        .flat_map(|s| {
            s.epochs[1..]
                .iter()
                .map(|e| e.targets as f64 / unstolen_epoch(e, s.steal_share).max(1e-12))
        })
        .collect();
    m.set_median("train_vps", vps);
    m.set_median(
        "session_s",
        ok_sessions(sessions).map(unstolen_session).collect(),
    );
    m.set_median(
        "setup_s",
        sessions
            .iter()
            .map(|s| unstolen(s.setup.total(), s.steal_share))
            .collect(),
    );
    let final_loss = ok_sessions(sessions)
        .next()
        .and_then(|s| s.epochs.last())
        .map_or(f64::NAN, |e| e.loss as f64);
    m.set("final_loss", final_loss);
    m.set("peak_rss_mib", peak_rss_mib);
}

/// `f` of every epoch in `epochs`: the samples a median is taken over.
fn each<'a>(epochs: &[&'a EpochRecord], f: impl Fn(&'a EpochRecord) -> f64) -> Vec<f64> {
    epochs.iter().map(|&e| f(e)).collect()
}

/// Median wall-clock of `reps` calls of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

fn per_layer(
    m: &mut Metrics,
    workload: &Workload,
    scale: Scale,
    seed: u64,
    sessions: &[SessionRecord],
    replay: &Replay,
) {
    let warm = warm(sessions);
    let first = ok_sessions(sessions).next();
    let replicas = workload.replicas();
    let dataset = workload.spec(scale, seed).build_full();
    let cfg = workload.trainer_config(scale, seed);

    // graph
    m.set_median(
        "graph.build_s",
        sessions.iter().map(|s| s.setup.build_s).collect(),
    );
    m.set(
        "graph.partition_s",
        if replicas > 1 {
            time_median(5, || {
                let p = hash_partition(dataset.csr.num_vertices(), replicas);
                std::hint::black_box(p.stats(&dataset.csr));
            })
        } else {
            0.0
        },
    );

    // sample
    m.set(
        "sample.presample_s",
        match workload.policy {
            ReusePolicy::HotnessAware { .. } => {
                let sampler = NeighborSampler::new(Fanout::paper_default(cfg.layers));
                let batches = BatchIterator::new(dataset.train.clone(), cfg.batch_size, seed);
                time_median(3, || {
                    std::hint::black_box(PreSampler::new(1).estimate(
                        &dataset.csr,
                        &sampler,
                        &batches,
                        seed,
                    ));
                })
            }
            _ => 0.0,
        },
    );
    m.set_median("sample.busy_s", each(&warm, |e| e.sample_s));
    m.set(
        "sample.src_rows",
        replay.src_rows.iter().sum::<u64>() as f64,
    );
    m.set(
        "sample.remote_picks",
        replay.remote_picks.iter().sum::<u64>() as f64,
    );

    // core.gather + feature cache
    m.set_median("core.gather.busy_s", each(&warm, |e| e.gather_s));
    m.set_median("core.gather.transfer_busy_s", each(&warm, |e| e.transfer_s));
    m.set_median(
        "core.gather.h2d_mib",
        each(&warm, |e| e.h2d_bytes as f64 / MIB),
    );
    m.set_median(
        "cache.hit_ratio",
        each(&warm, |e| {
            e.cache_hits as f64 / (e.cache_hits + e.cache_misses).max(1) as f64
        }),
    );
    m.set_median("cache.vertices", each(&warm, |e| e.cache_vertices as f64));

    // core.engine
    m.set_median("core.engine.train_busy_s", each(&warm, |e| e.train_s));
    m.set_median("core.engine.train_wait_s", each(&warm, |e| e.train_wait_s));
    m.set_median(
        "core.engine.train_occupancy",
        each(&warm, |e| e.train_s / e.epoch_s.max(1e-12)),
    );
    m.set_median(
        "core.engine.startup_s",
        ok_sessions(sessions).map(|s| s.startup_s).collect(),
    );

    // core.refresh + embedding store
    m.set_median("core.refresh.busy_s", each(&warm, |e| e.refresh_s));
    m.set(
        "core.refresh.rows",
        replay.refresh_rows.iter().sum::<u64>() as f64,
    );
    m.set_median(
        "core.refresh.cpu_fraction",
        each(&warm, |e| e.refresh_cpu_fraction),
    );
    m.set(
        "cache.store.reuses",
        first.map_or(0.0, |s| s.store_reuses as f64),
    );
    m.set(
        "cache.store.max_gap",
        first.map_or(0.0, |s| {
            s.epochs.iter().map(|e| e.max_gap).max().unwrap_or(0) as f64
        }),
    );

    // core.trainer + nn (step and layer times come from the trace)
    m.set("nn.flops_per_step", replay.flops_per_step);
    m.set_median("core.trainer.eval_s", each(&warm, |e| e.eval_s));

    // tensor: kernel seconds per traced replay, allocations per warm
    // epoch of the (counting) engine sessions
    let kernels = timing::snapshot();
    for (name, stat) in kernels.iter() {
        m.set(
            metrics::registered(&format!("tensor.{name}_s")),
            stat.seconds() / REPLAY_REPS as f64,
        );
    }
    for stage in alloc::STAGES {
        m.set_median(
            metrics::registered(&format!("tensor.allocs.{}", stage.name())),
            each(&warm, |e| e.allocs.get(stage).allocs as f64),
        );
    }

    // core.checkpoint
    let written: Vec<&EpochRecord> = warm
        .iter()
        .copied()
        .filter(|e| e.checkpoint_bytes > 0)
        .collect();
    m.set_median(
        "core.checkpoint.write_s",
        each(&written, |e| e.checkpoint_s),
    );
    m.set(
        "core.checkpoint.bytes",
        written.first().map_or(0.0, |e| e.checkpoint_bytes as f64),
    );

    // core.replica + nn::allreduce + hetero::interconnect
    let busy = |r: usize| {
        each(&warm, move |e| {
            e.replica_busy_s.get(r).copied().unwrap_or(0.0)
        })
    };
    m.set_median("core.replica.busy_s.r0", busy(0));
    m.set_median("core.replica.busy_s.r1", busy(1));
    m.set_median(
        "core.replica.skew",
        each(&warm, |e| {
            let max = e.replica_busy_s.iter().copied().fold(0.0, f64::max);
            let min = e
                .replica_busy_s
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            if min > 0.0 && min.is_finite() {
                max / min
            } else {
                0.0
            }
        }),
    );
    m.set_median(
        "core.replica.remote_mib",
        each(&warm, |e| e.remote_bytes as f64 / MIB),
    );
    m.set(
        "nn.allreduce.bytes",
        warm.first().map_or(0.0, |e| e.allreduce_bytes as f64),
    );
    m.set(
        "nn.allreduce.tree_ms",
        if replicas > 1 {
            let model = GnnModel::new(ModelConfig {
                kind: LayerKind::Gcn,
                feature_dim: dataset.spec.feature_dim,
                hidden_dim: dataset.spec.hidden_dim,
                num_classes: dataset.spec.num_classes,
                layers: cfg.layers,
                seed,
            });
            let grads = model.snapshot();
            1e3 * time_median(51, || {
                let groups = (0..replicas).map(|_| grads.clone()).collect();
                std::hint::black_box(neutron_nn::tree_average(groups));
            })
        } else {
            0.0
        },
    );
    m.set_median(
        "hetero.interconnect.sim_s",
        each(&warm, |e| e.interconnect_s),
    );
}

/// The traced replay must train exactly what the untraced one trained,
/// and its self times must account for its wall-clock.
fn check_trace(untraced: &Replay, traced: &Replay, trace: &Trace) -> Vec<String> {
    let mut bad = Vec::new();
    let bits = |r: &Replay| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    if bits(untraced) != bits(traced) {
        bad.push("the traced replay's losses differ from the untraced replay's".into());
    }
    let self_sum: f64 = trace.self_seconds().iter().map(|(_, s)| s).sum();
    let unattributed = traced.wall_s - trace.root_seconds();
    if unattributed < -1e-6
        || (self_sum + unattributed - traced.wall_s).abs() > 1e-6 * traced.wall_s.max(1.0)
    {
        bad.push(format!(
            "self times {self_sum} s + remainder {unattributed} s do not sum to the traced wall {} s",
            traced.wall_s
        ));
    }
    bad
}

fn trace_metrics(m: &mut Metrics, traced: &Replay, trace: &Trace) {
    m.set_median("sample.batch_ms_p50", trace.durations_ms("sample", None));
    m.set_median(
        "core.refresh.task_ms_p50",
        trace.durations_ms("refresh", None),
    );
    let steps = trace.durations_ms("train", None);
    m.set_median("core.trainer.step_ms_p50", steps.clone());
    m.set("core.trainer.step_ms_p90", stats::percentile(&steps, 0.9));
    m.set_median("nn.fwd_ms.l0", trace.durations_ms("fwd", Some(0)));
    m.set_median("nn.fwd_ms.l1", trace.durations_ms("fwd", Some(1)));
    m.set_median("nn.bwd_ms.l0", trace.durations_ms("bwd", Some(0)));
    m.set_median("nn.bwd_ms.l1", trace.durations_ms("bwd", Some(1)));
    m.set_median("nn.optim_ms", trace.durations_ms("optim", None));
    let selfs = trace.self_seconds();
    for name in [
        "epoch", "sample", "gather", "train", "refresh", "probe", "fwd", "loss", "bwd", "optim",
    ] {
        let s = selfs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s);
        m.set(metrics::registered(&format!("trace.self_s.{name}")), s);
    }
    m.set("trace.unattributed_s", traced.wall_s - trace.root_seconds());
    m.set("trace.wall_s", traced.wall_s);
    m.set("trace.spans", trace.spans().len() as f64);
}
