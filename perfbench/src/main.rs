//! The training system's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload orch-hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` seconds of untraced engine sessions,
//! checks every session against the sequential replay, and prints its
//! metrics by name with their units. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics and writes a Chrome
//! trace-event file of the traced replay. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metric tables.

mod checks;
mod fingerprint;
mod host;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use neutron_tensor::alloc::CountingAllocator;

use crate::fingerprint::Fingerprint;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Scale;

// Counts allocations per stage for the traced run's `tensor.allocs.*`;
// counting is switched off (one relaxed load per allocation) otherwise.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?}; known: {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir: PathBuf = package.join("out");
    let root = package.parent().unwrap_or(package);

    let fp = Fingerprint::collect(&workload, args.seed, root);
    println!("workload {}: {}", workload.name, workload.why);
    println!("fingerprint: {}", fp.json());
    let result = run::run(
        &workload,
        Scale::Bench,
        args.seed,
        args.seconds,
        args.trace,
        &out_dir,
    );
    for line in &result.log {
        println!("{line}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", result.metrics.table(defs));
    if let Some(path) = &result.trace_file {
        println!("trace: {}", path.display());
    }
    for f in &result.failures {
        println!("check failed: {f}");
    }
    println!(
        "steps: {} attempted, {} failed",
        result.attempted, result.failed
    );
    println!(
        "{}",
        metrics::result_line(
            result.failures.is_empty(),
            result.attempted,
            result.failed,
            &result.metrics.json_object(defs)
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::json::{self, Value};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line_parses_and_rejects_bad_input() {
        assert_eq!(
            parse_args(&args("--workload orch-hot --seed 7 --seconds 10 --trace 1")),
            Ok(Args {
                workload: "orch-hot".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        for bad in [
            "--workload orch-hot --seed x --seconds 1",
            "--workload orch-hot --seed 1 --seconds -1",
            "--workload orch-hot --seed 1 --seconds 1 --trace 2",
            "--workload orch-hot --seconds 1",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }

    fn tiny_run(name: &str, seed: u64, traced: bool) -> run::RunResult {
        let w = workloads::by_name(name).unwrap();
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test");
        run::run(&w, Scale::Tiny, seed, 0.0, traced, &out)
    }

    /// Every declared metric is emitted with its unit, the result line is
    /// the promised JSON object, and the unmodified program passes every
    /// check.
    fn assert_complete(result: &run::RunResult, traced: bool) {
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert!(result.attempted > 0);
        assert_eq!(result.failed, 0);
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let line =
            metrics::result_line(true, result.attempted, 0, &result.metrics.json_object(defs));
        let Value::Obj(top) = json::parse(&line).expect("result line is JSON") else {
            panic!("result line must be an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Obj(emitted) = &top[3].1 else {
            panic!("metrics must be an object");
        };
        assert_eq!(emitted.len(), defs.len());
        for (d, (name, v)) in defs.iter().zip(emitted) {
            assert_eq!(name, d.name);
            assert_eq!(v.get("unit"), Some(&Value::Str(d.unit.into())), "{name}");
            assert!(
                matches!(v.get("value"), Some(Value::Num(x)) if x.is_finite()),
                "{name}"
            );
        }
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
        for (i, w) in workloads::all().iter().enumerate() {
            let result = tiny_run(w.name, 100 + i as u64, false);
            assert_complete(&result, false);
            let value = |n: &str| result.metrics.get(n).unwrap().value;
            assert!(value("train_vps") > 0.0 && value("session_s") > 0.0 && value("setup_s") > 0.0);
            assert!(value("final_loss") > 0.0 && value("peak_rss_mib") > 0.0);
        }
    }

    #[test]
    fn every_workload_emits_every_per_layer_metric_and_a_parseable_trace() {
        for (i, w) in workloads::all().iter().enumerate() {
            let result = tiny_run(w.name, 200 + i as u64, true);
            assert_complete(&result, true);
            let path = result
                .trace_file
                .as_ref()
                .expect("traced run writes a trace");
            let text = std::fs::read_to_string(path).unwrap();
            let trace = json::parse(&text).expect("trace file is JSON");
            let Some(Value::Arr(events)) = trace.get("traceEvents") else {
                panic!("trace-event JSON needs a traceEvents array");
            };
            assert_eq!(
                events.len() as f64,
                result.metrics.get("trace.spans").unwrap().value
            );
            for e in events {
                assert_eq!(e.get("ph"), Some(&Value::Str("X".into())));
                assert!(matches!(e.get("ts"), Some(Value::Num(_))));
                assert!(matches!(e.get("dur"), Some(Value::Num(d)) if *d >= 0.0));
            }
            let _ = std::fs::remove_file(path);
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match spec.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("{key} must be an array"),
        };
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("{key} must be a string"),
        };
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let want: Vec<String> = workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, want);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (v, d) in declared.iter().zip(defs) {
                assert_eq!(text_of(v, "name"), d.name);
                assert_eq!(text_of(v, "unit"), d.unit, "{}", d.name);
                assert_eq!(text_of(v, "better"), d.better, "{}", d.name);
            }
        }
        assert!(list("end_to_end")
            .iter()
            .any(|v| text_of(v, "name") == "setup_s"));
    }
}
